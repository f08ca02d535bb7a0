"""Partial L-functions as Euler products over abstract Satake data.

A place contributes det(I - rho(t_v) q_v^(-s))^(-1); since only the spectrum
of the semisimple class enters, Satake data is carried as an eigenvalue
multiset rather than any group-element realization.  Products are truncated
at a prime-power cutoff with an explicit convergence-abscissa check (Euler
products diverge gracefully and misleadingly, so a thin margin warns and a
nonpositive margin refuses).

The constant-term ratio prod_j L(a_j s) / L(1 + a_j s) is built on top.
Archimedean and ramified local factors are out of numeric scope.  For SL2
(a = (1,)) the ratio at 2s - 1 times sqrt(pi) Gamma(s - 1/2) / Gamma(s) is
the Eisenstein constant-term coefficient; the acceptance suite checks it
against ``eisenstein.scattering_ratio`` within the products' tail estimates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from ._arith import factorize, primes_up_to
from .errors import ConvergenceWarning, DivergenceError, DomainError, PlaceDataError
from .errors import PoleError, finite_complex, integer

_FACTOR_EXCLUSION = 1e-12
_THIN_MARGIN = 0.1


@dataclass(frozen=True)
class SatakeClass:
    """Eigenvalue multiset of rho(t_v); all eigenvalues finite and nonzero."""

    eigenvalues: tuple[complex, ...]

    def __post_init__(self):
        if not self.eigenvalues:
            raise DomainError("a Satake class needs at least one eigenvalue")
        eigenvalues = tuple(finite_complex(e, "Satake class") for e in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        if any(e == 0 for e in self.eigenvalues):
            raise DomainError("Satake eigenvalues must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def max_log_abs(self) -> float:
        return max(math.log(abs(e)) for e in self.eigenvalues)


@dataclass(frozen=True)
class PlaceDatum:
    """One unramified place: residue cardinality q (a prime power) plus its
    Satake class."""

    q: int
    satake: SatakeClass

    def __post_init__(self):
        q = integer(self.q, "q")
        if q < 2 or len(factorize(q)) != 1:
            raise DomainError(f"q must be a prime power >= 2, got {self.q}")


@dataclass(frozen=True)
class LFunctionData:
    """Ordered place data for one partial L-function L_S(s, pi, rho).

    Places are kept sorted by q ascending with one datum per q, and every
    Satake class must have the same dimension (one fixed rho).
    """

    places: tuple[PlaceDatum, ...]

    def __post_init__(self):
        places = tuple(sorted(self.places, key=lambda p: p.q))
        object.__setattr__(self, "places", places)
        qs = [p.q for p in places]
        if len(set(qs)) != len(qs):
            dup = sorted({q for q in qs if qs.count(q) > 1})
            raise DomainError(f"duplicate place(s) q = {dup}")
        dims = {p.satake.dim for p in places}
        if len(dims) > 1:
            raise DomainError(f"inconsistent Satake dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.places[0].satake.dim if self.places else 0

    def convergence_abscissa(self) -> float:
        """Smallest sigma0 = 1 + max log|lambda| / log q with documented
        convergence for Re(s) > sigma0."""
        if not self.places:
            return 1.0
        return 1.0 + max(p.satake.max_log_abs() / math.log(p.q) for p in self.places)


@dataclass(frozen=True)
class RatioSpec:
    """Graded levels (a_j, L-data) feeding the constant-term ratio product."""

    levels: tuple[tuple[int, LFunctionData], ...]

    def __post_init__(self):
        m = len(self.levels)
        if not 1 <= m <= 8:
            raise DomainError(f"need 1 <= m <= 8 levels, got {m}")
        for level in self.levels:
            if not (isinstance(level, (tuple, list)) and len(level) == 2 and isinstance(level[1], LFunctionData)):
                raise DomainError("each level must be an (a_j, LFunctionData) pair")
        a_values = [integer(a, "level integer a_j") for a, _ in self.levels]
        if any(a < 1 for a in a_values):
            raise DomainError("level integers a_j must be positive")
        if any(b <= a for a, b in zip(a_values, a_values[1:])):
            raise DomainError(f"a_j must be strictly increasing, got {a_values}")


def trivial_zeta_data(limit: int) -> LFunctionData:
    """All-ones one-dimensional Satake data at every prime < limit; its Euler
    product is the truncated zeta."""
    one = SatakeClass((1.0 + 0.0j,))
    places = tuple(PlaceDatum(p, one) for p in primes_up_to(integer(limit, "limit") - 1))
    return LFunctionData(places)


def local_factor(place: PlaceDatum, s: complex) -> complex:
    """det(I - rho(t_v) q^(-s))^(-1) = prod_lambda (1 - lambda q^(-s))^(-1).

    DomainError for a non-finite s.
    """
    s = finite_complex(s, "Euler product")
    q_pow = complex(place.q) ** (-s)
    denominator = 1.0 + 0.0j
    for lam in place.satake.eigenvalues:
        factor = 1.0 - lam * q_pow
        if abs(factor) <= _FACTOR_EXCLUSION:
            raise PoleError(
                f"local factor at q = {place.q} vanishes: eigenvalue {lam}, s = {s}"
            )
        denominator *= factor
    return 1.0 / denominator


class LProductValue(NamedTuple):
    """Truncated Euler product, or ratio of products, with its multiplicative
    tail estimate."""

    value: complex
    tail_bound: float
    margin: float
    factor_count: int


def _tail_estimate(data: LFunctionData, abscissa: float, s: complex, max_q: int) -> float:
    # |log L_full/L_truncated| <~ dim * sum_{p > Q} p^(theta - sigma), bounded
    # by the prime-counting integral Q^(1 + theta - sigma)/((sigma - theta - 1) ln Q)
    if not data.places:
        return 0.0
    theta = abscissa - 1.0
    sigma = complex(s).real
    gap = sigma - theta - 1.0
    q = max(max_q, 2)
    return data.dim * q ** (-gap) / (gap * math.log(q)) * 2.0


def partial_l(data: LFunctionData, s: complex, max_q: int) -> LProductValue:
    """Euler product over the places of ``data`` with q <= max_q.

    Factors multiply left to right in ascending q (fixed reduction order, so
    serial evaluation is bit-reproducible).  DivergenceError outside the
    documented abscissa; ConvergenceWarning when the margin is below 0.1;
    DomainError for a non-finite s.
    """
    s = finite_complex(s, "Euler product")
    max_q = integer(max_q, "max_q")
    abscissa = data.convergence_abscissa()
    margin = s.real - abscissa
    if margin <= 0.0:
        raise DivergenceError(f"Euler product needs Re(s) > {abscissa:.6g}, got {s.real:.6g}")
    if margin < _THIN_MARGIN:
        warnings.warn(
            f"Euler product margin {margin:.3g} below {_THIN_MARGIN}; "
            "truncation converges slowly",
            ConvergenceWarning,
            stacklevel=2,
        )
    value = 1.0 + 0.0j
    count = 0
    for place in data.places:
        if place.q > max_q:
            break
        value *= local_factor(place, s)
        count += 1
    return LProductValue(value, _tail_estimate(data, abscissa, s, max_q), margin, count)


def constant_term_ratio(spec: RatioSpec, s: complex, max_q: int) -> LProductValue:
    """prod_j L(a_j s) / L(1 + a_j s) over the spec's graded levels.

    The tail bound is the sum of the 2m products' tail bounds, the margin
    the smallest of their margins and the factor count their total.  Errors
    from a constituent product are re-raised with the offending level index
    attached.
    """
    s = complex(s)
    value, tail, margin, count = 1.0 + 0.0j, 0.0, math.inf, 0
    for j, (a, data) in enumerate(spec.levels, start=1):
        try:
            numerator = partial_l(data, a * s, max_q)
            denominator = partial_l(data, 1.0 + a * s, max_q)
        except (PoleError, DivergenceError) as exc:
            raise type(exc)(f"level j = {j} (a_j = {a}): {exc}") from exc
        value *= numerator.value / denominator.value
        tail += numerator.tail_bound + denominator.tail_bound
        margin = min(margin, numerator.margin, denominator.margin)
        count += numerator.factor_count + denominator.factor_count
    return LProductValue(value, tail, margin, count)


def read_place_data(lines) -> LFunctionData:
    """Parse the line-oriented place format: ``q re im re im ...`` per place,
    ``#`` starting a comment, blank lines skipped.

    ``lines`` may be a path, an open file, or an iterable of strings.  Raises
    PlaceDataError carrying the 1-based offending line number.
    """
    if isinstance(lines, (str, bytes)):
        with open(lines, "r", encoding="utf-8") as handle:
            return read_place_data(handle)
    places = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        try:
            q = int(fields[0])
        except ValueError:
            raise PlaceDataError(f"bad residue cardinality {fields[0]!r}", lineno) from None
        rest = fields[1:]
        if not rest or len(rest) % 2 != 0:
            raise PlaceDataError(
                f"expected an even, positive number of eigenvalue components, got {len(rest)}",
                lineno,
            )
        try:
            comps = [float(tok) for tok in rest]
        except ValueError as exc:
            raise PlaceDataError(str(exc), lineno) from None
        eigenvalues = tuple(
            complex(re_part, im_part) for re_part, im_part in zip(comps[::2], comps[1::2])
        )
        try:
            places.append(PlaceDatum(q, SatakeClass(eigenvalues)))
        except DomainError as exc:
            raise PlaceDataError(str(exc), lineno) from None
    try:
        return LFunctionData(tuple(places))
    except DomainError as exc:
        raise PlaceDataError(str(exc)) from None
