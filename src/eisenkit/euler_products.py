"""Partial L-functions as Euler products over abstract Satake data.

A place contributes det(I - rho(t_v) q_v^(-s))^(-1).  Only the spectrum of
the semisimple class enters, so a place is q_v and the eigenvalues of rho(t_v):
``LFunctionData((PlaceDatum(2, (l1, l2)), PlaceDatum(3, (l1, l2)), ...))`` is
what ``read_place_data`` builds from a file.  Products are truncated
at a prime-power cutoff with an explicit convergence-abscissa check (Euler
products diverge gracefully and misleadingly, so a thin margin warns and a
nonpositive margin refuses).

The constant-term ratio prod_j L(js) / L(1 + js) over levels j = 1..m is
built on top: level j takes argument js.  Archimedean and ramified local
factors are out of numeric scope.  For SL2 (one level) the ratio at 2s - 1
times sqrt(pi) Gamma(s - 1/2) / Gamma(s) is the Eisenstein constant-term
coefficient; the acceptance suite checks it against
``eisenstein.scattering_ratio`` within the products' tail estimates.
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
class PlaceDatum:
    """One unramified place: residue cardinality q (a prime power) and the
    eigenvalue multiset of rho(t_v), all finite and nonzero."""

    q: int
    eigenvalues: tuple[complex, ...]

    def __post_init__(self):
        eigenvalues = tuple(finite_complex(e, "Satake class") for e in self.eigenvalues)
        if not eigenvalues:
            raise DomainError("a Satake class needs at least one eigenvalue")
        if any(e == 0 for e in eigenvalues):
            raise DomainError("Satake eigenvalues must be nonzero")
        q = integer(self.q, "q")
        if q < 2 or len(factorize(q)) != 1:
            raise DomainError(f"q must be a prime power >= 2, got {self.q}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "eigenvalues", eigenvalues)


@dataclass(frozen=True)
class LFunctionData:
    """Ordered place data for one partial L-function L_S(s, pi, rho).

    Places are kept sorted by q ascending with one datum per q, and every
    place must have the same number of eigenvalues (one fixed rho).
    """

    places: tuple[PlaceDatum, ...]

    def __post_init__(self):
        if not all(isinstance(p, PlaceDatum) for p in self.places):
            raise DomainError("each place must be a PlaceDatum")
        places = tuple(sorted(self.places, key=lambda p: p.q))
        object.__setattr__(self, "places", places)
        qs = [p.q for p in places]
        if len(set(qs)) != len(qs):
            dup = sorted({q for q in qs if qs.count(q) > 1})
            raise DomainError(f"duplicate place(s) q = {dup}")
        dims = {len(p.eigenvalues) for p in places}
        if len(dims) > 1:
            raise DomainError(f"inconsistent Satake dimensions {sorted(dims)}")

    def convergence_abscissa(self) -> float:
        """Smallest sigma0 = 1 + max log|lambda| / log q with documented
        convergence for Re(s) > sigma0."""
        if not self.places:
            return 1.0
        return 1.0 + max(
            max(math.log(abs(e)) for e in p.eigenvalues) / math.log(p.q) for p in self.places
        )


def trivial_zeta_data(limit: int) -> LFunctionData:
    """All-ones one-dimensional Satake data at every prime < limit; its Euler
    product is the truncated zeta."""
    primes = primes_up_to(integer(limit, "limit") - 1)
    return LFunctionData(tuple(PlaceDatum(p, (1.0 + 0.0j,)) for p in primes))


def local_factor(place: PlaceDatum, s: complex) -> complex:
    """det(I - rho(t_v) q^(-s))^(-1) = prod_lambda (1 - lambda q^(-s))^(-1).

    DomainError for a non-finite s.
    """
    s = finite_complex(s, "Euler product")
    q_pow = complex(place.q) ** (-s)
    denominator = 1.0 + 0.0j
    for lam in place.eigenvalues:
        factor = 1.0 - lam * q_pow
        if abs(factor) <= _FACTOR_EXCLUSION:
            raise PoleError(
                f"local factor at q = {place.q} vanishes: eigenvalue {lam}, s = {s}"
            )
        denominator *= factor
    return 1.0 / denominator


class LProductValue(NamedTuple):
    """Truncated Euler product, or ratio of products, with a bound on |log|
    of its error (_tail_estimate)."""

    value: complex
    tail_bound: float
    margin: float
    factor_count: int


def _tail_estimate(data: LFunctionData, abscissa: float, s: complex, max_q: int, count: int) -> float:
    """A bound on |log L(s) - log of the product computed| for the places
    of q <= max_q, count of them multiplied.

    Every |lambda q^(-s)| is at most q^(-a), a = Re s - abscissa + 1 > 1,
    and |log(1 - z)| <= |z| / (1 - |z|), so the omitted places add at most
    dim sum_(q > Q) q^(-a) / (1 - Q^(-a)) to the log, q over the prime
    powers.  By partial summation with pi(x) < 1.25506 x / ln x (Rosser &
    Schoenfeld, Illinois J. Math. 6, 1962, Cor. 1), the primes give
    sum_(p > Q) p^(-a) <= 1.25506 a Q^(1 - a) / ((a - 1) ln Q).  The powers
    p^f > Q, f >= 2, are bounded over every integer n >= 2 in place of p:
    from the least n = N_f with n^f > Q, sum n^(-f a) <= N_f^(-f a) +
    N_f^(1 - f a) / (f a - 1) by the integral test, and once 2^f > Q every
    n counts, so the f from there on, F and past, add at most
    2^(-F a) (1 + 2 / (F a - 1)) / (1 - 2^(-a)), a geometric tail.
    A place costs dim powers, dim products and dim differences, a
    reciprocal and one product into the value: 3 dim + 2 complex operations,
    charged sqrt(5) u each, the bound of a complex product (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.6; Brent, Percival &
    Zimmermann, Math. Comp. 76, 2007), give the rounding to first order."""
    if not data.places:
        return 0.0
    dim = len(data.places[0].eigenvalues)
    a = complex(s).real - abscissa + 1.0
    q = max(max_q, 2)
    omitted = 1.25506 * a * q ** (1.0 - a) / ((a - 1.0) * math.log(q))
    if max_q < 2:
        omitted += 2.0**-a
    f = 2
    while 2**f <= q:
        n = max(2, int(q ** (1.0 / f)))
        while n**f > q:
            n -= 1
        while n**f <= q:
            n += 1
        omitted += n ** -(f * a) + n ** (1.0 - f * a) / (f * a - 1.0)
        f += 1
    omitted += 2.0 ** -(f * a) * (1.0 + 2.0 / (f * a - 1.0)) / (1.0 - 2.0**-a)
    return dim * omitted / (1.0 - q**-a) + count * (3 * dim + 2) * math.sqrt(5.0) * 2.0**-53


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
    return LProductValue(value, _tail_estimate(data, abscissa, s, max_q, count), margin, count)


def constant_term_ratio(levels: tuple[LFunctionData, ...], s: complex, max_q: int) -> LProductValue:
    """prod_j L(js) / L(1 + js) over the graded levels j = 1..m.

    ``levels[j - 1]`` is the LFunctionData of level j; 1 to 8 levels, else
    DomainError.  The tail bound is the sum of the 2m products' tail bounds,
    the margin the smallest of their margins and the factor count their
    total.  Errors from a constituent product are re-raised with the
    offending level attached.
    """
    if not 1 <= len(levels) <= 8:
        raise DomainError(f"need 1 <= m <= 8 levels, got {len(levels)}")
    if not all(isinstance(data, LFunctionData) for data in levels):
        raise DomainError("each level must be an LFunctionData")
    s = complex(s)
    value, tail, margin, count = 1.0 + 0.0j, 0.0, math.inf, 0
    for j, data in enumerate(levels, start=1):
        try:
            numerator = partial_l(data, j * s, max_q)
            denominator = partial_l(data, 1.0 + j * s, max_q)
        except (PoleError, DivergenceError) as exc:
            raise type(exc)(f"level j = {j}: {exc}") from exc
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
            places.append(PlaceDatum(q, eigenvalues))
        except DomainError as exc:
            raise PlaceDataError(str(exc), lineno) from None
    try:
        return LFunctionData(tuple(places))
    except DomainError as exc:
        raise PlaceDataError(str(exc)) from None
