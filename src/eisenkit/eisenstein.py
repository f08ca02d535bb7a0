"""Real-analytic Eisenstein series on the upper half-plane.

Two independent evaluators are provided and cross-checked in the tests:

* ``eval_lattice_sum``: the defining sum over coprime integer pairs, folded
  along (m, n) -> (-m, -n) so that the constant term is y^s + c(s) y^(1-s)
  (the literal unfolded sum double-counts every pair and would carry 2 y^s),
* ``eval_fourier``: the Fourier-mode expansion a_0 + sum a_n e^(2 pi i n x)
  whose coefficients mix power-divisor sums, the K-Bessel function, and the
  completed zeta; it converges for every s in the strip and provides the
  analytic continuation of the lattice sum.

The expansion's constant term carries the scattering ratio
c(s) = xi(2s-1)/xi(2s), which implements E(z, s) = c(s) E(z, 1-s); both that
identity and its first-Fourier-mode reduction to the xi reflection are
exposed as numeric defect checks.

Both evaluators use the full SL2(Z) invariance of E: they pull z back into
the fundamental domain |x| <= 1/2, |z| >= 1 (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 7.4.2) before summing.  There
y >= sqrt(3)/2, so every Fourier mode decays at least like e^(-5.44 n) and
30 modes meet the accuracy target for any z, however close to the real
axis; and every lattice term at max-norm radius r is at most
y^sigma (r^2/4)^(-sigma), sigma = Re s, so the lattice tail bound no longer
blows up as y -> 0.

The parts of the expansion that depend on s alone are computed once per s:
a memo keeps xi at its last four arguments (so xi(2s) and xi(2s - 1) for
the functional equation's s and 1 - s), another the divisor factors
n^(s-1/2) sigma_(1-2s)(n) of the 30 modes for the last two s.  So a
sweep over z at one s computes them once, and a one-shot call pays only for
what it returns: scattering_ratio builds no divisor table, and
fourier_coefficient with n != 0 needs xi(2s) alone.  A kept value is the one
a fresh call computes, so every result is the same bit for bit; a
computation that raises keeps nothing.  The memos are keyed on s itself, and
s enters with -0.0 parts made +0.0, so 2.5-0j shares the entries of 2.5.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from . import _kernels
from ._arith import primes_up_to
from .errors import AccuracyError, DivergenceError, DomainError, PoleError, finite_complex, integer
from .special_functions import TARGET_ABS_ERROR, bessel_k, sigma_power, xi_completed

#: Parameter values where the expansion's xi factors hit poles.
POLE_POINTS = (0.0, 0.5, 1.0)

_TWO_PI = 2.0 * math.pi
# modes eval_fourier sums.  At the pulled-back y' >= sqrt(3)/2 mode 30 has
# K-Bessel argument 2 pi 30 y' >= 163, past the turning point |nu| <= 100 of
# every order nu = s - 1/2 that bessel_k accepts, where the modes fall
# monotonically (DLMF 10.45; Olver, Asymptotics and Special Functions, ch. 10)
_MODES = 30
_NODE_BOUND = 4096  # most x-nodes extract_coefficient_by_quadrature samples
_PULLBACK_STEPS = 10_000  # far above the O(log 1/y) steps of any double-precision z
_POLE_RADIUS = 1e-6  # s this close to a pole point raises PoleError


@dataclass(frozen=True)
class TruncationPolicy:
    """Truncation radius of the lattice sum, the one setting of the evaluators.

    The radius is an integer in 10.._kernels.MAX_RADIUS (2000), the reach of
    the kernels' table of coprime pairs, which keeps one int16 entry (r, k)
    per four pairs (about 4.9 MB when full): a sum's cost grows as radius^2
    while its tail shrinks only as radius^(2 - 2 Re s).  The Fourier mode
    count and the extraction's node count follow from bounds on a_n instead.
    """

    lattice_radius: int = 1000

    def __post_init__(self):
        radius = integer(self.lattice_radius, "lattice_radius")
        if not 10 <= radius <= _kernels.MAX_RADIUS:
            raise DomainError(f"lattice_radius must be in 10..{_kernels.MAX_RADIUS}, got {radius}")


DEFAULT_TRUNCATION = TruncationPolicy()


class SeriesValue(NamedTuple):
    """Evaluation result together with its truncation-tail bound."""

    value: complex
    tail_bound: float


def _point(z) -> tuple[float, float]:
    """(x, y) of z; DomainError unless z is finite with y > 0."""
    z = finite_complex(z, "half-plane point")
    if not z.imag > 0.0:
        raise DomainError(f"upper half-plane needs y > 0, got y = {z.imag}")
    return z.real, z.imag


def _require_off_poles(s, what: str) -> complex:
    s = finite_complex(s, "spectral parameter") + 0j  # -0.0 parts become +0.0
    if min(abs(s - p) for p in POLE_POINTS) <= _POLE_RADIUS:
        raise PoleError(
            f"{what}: s = {s} is within {_POLE_RADIUS} of a pole (pole points {POLE_POINTS})"
        )
    return s


def _pullback(x: float, y: float) -> tuple[float, float]:
    """SL2(Z) image of x + i y in the fundamental domain |x| <= 1/2, |z| >= 1.

    Repeats: translate by the nearest integer; if |z| < 1, invert (Cohen,
    Alg. 7.4.2).  The steps update only the integer matrix (a, b; c, d), and
    z' = (a z + b)/(c z + d) is read off the original z in exact rational
    arithmetic (z = (X + i Y)/D with integers from the binary doubles).  So
    no rounding builds up over the steps, every translate or invert decision
    is exact, and the result is z' correctly rounded.
    """
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    den = max(xd, yd)  # both are powers of two
    big_x, big_y = xn * (den // xd), yn * (den // yd)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_PULLBACK_STEPS):
        # z' = (p + i a Y) / (q + i c Y), with p = a X + b D and q = c X + d D
        p, q = a * big_x + b * den, c * big_x + d * den
        norm = q * q + (c * big_y) ** 2  # D^2 |c z + d|^2
        re_num = p * q + a * c * big_y * big_y  # Re z' = re_num / norm
        k = (2 * re_num + norm) // (2 * norm)  # nearest integer, halves up
        a, b, p, re_num = a - k * c, b - k * d, p - k * q, re_num - k * norm
        if p * p + (a * big_y) ** 2 >= norm:  # |z'| >= 1
            return re_num / norm, big_y * den / norm
        a, b, c, d = -c, -d, a, b
    raise AccuracyError(f"SL2(Z) pullback of {x}+{y}i did not finish in {_PULLBACK_STEPS} steps")


def _cpow(base: float, expo: complex) -> complex:
    # principal power of a positive real base
    return cmath.exp(expo * math.log(base))


def _lattice_tail_bound(y: float, sigma: float, radius: int) -> float:
    # compare with the integral of r^(1-2 sigma): terms at max-norm radius r
    # number ~ 8r and, for a pulled-back z (|x| <= 1/2, y >= sqrt(3)/2), are
    # bounded by y^sigma (r^2 / 4)^(-sigma)
    return 8.0 * (4.0 * y) ** sigma * radius ** (2.0 - 2.0 * sigma) / (2.0 * sigma - 2.0)


def eval_lattice_sum(z, s, policy: TruncationPolicy = DEFAULT_TRUNCATION) -> SeriesValue:
    """Partial coprime lattice sum over max(|m|, |n|) <= lattice_radius.

    Pulls z back under SL2(Z) first, as eval_fourier does, and sums at the
    image.  Only converges for Re(s) > 1 (DivergenceError otherwise).  The
    returned tail bound is O(radius^(2 - 2 Re s)), by comparison with the
    integral of r^(1 - 2 Re s).
    """
    x, y = _pullback(*_point(z))
    s = finite_complex(s, "spectral parameter")
    if s.real <= 1.0:
        raise DivergenceError(f"lattice sum diverges for Re(s) <= 1, got {s}")
    raw = _kernels.lattice_sum(x, y, s.real, s.imag, policy.lattice_radius)
    return SeriesValue(_cpow(y, s) * raw, _lattice_tail_bound(y, s.real, policy.lattice_radius))


@functools.lru_cache(maxsize=4)
def _xi(u: complex) -> complex:
    """xi(u) through a memo of the last four arguments."""
    return xi_completed(u)


def _xi_and_ratio(s: complex) -> tuple[complex, complex]:
    """xi(2s) and c(s) = xi(2s - 1)/xi(2s)."""
    xi_2s = _xi(2.0 * s)
    return xi_2s, _xi(2.0 * s - 1.0) / xi_2s


def scattering_ratio(s) -> complex:
    """Constant-term ratio c(s) = xi(2s - 1) / xi(2s).

    Satisfies c(s) c(1 - s) = 1 and |c| = 1 on the critical line, both forced
    by the xi reflection; the tests verify rather than assume this.
    """
    return _xi_and_ratio(_require_off_poles(s, "scattering_ratio"))[1]


def fourier_coefficient(n: int, y: float, s) -> complex:
    """Closed-form Fourier coefficient a_n(y, s) of the expansion.

    a_0 = y^s + c(s) y^(1-s); for n != 0,
    a_n = 2 |n|^(s - 1/2) sigma_(1-2s)(|n|) sqrt(y) K_(s-1/2)(2 pi |n| y) / xi(2s),
    which depends on n only through |n|.
    """
    n = integer(n, "mode number n")
    _point(complex(0.0, y))
    s = _require_off_poles(s, "fourier_coefficient")
    if n == 0:
        return _constant_term(y, s, _xi_and_ratio(s)[1])
    n = abs(n)
    factor = _cpow(float(n), s - 0.5) * sigma_power(n, 1.0 - 2.0 * s)
    return _mode(n, y, s - 0.5, math.sqrt(y), factor, 1.0 / _xi(2.0 * s))


def _constant_term(y: float, s: complex, ratio: complex) -> complex:
    # a_0 = y^s + c(s) y^(1-s)
    return _cpow(y, s) + ratio * _cpow(y, 1.0 - s)


def _mode(n: int, y: float, nu: complex, sqrt_y: float, factor: complex, inv_xi: complex) -> complex:
    # a_n for n >= 1, given nu = s - 1/2, sqrt(y), its divisor factor
    # n^nu sigma_(1-2s)(n) and 1/xi(2s)
    return 2.0 * factor * sqrt_y * bessel_k(nu, _TWO_PI * n * y) * inv_xi


@functools.lru_cache(maxsize=2)
def _divisor_factors(s: complex) -> tuple[complex, ...]:
    """c_n = n^(s-1/2) sigma_(1-2s)(n) for n = 0.._MODES (c_0 = 1 is unused),
    through a memo of the last two s.

    c_n = sum over a d = n of (a/d)^(s-1/2) is multiplicative, and on prime
    powers c(p^e) = q c(p^(e-1)) + q^(-e) with q = p^(s-1/2), so the table
    costs one complex exp per prime.  Each c(p^e) multiplies into the entries
    whose p-part is exactly p^e.  |c_n| <= tau(n) n^|Re s - 1/2| stays in
    double range for the orders bessel_k accepts, |s - 1/2| <= 100; past
    them no mode uses the table, as bessel_k refuses the order.
    """
    nu = s - 0.5
    c = [1.0 + 0.0j] * (_MODES + 1)
    for p in primes_up_to(_MODES):
        q = _cpow(float(p), nu)
        q_inv = 1.0 / q
        pe, c_pe, q_inv_e = p, 1.0, 1.0
        while pe <= _MODES:
            q_inv_e *= q_inv
            c_pe = q * c_pe + q_inv_e
            for m in range(pe, _MODES + 1, pe):
                if m % (pe * p):
                    c[m] *= c_pe
            pe *= p
    return tuple(c)


def eval_fourier(z, s) -> SeriesValue:
    """Fourier-expansion evaluation, valid for every s off the pole points.

    Pulls z back under SL2(Z) to z' = x' + i y' with |x'| <= 1/2, |z'| >= 1
    (E is invariant, so E(z) = E(z')), then sums a_0 plus the paired modes
    a_n (e^(2 pi i n x') + e^(-2 pi i n x')), n = 1..30, at z'.  The returned
    tail bound is the geometric-series bound seeded by mode 30, and it covers
    truncation only.  Raises AccuracyError if mode 30 is above the fixed
    accuracy target (1e-14 times max(1, |a_0|)), rather than return a value
    that missed it.

    xi(2s), c(s) and the divisor factors come from the memos (see the module
    docstring), so calls at the s of the call before pay only for their
    modes.
    """
    x, y = _pullback(*_point(z))
    s = _require_off_poles(s, "eval_fourier")
    xi_2s, ratio = _xi_and_ratio(s)
    inv_xi = 1.0 / xi_2s
    total = _constant_term(y, s, ratio)
    target = TARGET_ABS_ERROR * max(1.0, abs(total))
    nu, sqrt_y = s - 0.5, math.sqrt(y)
    factors = _divisor_factors(s)
    for n in range(1, _MODES + 1):
        a_n = _mode(n, y, nu, sqrt_y, factors[n], inv_xi)
        total += a_n * 2.0 * math.cos(_TWO_PI * n * x)
    last_mag = 2.0 * abs(a_n)
    if not last_mag <= target:  # NaN included
        raise AccuracyError(
            f"eval_fourier: mode {_MODES} at z' = {x}+{y}i, s = {s} is {last_mag:.3g}, "
            f"above the target {target:.3g}"
        )
    decay = math.exp(-_TWO_PI * y)
    return SeriesValue(total, last_mag * decay / (1.0 - decay))


def functional_equation_defect(z, s) -> float:
    """|E(z, s) - c(s) E(z, 1-s)| with both sides from the Fourier evaluator.

    Zero in exact arithmetic; numerically bounded by the evaluators'
    truncation and the accuracy of xi.  c(s) comes from the xi values that
    eval_fourier(z, s) leaves in the memo, so xi is evaluated at 2s, 2s - 1,
    2 - 2s and 1 - 2s once each.
    """
    lhs = eval_fourier(z, s).value
    rhs = scattering_ratio(s) * eval_fourier(z, 1.0 - s).value
    return abs(lhs - rhs)


def _quadrature_nodes(n: int, y: float, s: complex) -> int:
    """Node count N = |n| + k of the trapezoid extraction of a_n at height y.

    The N-node rule returns a_n plus the aliased modes a_(n + jN), j != 0
    (Trefethen & Weideman, SIAM Review 56, 2014), each with |n + jN| >= k.
    a_k = 2 k^(s-1/2) sigma_(1-2s)(k) sqrt(y) K_(s-1/2)(2 pi k y) / xi(2s),
    |k^(s-1/2) sigma_(1-2s)(k)| <= tau(k) k^|Re s - 1/2| with the divisor
    count tau(k) <= 2 sqrt(k), and |K_(s-1/2)(X) / xi(2s)| <~
    e^(pi |Im s| / 2 - X), loosely enough to absorb the factor 2 sqrt(y), so
    |a_k| <~ 2 k^p e^(pi |Im s| / 2 - 2 pi k y), p = |Re s - 1/2| + 1/2.
    The bound falls once 2 pi k y >= p; k is the first such k >= 1 where it
    is below TARGET_ABS_ERROR / 10, and the aliases past it decay
    geometrically.  AccuracyError where N would exceed _NODE_BOUND.
    """
    p = abs(s.real - 0.5) + 0.5
    log_goal = math.log(TARGET_ABS_ERROR / 20.0) - 0.5 * math.pi * abs(s.imag)
    for k in range(1, _NODE_BOUND - abs(n) + 1):
        decay = _TWO_PI * k * y
        if decay >= p and p * math.log(k) - decay < log_goal:
            return abs(n) + k
    raise AccuracyError(f"a_{n} at y = {y}, s = {s} needs over {_NODE_BOUND} quadrature nodes")


def extract_coefficient_by_quadrature(
    n: int,
    y: float,
    s,
    policy: TruncationPolicy = DEFAULT_TRUNCATION,
    source: str = "lattice",
) -> complex:
    """Trapezoid quadrature int_0^1 E(x + i y, s) e^(-2 pi i n x) dx.

    E is sampled by the lattice sum, so this is an extraction of a_n
    independent of the closed-form coefficient formula.  Its error is the
    lattice tail at the nodes plus the aliased modes, which the node count
    (_quadrature_nodes) keeps below 1e-14; AccuracyError past 4096 nodes
    (y below about 2e-3).  Needs Re(s) > 1 (DivergenceError otherwise);
    ``source`` accepts only "lattice".
    """
    import numpy as np

    n = integer(n, "mode number n")
    _point(complex(0.0, y))
    if source != "lattice":
        raise DomainError(f"unknown source {source!r}; the only source is 'lattice'")
    s = finite_complex(s, "spectral parameter")
    if s.real <= 1.0:
        raise DivergenceError("lattice-sourced extraction needs Re(s) > 1")
    nodes = _quadrature_nodes(n, y, s)
    k = np.arange(nodes)
    xs = k / nodes
    # E is even in x, so node k/N shares its value with 1 - k/N and only the
    # nodes 0 <= k <= N/2, all in |x| <= 1/2, are summed.  They keep the row's
    # y: SL2(Z) images would give each node its own truncation error, which
    # measured about half a digit worse on n != 0 at y < 1
    raw = _kernels.lattice_sum_batch(xs[: nodes // 2 + 1], y, s.real, s.imag, policy.lattice_radius)
    values = _cpow(y, s) * np.asarray(raw)[np.minimum(k, nodes - k)]
    weights = np.exp(-2j * math.pi * n * xs)
    return complex(np.mean(values * weights))


def first_coefficient_xi_check(s) -> float:
    """Defect of the xi reflection as forced by the first Fourier mode.

    Matching the n = 1 coefficients across E(z, s) = c(s) E(z, 1-s) -- with
    K_(s-1/2) = K_(1/2-s) and |n|^(s-1/2) sigma_(1-2s) = |n|^(1/2-s)
    sigma_(2s-1) at n = 1 -- reduces the identity to xi(2s-1) = xi(2-2s);
    running the same matching at 1-s gives xi(2s) = xi(1-2s).  The returned
    defect is the max of the two, hence symmetric in s <-> 1-s.
    """
    s = _require_off_poles(s, "first_coefficient_xi_check")
    d_forward = abs(xi_completed(2.0 * s - 1.0) - xi_completed(2.0 - 2.0 * s))
    d_reflected = abs(xi_completed(2.0 * s) - xi_completed(1.0 - 2.0 * s))
    return max(d_forward, d_reflected)


def functional_equation_grid() -> tuple[complex, ...]:
    """Canonical 20-point verification grid: sigma in [0.1, 0.9] clear of the
    line sigma = 1/2 by at least 0.1, |t| <= 5."""
    sigmas = (0.1, 0.3, 0.6, 0.75, 0.9)
    ts = (-5.0, -1.5, 2.5, 5.0)
    return tuple(complex(sig, t) for sig in sigmas for t in ts)
