"""Real-analytic Eisenstein series on the upper half-plane.

Two independent evaluators are provided and cross-checked in the tests:

* ``eval_lattice_sum``: the defining sum over coprime integer pairs, folded
  along (m, n) -> (-m, -n) so that the constant term is y^s + c(s) y^(1-s)
  (the literal unfolded sum double-counts every pair and would carry 2 y^s),
  plus an estimate of the pairs past the radius from their exact count,
  which gains three to four digits at no extra pair,
* ``eval_fourier``: the Fourier-mode expansion a_0 + sum a_n e^(2 pi i n x)
  whose coefficients mix power-divisor sums, the K-Bessel function, and the
  completed zeta; it converges for every s in the strip and provides the
  analytic continuation of the lattice sum.

The expansion's constant term carries the scattering ratio
c(s) = xi(2s-1)/xi(2s), which implements E(z, s) = c(s) E(z, 1-s); the
CLI's ``fe-check --check eisenstein`` row checks that identity.

Both evaluators use the full SL2(Z) invariance of E: they pull z back into
the fundamental domain |x| <= 1/2, |z| >= 1 (Cohen, A Course in
Computational Algebraic Number Theory, Alg. 7.4.2) before summing.  There
y >= sqrt(3)/2, so every Fourier mode decays at least like e^(-5.44 n) and
30 modes meet the accuracy target for any z, however close to the real
axis; and every lattice term at max-norm radius r is at most
y^sigma (r^2/4)^(-sigma), sigma = Re s, so the lattice tail bound no longer
blows up as y -> 0.  The lattice sum's tail is estimated from the exact
count of the coprime pairs past the radius and the mean of a shell's
terms, both of which the kernels return with the sum, and added
(_tail_correction).  The tail bound adds the estimate's size to the
bound on the tail itself.

eval_fourier holds E to the target 1e-14 max(1, |a_0|) and splits it across
its modes.  Mode n adds 2 a_n cos(2 pi n x'), with
a_n = 2 c_n sqrt(y') K_(s-1/2)(2 pi n y') / xi(2s), so an error delta in its
K moves E by at most 4 |c_n| sqrt(y') delta / |xi(2s)|.  One loop sums the
30 modes, each asking bessel_k for the abs_tol that keeps this below
target / 30.  Where a bound on a mode's K is within that share, bessel_k
answers 0 from the bound alone and sums no nodes, so a typical call sums
only its first few modes.  Mode 30, the loop's last, seeds the
AccuracyError check, and its magnitude plus its share seeds the tail bound.

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
from .special_functions import TARGET_ABS_ERROR, bessel_k, sigma_power, xi_completed, zeta

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
# largest |Im s| the lattice routines accept: _kernels._edge_integrals' panel count
# grows linearly with |Im s| (1.3 s a sum at 1e6), and C is tested up to here
_LATTICE_MAX_IM = 100.0
_MAX_ORDER = 100.0  # largest |s - 1/2|, the modes' K order, that bessel_k accepts


@dataclass(frozen=True)
class TruncationPolicy:
    """Truncation radius of the lattice sum, the one setting of the evaluators.

    The radius is an integer in 10.._kernels.MAX_RADIUS (2000), the reach of
    the kernels' tables: a sum's tail shrinks only as radius^(2 - 2 Re s),
    while its cost grows as radius on the moment path and as radius^2 on
    the direct sum (see _kernels).  The Fourier mode count and the
    extraction's node count follow from bounds on a_n instead.
    """

    lattice_radius: int = 1000

    def __post_init__(self):
        radius = integer(self.lattice_radius, "lattice_radius")
        if not 10 <= radius <= _kernels.MAX_RADIUS:
            raise DomainError(f"lattice_radius must be in 10..{_kernels.MAX_RADIUS}, got {radius}")


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


def _lattice_parameter(s, what: str) -> complex:
    """s for the lattice routines: finite, Re s > 1 (DivergenceError
    otherwise) and |Im s| <= _LATTICE_MAX_IM (DomainError otherwise)."""
    s = finite_complex(s, "spectral parameter")
    if s.real <= 1.0:
        raise DivergenceError(f"{what}: the lattice sum diverges for Re(s) <= 1, got {s}")
    if abs(s.imag) > _LATTICE_MAX_IM:
        raise DomainError(
            f"{what} needs |Im s| <= {_LATTICE_MAX_IM:g}, got {s} "
            f"(see the {what} row of the README's accuracy contracts)"
        )
    return s


def _mode_parameter(s: complex, what: str) -> complex:
    """s, unless its modes' K order is past bessel_k's: DomainError naming s."""
    if not abs(s - 0.5) <= _MAX_ORDER:
        raise DomainError(f"{what} needs |s - 1/2| <= {_MAX_ORDER:g}, got s = {s}")
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
    # number ~ 8r and, for |x| <= 1/2, are bounded by
    # y^sigma (r^2 min(1/4, y^2))^(-sigma), as |m z + n| >= r y where |m| = r
    # and >= r / 2 where |n| = r > |m|
    return 8.0 * (y / min(0.25, y * y)) ** sigma * radius ** (2.0 - 2.0 * sigma) / (2.0 * sigma - 2.0)


def _tail_correction(s: complex, partial: complex, integrals):
    """C = T I, the estimate of the tail of S (the kernels' half-lattice
    sum) past max-norm radius R at each x of a _kernels.lattice_sum_batch
    call, from its P and I: a shell's terms average to I, and
    T = sum_(r > R) phi(r) r^(-2s) = zeta(2s - 1) / zeta(2s) - P is the
    exact weighted count of the coprime pairs past R (Hardy & Wright, An
    Introduction to the Theory of Numbers, Thm 288)."""
    import numpy as np

    return (zeta(2.0 * s - 1.0) / zeta(2.0 * s) - partial) * np.asarray(integrals, dtype=np.complex128)


def eval_lattice_sum(z, s, policy: TruncationPolicy = TruncationPolicy()) -> SeriesValue:
    """Coprime lattice sum over max(|m|, |n|) <= lattice_radius, plus the
    estimate of the rest.

    Pulls z back under SL2(Z) first, as eval_fourier does, and sums at the
    image.  Only converges for Re(s) > 1 (DivergenceError otherwise), and
    refuses |Im s| > 100 (DomainError), past which the tail estimate's cost
    keeps growing and its accuracy is untested, and raises PoleError within
    5e-10 of s = 1, where the estimate's zeta(2s - 1) is within zeta's pole
    exclusion of its pole.  The tail past the radius is estimated from the
    exact count of the coprime pairs past it, phi(r) on shell r, and the
    mean of |m z + n|^(-2s) over a shell (_tail_correction), and added to
    the sum.  The returned tail bound is B + |y^s C|:
    B = O(radius^(2 - 2 Re s)) bounds the true tail by comparison with the
    integral of r^(1 - 2 Re s), so B plus the added estimate's size bounds
    what the estimate leaves.
    """
    x, y = _pullback(*_point(z))
    s = _lattice_parameter(s, "eval_lattice_sum")
    radius = policy.lattice_radius
    raw, partial, integral = _kernels.lattice_sum(x, y, s.real, s.imag, radius)
    correction = complex(_tail_correction(s, partial, (integral,))[0])
    y_s = _cpow(y, s)
    bound = _lattice_tail_bound(y, s.real, radius) + abs(y_s * correction)
    return SeriesValue(y_s * (raw + correction), bound)


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
    _mode_parameter(s, "fourier_coefficient with n != 0")
    if s.real < 0.5:
        # the same factor as n^(1/2-s) sigma_(2s-1)(n), whose divisor powers
        # have Re <= 0: sigma_(1-2s)(n) alone leaves double range far left
        factor = _cpow(float(n), 0.5 - s) * sigma_power(n, 2.0 * s - 1.0)
    else:
        factor = _cpow(float(n), s - 0.5) * sigma_power(n, 1.0 - 2.0 * s)
    return 2.0 * factor * math.sqrt(y) * bessel_k(s - 0.5, _TWO_PI * n * y) * (1.0 / _xi(2.0 * s))


def _constant_term(y: float, s: complex, ratio: complex) -> complex:
    # a_0 = y^s + c(s) y^(1-s)
    return _cpow(y, s) + ratio * _cpow(y, 1.0 - s)


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
    a_n (e^(2 pi i n x') + e^(-2 pi i n x')), n = 1..30, at z'.  The modes
    share the fixed accuracy target 1e-14 max(1, |a_0|) (see the module
    docstring); AccuracyError if mode 30 is above it.  The tail bound,
    seeded by mode 30 and its share, bounds the modes past 30; it does not
    cover rounding or the K errors of modes 1-30.

    xi(2s), c(s) and the divisor factors come from the memos (see the module
    docstring), so calls at the s of the call before pay only for their
    modes.
    """
    x, y = _pullback(*_point(z))
    s = _mode_parameter(_require_off_poles(s, "eval_fourier"), "eval_fourier")
    xi_2s, ratio = _xi_and_ratio(s)
    total = _constant_term(y, s, ratio)
    target = TARGET_ABS_ERROR * max(1.0, abs(total))
    nu, factors = s - 0.5, _divisor_factors(s)
    # mode n adds scale c_n K cos(2 pi n x'), so its share of the target
    # allows K an error of budget / |c_n|
    scale = 4.0 * math.sqrt(y) * (1.0 / xi_2s)
    budget = target / (_MODES * abs(scale))
    for n in range(1, _MODES + 1):
        c_n = factors[n]
        term = scale * c_n * bessel_k(nu, _TWO_PI * n * y, abs_tol=budget / abs(c_n))
        total += term * math.cos(_TWO_PI * n * x)
    last_mag = abs(term)
    if not last_mag <= target:  # NaN included
        raise AccuracyError(
            f"eval_fourier: mode {_MODES} at z' = {x}+{y}i, s = {s} is {last_mag:.3g}, "
            f"above the target {target:.3g}"
        )
    # mode 30 plus its share, then a fall of at least e^(-2 pi y') per mode
    decay = math.exp(-_TWO_PI * y)
    return SeriesValue(total, (last_mag + target / _MODES) * decay / (1.0 - decay))


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
    policy: TruncationPolicy = TruncationPolicy(),
    source: str = "lattice",
) -> complex:
    """Trapezoid quadrature int_0^1 E(x + i y, s) e^(-2 pi i n x) dx.

    E is sampled by the lattice sum, so this is an extraction of a_n
    independent of the closed-form coefficient formula.  Each node's sum gets
    the tail estimate that eval_lattice_sum adds, computed
    for all nodes at once.  The error is what that estimate leaves of the
    lattice tail at the nodes plus the aliased modes, which the node count
    (_quadrature_nodes) keeps below 1e-14; AccuracyError past 4096 nodes
    (y below about 2e-3).  Needs Re(s) > 1 (DivergenceError otherwise) and
    |Im s| <= 100 (DomainError otherwise), as eval_lattice_sum does;
    ``source`` accepts only "lattice".
    """
    return _extraction(n, y, s, policy, source).value


def _extraction(n: int, y: float, s, policy: TruncationPolicy, source: str = "lattice") -> SeriesValue:
    """extract_coefficient_by_quadrature's a_n with the bound B + max |y^s C|
    on what the nodes' tail estimates leave: the nodes lie in |x| <= 1/2,
    where B bounds each node's tail, and the weights have modulus 1."""
    import numpy as np

    n = integer(n, "mode number n")
    _point(complex(0.0, y))
    if source != "lattice":
        raise DomainError(f"unknown source {source!r}; the only source is 'lattice'")
    s = _lattice_parameter(s, "extract_coefficient_by_quadrature")
    nodes = _quadrature_nodes(n, y, s)
    k = np.arange(nodes)
    xs = k / nodes
    # E is even in x, so node k/N shares its value with 1 - k/N and only the
    # nodes 0 <= k <= N/2, all in |x| <= 1/2, are summed.  They keep the row's
    # y: SL2(Z) images would give each node its own truncation error, which
    # measured about half a digit worse on n != 0 at y < 1
    half = xs[: nodes // 2 + 1]
    raw, partial, integrals = _kernels.lattice_sum_batch(half, y, s.real, s.imag, policy.lattice_radius)
    correction = _tail_correction(s, partial, integrals)
    raw += correction
    y_s = _cpow(y, s)
    values = y_s * raw[np.minimum(k, nodes - k)]
    weights = np.exp(-2j * math.pi * n * xs)
    bound = _lattice_tail_bound(y, s.real, policy.lattice_radius) + abs(y_s) * float(np.abs(correction).max())
    return SeriesValue(complex(np.mean(values * weights)), bound)
