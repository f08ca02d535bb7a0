"""Complex Gamma, zeta, completed zeta, power-divisor sums, and K-Bessel.

All routines work in standard double precision (arbitrary precision is out of
scope) and are pure functions; the only module state is a table of Bernoulli
numbers and the Lanczos coefficients, both immutable after import.

Accuracy targets (validated against independent oracles in the test suite):

* ``gamma``:   relative error <= 1e-12 for |s| <= 100,
* ``zeta``:    absolute error <= 1e-12 (scaled by |zeta| when the value is
  large) for |Im s| <= 50, and on -1 <= Re s <= 6 for |Im s| <= 200,
* ``bessel_k``: absolute error <= max(1e-14 M, abs_tol), where
  M = exp(a t_p - hypot(a, y)), t_p = asinh(a/y), a = |Re s|, is the peak of
  the integrand's envelope exp(-y cosh t + a t), and abs_tol = 0 unless the
  caller asks for less (tested against mpmath for |Re s| <= 2.5,
  |Im s| <= 30: at abs_tol = 0 for y from 1e-3 to 130, from 5 up the modes
  eval_fourier uses and below 5 the long node runs of small y; at
  abs_tol = 1e-14 M to 1e-1 M for y from 1e-3 to 200).  The bound is
  relative to that peak, not to |K|: for large |Im s| the integral cancels
  and K is far smaller than M.  Since |K| <= M sqrt(2 pi / y), bessel_k
  returns exactly 0, without summing, where that bound is at most abs_tol
  (so abs_tol = inf returns 0 wherever the integrand is in double range) or
  below 2^-1075, where K rounds to 0 (so the work stays bounded as y grows),
  and the abs_tol = 0 value everywhere else.

Poles are never evaluated through: points inside the exclusion disk (radius
1e-9, so 2e-9 around s = 0 for xi_completed, whose Gamma(s/2) has its pole
there) of a pole raise PoleError, and results that would leave double range
raise OverflowError.  A non-finite argument raises DomainError.
"""

from __future__ import annotations

import cmath
import math

from . import _kernels
from ._arith import factorize
from .errors import AccuracyError, DomainError, PoleError, finite_complex, integer

POLE_EXCLUSION_RADIUS = 1e-9

# Lanczos approximation, g = 607/128 with 15 coefficients (Godfrey's set);
# relative error a few 1e-15 over the half-plane Re > 1/2.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LOG_DBL_MAX = 709.0
# log of 2^-1075, half the smallest subnormal double: anything below rounds to 0
_LOG_HALF_SUBNORMAL = -1075.0 * math.log(2.0)


# B_0, B_2, ..., B_64, the exact Bernoulli numbers rounded to double
_B_EVEN = (
    1.0, 0.16666666666666666, -0.03333333333333333,
    0.023809523809523808, -0.03333333333333333, 0.07575757575757576,
    -0.2531135531135531, 1.1666666666666667, -7.092156862745098,
    54.971177944862156, -529.1242424242424, 6192.123188405797,
    -86580.25311355312, 1425517.1666666667, -27298231.067816094,
    601580873.9006424, -15116315767.092157, 429614643061.1667,
    -13711655205088.332, 488332318973593.2, -1.9296579341940068e+16,
    8.416930475736826e+17, -4.0338071854059454e+19, 2.1150748638081993e+21,
    -1.2086626522296526e+23, 7.500866746076964e+24, -5.038778101481069e+26,
    3.6528776484818122e+28, -2.849876930245088e+30, 2.3865427499683627e+32,
    -2.1399949257225335e+34, 2.0500975723478097e+36, -2.093800591134638e+38,
)
_EM_MAX_CORRECTIONS = len(_B_EVEN) - 2


#: Absolute error target, scaled by max(1, |value|), of zeta's adaptive
#: Euler-Maclaurin and of eisenstein's 30-mode Fourier sum.
TARGET_ABS_ERROR = 1e-14
# bessel_k's trapezoid stops where the integrand's envelope is e^(-W)/2 of its
# peak M, and W also sets the step; W = ln(10 M / tol) + 6 at tol = 1e-14 M
_BESSEL_W = math.log(1e15) + 6.0


def _finite(value: complex, what: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError(f"{what} overflowed double precision")
    return value


def _sinpi(z: complex) -> tuple[complex, float]:
    """(m, e) with sin(pi z) = m e^e: sin(pi z) itself and e = 0 wherever it
    is in double range, else e = pi |Im z|, for callers to fold into an
    exponent they already carry.  Argument reduction gives exact zeros at
    integers and full accuracy near them (plain sin(pi*z) loses digits for
    |Re z| >> 1)."""
    n = math.floor(z.real + 0.5)
    r = z.real - n
    try:
        val, scale = cmath.sin(complex(r, z.imag) * math.pi), 0.0
    except OverflowError:
        # past overflow, e > 709, cosh(pi t) and |sinh(pi t)| round to e^e / 2,
        # so sin(pi (r + i t)) = e^e (sin(pi r) + i sign(t) cos(pi r)) / 2
        scale = math.pi * abs(z.imag)
        val = 0.5 * complex(math.sin(math.pi * r), math.copysign(math.cos(math.pi * r), z.imag))
    return (-val if n % 2 else val), scale


def gamma(s: complex) -> complex:
    """Gamma(s) by the Lanczos approximation, reflection for Re(s) < 1/2.

    Raises PoleError within 1e-9 of a nonpositive integer and OverflowError
    when the value exceeds double range (on the real axis: s above 171.62).
    """
    s = finite_complex(s, "gamma")
    if s.real < 0.5:
        near = round(s.real)
        if near <= 0 and abs(s - near) < POLE_EXCLUSION_RADIUS:
            raise PoleError(f"gamma has a pole at {near}")
    return _finite(_gamma_unchecked(s), "gamma")


def _gamma_unchecked(s: complex) -> complex:
    if s.real < 0.5:
        sine, scale = _sinpi(s)
        if not scale:
            return math.pi / (sine * _gamma_unchecked(1.0 - s))
        # sin(pi s) and Gamma(1 - s) = sqrt(2 pi) e^P A in one exp: each
        # alone can leave double range where Gamma(s) does not
        log_power, acc = _lanczos(1.0 - s)
        return math.sqrt(0.5 * math.pi) * cmath.exp(-log_power - scale) / (sine * acc)
    log_power, acc = _lanczos(s)
    return math.sqrt(2.0 * math.pi) * cmath.exp(log_power) * acc


def _lanczos(s: complex) -> tuple[complex, complex]:
    # (P, A) with Gamma(s) = sqrt(2 pi) e^P A on Re s >= 1/2: P is the log of
    # t^(s-1/2) e^-t, kept as an exponent so that callers can fold further
    # factors into one exp and values near the top of double range do not
    # overflow in an intermediate power
    zm1 = s - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return (zm1 + 0.5) * cmath.log(t) - t, acc


def _zeta_euler_maclaurin(s: complex) -> complex:
    # Shifted partial sum of N terms plus trapezoid/Bernoulli corrections:
    #   zeta(s) = sum_{n<N} n^-s + N^{1-s}/(s-1) + N^-s/2
    #           + sum_k B_{2k}/(2k)! (s)_{2k-1} N^{1-s-2k}  + R_K
    # with the classical remainder bound |R_K| <= |next term| * |s+2K+1|/(sigma+2K+1).
    # N grows with |Im s| so that the corrections shrink by about
    # (|s| / (2 pi N))^2 per step; AccuracyError if they miss the target anyway.
    n_terms = max(16, int(0.8 * abs(s.imag)) + 12)
    total = 0j
    for n in range(1, n_terms):
        total += complex(n) ** (-s)
    n_pow = complex(n_terms) ** (-s)
    total += n_pow * n_terms / (s - 1.0)
    total += 0.5 * n_pow
    poch = s
    factorial = 2.0
    scale = n_pow / n_terms  # N^{-s-2k+1} at k=1
    for k in range(1, _EM_MAX_CORRECTIONS + 1):
        term = (_B_EVEN[k] / factorial) * poch * scale
        total += term
        bound = abs(term) * abs(s + 2 * k + 1) / (s.real + 2 * k + 1)
        if bound < TARGET_ABS_ERROR * max(1.0, abs(total)):
            return total
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        factorial *= (2 * k + 1) * (2 * k + 2)
        scale /= n_terms * n_terms
    raise AccuracyError(
        f"zeta({s}): Euler-Maclaurin with {n_terms} terms and "
        f"{_EM_MAX_CORRECTIONS} corrections misses {TARGET_ABS_ERROR:g}"
    )


def zeta(s: complex) -> complex:
    """zeta(s), analytically continued to the whole plane except s = 1.

    Euler-Maclaurin on Re(s) >= 0.45 and on the disk |s| <= 0.45 (where the
    partial sum has no cancellation); the reflection formula
    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s) elsewhere, since
    Euler-Maclaurin alone cancels catastrophically for Re(s) << 0.
    """
    s = finite_complex(s, "zeta")
    if abs(s - 1.0) < POLE_EXCLUSION_RADIUS:
        raise PoleError("zeta has its pole at s = 1")
    if s.real >= 0.45 or abs(s) <= 0.45:
        return _finite(_zeta_euler_maclaurin(s), "zeta")
    # 2^s pi^(s-1), the sqrt(2 pi) e^P of Gamma(1 - s) = sqrt(2 pi) e^P A
    # and sin(pi s / 2)'s scale in one exp: Gamma(1 - s) alone leaves double
    # range left of Re s = -171, and the sine past |Im s| = 452, long before
    # zeta(s) does
    log_power, acc = _lanczos(1.0 - s)
    sine, scale = _sinpi(0.5 * s)
    chi = cmath.exp(s * math.log(2.0 * math.pi) + 0.5 * math.log(2.0 / math.pi) + log_power + scale)
    chi *= sine * acc
    return _finite(chi * _zeta_euler_maclaurin(1.0 - s), "zeta")


def xi_completed(s: complex) -> complex:
    """Completed zeta pi^(-s/2) Gamma(s/2) zeta(s); poles at s = 0 and 1.

    Left of Re s = -1 it returns xi(1 - s), by xi(s) = xi(1 - s), so neither
    the poles of Gamma(s/2) at -2, -4, ... nor zeta's reflection is met there.
    Raises PoleError within 2e-9 of s = 0, where Gamma(s/2) is within 1e-9
    of its pole, and within 1e-9 of s = 1.
    """
    s = finite_complex(s, "xi_completed")
    if abs(0.5 * s) < POLE_EXCLUSION_RADIUS or abs(s - 1.0) < POLE_EXCLUSION_RADIUS:
        raise PoleError("completed zeta has poles at s = 0 and s = 1")
    if s.real < -1.0:
        s = 1.0 - s
    value = cmath.exp(-0.5 * s * math.log(math.pi))
    value *= gamma(0.5 * s)
    value *= zeta(s)
    return _finite(value, "xi_completed")


def sigma_power(n: int, s: complex) -> complex:
    """Power-divisor sum over d | n of d^s, for 1 <= n <= 10^12.

    Multiplicative evaluation over the prime factorization; real integer
    exponents take an exact integer-arithmetic path, so e.g. the divisor
    count (s = 0) and divisor sum (s = 1) come out exact.
    """
    n = integer(n, "sigma_power's n")
    s = finite_complex(s, "sigma_power")
    k = int(s.real) if s.imag == 0.0 and s.real == round(s.real) and abs(s.real) <= 64 else None
    total = 1.0 + 0.0j
    for p, e in factorize(n):
        if k is not None:
            # sum_i p^(ik) over one common denominator p^(e max(0, -k)),
            # exact in integers and rounded once by the division
            total *= sum(p ** (i * abs(k)) for i in range(e + 1)) / p ** (e * max(0, -k))
        else:
            p_s = cmath.exp(s * math.log(p))
            power = 1.0 + 0.0j
            block = 1.0 + 0.0j
            for _ in range(e):
                power *= p_s
                block += power
            total *= block
    return _finite(total, "sigma_power")


def bessel_k(order: complex, y: float, *, abs_tol: float = 0.0) -> complex:
    """K-Bessel function K_order(y) for finite y >= 1e-300 and |order| <= 100.

    Evaluates the integral representation int_0^infty exp(-y cosh t)
    cosh(order t) dt by the trapezoid rule, truncated where the integrand's
    envelope falls far below its peak; the double-exponential decay in t
    makes the rule spectrally accurate.  Even in the order by construction
    (K_s = K_{-s} holds to the last bit).

    The absolute error is at most max(1e-14 M, abs_tol), M the envelope's
    peak (see the module docstring).  The step and the cut depend on
    (order, y) alone (Trefethen & Weideman, SIAM Review 56, 2014).  Where
    abs_tol is at least the bound M sqrt(2 pi / y) on |K| (DLMF 10.32.9),
    it returns 0j and sums no nodes, so abs_tol = inf returns 0j; so it does,
    whatever abs_tol is, where that bound is below 2^-1075 and K rounds to
    0 in double precision.  Elsewhere it returns the abs_tol = 0 value bit
    for bit.  A NaN or negative abs_tol raises DomainError.
    """
    # for smaller y the nodes would run past the double range of cosh t
    if not 1e-300 <= y < math.inf:
        raise DomainError(f"bessel_k needs finite y >= 1e-300, got {y}")
    order = complex(order)
    if not abs(order) <= 100.0:
        raise DomainError(f"bessel_k supports |order| <= 100, got {order}")
    if not abs_tol >= 0.0:  # NaN included
        raise DomainError(f"bessel_k needs abs_tol >= 0, got {abs_tol}")
    a = abs(order.real)
    b = abs(order.imag)
    # the envelope exp(-y cosh t + a t) peaks at t_peak with log-height
    # log M = a t_peak - kappa; values beyond double range are refused
    t_peak = math.asinh(a / y)
    kappa = math.hypot(a, y)
    log_peak = a * t_peak - kappa
    if log_peak > _LOG_DBL_MAX - 5.0:
        raise OverflowError("bessel_k integrand exceeds double range")
    # |cosh(order t)| <= e^(a t), and y cosh t - a t has second derivative
    # y cosh t >= y, so |K| <= M sqrt(2 pi / y) (DLMF 10.32.9); where that is
    # within abs_tol, so is 0
    log_bound = log_peak + 0.5 * math.log(2.0 * math.pi / y)
    if abs_tol > 0.0 and log_bound <= math.log(abs_tol):
        return 0j
    # Step and node count for the trapezoid rule on exp(-y cosh t) cosh(nu t).
    # The transform of the integrand decays on the scale set by the larger of
    # the analyticity-strip rate 2W/pi and the saddle bandwidth sqrt(2 W kappa);
    # the oscillation b shifts both.
    omega = max(2.0 * _BESSEL_W / math.pi, math.sqrt(2.0 * _BESSEL_W * kappa)) + b + 2.0
    h = 2.0 * math.pi / omega
    # Nodes run to t_max >= 0.5, right of where the envelope exp(-g(t)),
    # g(t) = y cosh t - a t, has fallen to e^(-W)/2 of its peak at
    # t_peak = asinh(a/y); an absolute cut would stop at about 1e-4 of the
    # peak once y >~ 20.  At u = t - t_peak the fall is
    # F(u) = kappa (cosh u - 1) + a (sinh u - u), kappa = hypot(a, y), and
    # 0 <= sinh u - u <= cosh u - 1 puts the root of F(u) = R, R = W + ln 2,
    # in [acosh(1 + R/(kappa + a)), acosh(1 + R/kappa)].  The upper end is
    # never left of the root and overshoots it by at most the bracket width.
    nsteps = math.ceil(max(t_peak + math.acosh(1.0 + (_BESSEL_W + math.log(2.0)) / kappa), 0.5) / h)
    # where the bound is below 2^-1075, K rounds to 0: skip the nodes, however
    # many (0.72 sqrt(y) at large y), and give that 0 a summed 0's signs
    value = _kernels.bessel_k_trapezoid(a, b, y, h, nsteps) if log_bound > _LOG_HALF_SUBNORMAL else 0j
    # the kernel computed K for |Re|, |Im|; K is even in the order and
    # K_conj(order) = conj K_order, so conjugate where Re and Im have
    # opposite signs
    if (order.real > 0.0 and order.imag < 0.0) or (order.real < 0.0 and order.imag > 0.0):
        value = value.conjugate()
    if not cmath.isfinite(value):
        raise OverflowError("bessel_k overflowed double precision")
    return value

