"""Special-function contracts against independent oracles.

Expected values marked "frozen" were computed by the oracle implementations
in oracles.py (quadrature, direct series with tail, high-order independent
Euler-Maclaurin, truncated Euler product, doubled-resolution K-Bessel
trapezoid) and pinned here.
"""

import cmath
import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

import oracles
from eisenkit import _kernels, special_functions
from eisenkit.cli import xi_reflection_sample
from eisenkit.errors import AccuracyError, DomainError, PoleError
from eisenkit.special_functions import (
    _B_EVEN,
    _BESSEL_W,
    bessel_k,
    gamma,
    sigma_power,
    xi_completed,
    zeta,
)

# ---------------------------------------------------------------------------
# gamma


def test_gamma_trivial_integers():
    assert gamma(1) == pytest.approx(1.0, rel=1e-12)
    assert gamma(5) == pytest.approx(24.0, rel=1e-12)


def test_gamma_half_matches_quadrature_oracle():
    # frozen: oracles.gamma_quadrature(0.5) = 1.7724538509051133
    assert abs(gamma(0.5) - 1.7724538509051133) < 1e-12


def test_gamma_recursion_random_sample():
    rng = random.Random(5)
    for _ in range(60):
        s = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if s.real <= 0.5 and min(abs(s - round(s.real)), abs(s + 1 - round(s.real + 1))) < 1e-3:
            continue
        lhs = gamma(s + 1)
        assert abs(lhs - s * gamma(s)) < 1e-10 * abs(lhs)


def test_gamma_reflection_region_against_quadrature():
    # Gamma(-1.5) = Gamma(2.5) / ((-1.5)(-0.5)(0.5)(1.5)); oracle on the
    # positive side, recursion supplies the negative value
    target = oracles.gamma_quadrature(2.5) / ((-1.5) * (-0.5) * 0.5 * 1.5)
    assert abs(gamma(-1.5) - target) < 1e-12 * abs(target)


def test_gamma_pole_and_overflow():
    for bad in (0.0, -1.0, -7.0, -3.0 + 1e-12j):
        with pytest.raises(PoleError):
            gamma(bad)
    with pytest.raises(OverflowError):
        gamma(172.0)
    # Gamma(171) = 170! is near the top of double range, and still returned
    want = float(math.factorial(170))
    assert abs(gamma(171.0) - want) <= 1e-14 * want
    with pytest.raises(DomainError):
        gamma(math.nan)


def test_gamma_matches_mpmath_where_eval_fourier_reaches():
    # xi(2s) at |s - 1/2| <= 100 takes Gamma(s) on |s| <= 100 (after the
    # reflection xi(u) = xi(1 - u) left of Re u = -1): 400 points on the disk
    # and 200 within 0.01..0.5 of a pole
    mp = pytest.importorskip("mpmath")
    rng = random.Random(1000)
    panel = []
    while len(panel) < 400:
        s = cmath.rect(100.0 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
        if round(s.real) > 0 or abs(s - round(s.real)) >= 0.01:
            panel.append(s)
    for _ in range(200):
        offset = cmath.rect(10.0 ** rng.uniform(-2.0, -0.3), rng.uniform(-math.pi, math.pi))
        panel.append(offset - rng.randrange(100))
    with mp.workdps(30):
        for s in panel:
            want = complex(mp.gamma(mp.mpc(s.real, s.imag)))
            assert abs(gamma(s) - want) <= 1e-12 * abs(want), s


# ---------------------------------------------------------------------------
# zeta


def test_zeta_basel_matches_series_oracle():
    # frozen: oracles.zeta_series_with_integral_tail(2.0) = 1.6449340668482333
    assert abs(zeta(2) - 1.6449340668482333) < 1e-12


def test_zeta_zero_matches_high_order_euler_maclaurin_oracle():
    # frozen: oracles.zeta_euler_maclaurin_highorder(0.0) = -0.5 (exactly)
    assert abs(zeta(0) - (-0.5)) < 1e-12


def test_zeta_three_matches_euler_product_oracle():
    # frozen: oracles.zeta_euler_product(3.0, 10**5) = 1.2020569031551838
    assert abs(zeta(3) - 1.2020569031551838) < 1e-10


@pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
def test_zeta_euler_product_consistency(s):
    product = oracles.zeta_euler_product(s, 10**5)
    # documented product tail |log zeta/product| <= Q^(1-s)/((s-1) ln Q) * 2,
    # plus the serial roundoff of multiplying pi(10^5) = 9592 factors
    bound = 2.0 * (10**5) ** (1.0 - s) / ((s - 1.0) * math.log(10**5))
    roundoff = 9592 * 2.3e-16
    assert abs(zeta(s) - product) <= abs(product) * (math.expm1(bound) + roundoff)


def test_zeta_matches_independent_euler_maclaurin_on_panel():
    # the fixed-order oracle is well conditioned only for Re(s) >= ~ -1/2;
    # the reflection region is cross-checked against mpmath below
    pts = [0.5, -0.5, 11.0, complex(0.5, 14.134725), complex(0.2, 30.0), complex(-0.3, 20.0)]
    for s in pts:
        want = oracles.zeta_euler_maclaurin_highorder(s)
        assert abs(zeta(s) - want) < 1e-12 * max(1.0, abs(want))


def test_zeta_reflection_region_vs_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for s in (complex(-5.0, 20.0), complex(-9.5, 0.0), complex(-18.2, 44.0), complex(-0.7, -3.0)):
            want = complex(mp.zeta(mp.mpc(s)))
            assert abs(zeta(s) - want) < 1e-12 * max(1.0, abs(want))


def test_zeta_matches_mpmath_where_eval_fourier_reaches():
    # xi(2s) at |s - 1/2| <= 100 takes zeta(u) with Re u >= -1 and
    # |Im u| <= 200; 100 points on the reflection strip -1 <= Re u < 0.45 and
    # 100 on Euler-Maclaurin's 0.45 <= Re u <= 6
    mp = pytest.importorskip("mpmath")
    rng = random.Random(2000)
    panel = [complex(rng.uniform(lo, hi), rng.uniform(-200.0, 200.0))
             for lo, hi in ((-1.0, 0.45), (0.45, 6.0)) for _ in range(100)]
    with mp.workdps(30):
        for s in panel:
            want = complex(mp.zeta(mp.mpc(s.real, s.imag)))
            assert abs(zeta(s) - want) <= 1e-12 * max(1.0, abs(want)), s


def test_zeta_far_left_matches_mpmath_or_overflows():
    # Gamma(1 - s) leaves double range left of Re s = -171 while zeta(s)
    # does not; zeta(s) itself does only near Re s = -250 with |Im s| large
    mp = pytest.importorskip("mpmath")
    rng = random.Random(1171)
    with mp.workdps(30):
        for _ in range(400):
            s = complex(rng.uniform(-250.0, -0.5), rng.uniform(-50.0, 50.0))
            want = mp.zeta(mp.mpc(s.real, s.imag))
            if abs(want) > sys.float_info.max:
                with pytest.raises(OverflowError):
                    zeta(s)
            else:
                assert abs(zeta(s) - complex(want)) < 5e-13 * abs(complex(want)), s


def test_reflections_fold_the_sines_scale_into_their_exponent():
    # sin(pi s) leaves double range past |Im s| = 226 where Gamma(s),
    # zeta(s) and xi(s) do not: |zeta(-5+500i)| = 2.9e10,
    # |Gamma(0.3+300i)| = 1.8e-205, |xi(0.5+600i)| = 2.7e-205 (relative
    # errors seen 2e-13, the phases' rounding at |Im s| log |s|)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for f, exact, s in (
            (zeta, mp.zeta, complex(-5.0, 500.0)),
            (gamma, mp.gamma, complex(0.3, 300.0)),
            (gamma, mp.gamma, complex(0.3, -300.0)),
            (xi_completed, lambda u: mp.pi ** (-u / 2) * mp.gamma(u / 2) * mp.zeta(u), complex(0.5, 600.0)),
        ):
            want = complex(exact(mp.mpc(s.real, s.imag)))
            assert abs(f(s) - want) <= 1e-12 * abs(want), (f.__name__, s)


def test_zeta_trivial_zeros_and_pole():
    assert zeta(-10) == 0.0
    assert abs(zeta(-2)) < 1e-15
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(PoleError):
        zeta(1.0 + 1e-12j)
    with pytest.raises(DomainError):
        zeta(complex(2.0, math.inf))


def test_bernoulli_table_is_the_exact_recurrence_rounded():
    exact = oracles.bernoulli_exact(64)
    assert _B_EVEN == tuple(float(b) for b in exact[::2])


def test_zeta_raises_when_corrections_miss_target(monkeypatch):
    monkeypatch.setattr(special_functions, "_EM_MAX_CORRECTIONS", 1)
    with pytest.raises(AccuracyError):
        zeta(0.5 + 40j)


# ---------------------------------------------------------------------------
# completed zeta


def test_xi_at_two_is_pi_over_six():
    assert abs(xi_completed(2) - math.pi / 6.0) < 1e-12


def test_xi_at_half_matches_composed_oracle():
    # frozen: pi^(-1/4) * oracles.gamma_quadrature(0.25)
    #         * oracles.zeta_euler_maclaurin_highorder(0.5) = -3.976966225505629
    assert abs(xi_completed(0.5) - (-3.976966225505629)) < 1e-9


def test_xi_reflection_pair_example():
    assert abs(xi_completed(0.3 + 2j) - xi_completed(0.7 - 2j)) < 1e-10


def test_xi_reflection_sweep():
    worst = max(abs(xi_completed(s) - xi_completed(1.0 - s)) for s in xi_reflection_sample())
    assert worst < 1e-10


def test_xi_poles():
    for bad in (0.0, 1.0, 1e-12, 1.0 + 1e-11j):
        with pytest.raises(PoleError):
            xi_completed(bad)
    with pytest.raises(DomainError):
        xi_completed(complex(math.nan, 1.0))


def test_xi_refuses_the_gamma_disk_around_zero_itself():
    # Gamma(s/2) refuses s/2 within 1e-9 of 0, so xi refuses the disk of
    # radius 2e-9 around s = 0 with its own message
    with pytest.raises(PoleError, match="completed zeta"):
        xi_completed(1.5e-9j)
    assert math.isfinite(abs(xi_completed(2.1e-9)))


def test_xi_is_entire_at_the_poles_of_gamma():
    # Gamma(s/2) has poles at s = -2, -4, ..., cancelled by zeros of zeta;
    # mpmath takes the value through xi(1 - w), away from its own gamma pole
    mp = pytest.importorskip("mpmath")
    assert xi_completed(-2) == xi_completed(3)
    with mp.workdps(30):
        for s in (-2.0, complex(-4, 1e-10)):
            w = 1 - mp.mpc(s)
            want = complex(mp.pi ** (-w / 2) * mp.gamma(w / 2) * mp.zeta(w))
            assert abs(xi_completed(s) - want) < 1e-14 * abs(want), s


def test_xi_left_half_plane_matches_mpmath():
    # left of Re u = -1 xi comes from xi(1 - u); the reference composes
    # pi^(-u/2) Gamma(u/2) zeta(u) at u itself in 40 digits, where nothing
    # overflows.  The panel takes the Gamma poles -2, ..., -78 at 1e-12..1e-6
    # and u = -180 - 3i, left of Re u = -171, where Gamma(1 - u) leaves
    # double range
    mp = pytest.importorskip("mpmath")
    rng = random.Random(29)
    panel = [complex(rng.uniform(-200.0, -1.0), rng.uniform(-50.0, 50.0)) for _ in range(150)]
    panel += [-2.0 * k + cmath.rect(10.0 ** rng.uniform(-12.0, -6.0), rng.uniform(-math.pi, math.pi))
              for k in range(1, 40)]
    panel.append(complex(-180.0, -3.0))
    assert xi_completed(-180 - 3j) == xi_completed(181 + 3j)
    with mp.workdps(40):
        for u in panel:
            w = mp.mpc(u.real, u.imag)
            want = complex(mp.pi ** (-w / 2) * mp.gamma(w / 2) * mp.zeta(w))
            assert abs(xi_completed(u) - want) < 2e-13 * abs(want), u


# ---------------------------------------------------------------------------
# power-divisor sums


def test_sigma_trivial_one():
    for s in (0, 1, 2.5, complex(0.3, -2.0)):
        assert sigma_power(1, s) == 1.0


def test_sigma_enumeration_examples():
    # frozen by brute divisor enumeration: {1,2,3,4,6,12} and {1,2,3,6}
    assert sigma_power(12, 0) == 6.0
    assert sigma_power(6, 1) == 12.0


def test_sigma_matches_brute_enumeration_random():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 5000)
        s = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
        want = oracles.divisor_sum_brute(n, s)
        assert abs(sigma_power(n, s) - want) < 1e-12 * max(1.0, abs(want))


def test_sigma_multiplicative_on_coprime_pairs():
    rng = random.Random(23)
    done = 0
    while done < 60:
        a = rng.randrange(2, 10**4)
        b = rng.randrange(2, 10**4)
        if math.gcd(a, b) != 1:
            continue
        s = complex(rng.uniform(-1.5, 1.5), rng.uniform(-4, 4))
        lhs = sigma_power(a * b, s)
        rhs = sigma_power(a, s) * sigma_power(b, s)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        done += 1


def test_sigma_negative_integer_exponent_is_exact_sum_rounded():
    for p, e, k in ((2, 11, 1), (3, 7, 5), (101, 3, 64), (999983, 2, 17)):
        want = float(sum(Fraction(1, p ** (i * k)) for i in range(e + 1)))
        assert sigma_power(p**e, -k) == want


def test_sigma_large_n_and_domain():
    assert sigma_power(10**12, 0) == 169.0  # tau(2^12 5^12) = 13 * 13
    with pytest.raises(DomainError):
        sigma_power(0, 2)
    with pytest.raises(DomainError):
        sigma_power(10**12 + 1, 2)
    with pytest.raises(DomainError):
        sigma_power(6, complex(math.nan, 0.0))
    # n is an integer, not a float with an integer part
    for n in (1.5, 6.5):
        with pytest.raises(DomainError):
            sigma_power(n, 1)


# ---------------------------------------------------------------------------
# K-Bessel


def test_bessel_half_order_closed_form():
    # K_{1/2}(y) = sqrt(pi / (2 y)) e^{-y}
    for y in (0.5, 1.0, 2.0, 5.0):
        closed = math.sqrt(math.pi / (2.0 * y)) * math.exp(-y)
        assert abs(bessel_k(0.5, y) - closed) < 1e-12
    # cross-checked against the quadrature oracle at doubled resolution
    assert abs(bessel_k(0.5, 2.0) - oracles.bessel_k_quadrature(0.5, 2.0)) < 1e-13


def test_bessel_zero_order_matches_doubled_node_oracle():
    # frozen: oracles.bessel_k_quadrature(0.0, 1.0) = 0.4210244382407084
    assert abs(bessel_k(0, 1.0) - 0.4210244382407084) < 1e-10


def test_bessel_even_in_order():
    rng = random.Random(37)
    for _ in range(200):
        order = complex(rng.uniform(-3, 3), rng.uniform(-10, 10))
        y = rng.uniform(0.3, 20.0)
        assert abs(bessel_k(order, y) - bessel_k(-order, y)) < 1e-12


def test_bessel_conjugate_symmetry():
    order = complex(0.7, 2.3)
    assert bessel_k(order.conjugate(), 1.5) == bessel_k(order, 1.5).conjugate()


def test_bessel_complex_order_against_oracle_panel():
    for order in (complex(0.5, 1.0), complex(2.0, -5.0), complex(0.0, 9.0)):
        for y in (0.3, 2.0, 12.0):
            want = oracles.bessel_k_quadrature(order, y)
            assert abs(bessel_k(order, y) - want) < 1e-12 * max(1.0, abs(want))


def _bessel_peak(a, y):
    # peak M of the envelope exp(-y cosh t + a t), at t = asinh(a/y)
    return math.exp(a * math.asinh(a / y) - math.hypot(a, y))


def test_bessel_peak_relative_accuracy_on_fourier_modes():
    # the orders s - 1/2 and arguments 2 pi n y' of eval_fourier's modes at a
    # pulled-back y' and |Im s| <= 30; an absolute cut of the integrand left
    # errors up to 1e-4 M here once y >~ 20
    mp = pytest.importorskip("mpmath")
    rng = random.Random(97)
    with mp.workdps(30):
        for _ in range(80):
            order = complex(rng.uniform(-1.5, 2.5), rng.uniform(-30.0, 30.0))
            y = 2.0 * math.pi * rng.choice((1, 2, 3, 5)) * rng.uniform(0.866, 4.0)
            want = complex(mp.besselk(mp.mpc(order), y))
            assert abs(bessel_k(order, y) - want) <= 1e-14 * _bessel_peak(abs(order.real), y)


def test_bessel_peak_relative_accuracy_on_long_node_runs():
    # small y widens the integrand to t ~ acosh(W / y): the kernel sums 16 to
    # 94 nodes here (median 47) against about 16 on the Fourier modes, so any
    # drift in its phase recurrences would build up
    mp = pytest.importorskip("mpmath")
    rng = random.Random(131)
    with mp.workdps(30):
        for _ in range(120):
            order = complex(rng.uniform(-2.5, 2.5), rng.uniform(-30.0, 30.0))
            y = 10.0 ** rng.uniform(-3.0, math.log10(5.0))
            want = complex(mp.besselk(mp.mpc(order), y))
            assert abs(bessel_k(order, y) - want) <= 1e-14 * _bessel_peak(abs(order.real), y)


def test_bessel_meets_an_absolute_tolerance():
    # abs_tol from 1e-14 M to 1e-1 M on the row's orders, all four sign
    # combinations, and y from 1e-3 to 200: the error stays within
    # max(1e-14 M, abs_tol)
    mp = pytest.importorskip("mpmath")
    rng = random.Random(149)
    with mp.workdps(30):
        for i in range(700):
            sign_re, sign_im = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))[i % 4]
            order = complex(sign_re * rng.uniform(0.0, 2.5), sign_im * rng.uniform(0.0, 30.0))
            y = 10.0 ** rng.uniform(-3.0, math.log10(200.0))
            peak = _bessel_peak(abs(order.real), y)
            abs_tol = 10.0 ** rng.uniform(-14.0, -1.0) * peak
            want = complex(mp.besselk(mp.mpc(order), y))
            assert abs(bessel_k(order, y, abs_tol=abs_tol) - want) <= max(1e-14 * peak, abs_tol)


def test_bessel_default_tolerance_keeps_its_bits():
    # abs_tol = 0 is the rule without a tolerance: a seeded panel over all
    # four sign combinations, signed zeros and y from 1e-3 to 10^3.5 hashes
    # to the digest frozen from bessel_k before abs_tol existed
    rng = random.Random(3000)
    digest = hashlib.sha256()
    for i in range(3000):
        re = rng.choice((0.0, -0.0, rng.uniform(0.0, 2.5), rng.uniform(0.0, 70.0)))
        im = rng.choice((0.0, -0.0, rng.uniform(0.0, 30.0), rng.uniform(0.0, 70.0)))
        sign_re, sign_im = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))[i % 4]
        order, y = complex(sign_re * re, sign_im * im), 10.0 ** rng.uniform(-3.0, 3.5)
        try:
            value = bessel_k(order, y, abs_tol=0.0)
        except OverflowError:
            digest.update(b"overflow")
            continue
        assert value == bessel_k(order, y)
        digest.update(f"{value.real.hex()} {value.imag.hex()};".encode())
    assert digest.hexdigest() == "3e67570480177fad0f7d1ad06a31ea9ab04b475a92fe5bef502629b7070e7774"


def test_bessel_bound_is_a_bound():
    # |K_order(y)| <= M sqrt(2 pi / y), M the envelope's peak, checked in log
    # space against mpmath over 0.1 <= |order| <= 100 and y from 1e-3 to 1e3.
    # bessel_k answers 0 where that bound is within abs_tol; for an abs_tol
    # drawn around |K| and one drawn around the bound, a 0 must be within
    # abs_tol of K.  For small orders |K| comes near half the bound, which is
    # above M below y = pi/2, so a rule without the sqrt(2 pi / y) would
    # answer 0 for some abs_tol < |K|
    mp = pytest.importorskip("mpmath")
    rng = random.Random(1032)
    zeros = 0
    with mp.workdps(20):
        for _ in range(52):
            order = cmath.rect(10.0 ** rng.uniform(-1.0, 2.0), rng.uniform(-math.pi, math.pi))
            y = 10.0 ** rng.uniform(-3.0, 3.0)
            a = abs(order.real)
            log_bound = a * math.asinh(a / y) - math.hypot(a, y) + 0.5 * math.log(2.0 * math.pi / y)
            log_k = float(mp.log(abs(mp.besselk(mp.mpc(order.real, order.imag), y))))
            assert log_k <= log_bound, (order, y)
            for log_tol in (log_k + rng.uniform(-1.0, 1.0), log_bound + rng.uniform(-1.0, 1.0)):
                abs_tol = math.exp(log_tol)
                if abs_tol > 0.0 and bessel_k(order, y, abs_tol=abs_tol) == 0j:
                    zeros += 1
                    assert log_k <= math.log(abs_tol), (order, y, abs_tol)
    assert zeros >= 15  # 25 on this panel


def test_bessel_tolerance_domain():
    for bad in (math.nan, -1.0, -math.inf):
        with pytest.raises(DomainError, match="abs_tol"):
            bessel_k(0.5, 2.0, abs_tol=bad)
    # an infinite tolerance is above every bound on |K|, so the answer is 0
    assert bessel_k(0.5, 2.0, abs_tol=math.inf) == 0j


def test_bessel_answers_0_where_k_underflows(monkeypatch):
    # where the bound M sqrt(2 pi / y) on |K| is below 2^-1075, half the
    # smallest subnormal, K rounds to 0 whatever abs_tol is, and no node is
    # summed: at y = 1e300 the 0.72 sqrt(y) nodes would never finish
    calls = []

    def count(*args):
        calls.append(args)
        return kernel(*args)

    kernel = _kernels.bessel_k_trapezoid
    monkeypatch.setattr(_kernels, "bessel_k_trapezoid", count)
    for order in (0.0, 2.0, 2.5 - 3.0j, -40.0 + 60.0j):
        for y in (800.0, 1e8, 1e300):
            for abs_tol in (0.0, 1e-300, math.inf):
                assert bessel_k(order, y, abs_tol=abs_tol) == 0j
    assert calls == []
    # K_0(745) ~ e^-748 is below it, K_0(740) ~ e^-743 a nonzero subnormal:
    # the bound, e^-747.4 and e^-742.4, puts the first on the no-sum side
    assert bessel_k(0.0, 745.0) == 0j and calls == []
    assert bessel_k(0.0, 740.0) != 0j and len(calls) == 1


def _bisect_cutoff(a, y, target):
    # root of y cosh t - a t = target right of the peak, by bisection alone
    lo = math.asinh(a / y)
    hi = lo + 1.0
    while y * math.cosh(hi) - a * hi < target:
        hi += 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if y * math.cosh(mid) - a * mid < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bessel_cut_panel(monkeypatch):
    # seed-53 panel: the step and node count bessel_k hands its kernel, the
    # bisection root of the rise (or the 0.5 floor), and the bracket
    # [lower, upper] the closed-form cut takes its upper end from.  Half the
    # points ask for an abs_tol, r M with r from 1e-14 to 10 or infinite;
    # the grid is the one abs_tol = 0 takes, as W depends on (order, y)
    # alone.  The draws bessel_k refuses (|order| > 100, or beyond double
    # range) and those it answers with 0 from its bound M sqrt(2 pi / y),
    # where that is within abs_tol or below 2^-1075, are skipped, as no call
    # takes their grid.  At least 1500 grids remain to be checked
    grids = []
    checked = 0

    def record(a, b, y, h, nsteps):
        grids.append((h, nsteps))
        return 0j

    monkeypatch.setattr(_kernels, "bessel_k_trapezoid", record)
    rng = random.Random(53)
    for _ in range(2800):
        y = 10.0 ** rng.uniform(-3.0, 4.0)
        a = rng.choice((0.0, rng.randrange(200) / 2.0, rng.uniform(0.0, 100.0)))
        b = rng.choice((0.0, rng.uniform(0.0, 100.0)))
        ratio = rng.choice((0.0, 0.0, 10.0 ** rng.uniform(-14.0, 1.0), math.inf))
        t_peak, kappa = math.asinh(a / y), math.hypot(a, y)
        log_peak = a * t_peak - kappa
        try:
            abs_tol = ratio * math.exp(log_peak) if ratio < math.inf else math.inf
            bessel_k(complex(a, b), y, abs_tol=abs_tol)
        except (DomainError, OverflowError):
            continue
        if not grids:
            continue
        h, nsteps = grids.pop()
        if abs_tol > 0.0:
            bessel_k(complex(a, b), y)
            assert grids.pop() == (h, nsteps), (a, b, y, abs_tol)
        rise = _BESSEL_W + math.log(2.0)
        root = max(_bisect_cutoff(a, y, rise + kappa - a * t_peak), 0.5)
        lower = max(t_peak + math.acosh(1.0 + rise / (kappa + a)), 0.5)
        upper = max(t_peak + math.acosh(1.0 + rise / kappa), 0.5)
        checked += 1
        yield h, nsteps, root, lower, upper
    assert checked >= 1500


def test_bessel_cutoff_is_the_peak_relative_root(monkeypatch):
    # the nodes must reach where the envelope has fallen to e^(-W)/2 of its
    # peak, i.e. where y cosh t - a t has risen by W + ln 2 above its minimum
    # hypot(a, y) - a asinh(a/y); the closed-form cut is never left of that
    # root and passes it by at most the bracket width upper - lower
    for h, nsteps, root, lower, upper in _bessel_cut_panel(monkeypatch):
        assert nsteps * h >= root * (1.0 - 1e-12)  # a = 0 hits the root exactly
        assert (nsteps - 1) * h < root + (upper - lower)


def test_bessel_bracket_never_moves_a_node(monkeypatch):
    # when both bracket ends fall in one node interval the count is the one
    # the exact root gives; when they straddle nodes it is at most
    # ceil(width/h) more
    for h, nsteps, root, lower, upper in _bessel_cut_panel(monkeypatch):
        if math.ceil(lower / h) == math.ceil(upper / h):
            assert nsteps == math.ceil(root / h)
        assert nsteps <= math.ceil(root / h) + math.ceil((upper - lower) / h)


def test_bessel_kernel_sums_exactly_the_nodes_up_to_n_h():
    # large steps and few nodes, so one node more or less moves the sum
    cases = ((0.7, 3.0, 2.0, 0.3, 5), (0.0, 0.0, 1.0, 0.5, 3), (2.5, 30.0, 9.0, 0.1, 12))
    for a, b, y, h, n in cases:
        got = _kernels.bessel_k_trapezoid(a, b, y, h, n)
        want = oracles.bessel_k_node_sum(complex(a, b), y, h, n)
        assert abs(got - want) <= 1e-15 * h * (n + 1)
        for other in (n - 1, n + 1):
            assert abs(got - oracles.bessel_k_node_sum(complex(a, b), y, h, other)) > 1e-9 * h


def test_bessel_domain_and_overflow():
    with pytest.raises(DomainError):
        bessel_k(0.5, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0.5, -1.0)
    for bad_y in (1e-320, 5e-324, math.nan, math.inf):
        with pytest.raises(DomainError):
            bessel_k(0.0, bad_y)
    # K_0(y) = -ln(y/2) - Euler's gamma + O(y^2 ln y) at the smallest y allowed
    assert abs(bessel_k(0.0, 1e-300) - (-math.log(0.5e-300) - 0.5772156649015329)) < 1e-12
    for bad_order in (101.0, complex(math.nan, 0.0)):
        with pytest.raises(DomainError):
            bessel_k(bad_order, 1.0)
    with pytest.raises(OverflowError):
        bessel_k(100.0, 0.05)


# ---------------------------------------------------------------------------
# result types


def test_results_are_finite_complex():
    for value in (gamma(3.3 + 4j), zeta(0.2 + 3j), xi_completed(4.2 - 1j), bessel_k(1.1j, 2.2)):
        assert isinstance(value, complex)
        assert math.isfinite(value.real) and math.isfinite(value.imag)
        assert cmath.isfinite(value)
