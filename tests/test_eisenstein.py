"""Eisenstein evaluators: cross-oracle agreement, functional equation,
coefficient extraction, and the first-coefficient route to the xi
reflection."""

import cmath
import contextlib
import math
import random

import numpy as np
import pytest

import oracles
from eisenkit import eisenstein
from eisenkit.eisenstein import (
    TruncationPolicy,
    eval_fourier,
    eval_lattice_sum,
    extract_coefficient_by_quadrature,
    first_coefficient_xi_check,
    fourier_coefficient,
    functional_equation_defect,
    functional_equation_grid,
    scattering_ratio,
)
from eisenkit.errors import AccuracyError, DivergenceError, DomainError, PoleError
from eisenkit.special_functions import TARGET_ABS_ERROR, sigma_power

# ---------------------------------------------------------------------------
# domain types


def test_half_plane_point_validation():
    for z in (0j, -1j, complex(math.nan, 1.0), complex(math.inf, 1.0), complex(0.0, math.inf)):
        with pytest.raises(DomainError):
            eval_fourier(z, 2.5)
        with pytest.raises(DomainError):
            eval_lattice_sum(z, 2.5)
    for y in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            fourier_coefficient(1, y, 2.5)
        with pytest.raises(DomainError):
            extract_coefficient_by_quadrature(1, y, 2.5)
    # mode numbers are integers; numpy integers pass
    for n in (1.5, 6.5):
        with pytest.raises(DomainError):
            fourier_coefficient(n, 1.0, 2.5)
        with pytest.raises(DomainError):
            extract_coefficient_by_quadrature(n, 1.0, 2.5)
    assert fourier_coefficient(np.int64(2), 1.0, 2.5) == fourier_coefficient(2, 1.0, 2.5)


def test_truncation_policy_validation():
    # an integer radius the kernels' pair table holds: 10..MAX_RADIUS
    for radius in (5, 500.5, 2001, 32768):
        with pytest.raises(DomainError):
            TruncationPolicy(lattice_radius=radius)
    for radius in (10, np.int64(2000)):
        assert TruncationPolicy(lattice_radius=radius).lattice_radius == radius


def test_spectral_parameter_distance():
    # s is refused within 1e-6 of a pole point and accepted just outside
    assert eisenstein._require_off_poles(0.5 + 2e-6j, "test") == 0.5 + 2e-6j
    with pytest.raises(PoleError):
        eisenstein._require_off_poles(0.5 + 1e-9j, "test")
    # a non-finite s is refused by every entry point instead of giving NaN
    for s in (complex(2.5, math.inf), complex(math.nan, 1.0), math.inf):
        for evaluate in (eval_fourier, eval_lattice_sum):
            with pytest.raises(DomainError):
                evaluate(0.3 + 1.2j, s)
        with pytest.raises(DomainError):
            extract_coefficient_by_quadrature(1, 1.0, s)
        with pytest.raises(DomainError):
            fourier_coefficient(1, 1.0, s)
        with pytest.raises(DomainError):
            scattering_ratio(s)


# ---------------------------------------------------------------------------
# lattice evaluator


def test_lattice_sum_real_on_imaginary_axis_real_s():
    value = eval_lattice_sum(1j, 2.5, TruncationPolicy(lattice_radius=80)).value
    assert abs(value.imag) < 1e-14


def test_lattice_sum_matches_brute_loop():
    # the brute loop sums at the oracle's own SL2(Z) image of z
    pytest.importorskip("mpmath")
    policy = TruncationPolicy(lattice_radius=60)
    for z, s in ((1j, 2.5), (0.3 + 1.2j, complex(3, 1)), (-0.4 + 0.8j, 2.2), (2.3 + 0.1j, 2.5)):
        want = oracles.eisenstein_brute(complex(oracles.sl2z_pullback(z)), s, 60)
        got = eval_lattice_sum(z, s, policy).value
        assert abs(got - want) < 1e-12 * abs(want)


def test_lattice_sum_diverges_below_abscissa():
    with pytest.raises(DivergenceError):
        eval_lattice_sum(1j, 1.0)
    with pytest.raises(DivergenceError):
        eval_lattice_sum(1j, complex(0.8, 3.0))


def test_lattice_tail_bound_is_honest():
    coarse = eval_lattice_sum(1j, 2.5, TruncationPolicy(lattice_radius=100))
    fine = eval_lattice_sum(1j, 2.5, TruncationPolicy(lattice_radius=2000))
    assert abs(coarse.value - fine.value) < coarse.tail_bound
    # near the cusp, where only the SL2(Z) pullback keeps the sum accurate
    pytest.importorskip("mpmath")
    policy = TruncationPolicy(lattice_radius=1000)
    for y in (0.003, 0.01, 0.05):
        for s, rel in ((2.5, 1e-9), (complex(2.2, 1), 1e-7)):
            z = complex(0.3, y)
            want = oracles.eisenstein_mpmath(z, s)
            got = eval_lattice_sum(z, s, policy)
            err = abs(got.value - want)
            assert err < rel * abs(want) and err <= got.tail_bound, (z, s)


# ---------------------------------------------------------------------------
# Fourier coefficients and evaluator


def test_constant_term_example():
    # frozen from the xi oracles: 1 + xi(4)/xi(5) = 2.391705099791311
    assert abs(fourier_coefficient(0, 1.0, 2.5) - 2.391705099791311) < 1e-10


def test_coefficient_depends_only_on_mode_magnitude():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 40)
        y = rng.uniform(0.3, 3.0)
        s = complex(rng.uniform(0.2, 2.8), rng.uniform(-4, 4))
        if abs(s - 0.5) < 0.05 or abs(s - 1.0) < 0.05 or abs(s) < 0.05:
            continue
        assert fourier_coefficient(n, y, s) == fourier_coefficient(-n, y, s)


def _panel_parameters(rng, count):
    # Re s in [-1, 3], |Im s| <= 30, clear of the pole points
    out = []
    while len(out) < count:
        s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-30.0, 30.0))
        if min(abs(s - p) for p in eisenstein.POLE_POINTS) >= 0.1:
            out.append(s)
    return out


def test_divisor_table_matches_sigma_power():
    # the table's 30 modes against the per-mode product n^(s-1/2) sigma_(1-2s)(n)
    for s in _panel_parameters(random.Random(61), 24):
        table = eisenstein._divisor_factors(s)
        assert len(table) == 31
        for n in range(1, 31):
            want = eisenstein._cpow(float(n), s - 0.5) * sigma_power(n, 1.0 - 2.0 * s)
            assert abs(table[n] - want) <= 1e-12 * abs(want)


def test_fourier_sums_the_closed_form_coefficients(monkeypatch):
    # z is in the fundamental domain, so the modes are taken at y = 1.3
    mode = eisenstein._mode
    for s in _panel_parameters(random.Random(67), 6):
        terms = {}

        def record(n, *args):
            terms[n] = mode(n, *args)
            return terms[n]

        with monkeypatch.context() as patch:
            patch.setattr(eisenstein, "_mode", record)
            eval_fourier(0.2 + 1.3j, s)
        assert sorted(terms) == list(range(1, 31))
        for n, a_n in terms.items():
            want = fourier_coefficient(n, 1.3, s)
            assert abs(a_n - want) <= 1e-12 * abs(want)


def _bits(result):
    # every bit of a SeriesValue: == would let 0.0 stand for -0.0
    return (result.value.real.hex(), result.value.imag.hex(), result.tail_bound.hex())


def _clear_memos():
    eisenstein._xi.cache_clear()
    eisenstein._divisor_factors.cache_clear()


@contextlib.contextmanager
def _mode_count(monkeypatch, count):
    # the divisor memo is keyed on s alone, so no table built for one mode
    # count may be read under another
    _clear_memos()
    with monkeypatch.context() as patch:
        patch.setattr(eisenstein, "_MODES", count)
        try:
            yield
        finally:
            _clear_memos()


def _fresh(z, s):
    _clear_memos()
    return _bits(eval_fourier(z, s))


def test_spectral_record_keeps_results_bit_identical():
    # 24 points: z over the fundamental domain and the cusp, Re s in [-1, 3],
    # |Im s| <= 30; every evaluation must match one made with the memo empty
    rng = random.Random(71)
    panel = [
        (complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 0.5)), s)
        for s in _panel_parameters(rng, 22)
    ]
    panel += [(0.3 + 1.2j, 2.5 + 0j), (0.3 + 1.2j, complex(2.5, -0.0))]
    others = _panel_parameters(random.Random(73), len(panel))
    fresh = {(z, repr(s)): _fresh(z, s) for z, s in panel}
    fresh.update({(0.1 + 2.0j, repr(s)): _fresh(0.1 + 2.0j, s) for s in others})
    _clear_memos()
    for z, s in panel + panel[::-1]:
        assert _bits(eval_fourier(z, s)) == fresh[z, repr(s)], (z, s)
    for (z, s), other in zip(panel, others):
        assert _bits(eval_fourier(z, s)) == fresh[z, repr(s)], (z, s)
        assert _bits(eval_fourier(0.1 + 2.0j, other)) == fresh[0.1 + 2.0j, repr(other)], other
        assert _bits(eval_fourier(z, s)) == fresh[z, repr(s)], (z, s)


def test_spectral_record_is_paid_once_per_s(monkeypatch):
    calls = []
    xi = eisenstein.xi_completed

    def spy(s):
        calls.append(s)
        return xi(s)

    def tables():
        # divisor tables built: the misses of their memo
        return eisenstein._divisor_factors.cache_info().misses

    monkeypatch.setattr(eisenstein, "xi_completed", spy)
    _clear_memos()
    s = complex(0.7, 12.5)
    for k in range(8):
        eval_fourier(complex(0.4 * k - 1.5, 0.05 + 0.3 * k), s)
    assert calls == [2.0 * s, 2.0 * s - 1.0]
    assert tables() == 1
    eval_fourier(0.2 + 1.1j, 2.5)
    assert len(calls) == 4
    assert tables() == 2
    # s enters with -0.0 parts made +0.0: 2.5-0j and -0.6-0j reuse the xi
    # values and divisor tables of 2.5 and -0.6
    eval_fourier(0.2 + 1.1j, complex(2.5, -0.0))
    assert len(calls) == 4
    assert tables() == 2
    eval_fourier(0.2 + 1.1j, -0.6)
    eval_fourier(0.2 + 1.1j, complex(-0.6, -0.0))
    assert len(calls) == 6
    assert tables() == 3
    # the functional equation takes c(s) from the xi values of eval_fourier(z, s)
    calls.clear()
    s = complex(0.3, 2.5)
    r = 1.0 - s
    functional_equation_defect(0.1 + 1.1j, s)
    assert calls == [2.0 * s, 2.0 * s - 1.0, 2.0 * r, 2.0 * r - 1.0]
    # one-shot calls pay only for what they return: c(s) and a_0 build no
    # divisor table, and a_n for n != 0 needs xi(2s) alone
    calls.clear()
    built = tables()
    s = complex(1.7, -4.0)
    scattering_ratio(s)
    fourier_coefficient(0, 1.1, s)
    assert calls == [2.0 * s, 2.0 * s - 1.0]
    s = complex(2.3, 6.0)
    fourier_coefficient(1, 1.1, s)
    fourier_coefficient(-3, 0.4, s)
    assert calls[2:] == [2.0 * s]
    assert tables() == built
    # a raising call keeps nothing: xi(2s) overflows at s = 200
    _clear_memos()
    with pytest.raises(OverflowError):
        eval_fourier(0.2 + 1.1j, 200.0)
    assert eisenstein._xi.cache_info().currsize == 0
    assert eisenstein._divisor_factors.cache_info().currsize == 0
    # nor does an AccuracyError at the last mode change later results
    points = [(0.3 + 1.2j, 2.5), (-0.1 + 0.02j, complex(0.7, 12.5)), (0.4 + 0.9j, complex(-0.6, -7.0))]
    want = [_fresh(z, s) for z, s in points]
    for z, s in points:
        with _mode_count(monkeypatch, 3):
            with pytest.raises(AccuracyError):
                eval_fourier(z, s)
        assert [_bits(eval_fourier(z, s)) for z, s in points] == want


def test_cross_evaluator_agreement():
    policy = TruncationPolicy(lattice_radius=800)
    for z in (1j, 0.3 + 1.2j):
        for s in (2.5, complex(3, 1)):
            lat = eval_lattice_sum(z, s, policy)
            fou = eval_fourier(z, s)
            assert abs(lat.value - fou.value) < 1e-6


def test_fourier_periodicity_is_exact():
    for z, s in ((0.3 + 1.2j, 2.5), (-0.7 + 0.9j, complex(0.4, 2))):
        shifted = eval_fourier(z + 1.0, s).value
        assert shifted == eval_fourier(z, s).value


def test_nonconstant_part_decays_like_first_bessel_mode():
    # on the imaginary axis E - a_0 is dominated by the n = 1 mode, which
    # carries e^(-2 pi y); the decrement ratio between y = 2.5 and 3 must
    # track e^(-pi) up to the slowly varying prefactor
    s = 2.5
    d = {}
    for y in (2.5, 3.0):
        total = eval_fourier(complex(0.0, y), s).value
        a0 = fourier_coefficient(0, y, s)
        d[y] = abs(total - a0)
    ratio = d[3.0] / d[2.5]
    assert 0.5 * math.exp(-math.pi) < ratio < 2.0 * math.exp(-math.pi)


def test_modular_inversion_invariance():
    z = complex(0.2, 1.1)
    w = -1.0 / z
    assert abs(eval_fourier(w, 2.5).value - eval_fourier(z, 2.5).value) < 1e-6


def test_fourier_near_cusp_matches_mpmath():
    # seeded points close to the real axis, where only the SL2(Z) pullback
    # makes a few modes enough; the reference does its own pullback
    pytest.importorskip("mpmath")
    rng = random.Random(41)
    points = [
        complex(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(math.log(1e-4), math.log(0.1))))
        for _ in range(24)
    ]
    for z in points + [0.2 + 0.4j]:
        for s in (2.5, complex(3, 1), complex(0.3, 2), complex(1.7, -4)):
            want = oracles.eisenstein_mpmath(z, s)
            assert abs(eval_fourier(z, s).value - want) < 1e-8 * abs(want), (z, s)


def test_fourier_near_cusp_frozen_values():
    # frozen from oracles.eisenstein_mpmath at 30 digits
    assert abs(eval_fourier(0.3 + 0.003j, 2.5).value - 20.51470112443987) < 1e-12 * 20.5
    assert abs(eval_fourier(0.123 + 0.0007j, 2.5).value - 9.627509572450284) < 1e-12 * 9.6


def _random_sl2z(rng: random.Random, bound: int):
    # (a, b; c, d) with a d - b c = 1, c != 0 and entries at most bound
    while True:
        c, d = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if c != 0 and math.gcd(c, d) == 1:
            break
    a = pow(d, -1, abs(c)) if abs(c) > 1 else 0
    b = (a * d - 1) // c
    assert a * d - b * c == 1 and max(abs(a), abs(b)) <= bound
    return a, b, c, d


def test_fourier_where_xi_meets_a_pole_of_gamma():
    # xi(2s - 1) or xi(2s) is taken at -2 or -4, a pole of Gamma but not of xi
    pytest.importorskip("mpmath")
    for s in (-0.5, -1.0, -1.5):
        want = oracles.eisenstein_mpmath(0.3 + 1.2j, s)
        assert abs(eval_fourier(0.3 + 1.2j, s).value - want) < 1e-12 * abs(want), s


def test_fourier_is_sl2z_invariant():
    rng = random.Random(17)
    z0 = complex(0.21, 1.13)
    for _ in range(10):
        a, b, c, d = _random_sl2z(rng, 50)
        w = (a * z0 + b) / (c * z0 + d)
        for s in (2.5, complex(3, 1)):
            want = eval_fourier(z0, s).value
            assert abs(eval_fourier(w, s).value - want) < 1e-10 * abs(want), ((a, b, c, d), s)


def test_pullback_lands_in_fundamental_domain():
    rng = random.Random(23)
    for _ in range(300):
        x = rng.choice((1.0, 1e3, 1e6)) * rng.uniform(-1.0, 1.0)
        y = 10.0 ** rng.uniform(-8.0, 1.0)
        xp, yp = eisenstein._pullback(x, y)
        assert abs(xp) <= 0.5 and abs(complex(xp, yp)) >= 1.0 - 1e-12, (x, y)
    # points already inside keep their coordinates exactly
    assert eisenstein._pullback(0.3, 1.2) == (0.3, 1.2)
    assert eisenstein._pullback(1.3, 1.2) == (1.3 - 1.0, 1.2)


def _disk_sweep(rng):
    # s over |s - 1/2| <= 100, 0.001 clear of the pole points, in four strata:
    # the ring 95..100, next to s = rho/2 for the first five zeta zeros rho,
    # Re s near +-100, and the interior
    gammas = (14.134725141734693, 21.022039638771555, 25.010857580145688, 30.424876125859513,
              32.93506158773919)

    def turn():
        return rng.uniform(-math.pi, math.pi)

    strata = (
        lambda: 0.5 + cmath.rect(rng.uniform(95.0, 100.0), turn()),
        lambda: complex(0.25, 0.5 * rng.choice(gammas)) + cmath.rect(10.0 ** rng.uniform(-8.0, -2.0), turn()),
        lambda: 0.5 + cmath.rect(rng.uniform(90.0, 100.0), rng.uniform(-0.3, 0.3) + rng.choice((0.0, math.pi))),
        lambda: 0.5 + cmath.rect(100.0 * math.sqrt(rng.random()), turn()),
    )
    for draw, count in zip(strata, (700, 300, 300, 700)):
        for _ in range(count):
            s = draw()
            while min(abs(s - p) for p in eisenstein.POLE_POINTS) < 1e-3:
                s = draw()
            yield s


def test_thirty_modes_meet_the_target_on_the_bessel_disk():
    # |s - 1/2| <= 100 is every order bessel_k accepts.  z is at the corner
    # of the fundamental domain, where y' = sqrt(3)/2 is lowest, or inside
    # it.  Each call returns with mode 30, read back from the tail bound,
    # ten times below the target, or raises OverflowError because xi(2s) or
    # xi(2s - 1) leaves double range
    rng = random.Random(83)
    returned = 0
    for s in _disk_sweep(rng):
        if rng.random() < 0.5:
            z = complex(rng.choice((-0.5, 0.5)), math.sqrt(3.0) / 2.0)
        else:
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 3.0))
        try:
            tail = eval_fourier(z, s).tail_bound
        except OverflowError:
            with pytest.raises(OverflowError):
                scattering_ratio(s)
            continue
        _, y = eisenstein._pullback(z.real, z.imag)
        decay = math.exp(-2.0 * math.pi * y)
        last = tail * (1.0 - decay) / decay
        target = TARGET_ABS_ERROR * max(1.0, abs(fourier_coefficient(0, y, s)))
        assert last <= 0.1 * target, (z, s, last, target)
        returned += 1
    # xi leaves double range only where Re s is below about -85
    assert returned >= 1700


def test_fourier_raises_at_mode_bound(monkeypatch):
    # at z = 0.3+1.2i, s = 2.5 the first mode below the target is n = 5
    with _mode_count(monkeypatch, 5):
        assert eval_fourier(0.3 + 1.2j, 2.5).value
    with _mode_count(monkeypatch, 3):
        with pytest.raises(AccuracyError):
            eval_fourier(0.3 + 1.2j, 2.5)


def test_fourier_raises_at_pullback_step_bound(monkeypatch):
    # 0.3+0.01i needs more than one translate-and-invert step
    monkeypatch.setattr(eisenstein, "_PULLBACK_STEPS", 1)
    with pytest.raises(AccuracyError, match="pullback"):
        eval_fourier(0.3 + 0.01j, 2.5)


def test_pole_exclusions_propagate():
    for s in (0.5, 1.0, 0.0, 0.5 + 1e-9j):
        with pytest.raises(PoleError):
            fourier_coefficient(0, 1.0, s)
        with pytest.raises(PoleError):
            eval_fourier(1j, s)
        with pytest.raises(PoleError):
            scattering_ratio(s)


# ---------------------------------------------------------------------------
# scattering ratio


def test_scattering_example_value():
    # frozen from the xi oracles: xi(4)/xi(5) = 1.3917050997913112
    assert abs(scattering_ratio(2.5) - 1.3917050997913112) < 1e-9


def test_scattering_product_is_one():
    rng = random.Random(7)
    for _ in range(25):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-6, 6))
        if min(abs(s), abs(s - 0.5), abs(s - 1.0)) < 0.05:
            continue
        assert abs(scattering_ratio(s) * scattering_ratio(1.0 - s) - 1.0) < 1e-10


def test_scattering_unitary_on_critical_line():
    rng = random.Random(9)
    for _ in range(25):
        t = rng.uniform(0.05, 8.0)
        s = complex(0.5, t)
        ratio = scattering_ratio(s)
        assert abs(abs(ratio) - 1.0) < 1e-10
        # unitarity comes from xi conjugation symmetry: on the critical line
        # 1 - s = conj(s), so c(1-s) = conj(c(s))
        assert abs(scattering_ratio(1.0 - s) - ratio.conjugate()) < 1e-12 * abs(ratio)


# ---------------------------------------------------------------------------
# functional equation


def test_functional_equation_defect_examples():
    assert functional_equation_defect(0.3 + 1.4j, complex(0.6, 2.0)) < 1e-8
    assert functional_equation_defect(1j, 0.25) < 1e-8


def test_functional_equation_defect_grid():
    worst = max(functional_equation_defect(0.3 + 1.4j, s) for s in functional_equation_grid())
    assert worst < 1e-8


def test_defect_transforms_by_ratio_magnitude_under_reflection():
    # applying the identity twice: a perturbed left side makes the defect
    # visible, and the reflected defect is |c(1-s)| times the forward one
    # (exactly, up to the c(s) c(1-s) = 1 roundoff)
    z = complex(0.3, 1.1)
    s = complex(0.6, 2.0)
    forward = eval_fourier(z, s).value + 1e-6
    reflected = eval_fourier(z, 1.0 - s).value
    d_s = abs(forward - scattering_ratio(s) * reflected)
    d_r = abs(reflected - scattering_ratio(1.0 - s) * forward)
    scale = abs(scattering_ratio(1.0 - s))
    assert d_s > 1e-7  # the injected perturbation dominates
    # residual is |c(s) c(1-s) - 1| * |forward| ~ 1e-15, far below the defects
    assert abs(d_r - scale * d_s) < 1e-13


# ---------------------------------------------------------------------------
# coefficient extraction


def test_extraction_matches_constant_term():
    policy = TruncationPolicy(lattice_radius=600)
    got = extract_coefficient_by_quadrature(0, 2.0, 2.5, policy, source="lattice")
    want = fourier_coefficient(0, 2.0, 2.5)
    assert abs(got - want) < 1e-6


def test_extraction_matches_first_coefficient():
    policy = TruncationPolicy(lattice_radius=600)
    got = extract_coefficient_by_quadrature(1, 1.0, 2.5, policy, source="lattice")
    want = fourier_coefficient(1, 1.0, 2.5)
    assert abs(got - want) < 1e-6


def test_extraction_matches_second_coefficient():
    policy = TruncationPolicy(lattice_radius=500)
    got = extract_coefficient_by_quadrature(2, 1.0, 2.5, policy, source="lattice")
    want = fourier_coefficient(2, 1.0, 2.5)
    assert abs(got - want) < 1e-6


def test_extraction_agrees_with_independent_oracle():
    # same trapezoid extraction built on the independent numpy lattice panel,
    # which sums every node; odd counts have no node at x = 1/2
    policy = TruncationPolicy(lattice_radius=200)
    counts = set()
    for n, y, s in ((1, 1.0, 2.5), (2, 1.0, 2.5), (1, 0.5, 2.5 + 2j)):
        nodes = eisenstein._quadrature_nodes(n, y, complex(s))
        counts.add(nodes % 2)
        got = extract_coefficient_by_quadrature(n, y, s, policy, source="lattice")
        want = oracles.extract_mode_brute(n, y, s, nodes=nodes, radius=200)
        assert abs(got - want) < 1e-12
    assert counts == {0, 1}


def test_extraction_sums_half_the_nodes(monkeypatch):
    # E is even in x: nodes k/N and 1 - k/N share one lattice sum
    seen = []
    batch = eisenstein._kernels.lattice_sum_batch

    def spy(xs, *args):
        seen.append(len(xs))
        return batch(xs, *args)

    monkeypatch.setattr(eisenstein._kernels, "lattice_sum_batch", spy)
    inputs = ((1, 1.0, 2.5), (2, 1.0, 2.5), (0, 2.0, 2.5), (1, 0.1, 2.5 + 3j))
    for n, y, s in inputs:
        extract_coefficient_by_quadrature(n, y, s, TruncationPolicy(50))
    want = [eisenstein._quadrature_nodes(n, y, complex(s)) // 2 + 1 for n, y, s in inputs]
    assert seen == want


def test_extraction_nodes_put_aliases_below_target():
    # every alias of a_n in the N-node rule is a mode |k| >= N - |n|, and the
    # closed form puts the nearest one below the accuracy target
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(0, 10)
        y = math.exp(rng.uniform(math.log(0.01), math.log(5.0)))
        s = complex(rng.uniform(1.01, 6.0), rng.uniform(-30.0, 30.0))
        k = eisenstein._quadrature_nodes(n, y, s) - n
        assert abs(fourier_coefficient(k, y, s)) < TARGET_ABS_ERROR, (n, y, s)


def test_extraction_near_cusp_matches_closed_form():
    # at y = 0.02 the alias a_63 of a_1 is 1% of it under 64 nodes, so the
    # node count must grow as y falls; the tolerance is the lattice tail at
    # the unreduced y plus 1e-10
    rng = random.Random(31)
    policy = TruncationPolicy(lattice_radius=300)
    for _ in range(8):
        n = rng.randint(0, 3)
        y = rng.uniform(0.02, 0.1)
        s = complex(rng.uniform(2.0, 3.0), rng.choice((0.0, rng.uniform(-10.0, 10.0))))
        got = extract_coefficient_by_quadrature(n, y, s, policy)
        want = fourier_coefficient(n, y, s)
        scale = max(1.0, abs(fourier_coefficient(0, y, s)))
        tail = 8.0 * y ** (-s.real) * 300 ** (2.0 - 2.0 * s.real) / (2.0 * s.real - 2.0)
        assert abs(got - want) < tail + 1e-10 * scale, (n, y, s)


def test_extraction_raises_past_node_bound(monkeypatch):
    with pytest.raises(AccuracyError, match="quadrature nodes"):
        extract_coefficient_by_quadrature(1, 1e-6, 2.5)
    # a_1 at y = 1, s = 2.5 takes exactly 8 nodes
    monkeypatch.setattr(eisenstein, "_NODE_BOUND", 8)
    assert extract_coefficient_by_quadrature(1, 1.0, 2.5, TruncationPolicy(50))
    monkeypatch.setattr(eisenstein, "_NODE_BOUND", 7)
    with pytest.raises(AccuracyError):
        extract_coefficient_by_quadrature(1, 1.0, 2.5, TruncationPolicy(50))


def test_high_mode_extraction_is_negligible():
    # a_5(3, 2.5) carries K_2(30 pi) ~ e^(-94); the extraction must see noise only
    policy = TruncationPolicy(lattice_radius=800)
    value = extract_coefficient_by_quadrature(5, 3.0, 2.5, policy, source="lattice")
    assert abs(value) < 1e-10


def test_extraction_source_validation():
    with pytest.raises(DivergenceError):
        extract_coefficient_by_quadrature(0, 1.0, 0.5 + 2j, source="lattice")
    # the lattice is the only source, also when none is named
    with pytest.raises(DivergenceError):
        extract_coefficient_by_quadrature(1, 1.0, 0.5 + 2j)
    for source in ("bogus", "fourier", "auto"):
        with pytest.raises(DomainError):
            extract_coefficient_by_quadrature(0, 1.0, 2.5, source=source)
    with pytest.raises(DomainError):
        extract_coefficient_by_quadrature(0, -1.0, 2.5)


# ---------------------------------------------------------------------------
# first-coefficient route to the xi reflection


def test_first_coefficient_examples():
    assert first_coefficient_xi_check(complex(0.3, 1.0)) < 1e-10
    assert first_coefficient_xi_check(0.7) < 1e-10


def test_first_coefficient_grid():
    worst = max(first_coefficient_xi_check(s) for s in functional_equation_grid())
    assert worst < 1e-10


def test_first_coefficient_symmetric_in_reflection():
    # dyadic s makes 1-s, 2s-1, ... exact, so the defect is bit-identical
    s = complex(0.25, 0.5)
    assert first_coefficient_xi_check(s) == first_coefficient_xi_check(1.0 - s)
    # generic s agrees to roundoff
    s = complex(0.3, 1.7)
    assert abs(first_coefficient_xi_check(s) - first_coefficient_xi_check(1.0 - s)) < 1e-12


def test_first_coefficient_pole_exclusion():
    for s in (0.0, 0.5, 1.0):
        with pytest.raises(PoleError):
            first_coefficient_xi_check(s)
