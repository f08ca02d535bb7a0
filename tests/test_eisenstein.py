"""Eisenstein evaluators: cross-oracle agreement, functional equation,
coefficient extraction, and fe-check's first-coefficient route to the xi
reflection."""

import cmath
import contextlib
import json
import math
import random

import numpy as np
import pytest

import oracles
from eisenkit import _kernels, cli, eisenstein
from eisenkit.eisenstein import (
    TruncationPolicy,
    eval_fourier,
    eval_lattice_sum,
    extract_coefficient_by_quadrature,
    fourier_coefficient,
    scattering_ratio,
)
from eisenkit.errors import AccuracyError, DivergenceError, DomainError, PoleError
from eisenkit.special_functions import TARGET_ABS_ERROR, bessel_k, sigma_power, xi_completed, zeta

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
    # the brute loop sums at the oracle's own SL2(Z) image of z, and the
    # oracle's coprime-density tail is added as the package adds its own
    pytest.importorskip("mpmath")
    policy = TruncationPolicy(lattice_radius=60)
    for z, s in ((1j, 2.5), (0.3 + 1.2j, complex(3, 1)), (-0.4 + 0.8j, 2.2), (2.3 + 0.1j, 2.5)):
        image = complex(oracles.sl2z_pullback(z))
        want = oracles.eisenstein_brute(image, s, 60) + oracles.lattice_tail_correction(image, s, 60)
        got = eval_lattice_sum(z, s, policy).value
        assert abs(got - want) < 1e-12 * abs(want)


def test_lattice_sum_diverges_below_abscissa():
    with pytest.raises(DivergenceError):
        eval_lattice_sum(1j, 1.0)
    with pytest.raises(DivergenceError):
        eval_lattice_sum(1j, complex(0.8, 3.0))


def test_lattice_routines_refuse_im_s_past_100(monkeypatch):
    # the tail estimate's panel count grows with |Im s|, so both lattice
    # routines answer up to |Im s| = 100, where C is tested, and refuse past
    # it before any kernel runs
    policy = TruncationPolicy(lattice_radius=10)
    for s in (2.0 + 100.0j, 2.5 - 100.0j):
        assert cmath.isfinite(eval_lattice_sum(0.3 + 1.2j, s, policy).value)
        assert cmath.isfinite(extract_coefficient_by_quadrature(1, 1.0, s, policy))

    def refuse(*args):
        raise AssertionError("a lattice kernel ran")

    monkeypatch.setattr(_kernels, "lattice_sum", refuse)
    monkeypatch.setattr(_kernels, "lattice_sum_batch", refuse)
    for s in (complex(2.0, math.nextafter(100.0, math.inf)), 2.5 - 101.0j, 2.0 + 1e5j, 2.0 - 1e9j):
        with pytest.raises(DomainError, match="eval_lattice_sum row"):
            eval_lattice_sum(0.3 + 1.2j, s, policy)
        with pytest.raises(DomainError, match="extract_coefficient_by_quadrature row"):
            extract_coefficient_by_quadrature(1, 1.0, s, policy)
    # Re s <= 1 still diverges first, whatever Im s is
    with pytest.raises(DivergenceError):
        eval_lattice_sum(0.3 + 1.2j, 0.5 + 1e5j, policy)


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


def test_tail_correction_matches_the_closed_form(monkeypatch):
    # C = T I, checked in its two factors against the oracle's C and T.  I
    # on both of its routes, against the oracle's hypergeometric closed form
    # on all four edges, C / T (worst 8.3e-14): Fejer's rule on the samples
    # of F wherever the sum took the moment path, and composite
    # Gauss-Legendre in v over two edges doubled at every x, as at the x
    # that fall back.  y reaches the extraction's unpulled rows, where the
    # edges' ends steepen in the polar angle, and |Im s| the phase's fastest
    # swing; both send most x to the edges.  T = zeta(2s - 1) / zeta(2s) - P
    # cancels as R^(2 - 2 Re s) falls, so it is held to zeta's 1e-14 of the
    # ratio (worst seen 1.6e-15)
    pytest.importorskip("mpmath")
    edge_integrals = _kernels._edge_integrals
    fell_back = []
    monkeypatch.setattr(_kernels, "_edge_integrals", lambda xs, y, s: fell_back.extend(xs) or edge_integrals(xs, y, s))

    def check(xs, y, s, radius):
        fell_back.clear()
        _, partial, integrals = _kernels.lattice_sum_batch(xs, y, s.real, s.imag, radius)
        fejer = ~np.isin(xs, fell_back)
        edges = edge_integrals(np.asarray(xs, dtype=float), y, s)
        tail, ratio = oracles.coprime_tail(s, radius)
        got_tail = zeta(2.0 * s - 1.0) / zeta(2.0 * s) - partial
        assert abs(got_tail - complex(tail)) <= 1e-14 * abs(complex(ratio)), (s, radius)
        for k, x in enumerate(xs):
            want = oracles.lattice_tail_correction(complex(x, y), s, radius) / complex(tail)
            for got in (edges[k], integrals[k]):
                assert abs(eisenstein._cpow(y, s) * got - want) <= 1e-12 * abs(want), (x, y, s, radius)
        assert eisenstein._tail_correction(s, partial, integrals).tobytes() == (got_tail * integrals).tobytes()
        return int(fejer.sum()), int((~fejer).sum())

    counts = np.zeros(2, dtype=int)
    rng = random.Random(330)
    for _ in range(40):
        x = rng.uniform(-0.5, 1.0)
        y = math.exp(rng.uniform(math.log(2e-3), math.log(3.0)))
        s = complex(rng.uniform(1.0, 4.0), rng.choice((0.0, rng.uniform(-100.0, 100.0))))
        counts += check([x], y, s, rng.choice((10, 200, 2000)))
    # the moment path's x, and its fallbacks at |Im s| = 40 and on an
    # extraction's nodes at y = 0.1
    for s, radius in ((2.5, 300), (1.3 + 4j, 10), (3.6 - 8j, 2000), (2.2 + 40j, 300)):
        counts += check([-0.4, 0.1, 0.5], 1.1, complex(s), radius)
    counts += check([0.0, 0.25, 0.5], 0.1, complex(2.5, 1.0), 200)
    assert counts[0] >= 15 and counts[1] >= 30, counts
    # as the extraction calls it: many x at once, whose panels take blocks
    xs, y, s = np.linspace(0.0, 0.5, 300), 0.01, complex(1.5, 60.0)
    edges = edge_integrals(xs, y, s)
    tail = complex(oracles.coprime_tail(s, 300)[0])
    for k in (0, 77, 299):
        want = oracles.lattice_tail_correction(complex(xs[k], y), s, 300) / tail
        assert abs(eisenstein._cpow(y, s) * edges[k] - want) <= 1e-12 * abs(want), k


def test_fejer_and_the_edges_agree_on_the_moment_path(monkeypatch):
    # on lattice_extract-like points, where every sum takes the moment path,
    # C from the kernels' Fejer integral and C from the edge integral agree
    # far below what the sum itself is held to (worst seen 2.0e-17)
    edge_integrals = _kernels._edge_integrals
    fell_back = []
    monkeypatch.setattr(_kernels, "_edge_integrals", lambda *args: fell_back.append(args) or edge_integrals(*args))
    rng = random.Random(44)
    for _ in range(300):
        s = complex(rng.uniform(1.2, 4.0), rng.choice((0.0, rng.uniform(-10.0, 10.0))))
        y = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        radius, x = rng.randint(200, 1000), rng.uniform(-0.5, 0.5)
        sums, partial, integrals = _kernels.lattice_sum_batch([x], y, s.real, s.imag, radius)
        assert not fell_back, (x, y, s, radius)
        edge = edge_integrals(np.array([x]), y, s)[0]
        difference = abs((zeta(2.0 * s - 1.0) / zeta(2.0 * s) - partial) * (integrals[0] - edge))
        assert difference <= 1e-16 * max(1.0, abs(sums[0])), (x, y, s, radius)


def test_lattice_sum_on_the_cm_panel():
    # at the CM points of class number one E is exact (oracles.eisenstein_cm).
    # The tail bound holds at every point (median bound / error 2.5e6, least
    # 5.7e4: B, the bound on the plain tail, dominates it), and the
    # correction takes the median error down by 2,000x or more (4,229x on
    # this panel, 2.2e-7 to 5.3e-11 of |E|; 595x when it took the shells'
    # coprime count from the density 6/pi^2 instead of zeta(2s - 1) / zeta(2s))
    pytest.importorskip("mpmath")
    rng = random.Random(1981)
    plain_errors, errors = [], []
    for d in (-3, -4, -7, -8, -11, -19):
        z = oracles.cm_point(d)
        for _ in range(4):
            s = complex(rng.uniform(1.1, 3.0), rng.choice((0.0, rng.uniform(-10.0, 10.0))))
            want = oracles.eisenstein_cm(d, s)
            for radius in (50, 200, 1000):
                got = eval_lattice_sum(z, s, TruncationPolicy(lattice_radius=radius))
                error = abs(got.value - want)
                assert got.tail_bound >= error, (d, s, radius)
                # z_D lies in the fundamental domain, where eval_lattice_sum sums
                plain = eisenstein._cpow(z.imag, s) * _kernels.lattice_sum(z.real, z.imag, s.real, s.imag, radius)[0]
                plain_errors.append(abs(plain - want) / abs(want))
                errors.append(error / abs(want))
    assert np.median(plain_errors) >= 2000.0 * np.median(errors)


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


def test_coefficient_far_left_matches_mpmath():
    # left of Re s = 1/2 the divisor factor is n^(1/2-s) sigma_(2s-1)(n):
    # sigma_(1-2s)(36) alone overflows at s = -99, where a_36 is 4.7e-41
    pytest.importorskip("mpmath")
    rng = random.Random(99)
    cases = [(36, 1.0, -99.0), (35, 1.0, -99.0)]
    for _ in range(30):
        n = rng.randint(1, 60)
        y = math.exp(rng.uniform(math.log(0.3), math.log(1.5)))
        cases.append((n, y, complex(rng.uniform(-99.0, -1.0), rng.uniform(-10.0, 10.0))))
    for n, y, s in cases:
        want = oracles.fourier_coefficient_mpmath(n, y, s)
        assert abs(fourier_coefficient(n, y, s) - want) <= 1e-12 * abs(want), (n, y, s)


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
    # z is in the fundamental domain, so the modes are taken at y = 1.3.
    # Each of the 30 modes asks bessel_k only for its share of the target:
    # each a_n may miss the closed form by target / (2 * 30), as
    # 2 a_n cos(2 pi n x) enters E
    x, y = 0.2, 1.3
    for s in _panel_parameters(random.Random(67), 6):
        ks = {}

        def record(order, arg, **kwargs):
            n = round(arg / (2.0 * math.pi * y))
            ks[n] = bessel_k(order, arg, **kwargs)
            return ks[n]

        with monkeypatch.context() as patch:
            patch.setattr(eisenstein, "bessel_k", record)
            got = eval_fourier(complex(x, y), s).value
        assert sorted(ks) == list(range(1, 31))
        total = fourier_coefficient(0, y, s)
        target = TARGET_ABS_ERROR * max(1.0, abs(total))
        size = abs(total)
        xi_2s = xi_completed(2.0 * s)
        for n, k_n in ks.items():
            a_n = 2.0 * eisenstein._cpow(n, s - 0.5) * sigma_power(n, 1.0 - 2.0 * s) * math.sqrt(y) * k_n / xi_2s
            want = fourier_coefficient(n, y, s)
            assert abs(a_n - want) <= 1e-12 * abs(want) + target / (2.0 * 30), (s, n)
            total += 2.0 * a_n * math.cos(2.0 * math.pi * n * x)
            size += 2.0 * abs(a_n)
        # and E is the sum of those terms, up to rounding
        assert abs(got - total) <= 1e-14 * size, s


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
    cli._FE_CHECKS["eisenstein"](0.1 + 1.1j, s)
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
    # a raising call keeps nothing: xi(2s) overflows at s = 200, where
    # eval_fourier refuses s before any xi, past the orders of its modes
    _clear_memos()
    with pytest.raises(OverflowError):
        fourier_coefficient(0, 1.1, 200.0)
    with pytest.raises(DomainError):
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


def test_fourier_satisfies_the_hecke_relations():
    # E(., s) is a Hecke eigenform (Bump, Automorphic Forms and
    # Representations, 1.4): E(pz) + sum_(b<p) E((z + b)/p) =
    # (p^s + p^(1-s)) E(z).  For |x| <= 1/2 the p + 2 points pull back to
    # different heights only when y < p: from y = p on none is inverted, and
    # the relation holds mode by mode with one K_nu(2 pi n y) in all its
    # terms, so it cannot see an error in K.  Where they do, a mis-scaled
    # mode or a missing one of modes 1-5 breaks the relation (the worst
    # defect is 2e-13 of the scale); y in [1e-3, 3] lies below p = 3
    # throughout and below p = 2 on two thirds of the draws.  No mpmath: the
    # evaluator checks itself on the README's band
    rng = random.Random(2029)
    for _ in range(250):
        s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-10.0, 10.0))
        while min(abs(s - p) for p in eisenstein.POLE_POINTS) < 0.01:
            s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-10.0, 10.0))
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(1e-3, 3.0))
        e_z = eval_fourier(z, s).value
        for p in (2, 3):
            terms = [eval_fourier(p * z, s).value]
            terms += [eval_fourier((z + b) / p, s).value for b in range(p)]
            terms.append(-(p**s + p ** (1.0 - s)) * e_z)
            scale = max(1.0, sum(abs(t) for t in terms))
            assert abs(sum(terms)) <= 1e-10 * scale, (z, s, p)


def test_fourier_matches_the_cm_closed_form():
    # at the CM points of class number one E is (w/2) y^s zeta(s) L(s, chi_D)
    # / zeta(2s), exact and free of the Fourier expansion (worst error 1.0e-13
    # of max(1, |E|) on this panel)
    pytest.importorskip("mpmath")
    rng = random.Random(1980)
    for d in (-3, -4, -7, -8, -11, -19):
        for _ in range(4):
            s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-10.0, 10.0))
            while min(abs(s - p) for p in eisenstein.POLE_POINTS) < 0.05:
                s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-10.0, 10.0))
            want = oracles.eisenstein_cm(d, s)
            got = eval_fourier(oracles.cm_point(d), s).value
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (d, s)


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


def _disk_point(rng):
    # z at the corner of the fundamental domain, where y' = sqrt(3)/2 is
    # lowest, or inside it
    if rng.random() < 0.5:
        return complex(rng.choice((-0.5, 0.5)), math.sqrt(3.0) / 2.0)
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 3.0))


def test_thirty_modes_meet_the_target_on_the_bessel_disk():
    # |s - 1/2| <= 100 is every order bessel_k accepts.  Every call
    # returns, with mode 30, read back from the tail bound less the share of
    # the target it adds, ten times below the target
    rng = random.Random(83)
    for s in _disk_sweep(rng):
        z = _disk_point(rng)
        tail = eval_fourier(z, s).tail_bound
        _, y = eisenstein._pullback(z.real, z.imag)
        decay = math.exp(-2.0 * math.pi * y)
        target = TARGET_ABS_ERROR * max(1.0, abs(fourier_coefficient(0, y, s)))
        last = tail * (1.0 - decay) / decay - target / 30.0
        assert last <= 0.1 * target, (z, s, last, target)


def test_tail_bound_bounds_the_omitted_modes():
    # sum of 2 |a_n| over n = 31..60, the modes eval_fourier leaves out, is
    # within its tail bound: on 300 README-band points, half of them in the
    # cusp, and a quarter of the disk sweep.  Left of Re s = 1/2 a_n is read
    # as c(s) a_n(1 - s), the functional equation mode by mode, since
    # sigma_power(n, 1 - 2s) leaves double range near Re s = -99 once n > 35
    rng = random.Random(97)
    points = []
    for i in range(300):
        s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-10.0, 10.0))
        while min(abs(s - p) for p in eisenstein.POLE_POINTS) < 0.01:
            s = complex(rng.uniform(-1.0, 3.0), rng.uniform(-10.0, 10.0))
        if i % 2:
            z = complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-4.0, -1.0))
        else:
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(math.sqrt(3.0) / 2.0, 3.0))
        points.append((z, s))
    for s in list(_disk_sweep(rng))[::4]:
        points.append((_disk_point(rng), s))
    for z, s in points:
        tail = eval_fourier(z, s).tail_bound
        _, y = eisenstein._pullback(z.real, z.imag)
        u, ratio = (s, 1.0) if s.real >= 0.5 else (1.0 - s, scattering_ratio(s))
        omitted = abs(ratio) * sum(2.0 * abs(fourier_coefficient(n, y, u)) for n in range(31, 61))
        assert omitted <= tail, (z, s, omitted, tail)  # at most 0.23 of it here


def test_mode_budgets_keep_the_full_accuracy_sum(monkeypatch):
    # the 30 modes share the target: on the disk sweep and a seeded cusp
    # panel, E moves from the sum with every K at full accuracy
    # (eisenstein.bessel_k patched to drop abs_tol) by less than the target,
    # with fewer nodes, and the tail bound is at least the geometric tail
    # seeded by mode 30 at full accuracy
    kernel, nodes = _kernels.bessel_k_trapezoid, [0]

    def count(a, b, y, h, nsteps):
        nodes[0] += nsteps + 1
        return kernel(a, b, y, h, nsteps)

    monkeypatch.setattr(_kernels, "bessel_k_trapezoid", count)
    rng = random.Random(4099)
    points = []
    for s in _disk_sweep(rng):
        points.append((_disk_point(rng), s))
    for _ in range(400):
        z = complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-4.0, -1.0))
        points.append((z, complex(rng.uniform(-1.0, 3.0), rng.uniform(-30.0, 30.0))))
    full = []
    with monkeypatch.context() as patch:
        patch.setattr(eisenstein, "bessel_k", lambda order, arg, abs_tol=0.0: bessel_k(order, arg))
        for z, s in points:
            full.append(eval_fourier(z, s))
    full_nodes, nodes[0] = nodes[0], 0
    for (z, s), want in zip(points, full):
        got = eval_fourier(z, s)
        _, y = eisenstein._pullback(z.real, z.imag)
        target = TARGET_ABS_ERROR * max(1.0, abs(fourier_coefficient(0, y, s)))
        assert abs(got.value - want.value) <= target, (z, s)
        decay = math.exp(-2.0 * math.pi * y)
        full_tail = want.tail_bound - target / 30.0 * decay / (1.0 - decay)
        assert got.tail_bound >= full_tail, (z, s)
    assert nodes[0] < 0.75 * full_nodes  # 0.514 of them on this panel


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
    defect = cli._FE_CHECKS["eisenstein"]
    assert defect(0.3 + 1.4j, complex(0.6, 2.0)) < 1e-8
    assert defect(1j, 0.25) < 1e-8


def test_functional_equation_defect_grid():
    defect = cli._FE_CHECKS["eisenstein"]
    worst = max(defect(0.3 + 1.4j, s) for s in cli.functional_equation_grid())
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
    # which sums every node, plus the oracle's coprime-density tail at each
    # node; odd counts have no node at x = 1/2
    pytest.importorskip("mpmath")
    policy = TruncationPolicy(lattice_radius=200)
    counts = set()
    for n, y, s in ((1, 1.0, 2.5), (2, 1.0, 2.5), (1, 0.5, 2.5 + 2j)):
        nodes = eisenstein._quadrature_nodes(n, y, complex(s))
        counts.add(nodes % 2)
        got = extract_coefficient_by_quadrature(n, y, s, policy, source="lattice")
        xs = [k / nodes for k in range(nodes)]
        tails = [oracles.lattice_tail_correction(complex(x - round(x), y), s, 200) for x in xs]
        want = oracles.extract_mode_brute(n, y, s, nodes=nodes, radius=200)
        want += sum(t * cmath.exp(-2j * math.pi * n * x) for t, x in zip(tails, xs)) / nodes
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
# first-coefficient route to the xi reflection (fe-check --check first-coefficient)


def _first_coefficient_rows(points, capsys):
    argv = ["fe-check", "--check", "first-coefficient", "--format", "json"]
    if points is not None:
        argv += ["--points", points]
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)["rows"]


def test_first_coefficient_examples(capsys):
    rows = _first_coefficient_rows("0.3+1i,0.7", capsys)
    assert max(row["defect"] for row in rows) < 1e-10


def test_first_coefficient_grid(capsys):
    # outside -1/2 <= Re s <= 3/2 xi_completed reflects both sides of each
    # pair to one xi value and the check reads 0.0, so the grid stays inside
    rows = _first_coefficient_rows(None, capsys)
    assert [cli.parse_complex(row["s"]) for row in rows] == list(cli.functional_equation_grid())
    assert all(-0.5 <= cli.parse_complex(row["s"]).real <= 1.5 for row in rows)
    assert max(row["defect"] for row in rows) < 1e-10


def test_first_coefficient_symmetric_in_reflection(capsys):
    # dyadic s makes 1 - s, 2s - 1, ... exact, so the defect is bit-identical
    here, there = (row["defect"] for row in _first_coefficient_rows("0.25+0.5i,0.75-0.5i", capsys))
    assert here == there
    # generic s agrees to roundoff
    here, there = (row["defect"] for row in _first_coefficient_rows("0.3+1.7i,0.7-1.7i", capsys))
    assert abs(here - there) < 1e-12


def test_first_coefficient_pole_exclusion(capsys):
    # xi_completed refuses 2s - 1 or 2s at each pole point; the run goes on
    rows = _first_coefficient_rows("0,0.5,1,0.3+1i", capsys)
    for row in rows[:3]:
        assert "defect" not in row and row["skipped"] == "PoleError: pole exclusion"
    assert rows[3]["defect"] < 1e-10


def test_first_coefficient_defect_is_relative_near_a_pole(capsys):
    # at s = -1.01e-9, u = 2s is 2.02e-9 from xi's pole at 0, where |xi| ~
    # 1/distance magnifies the rounding of 1 - u: the gap |xi(u) - xi(1 - u)|
    # is 13.5, and 2.7e-8 of max(1, |xi(u)|, |xi(1 - u)|)
    (row,) = _first_coefficient_rows("-1.01e-9", capsys)
    assert row["defect"] < 1e-7
