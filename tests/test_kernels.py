"""The kernels: one coprime enumeration behind both lattice entry points,
the moment path and its fallback to the direct kernel, and numpy loaded only
by the lattice path."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import eisenkit
import oracles
from eisenkit import _kernels


def test_selected_backend_reports_name():
    assert eisenkit.kernel_backend() == "numpy"


def test_batch_consistent_with_single_point():
    # S and P alike, on the moment path and past its reach, and I on the
    # moment path; past it I is the edge integral, whose panel count follows
    # the widest x of its batch, so a lone x may differ in its last bits
    xs = np.array([0.0, 0.25, -0.3])
    for s_im in (0.4, 40.0):
        sums, partial, integrals = _kernels.lattice_sum_batch(xs, 1.3, 2.7, s_im, 40)
        assert np.isfinite(integrals).all()
        for x, value, integral in zip(xs.tolist(), sums.tolist(), integrals.tolist()):
            single = _kernels.lattice_sum(x, 1.3, 2.7, s_im, 40)
            assert repr(single[:2]) == repr((value, partial))
            if s_im == 0.4:
                assert repr(single[2]) == repr(complex(integral))
            else:
                assert abs(single[2] - integral) <= 1e-14 * abs(integral)


def _direct(monkeypatch):
    # no moment sum passes a zero tolerance, so every x takes the direct kernel
    monkeypatch.setattr(_kernels, "_MOMENT_TOL", 0.0)


# ---------------------------------------------------------------------------
# summation blocks and their buffers


def test_blocks_with_a_short_last_one_match_the_brute_loop(monkeypatch):
    # 627 entries (2,508 pairs, and shell 1's three summed apart) in blocks of
    # 250 entries, 1,000 pairs: two full blocks and a short last one
    _direct(monkeypatch)
    monkeypatch.setattr(_kernels, "_CHUNK", 1000)
    radius, y = 45, 1.2
    assert _kernels._cached_entries(radius)[0].size % 250 == 127
    xs = np.array([-0.4, 0.0, 0.3])
    for s in (complex(2.5), complex(3, 1), complex(2.2, -7)):
        batch = _kernels.lattice_sum_batch(xs, y, s.real, s.imag, radius)[0]
        for x, value in zip(xs.tolist(), batch.tolist()):
            single = _kernels.lattice_sum(x, y, s.real, s.imag, radius)[0]
            assert (single.real, single.imag) == (value.real, value.imag)
            want = oracles.eisenstein_brute(complex(x, y), s, radius) / complex(y) ** s
            assert abs(single - want) < 1e-12 * abs(want)


def test_direct_sum_matches_the_brute_loop_at_large_im_s(monkeypatch):
    # the integer rows of the direct sum and the shell-1 sample on both
    # paths, against the brute loop out to |Im s| = 100 and y from 2e-3 to
    # 20: the direct sum at every point (worst seen 1.0e-14), the kernel's
    # own answer where the moment path's gate passes (worst seen 2.7e-15)
    rng = random.Random(100)
    passed = 0
    for _ in range(24):
        s = complex(rng.uniform(1.0, 4.0), rng.choice((rng.uniform(-10.0, 10.0), rng.uniform(-100.0, 100.0))))
        y = math.exp(rng.uniform(math.log(2e-3), math.log(20.0)))
        radius = rng.randint(10, 60)
        xs = np.array([rng.uniform(-0.5, 0.5) for _ in range(2)])
        kernel, moment, direct, estimate = _paths(monkeypatch, xs, y, s, radius)
        for x, got, m, d, e in zip(xs.tolist(), kernel, moment, direct, estimate):
            want = oracles.eisenstein_brute(complex(x, y), s, radius) / complex(y) ** s
            assert abs(d - want) <= 1e-12 * abs(want), (x, y, s, radius)
            if e < 1e-15 * max(1.0, abs(m)):
                passed += 1
                assert abs(got - want) <= 1e-12 * abs(want), (x, y, s, radius)
    assert passed >= 4, passed


def test_an_overflowing_sum_raises():
    # at x = 0 shell 1 holds the largest term, y^(-2 Re s), past double range
    with pytest.raises(OverflowError):
        _kernels.lattice_sum(0.0, 0.01, 80.0, 0.0, 50)
    with pytest.raises(OverflowError):
        eisenkit.extract_coefficient_by_quadrature(0, 0.1, 200, eisenkit.TruncationPolicy(50))


def test_buffers_carry_nothing_between_calls(monkeypatch):
    # a large sum fills every buffer; the small sum after it must not see that
    _direct(monkeypatch)
    xs = np.array([-0.25, 0.1, 0.45])
    fresh = _kernels.lattice_sum_batch(xs, 0.9, 2.3, 4.0, 40)[0].tolist()
    _kernels.lattice_sum_batch(xs, 1.7, 3.1, -2.0, 300)
    again = _kernels.lattice_sum_batch(xs, 0.9, 2.3, 4.0, 40)[0].tolist()
    assert [(v.real, v.imag) for v in again] == [(v.real, v.imag) for v in fresh]


def test_results_do_not_depend_on_the_thread_count():
    # a radius-300 sum from the moment table, and one at |Im s| = 40, past
    # the fit's reach, by the direct kernel over several blocks, each with
    # its P and I; whole lattice values and extractions, the tail estimate C
    # included, on both routes of its I; the Fourier path is scalar
    code = (
        "import numpy as np\n"
        "import eisenkit\n"
        "from eisenkit import _kernels\n"
        "xs = np.array([-0.3, 0.0, 0.2])\n"
        "values = []\n"
        "for s_im in (3.0, 40.0):\n"
        "    sums, partial, integrals = _kernels.lattice_sum_batch(xs, 1.1, 2.6, s_im, 300)\n"
        "    values += [*sums, partial, *integrals]\n"
        "policy = eisenkit.TruncationPolicy(300)\n"
        "for s in (2.6 + 3j, 2.6 + 40j):\n"
        "    values += eisenkit.eval_lattice_sum(0.3 + 1.1j, s, policy)\n"
        "    values.append(eisenkit.extract_coefficient_by_quadrature(1, 0.8, s, policy))\n"
        "values.append(eisenkit.eval_fourier(0.3 + 1.2j, 2.5 + 3j).value)\n"
        "print(' '.join(f'{v.real.hex()} {v.imag.hex()}' for v in map(complex, values)))\n"
    )
    root = str(Path(eisenkit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for threads in ("1", str(os.cpu_count() or 1)):
        env = {**os.environ, "PYTHONPATH": path, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        outputs.append(out.stdout)
    assert len(outputs[0].split()) == 42
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# the moment path and its fallback


def _paths(monkeypatch, xs, y, s, radius):
    # (kernel, moment, direct, estimate) at each x: the kernel's answer, the
    # moment path's and the direct kernel's, and the moment path's estimate
    # of its error
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_MOMENT_TOL", math.inf)
        moment = _kernels.lattice_sum_batch(xs, y, s.real, s.imag, radius)[0].tolist()
        _direct(patch)
        direct = _kernels.lattice_sum_batch(xs, y, s.real, s.imag, radius)[0].tolist()
    kernel = _kernels.lattice_sum_batch(xs, y, s.real, s.imag, radius)[0].tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        estimate = _kernels._moment_sums(xs, y, s.real, s.imag, radius)[3].tolist()
    return kernel, moment, direct, estimate


def _bits(values):
    return [(v.real, v.imag) for v in values]


def test_moment_path_agrees_with_the_direct_kernel(monkeypatch):
    # where the gate lets the moment path run it agrees with the direct
    # kernel to rounding, and wherever the two differ by more than rounding
    # the gate's estimate is at least the difference.  y' reaches 3 and
    # |Im s| 10, where the fit's trailing coefficients grow, so some x fall
    # back, and to the direct kernel's own bits
    rng = random.Random(43)
    taken = fell_back = 0
    for _ in range(40):
        s = complex(rng.uniform(1.0, 4.0), rng.choice((0.0, rng.uniform(-10.0, 10.0))))
        y = rng.uniform(math.sqrt(3.0) / 2.0, 3.0)
        radius = rng.choice((10, 57, 300, 1000))
        xs = np.array([rng.uniform(-0.5, 0.5) for _ in range(3)])
        kernel, moment, direct, estimate = _paths(monkeypatch, xs, y, s, radius)
        for got, m, d, e in zip(kernel, moment, direct, estimate):
            scale = max(1.0, abs(m))
            assert abs(m - d) <= max(e, 4e-15 * scale), (s, y, radius)
            if e < 1e-15 * scale:
                taken += 1
                assert abs(m - d) <= 4e-15 * scale, (s, y, radius)
                assert _bits([got]) == _bits([m])
            else:
                fell_back += 1
                assert _bits([got]) == _bits([d])
    assert taken >= 90 and fell_back >= 3, (taken, fell_back)


def test_trailing_coefficients_at_their_rounding_floor_pass(monkeypatch):
    # at Re s near 1.2 the fit has converged, but its two trailing
    # coefficients sit at the samples' rounding, and sum_r |r^(-2s)| phi(r)
    # is near 1: the estimate takes that rounding off, so these sums stay on
    # the moment path and agree with the direct kernel to rounding
    xs = np.array([-0.45, 0.1, 0.3])
    for y, s, radius in ((1.0, complex(1.2, 3.0), 1000), (0.9, complex(1.225, -1.6), 200), (1.3, complex(1.3, 8.0), 300)):
        kernel, moment, direct, estimate = _paths(monkeypatch, xs, y, s, radius)
        for got, m, d, e in zip(kernel, moment, direct, estimate):
            assert e < 1e-15 * max(1.0, abs(m)), (y, s)
            assert abs(m - d) <= 4e-15 * max(1.0, abs(m)), (y, s)
            assert _bits([got]) == _bits([m])
        # without that, the rounding alone sends some of them to the direct kernel
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_ROUNDING", 0.0)
            _, moment, _, estimate = _paths(patch, xs, y, s, radius)
        assert any(e >= 1e-15 * max(1.0, abs(m)) for m, e in zip(moment, estimate)), (y, s)


def test_fallback_is_the_direct_kernel(monkeypatch):
    # past the fit's reach, at |Im s| = 40 or y = 10, the gate's estimate is
    # above its tolerance and the sum is the direct kernel's, bit for bit;
    # only then is the coprime table filled, and a call that no moment sum
    # can pass builds no moment table.  At y = 0.01, s = 77.3, F overflows
    # (F(x) ~ y^(-2s)) where no term does, and the sum falls back without a
    # warning
    monkeypatch.setattr(_kernels, "_table", None)
    monkeypatch.setattr(_kernels, "_moments", None)
    xs = np.array([-0.3, 0.2, 0.4])
    _kernels.lattice_sum_batch(xs, 1.1, 2.6, 40.0, 300)
    assert _kernels._moments is None and _kernels._table is not None
    monkeypatch.setattr(_kernels, "_table", None)
    _kernels.lattice_sum_batch(xs, 1.1, 2.6, 3.0, 300)
    assert _kernels._moments is not None and _kernels._table is None
    for y, s in ((1.1, complex(2.6, 40.0)), (10.0, complex(2.6, 3.0)), (10.0, complex(3.0)), (0.01, complex(77.3))):
        kernel, moment, direct, estimate = _paths(monkeypatch, xs, y, s, 300)
        assert not any(e < 1e-15 * max(1.0, abs(m)) for m, e in zip(moment, estimate)), (y, s)
        assert _bits(kernel) == _bits(direct)
    assert _kernels._table is not None


def test_moment_sums_do_not_depend_on_growth_history(monkeypatch):
    # the same moment table, and the same sums, from a fresh table, one grown
    # straight to the top, and one grown in many small steps of one-shell
    # sieve blocks
    radii = (10, 45, 300, 1000, _kernels.MAX_RADIUS)
    xs = np.array([-0.4, 0.0, 0.3])
    monkeypatch.setattr(_kernels, "_MOMENT_TOL", math.inf)

    def state(radius):
        sums = _kernels.lattice_sum_batch(xs, 1.1, 2.6, 3.0, radius)[0].tolist()
        return _bits(sums), _kernels._moment_table(radius).tobytes()

    fresh = {}
    for radius in radii:
        monkeypatch.setattr(_kernels, "_moments", None)
        fresh[radius] = state(radius)
    monkeypatch.setattr(_kernels, "_moments", None)
    _kernels._moment_table(_kernels.MAX_RADIUS)
    assert {radius: state(radius) for radius in radii} == fresh
    # one-column blocks, 37 shells at a time, and the Gram rules grown
    # from none as those shells ask for them
    monkeypatch.setattr(_kernels, "_moments", None)
    monkeypatch.setattr(_kernels, "_rules", None)
    chunk = _kernels._CHUNK
    monkeypatch.setattr(_kernels, "_CHUNK", 16)
    for radius in range(2, _kernels.MAX_RADIUS + 1, 37):
        _kernels._moment_table(radius)
    _kernels._moment_table(_kernels.MAX_RADIUS)
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    assert {radius: state(radius) for radius in radii} == fresh


def test_moment_table_sums_chebyshev_polynomials_over_each_shell():
    # column r against its definition, summed exactly: T_i at the folded
    # coordinate xi = a / r of each k < r/2 coprime to r, and shell 2's
    # k = 1 at half weight, as T_i = N_i / r^i with the integers
    # N_i = 2 a N_(i-1) - r^2 N_(i-2).  The shells are summed point by point
    # up to 202, and past it by Gram rules less the columns of their
    # divisors, many (210, 840, 1428, 1680, 2000) or few (97, 997).  The
    # worst error over every shell to MAX_RADIUS is 2.1e-14 of the column's
    # largest entry, at shell 1428; no shell may pass 4e-14
    half, terms = _kernels._PANELS // 2, _kernels._TERMS
    table = _kernels._moment_table(_kernels.MAX_RADIUS)
    for r in (2, 3, 12, 59, 60, 97, 202, 210, 840, 997, 1428, 1680, 2000):
        sums = np.zeros((half, terms), dtype=object)
        for k in range(1, r // 2 + 1):
            if math.gcd(k, r) != 1:
                continue
            panel = min(_kernels._PANELS * k // r, half - 1)
            a = 2 * _kernels._PANELS * k - (2 * panel + 1) * r
            n_prev, n = 1, a
            for i in range(terms):
                # twice each term, over r^i, so that shell 2's half stays an integer
                sums[panel, i] += (2 if 2 * k < r else 1) * (n_prev if i == 0 else n)
                if i:
                    n_prev, n = n, 2 * a * n - r * r * n_prev
        want = np.array([float(Fraction(sums[p, i], 2 * r**i)) for p in range(half) for i in range(terms)])
        error = np.abs(table[:, r - 2] - want).max()
        assert error <= 4e-14 * max(1.0, np.abs(want).max()), (r, error)


def test_gram_rules_sum_every_power_over_their_run():
    # every rule the table can use, runs of _DIRECT + 1 to MAX_RADIUS / 4 + 1
    # fractions: positive weights, nodes strictly inside the run, and
    # sum_j j^m over j = 1..L to 1e-13 relative for m < _TERMS, the degree
    # that makes a Gram rule exact on the table's polynomials
    nodes, weights = _kernels._gram_rules(_kernels.MAX_RADIUS // 4 + 1)
    lengths = range(_kernels._DIRECT + 1, _kernels.MAX_RADIUS // 4 + 2)
    assert len(nodes) == len(weights) == lengths[-1] + 1
    powers = [0] * _kernels._TERMS
    for j in range(1, lengths[-1] + 1):
        powers = [p + j**m for m, p in enumerate(powers)]
        if j not in lengths:
            continue
        t, w = nodes[j], weights[j]
        assert (w > 0).all() and (t > 0).all() and (t < j - 1).all(), j
        for m, want in enumerate(powers):
            assert abs(float((w * (t + 1.0) ** m).sum()) - want) <= 1e-13 * want, (j, m)


def test_moment_table_evaluates_an_eighth_of_the_coprime_entries(monkeypatch):
    # the table's slots (a run's points or its Gram rule's nodes, in groups
    # of _NODES) to MAX_RADIUS, against the phi(r) / 2 coprime k of each
    # shell that a sum over the k would take; no rule up to radius 200
    count = []
    spy = _kernels._fraction_sums

    def counted(ns, starts, lengths, parts, rules):
        count.append(_kernels._NODES * int(parts.sum()))
        return spy(ns, starts, lengths, parts, rules)

    monkeypatch.setattr(_kernels, "_fraction_sums", counted)
    monkeypatch.setattr(_kernels, "_moments", None)
    monkeypatch.setattr(_kernels, "_rules", None)
    _kernels._moment_table(200)
    assert _kernels._rules is None
    _kernels._moment_table(_kernels.MAX_RADIUS)
    entries = _kernels._totients()[2:].sum() / 2
    assert entries > 608_000 and 8 * sum(count) <= entries, sum(count)


def test_moment_path_agrees_with_the_direct_kernel_near_re_s_1(monkeypatch):
    # Re s in (1, 1.1], where sum_r |r^(-2s)| phi(r) grows with R, to
    # MAX_RADIUS: where the gate lets the moment path run it agrees with
    # the direct kernel within 4e-15 relative
    rng = random.Random(451)
    taken = 0
    for _ in range(12):
        s = complex(1.0 + rng.uniform(1e-3, 0.1), rng.choice((0.0, rng.uniform(-10.0, 10.0))))
        y = rng.uniform(math.sqrt(3.0) / 2.0, 2.0)
        radius = rng.choice((300, 1000, _kernels.MAX_RADIUS))
        xs = np.array([rng.uniform(-0.5, 0.5) for _ in range(3)])
        _, moment, direct, estimate = _paths(monkeypatch, xs, y, s, radius)
        for m, d, e in zip(moment, direct, estimate):
            scale = max(1.0, abs(m))
            if e < 1e-15 * scale:
                taken += 1
                assert abs(m - d) <= 4e-15 * scale, (s, y, radius)
    assert taken >= 30, taken


# ---------------------------------------------------------------------------
# the shell-ordered coprime table


RADII = (1, 2, 5, 10, 37, 60, 80, 300)


def _box(radius):
    return {
        (m, n)
        for m in range(1, radius + 1)
        for n in range(-radius, radius + 1)
        if math.gcd(m, abs(n)) == 1
    }


def _entry_list(entries):
    r, k = entries
    return list(zip(r.tolist(), k.tolist()))


def _pair_list(entries):
    # the lattice pairs a table prefix stands for: shell 1, which the kernels
    # sum apart, then the four sides (r, -k), (r, k), (k, -r), (k, r) of each
    # entry (r, k)
    pairs = [(1, -1), (1, 0), (1, 1)]
    for r, k in _entry_list(entries):
        pairs += [(r, -k), (r, k), (k, -r), (k, r)]
    return pairs


def _fresh_table(monkeypatch):
    # the table as the module starts it: not allocated yet
    monkeypatch.setattr(_kernels, "_table", None)


def test_prefix_is_coprime_box_fresh(monkeypatch):
    for radius in RADII:
        _fresh_table(monkeypatch)
        got = _pair_list(_kernels._cached_entries(radius))
        assert len(got) == len(set(got))
        assert set(got) == _box(radius)


def test_prefix_is_coprime_box_after_growth(monkeypatch):
    # radii below the largest one asked for must still stop at their own shell
    _fresh_table(monkeypatch)
    _kernels._cached_entries(400)
    for radius in RADII:
        got = _pair_list(_kernels._cached_entries(radius))
        assert len(got) == len(set(got))
        assert set(got) == _box(radius)


def _mobius(d):
    result = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    return -result if d > 1 else result


def _shell_order(radius):
    # shells 2..radius, each (r, k) with k < r coprime to r, k ascending
    return [(r, k) for r in range(2, radius + 1) for k in range(1, r) if math.gcd(k, r) == 1]


@pytest.mark.parametrize("chunk", [_kernels._CHUNK, 16])
def test_prefix_is_in_shell_order(monkeypatch, chunk):
    # bit-identical sums need the order, not just the set; a 16-pair chunk
    # makes blocks of max(1, 64 // radius) shells, so growth spans many blocks
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    want = {radius: _shell_order(radius) for radius in RADII}
    for radius in RADII:
        _fresh_table(monkeypatch)
        assert _entry_list(_kernels._cached_entries(radius)) == want[radius]
    # grown shell range by shell range, each after the first starting past shell 2
    _fresh_table(monkeypatch)
    for radius in RADII:
        assert _entry_list(_kernels._cached_entries(radius)) == want[radius]
    for radius in RADII:
        assert _entry_list(_kernels._cached_entries(radius)) == want[radius]


def _mobius_count(radius):
    # coprime (m, n) with 1 <= m <= R, |n| <= R: 2 sum_d mu(d) floor(R/d)^2 + 1
    return 2 * sum(_mobius(d) * (radius // d) ** 2 for d in range(1, radius + 1)) + 1


def test_prefix_length_is_mobius_count():
    # each entry stands for four pairs, and shell 1 adds three
    for radius in RADII + (1000, _kernels.MAX_RADIUS):
        r, k = _kernels._cached_entries(radius)
        assert 4 * r.size + 3 == 4 * k.size + 3 == _mobius_count(radius)
    # the table's one allocation holds every shell, and no more
    assert 4 * _kernels._table[0].size + 3 == _mobius_count(_kernels.MAX_RADIUS)


def test_far_shells_are_int16_blocks():
    # the table's last shell: int16, k < r coprime to r, phi(r) entries
    r = _kernels.MAX_RADIUS  # phi(2000) = 800
    blocks = list(_kernels._shells(r, r, 4 * _kernels._CHUNK))
    for rs, ks, phi in blocks:
        assert rs.dtype == ks.dtype == np.int16
        assert rs.size == ks.size == phi.sum()
    entries = [e for rs, ks, _ in blocks for e in _entry_list((rs, ks))]
    assert len(entries) == len(set(entries)) == 800
    assert all(edge == r and 1 <= k < r and math.gcd(k, r) == 1 for edge, k in entries)


def test_table_footprint():
    # two int16 arrays, each under numpy's 4 MiB hugepage threshold, so only
    # the filled prefix of each is resident; a prefix costs 4 bytes per entry,
    # about one per lattice pair (RSS itself depends on the host's
    # transparent-hugepage mode, so it is not measured here)
    r, k = _kernels._cached_entries(1000)
    for prefix, column in zip((r, k), _kernels._table[:2]):
        assert prefix.base is column
        assert column.dtype == np.int16
        assert column.nbytes < 1 << 22
    assert r.nbytes + k.nbytes == _mobius_count(1000) - 3 == 1_216_764


def test_sums_do_not_depend_on_growth_history(monkeypatch):
    # the same bits from a fresh table, one grown straight to the top, and
    # one grown in many small steps of one-shell sieve blocks
    _direct(monkeypatch)
    radii = (10, 45, 300, 1000, _kernels.MAX_RADIUS)
    xs = np.array([-0.4, 0.0, 0.3])

    def bits(radius):
        return [(v.real, v.imag) for v in _kernels.lattice_sum_batch(xs, 1.1, 2.6, 3.0, radius)[0].tolist()]

    fresh = {}
    for radius in radii:
        _fresh_table(monkeypatch)
        fresh[radius] = bits(radius)
    _fresh_table(monkeypatch)
    _kernels._cached_entries(_kernels.MAX_RADIUS)
    assert {radius: bits(radius) for radius in radii} == fresh
    _fresh_table(monkeypatch)
    chunk = _kernels._CHUNK
    monkeypatch.setattr(_kernels, "_CHUNK", 16)
    for radius in range(2, _kernels.MAX_RADIUS + 1, 37):
        _kernels._cached_entries(radius)
    _kernels._cached_entries(_kernels.MAX_RADIUS)
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    assert {radius: bits(radius) for radius in radii} == fresh


# ---------------------------------------------------------------------------
# each layer, and numpy, loads only when used


def test_numpy_is_imported_only_by_the_lattice_path():
    code = (
        "import contextlib, io, sys\n"
        "import eisenkit\n"
        "print(any(name.startswith('eisenkit.') for name in sys.modules))\n"
        "import eisenkit.cli\n"
        "eisenkit.eval_fourier(0.3 + 1.2j, 2.5 + 3j)\n"
        "eisenkit.xi_completed(0.3 + 2j)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    eisenkit.cli.main(['xi', '--s', '0.3+2i'])\n"
        "print('eisenkit.root_systems' in sys.modules, 'eisenkit.euler_products' in sys.modules)\n"
        "from eisenkit import enumerate_table, partial_l, trivial_zeta_data\n"
        "partial_l(trivial_zeta_data(100), 2.0, 100)\n"
        "enumerate_table([('A', 3), ('G', 2)])\n"
        "print('numpy' in sys.modules, 'fractions' in sys.modules)\n"
        "eisenkit.eval_lattice_sum(0.3 + 1.2j, 2.5, eisenkit.TruncationPolicy(lattice_radius=10))\n"
        "print('numpy' in sys.modules)\n"
    )
    # the child imports the same eisenkit as this process
    root = str(Path(eisenkit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False", "False", "False", "False", "True"]


def test_every_export_is_its_defining_modules_object():
    assert len(eisenkit.__all__) == len(set(eisenkit.__all__)) == 34
    for name in eisenkit.__all__:
        value = getattr(eisenkit, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(eisenkit.__all__) <= set(dir(eisenkit))
    # names are looked up on every access, never bound in the package
    assert "eval_fourier" not in vars(eisenkit)
    with pytest.raises(AttributeError, match="no_such_name"):
        eisenkit.no_such_name
