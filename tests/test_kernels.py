"""The kernels: one coprime enumeration behind both lattice entry points, and
numpy loaded only by the lattice path."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eisenkit
import oracles
from eisenkit import _kernels


def test_selected_backend_reports_name():
    assert eisenkit.kernel_backend() == "numpy"


def test_batch_consistent_with_single_point():
    xs = np.array([0.0, 0.25, -0.3])
    batch = np.asarray(_kernels.lattice_sum_batch(xs, 1.3, 2.7, 0.4, 40))
    for x, value in zip(xs, batch):
        single = _kernels.lattice_sum(float(x), 1.3, 2.7, 0.4, 40)
        assert single.real == value.real
        assert single.imag == value.imag


# ---------------------------------------------------------------------------
# summation blocks and their buffers


def test_blocks_with_a_short_last_one_match_the_brute_loop(monkeypatch):
    # 2,511 pairs in blocks of 1,000: two full blocks and a short last one
    monkeypatch.setattr(_kernels, "_CHUNK", 1000)
    radius, y = 45, 1.2
    assert _kernels._cached_pairs(radius).shape[1] % 1000 == 511
    xs = np.array([-0.4, 0.0, 0.3])
    for s in (complex(2.5), complex(3, 1), complex(2.2, -7)):
        batch = _kernels.lattice_sum_batch(xs, y, s.real, s.imag, radius)
        for x, value in zip(xs.tolist(), batch.tolist()):
            single = _kernels.lattice_sum(x, y, s.real, s.imag, radius)
            assert (single.real, single.imag) == (value.real, value.imag)
            want = oracles.eisenstein_brute(complex(x, y), s, radius) / complex(y) ** s
            assert abs(single - want) < 1e-12 * abs(want)


def test_buffers_carry_nothing_between_calls():
    # a large sum fills every buffer; the small sum after it must not see that
    xs = np.array([-0.25, 0.1, 0.45])
    fresh = _kernels.lattice_sum_batch(xs, 0.9, 2.3, 4.0, 40).tolist()
    _kernels.lattice_sum_batch(xs, 1.7, 3.1, -2.0, 300)
    again = _kernels.lattice_sum_batch(xs, 0.9, 2.3, 4.0, 40).tolist()
    assert [(v.real, v.imag) for v in again] == [(v.real, v.imag) for v in fresh]


def test_results_do_not_depend_on_the_thread_count():
    # a radius-300 sum spans several blocks; the Fourier path is scalar
    code = (
        "import numpy as np\n"
        "import eisenkit\n"
        "from eisenkit import _kernels\n"
        "values = list(_kernels.lattice_sum_batch(np.array([-0.3, 0.0, 0.2]), 1.1, 2.6, 3.0, 300))\n"
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
    assert len(outputs[0].split()) == 8
    assert outputs[0] == outputs[1]


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


def _pair_list(pairs):
    return list(zip(pairs[0].tolist(), pairs[1].tolist()))


def _fresh_table(monkeypatch):
    # the table as the module starts it: not allocated yet
    monkeypatch.setattr(_kernels, "_table", None)


def test_prefix_is_coprime_box_fresh(monkeypatch):
    for radius in RADII:
        _fresh_table(monkeypatch)
        got = _pair_list(_kernels._cached_pairs(radius))
        assert len(got) == len(set(got))
        assert set(got) == _box(radius)


def test_prefix_is_coprime_box_after_growth(monkeypatch):
    # radii below the largest one asked for must still stop at their own shell
    _fresh_table(monkeypatch)
    _kernels._cached_pairs(400)
    for radius in RADII:
        got = _pair_list(_kernels._cached_pairs(radius))
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
    # shell 1, then for each r the sides (r, -k), (r, k), (k, -r), (k, r), k ascending
    pairs = [(1, -1), (1, 0), (1, 1)]
    for r in range(2, radius + 1):
        ks = [k for k in range(1, r) if math.gcd(k, r) == 1]
        pairs += [(r, -k) for k in ks] + [(r, k) for k in ks]
        pairs += [(k, -r) for k in ks] + [(k, r) for k in ks]
    return pairs


@pytest.mark.parametrize("chunk", [_kernels._CHUNK, 16])
def test_prefix_is_in_shell_order(monkeypatch, chunk):
    # bit-identical sums need the order, not just the set; a 16-pair chunk
    # makes blocks of max(1, 64 // radius) shells, so growth spans many blocks
    monkeypatch.setattr(_kernels, "_CHUNK", chunk)
    want = {radius: _shell_order(radius) for radius in RADII}
    for radius in RADII:
        _fresh_table(monkeypatch)
        assert _pair_list(_kernels._cached_pairs(radius)) == want[radius]
    # grown shell range by shell range, each after the first starting past shell 2
    _fresh_table(monkeypatch)
    for radius in RADII:
        assert _pair_list(_kernels._cached_pairs(radius)) == want[radius]
    for radius in RADII:
        assert _pair_list(_kernels._cached_pairs(radius)) == want[radius]


def test_prefix_length_is_mobius_count():
    # coprime (m, n) with 1 <= m <= R, |n| <= R: 2 sum_d mu(d) floor(R/d)^2 + 1
    for radius in RADII + (1000, _kernels.MAX_RADIUS):
        count = 2 * sum(_mobius(d) * (radius // d) ** 2 for d in range(1, radius + 1)) + 1
        assert _kernels._cached_pairs(radius).shape[1] == count
    # the table's one allocation holds every shell
    assert count <= _kernels._table[0].shape[1]


def test_far_shells_are_int16_blocks():
    # the table's last shell: int16, coprime, on the shell, 4 phi(r) pairs
    r = _kernels.MAX_RADIUS  # phi(2000) = 800
    blocks = list(_kernels._shells(r, r))
    assert all(b.dtype == np.int16 and b.shape[1] == sizes.sum() for b, sizes in blocks)
    pairs = _pair_list(np.concatenate([b for b, _ in blocks], axis=1))
    assert len(pairs) == len(set(pairs)) == 4 * 800
    assert all(max(m, abs(n)) == r and m >= 1 and math.gcd(m, abs(n)) == 1 for m, n in pairs)


def test_sums_do_not_depend_on_growth_history(monkeypatch):
    # the same bits from a fresh table, one grown straight to the top, and
    # one grown in many small steps of one-shell sieve blocks
    radii = (10, 45, 300, 1000, _kernels.MAX_RADIUS)
    xs = np.array([-0.4, 0.0, 0.3])

    def bits(radius):
        return [(v.real, v.imag) for v in _kernels.lattice_sum_batch(xs, 1.1, 2.6, 3.0, radius).tolist()]

    fresh = {}
    for radius in radii:
        _fresh_table(monkeypatch)
        fresh[radius] = bits(radius)
    _fresh_table(monkeypatch)
    _kernels._cached_pairs(_kernels.MAX_RADIUS)
    assert {radius: bits(radius) for radius in radii} == fresh
    _fresh_table(monkeypatch)
    chunk = _kernels._CHUNK
    monkeypatch.setattr(_kernels, "_CHUNK", 16)
    for radius in range(2, _kernels.MAX_RADIUS + 1, 37):
        _kernels._cached_pairs(radius)
    _kernels._cached_pairs(_kernels.MAX_RADIUS)
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
    assert len(eisenkit.__all__) == len(set(eisenkit.__all__)) == 40
    for name in eisenkit.__all__:
        value = getattr(eisenkit, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(eisenkit.__all__) <= set(dir(eisenkit))
    # names are looked up on every access, never bound in the package
    assert "eval_fourier" not in vars(eisenkit)
    with pytest.raises(AttributeError, match="no_such_name"):
        eisenkit.no_such_name
