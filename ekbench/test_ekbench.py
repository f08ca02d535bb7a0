"""Tests of the benchmark itself: seeded inputs, the tracer, the oracle gate.

Run from the repository root:  python3 -m pytest -q ekbench/test_ekbench.py
"""

from __future__ import annotations

import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_same_seed_same_inputs():
    for name in workloads.NAMES:
        a = workloads.generate(name, 7, 1, "places.txt")
        b = workloads.generate(name, 7, 1, "places.txt")
        c = workloads.generate(name, 8, 1, "places.txt")
        assert workloads.fingerprint(a) == workloads.fingerprint(b)
        assert workloads.fingerprint(a) != workloads.fingerprint(c)


def test_strata_cover_every_stratum_once():
    values = workloads.strata(random.Random(1), 40, 1e-3, 0.1, log=True)
    cells = sorted(int(40 * math.log(v / 1e-3) / math.log(100)) for v in values)
    assert cells == list(range(40))


def _eisenkit_bindings():
    import eisenkit
    import eisenkit.cli  # noqa: F401

    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "eisenkit" or name.startswith("eisenkit.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_wraps_every_binding_and_restores_them():
    import eisenkit
    from eisenkit import eisenstein, special_functions

    before = _eisenkit_bindings()
    tracer = Tracer()
    with tracer:
        # one wrapper is bound under every name that referred to the function
        assert eisenstein.bessel_k is special_functions.bessel_k
        assert eisenstein.bessel_k is not before[("eisenkit.eisenstein", "bessel_k")]
        assert eisenkit.eval_fourier is eisenstein.eval_fourier
        tracer.op_id = 3
        eisenkit.eval_fourier(0.3 + 1.2j, 2.5)
    assert _eisenkit_bindings() == before
    summary = tracer.summary()
    (root,) = summary["eisenstein.eval_fourier"]["spans"]
    assert tracer.ops[root] == 3
    modes = tracer.children_named(root, "special_functions.bessel_k")
    assert modes == summary["special_functions.bessel_k"]["calls"] >= 30
    assert all(tracer.parents[i] >= 0 for i in summary["special_functions.bessel_k"]["spans"])
    entry = summary["eisenstein.eval_fourier"]
    assert 0.0 < entry["self_s"] < entry["busy_s"]


def test_layer_figures_refuse_a_function_the_tracer_missed():
    from worker import layer_figures

    tracer = Tracer()
    with tracer:
        pass
    # as when a compiled kernel is bound in a form the tracer cannot wrap
    tracer.wrapped.discard("_kernels.bessel_k_trapezoid")
    with pytest.raises(RuntimeError, match="did not wrap _kernels.bessel_k_trapezoid"):
        layer_figures(tracer)


def test_broken_oracle_halts_the_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "ekbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    for name in ("src", "docs"):
        (tmp_path / name).symlink_to(ROOT / name)
    oracle = tmp_path / "ekbench" / "oracles.py"
    text = oracle.read_text()
    broken = text.replace("mpmath.gamma(w / 2) * mpmath.zeta(w)", "mpmath.gamma(w / 2) * mpmath.zeta(w) * 1.000001")
    assert broken != text
    oracle.write_text(broken)
    proc = subprocess.run(
        [sys.executable, "ekbench/run.py", "--workload", "lattice_extract", "--seed", "1"],
        cwd=tmp_path,
        env=dict(os.environ),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "self-check failed" in proc.stderr
    assert proc.stdout.strip() == ""
    assert not list((tmp_path / "ekbench" / ".work" / "results").glob("*.json"))


def test_run_refuses_a_directory_without_eisenkit(tmp_path):
    shutil.copytree(HERE, tmp_path / "ekbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "ekbench/run.py", "--workload", "eval_grid", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_oracle_answers_reach_their_ops():
    import ledger

    ops = workloads.generate("eval_grid", 3, 1, "places.txt")["ops"][:40]
    requests = ledger.oracle_requests(ops)
    assert len(requests) == len({op["row"] for op in ops})
    # an oracle that echoes each point shows which answer each op receives
    expected = ledger.expected_values(ops, [{"values": r["points"]} for r in requests])
    assert [e["value"] for e in expected] == [[op["x"], op["y"]] for op in ops]


def test_coprime_pair_count_matches_the_kernel_box():
    from worker import coprime_pairs

    for radius in (1, 2, 5, 10, 37):
        brute = sum(1 for m in range(1, radius + 1) for n in range(-radius, radius + 1) if math.gcd(m, abs(n)) == 1)
        assert coprime_pairs(radius) == brute


def test_pullback_lands_in_the_fundamental_domain():
    import oracles

    for x, y in ((0.3, 0.003), (-2.17, 0.0308), (0.123, 0.0007), (5.4, 2.0)):
        xr, yr = oracles.pullback(x, y)
        assert abs(xr) <= 0.5 and xr * xr + yr * yr >= 1.0 and yr >= 3**0.5 / 2 - 1e-12


def _classify(op, result, expected, rescue_result=None):
    import ledger

    verdict = ledger.judge(op, result, expected)
    assert not verdict.passed
    rescue = ledger.rescue_op(op, verdict)
    rescue_verdict = ledger.judge(rescue, rescue_result, expected) if rescue is not None else None
    return ledger.classify(op, verdict, rescue, rescue_verdict)


def test_only_errors_the_bessel_model_explains_fall_in_its_class():
    import ledger

    op = {"kind": "fourier", "row": 0, "x": 0.1, "y": 1.1, "s": [2.0, 20.0]}
    want = {"value": [0.5, 0.25]}
    bound = ledger.bessel_abs_error(op)
    # at |Im s| = 20 the model allows more than the tolerance, but far less than 1
    assert ledger.FOURIER_TOL < bound < 0.1
    assert _classify(op, {"value": [0.5 + bound / 2, 0.25]}, want) == "bessel_abs_error_large_im_s"
    assert _classify(op, {"value": [1.5, 0.25]}, want) == "unexplained"
    assert _classify(op, {"value": [float("nan"), 0.25]}, want) == "unexplained"
    assert _classify(op, {"raised": "OverflowError: too big"}, want) == "unexplained"


def test_cusp_class_needs_a_finite_value_the_pullback_rescues():
    op = {"kind": "fourier", "row": 0, "x": 0.3, "y": 0.003, "s": [2.5, 0.0]}
    want = {"value": [20.5147, 0.0]}
    garbage = {"value": [11.79, 0.0]}
    assert _classify(op, garbage, want, rescue_result={"value": [20.5147, 0.0]}) == "cusp_no_pullback"
    assert _classify(op, garbage, want, rescue_result={"value": [20.6, 0.0]}) == "unexplained"
    assert _classify(op, {"raised": "RuntimeError: mode cap"}, want) == "unexplained"
