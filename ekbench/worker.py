"""The measured process: imports eisenkit from ./src and runs the ops.

    python3 ekbench/worker.py JOB.json RESULT.json

run.py starts it from the repository root with the thread variables pinned
to 1, after the inputs and the oracle values exist, and judges what it
writes.  The worker imports nothing of the benchmark but tracer.py and
panel.py, so its memory and time are eisenkit's own.

Untraced (job "trace": 0) it pays first-call costs with an op outside the
batch, then runs the ops in a closed loop and reports each result and
latency, the batch wall time and its peak RSS.  Traced, it replays the ops
(plus the job's CLI panel) untraced, traced and untraced again, and reports
per-layer figures.  Both end with the determinism panel in two call orders.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import eisenkit as ek  # noqa: E402
import eisenkit.cli  # noqa: E402,F401  (the CLI replays call ek.cli.main)
import panel  # noqa: E402
from tracer import Tracer  # noqa: E402


def _pair(value) -> list:
    value = complex(value)
    return [value.real, value.imag]


def run_op(op: dict) -> dict:
    """Execute one op; returns a JSON-able result."""
    kind = op["kind"]
    if kind == "cli":
        return run_cli(op["argv"])
    s = complex(*op["s"])
    if kind == "fourier":
        return {"value": _pair(ek.eval_fourier(complex(op["x"], op["y"]), s).value)}
    policy = ek.TruncationPolicy(lattice_radius=op["radius"])
    if kind == "lattice":
        return {"value": _pair(ek.eval_lattice_sum(complex(op["x"], op["y"]), s, policy).value)}
    v = ek.extract_coefficient_by_quadrature(op["n"], op["y"], s, policy, source="lattice")
    return {"value": _pair(v)}


def run_cli(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ek.cli.main(list(argv))
        except SystemExit as exc:  # argparse refuses the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "out": json.loads(out.getvalue()) if rc == 0 else None, "err": err.getvalue()}


def warm_up(name: str) -> None:
    """Pay first-call costs (numpy ufunc set-up) with ops outside the batch,
    so a cache keyed on the batch's own inputs gains nothing from it."""
    if name == "eval_grid":
        ek.eval_fourier(0.3 + 1.2j, 2.5)
    elif name == "lattice_extract":
        policy = ek.TruncationPolicy(lattice_radius=50)
        ek.extract_coefficient_by_quadrature(1, 1.0, 2.5, policy, source="lattice")
        ek.eval_lattice_sum(0.3 + 1.2j, 2.5 + 1j, policy)


def run_batch(ops: list, tracer: Tracer | None = None):
    """Closed loop, one caller: (results, latencies, wall seconds)."""
    results, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            result = run_op(op)
        except Exception as exc:  # the ledger records it as a raised op
            result = {"raised": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - t0)
        results.append(result)
    return results, latencies, clock() - start


# ------------------------------------------------------------ layer figures


@functools.cache
def coprime_pairs(radius: int) -> int:
    """Terms the lattice kernels evaluate at this radius: m in [1, R], n in
    [-R, R], gcd(m, |n|) = 1, i.e. 2 C(R) + 1 with C(R) = sum mu(d) (R // d)^2."""
    mu = [1] * (radius + 1)
    is_composite = bytearray(radius + 1)
    for p in range(2, radius + 1):
        if not is_composite[p]:
            for k in range(p, radius + 1, p):
                is_composite[k] = 1
                mu[k] = -mu[k]
            for k in range(p * p, radius + 1, p * p):
                mu[k] = 0
    return 2 * sum(mu[d] * (radius // d) ** 2 for d in range(1, radius + 1)) + 1


CALLS_AND_BUSY = (
    "special_functions.xi_completed",
    "special_functions.zeta",
    "special_functions.gamma",
    "special_functions.sigma_power",
    "_arith.factorize",
)


def layer_figures(tracer: Tracer) -> tuple:
    """(metrics, eval_fourier spans as [op id, seconds]); the run adds the
    share of eval_fourier time spent on failed ops once it has judged them."""
    summary = tracer.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "spans": []}

    def get(name):
        # a function the tracer could not wrap would read as zero time
        if name not in tracer.wrapped:
            raise RuntimeError(f"the tracer did not wrap {name}")
        return summary.get(name, empty)

    def work(name):
        return [tracer.work[i] for i in get(name)["spans"]]

    m = {}
    ef = get("eisenstein.eval_fourier")
    modes = [tracer.children_named(i, "special_functions.bessel_k") for i in ef["spans"]]
    outermost = [i for i in ef["spans"] if not tracer.has_ancestor_named(i, "eisenstein.eval_fourier")]
    m["eisenstein.eval_fourier.calls"] = (ef["calls"], "count")
    m["eisenstein.eval_fourier.busy_s"] = (ef["busy_s"], "s")
    m["eisenstein.eval_fourier.self_s"] = (ef["self_s"], "s")
    m["eisenstein.eval_fourier.modes_mean"] = (statistics.fmean(modes) if modes else 0.0, "count")
    m["eisenstein.eval_fourier.modes_max"] = (max(modes, default=0), "count")
    bk = get("special_functions.bessel_k")
    m["special_functions.bessel_k.calls"] = (bk["calls"], "count")
    m["special_functions.bessel_k.self_s"] = (bk["self_s"], "s")
    bt = get("_kernels.bessel_k_trapezoid")
    m["_kernels.bessel_k_trapezoid.calls"] = (bt["calls"], "count")
    m["_kernels.bessel_k_trapezoid.busy_s"] = (bt["busy_s"], "s")
    m["_kernels.bessel_k_trapezoid.nodes"] = (sum(work("_kernels.bessel_k_trapezoid")), "count")
    for name in CALLS_AND_BUSY:
        m[f"{name}.calls"] = (get(name)["calls"], "count")
        m[f"{name}.busy_s"] = (get(name)["busy_s"], "s")
    lb = get("_kernels.lattice_sum_batch")
    m["_kernels.lattice_sum_batch.calls"] = (lb["calls"], "count")
    m["_kernels.lattice_sum_batch.busy_s"] = (lb["busy_s"], "s")
    m["_kernels.lattice_sum_batch.x_nodes"] = (sum(x for x, _ in work("_kernels.lattice_sum_batch")), "count")
    # pair counts follow from the radius; the kernels do not count them
    m["_kernels.lattice_sum_batch.pair_evals"] = (
        sum(x * coprime_pairs(r) for x, r in work("_kernels.lattice_sum_batch")),
        "count.computed",
    )
    ls = get("_kernels.lattice_sum")
    m["_kernels.lattice_sum.calls"] = (ls["calls"], "count")
    m["_kernels.lattice_sum.busy_s"] = (ls["busy_s"], "s")
    m["_kernels.lattice_sum.pairs"] = (sum(coprime_pairs(r) for r in work("_kernels.lattice_sum")), "count.computed")
    extraction = get("eisenstein.extract_coefficient_by_quadrature")
    m["eisenstein.extract_coefficient_by_quadrature.self_s"] = (extraction["self_s"], "s")
    m["cli.main.busy_s"] = (get("cli.main")["busy_s"], "s")
    m["euler_products.read_place_data.self_s"] = (get("euler_products.read_place_data")["self_s"], "s")
    m["euler_products.partial_l.busy_s"] = (get("euler_products.partial_l")["busy_s"], "s")
    m["euler_products.partial_l.factors"] = (sum(n or 0 for n in work("euler_products.partial_l")), "count")
    for fn in ("enumerate_table", "build_root_system", "nilradical_decomposition"):
        m[f"root_systems.{fn}.busy_s"] = (get(f"root_systems.{fn}")["busy_s"], "s")
    spans = [[tracer.ops[i], tracer.ends[i] - tracer.starts[i]] for i in outermost]
    return m, spans


# ---------------------------------------------------------------------- main


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    name, ops = job["workload"], job["ops"]
    out = {"kernel_backend": ek.kernel_backend()}
    warm_up(name)
    gc.collect()
    if not job["trace"]:
        out["results"], latencies, out["wall"] = run_batch(ops)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["latencies"] = latencies
    else:
        replay = ops + job["extra"]
        _, _, before = run_batch(replay)
        gc.collect()
        tracer = Tracer()
        with tracer:
            out["results"], _, out["traced_wall"] = run_batch(replay, tracer)
        _, _, after = run_batch(replay)
        # untraced replays on both sides of the traced one cancel a steady drift in host speed
        out["untraced_wall"] = (before + after) / 2
        metrics, out["eval_fourier_spans"] = layer_figures(tracer)
        out["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        out["spans"] = len(tracer.names)
    out["panel"] = [panel.checksum(ek), panel.checksum(ek, reverse=True)]
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
