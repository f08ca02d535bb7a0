#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of eisenkit.

Run from the repository root:

    python3 ekbench/run.py --workload eval_grid --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the inputs and why each exists):

* ``eval_grid``: in-process eval_fourier sweeps, a quarter of them in the cusp;
* ``lattice_extract``: in-process lattice sums and lattice-sourced a_n extraction;
* ``cli_cold``: one cold ``eisenkit`` process per op over all six subcommands
  (not in BENCHMARK.json: three workloads do not fit the time the twenty-odd
  runs per workload may take, and the traced runs of the other two still
  cover the CLI's layers with a cold CLI panel).

Load is a closed loop with one caller and no extra threads.  A pass is a
fixed list of ops made from the seed, sized to take about 10 s (cli_cold:
45 s) on a 2-core Xeon host; ``--seconds S`` runs max(1, round(S / that))
passes, so the op count depends only on the arguments, never on host
speed.  Each pass runs in a fresh worker process, with set-up children
before, between and after the passes.  Every result is checked against an
independent oracle (oracles.py, run in child processes that never import
eisenkit) outside the timed window.

``--trace 0`` prints the end-to-end metrics: setup_s (median over every
set-up child), ops_per_s (ops that met their tolerance per second of a
pass, median over the passes), op_p50_ms, op_p90_ms (over the op latencies
of all passes; on eval_grid over row latencies per op, see latency_samples),
digits_p50, digits_p10 and peak_rss_mb.  digits_p50 covers every op;
digits_p10 covers the ops that met their tolerance, because on eval_grid
more than a tenth of all ops fail at the known defects and an all-op tenth
percentile would read 0 on every seed.  Failures are counted in ``failed``.

``--trace 1`` replays one pass of the same ops in a worker process, untraced,
traced (tracer.py) and untraced again, plus an 18-op CLI panel, and prints
the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A result file with the environment and the failure ledger goes to
ekbench/.work/results/.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
# pinned before numpy can be imported, here and in every measured child
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN_PER_GAP = 3  # set-up children before, between and after the passes
STARTUP_CHILDREN = 3
CLI_ENTRY = "import sys; from eisenkit.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_SNIPPETS = {
    "eval_grid": "import eisenkit; eisenkit.eval_fourier(0.3+1.2j, 2.5)",
    "lattice_extract": (
        "import eisenkit; eisenkit.extract_coefficient_by_quadrature("
        "1, 1.0, 2.5, eisenkit.TruncationPolicy(lattice_radius=200), source='lattice')"
    ),
    "cli_cold": CLI_ENTRY,
}
SETUP_ARGV = {"cli_cold": ["xi", "--s", "0.3+2i", "--format", "json"]}


class BenchError(Exception):
    """The run cannot produce a trustworthy result; nothing is printed."""


# --------------------------------------------------------------- environment


class Env:
    def __init__(self, root: Path):
        self.root = root
        self.work = HERE / ".work"
        self.child_env = dict(os.environ)
        paths = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.child_env["PYTHONPATH"] = os.pathsep.join(paths)

    def threads_env(self, n: int) -> dict:
        env = dict(self.child_env)
        env.update({var: str(n) for var in THREAD_VARS})
        return env


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    with contextlib.suppress(OSError):
        return (root / ".git" / ref).read_text().strip()
    with contextlib.suppress(OSError):
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "eisenkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ------------------------------------------------------------------- oracles


def oracle_answers(env: Env, requests: list, places_files: list) -> list:
    """Run the oracle children (self-check first), with a cache keyed by the
    oracle's own source, the requests and the place files they read."""
    digest = hashlib.sha256((HERE / "oracles.py").read_bytes())
    digest.update(json.dumps(requests).encode())
    for name in places_files:
        digest.update((env.root / name).read_bytes())
    cache = env.work / f"oracle-{digest.hexdigest()[:24]}.json"
    if cache.is_file():
        # the self-check still runs before any op is judged
        _oracle_children(env, [[]], places_files)
        return json.loads(cache.read_text())
    # two children share the requests round-robin; the timed window has not started
    chunks = [requests[0::2], requests[1::2]] if len(requests) > 1 else [requests]
    outs = _oracle_children(env, chunks, places_files)
    answers = [None] * len(requests)
    answers[0::2] = outs[0]
    if len(outs) > 1:
        answers[1::2] = outs[1]
    cache.write_text(json.dumps(answers))
    return answers


def _oracle_children(env: Env, chunks: list, places_files: list) -> list:
    procs = []
    for k, chunk in enumerate(chunks):
        request = env.work / f"oracle-request-{k}.json"
        answer = env.work / f"oracle-answer-{k}.json"
        request.write_text(json.dumps({"requests": chunk, "places": places_files}))
        answer.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "oracles.py"), str(env.root), str(request), str(answer)]
        procs.append((subprocess.Popen(command, cwd=env.root, env=env.child_env, stderr=subprocess.PIPE, text=True), answer))
    errors = []
    for proc, _ in procs:
        _, err = proc.communicate()
        if proc.returncode != 0:
            errors.append(f"oracle exited {proc.returncode}: {err.strip()[-2000:]}")
    if errors:
        raise BenchError("; ".join(errors))
    return [json.loads(answer.read_text()) for _, answer in procs]


# ---------------------------------------------------------------- executing


def run_worker(env: Env, name: str, ops: list, trace: int, extra: list = ()) -> dict:
    """Run the ops in a fresh worker process (worker.py) and return its report."""
    job = env.work / "worker-job.json"
    report = env.work / "worker-result.json"
    job.write_text(json.dumps({"workload": name, "ops": ops, "trace": trace, "extra": list(extra)}))
    report.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job), str(report)],
        cwd=env.root,
        env=env.child_env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(report.read_text())


def run_cold(env: Env, code: str, argv: list, threads_env: dict | None = None):
    """One fresh interpreter; returns (result dict, wall seconds, peak RSS in MB)."""
    # stderr goes to a file, so a chatty child cannot block on a full pipe
    # while stdout is read; wait4 reaps the child and returns its rusage
    with open(env.work / "child-stderr.txt", "w+b") as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            cwd=env.root,
            env=threads_env or env.child_env,
            stdout=subprocess.PIPE,
            stderr=err_file,
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    parsed = None
    if rc == 0 and out.strip():
        with contextlib.suppress(ValueError):
            parsed = json.loads(out)
    return {"rc": rc, "out": parsed, "err": err.decode(errors="replace")}, wall, usage.ru_maxrss / 1024.0


def run_cold_batch(env: Env, ops: list):
    results, latencies, rss = [], [], []
    start = time.perf_counter()
    for op in ops:
        result, wall, peak = run_cold(env, CLI_ENTRY, op["argv"])
        results.append(result)
        latencies.append(wall)
        rss.append(peak)
    return results, latencies, time.perf_counter() - start, rss


# ------------------------------------------------------------------- set-up


def setup_walls(env: Env, name: str) -> list:
    """Wall times of fresh interpreters that import eisenkit and finish one op."""
    code, argv = SETUP_SNIPPETS[name], SETUP_ARGV.get(name, [])
    walls = []
    for _ in range(SETUP_CHILDREN_PER_GAP):
        result, wall, _ = run_cold(env, code, argv)
        if result["rc"] != 0:
            raise BenchError(f"set-up child failed: {result['err'][-2000:]}")
        walls.append(wall)
    return walls


def startup_figures(env: Env) -> dict:
    """Bare interpreter wall time and -X importtime cumulative import times."""
    bare, numpy_s, eisenkit_s = [], [], []
    for _ in range(STARTUP_CHILDREN):
        _, wall, _ = run_cold(env, "pass", [])
        bare.append(wall)
        result, _, _ = run_cold(env, "import eisenkit.cli", [], dict(env.child_env, PYTHONPROFILEIMPORTTIME="1"))
        n_s, e_s = _parse_importtime(result["err"])
        numpy_s.append(n_s)
        eisenkit_s.append(e_s)
    return {
        "cli.startup.python_s": statistics.median(bare),
        "cli.import.numpy_s": statistics.median(numpy_s),
        "cli.import.eisenkit_s": statistics.median(eisenkit_s),
    }


def _parse_importtime(text: str):
    # "import time: self [us] | cumulative | imported package", nesting shown by indent
    numpy_us, eisenkit_us = 0, 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        if name == "numpy" and not numpy_us:
            numpy_us = int(cumulative)
        if depth == 0 and (name == "eisenkit" or name.startswith("eisenkit.")):
            eisenkit_us += int(cumulative)
    return numpy_us / 1e6, eisenkit_us / 1e6


# -------------------------------------------------------------- determinism


def determinism_check(env: Env, checksums: list) -> list:
    """Problems with the panel checksum across call orders (``checksums`` from
    the worker), thread counts and runs of the same source tree."""
    forward, reverse = checksums
    problems = []
    if reverse != forward:
        problems.append("panel checksum depends on evaluation order")
    threads = os.cpu_count() or 1
    proc = subprocess.run(
        [sys.executable, str(HERE / "panel.py")], cwd=env.root, env=env.threads_env(threads), capture_output=True, text=True
    )
    child = proc.stdout.strip() if proc.returncode == 0 else None
    if child != forward:
        problems.append(f"panel checksum with {threads} threads differs ({child} vs {forward})")
    reference = env.work / f"panel-{_source_hash(env.root)}.txt"
    if reference.is_file():
        if reference.read_text().strip() != forward:
            problems.append("panel checksum differs from an earlier run of the same source")
    else:
        reference.write_text(forward + "\n")
    return problems


# -------------------------------------------------------------------- judging


def classify_failures(env: Env, name: str, book: ledger.Ledger) -> None:
    """Redo each failed Fourier evaluation at its pulled-back point in a
    worker, outside any timed window, and let the ledger class the failures."""
    rescue = book.rescue_ops()
    book.classify(run_worker(env, name, rescue, trace=0)["results"] if rescue else [])


def latency_samples(ops: list, latencies: list) -> list:
    """The samples op_p50_ms and op_p90_ms are taken over: each op's latency,
    except on eval_grid, where it is each row's latency per op.  A row's eight
    ops share one s and nearly one cost in the upper band, so op latencies
    there cluster at one value per host speed, and an op median would jump
    between clusters as the host's speed drifts; row latencies spread
    continuously with the row's cusp points."""
    if "row" not in ops[0]:
        return latencies
    rows: dict = {}
    for op, latency in zip(ops, latencies):
        rows.setdefault(op["row"], []).append(latency)
    return [sum(v) / len(v) for v in rows.values()]


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1]


def _p10(values: list) -> float:
    return statistics.quantiles(values, n=10)[0] if len(values) >= 2 else (values[0] if values else 0.0)


# -------------------------------------------------------------------- modes


def measure(env: Env, name: str, inputs: dict, expected: list, passes: int) -> tuple:
    """Each pass runs in a fresh worker (cli_cold: as cold processes), with
    set-up children before, between and after the passes, so that every
    timing metric samples the host across the whole run."""
    ops = inputs["ops"]
    size = len(ops) // passes
    setup, results, latencies, walls, rss, panels = [], [], [], [], [], []
    for p in range(passes):
        setup += setup_walls(env, name)
        chunk = ops[p * size : (p + 1) * size]
        if name == "cli_cold":
            chunk_results, chunk_latencies, wall, peaks = run_cold_batch(env, chunk)
            peak = max(peaks)
        else:
            report = run_worker(env, name, chunk, trace=0)
            chunk_results, chunk_latencies, wall, peak = (
                report[k] for k in ("results", "latencies", "wall", "peak_rss_mb")
            )
            panels.append(report["panel"])
        results += chunk_results
        latencies += chunk_latencies
        walls.append(wall)
        rss.append(peak)
    setup += setup_walls(env, name)
    if name == "cli_cold":
        report = run_worker(env, name, [], trace=0)  # the in-process determinism panel only
        panels.append(report["panel"])
    book = ledger.Ledger()
    for i, (op, result, want) in enumerate(zip(ops, results, expected)):
        book.add(i, op, result, want)
    classify_failures(env, name, book)
    problems = determinism_check(env, panels[0])
    if any(other != panels[0] for other in panels):
        problems.append("panel checksum differs between the passes' workers")
    book.add_determinism(problems)
    failed = book.failed_ids
    rates = [
        sum(1 for i in range(p * size, (p + 1) * size) if i not in failed) / wall for p, wall in enumerate(walls)
    ]
    samples = latency_samples(ops, latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_p90_ms": (_p90(samples) * 1e3, "ms"),
        "digits_p50": (statistics.median(book.digits), "digits"),
        "digits_p10": (_p10(book.passed_digits), "digits"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    details = {
        "pass_walls_s": walls,
        "pass_rates": rates,
        "setup_walls_s": setup,
        "latencies_ms": [x * 1e3 for x in latencies],
        "digits": book.digits,
    }
    return metrics, book, details, report["kernel_backend"]


def measure_traced(env: Env, name: str, inputs: dict, expected: list, panel_expected: list) -> tuple:
    ops, cli_panel = inputs["ops"], inputs["cli_panel"]
    extra = [] if name == "cli_cold" else cli_panel
    report = run_worker(env, name, ops, trace=1, extra=extra)
    replay = ops + extra
    wants = expected + (panel_expected if extra else [])
    book = ledger.Ledger()
    for i, (op, result, want) in enumerate(zip(replay, report["results"], wants)):
        book.add(i, op, result, want)
    # per-subcommand cold latency, from the same 18-op CLI panel on every workload
    cold_results, cold_latencies, _, _ = run_cold_batch(env, cli_panel)
    for j, (op, result, want) in enumerate(zip(cli_panel, cold_results, panel_expected)):
        book.add(len(replay) + j, op, result, want)
    classify_failures(env, name, book)
    book.add_determinism(determinism_check(env, report["panel"]))
    metrics = {k: (v["value"], v["unit"]) for k, v in report["layers"].items()}
    spans = report["eval_fourier_spans"]
    busy = sum(seconds for _, seconds in spans)
    failed = sum(seconds for op_id, seconds in spans if op_id in book.failed_ids)
    metrics["eisenstein.eval_fourier.failed_time_frac"] = (failed / busy if busy else 0.0, "ratio")
    metrics.update({k: (v, "s") for k, v in startup_figures(env).items()})
    for sub in workloads.SUBCOMMANDS:
        walls = [w for op, w in zip(cli_panel, cold_latencies) if op["sub"] == sub]
        metrics[f"cli.{sub}.op_p50_ms"] = (statistics.median(walls) * 1e3, "ms")
    metrics["trace.overhead_frac"] = (report["traced_wall"] / report["untraced_wall"] - 1.0, "ratio")
    details = {k: report[k] for k in ("untraced_wall", "traced_wall", "spans")}
    return metrics, book, details, report["kernel_backend"]


# ---------------------------------------------------------------------- main


def environment(env: Env, kernel_backend: str, args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "kernel_backend": kernel_backend,
        "git_commit": _git_commit(env.root),
        "source_hash": _source_hash(env.root),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "eisenkit" / "__init__.py").is_file() or not (root / "docs" / "golden").is_dir():
        raise BenchError(f"{root} is not an eisenkit checkout (needs src/eisenkit and docs/golden)")
    env = Env(root)
    (env.work / "results").mkdir(parents=True, exist_ok=True)
    # a traced run replays one pass: per-layer figures need no averaging over passes
    passes = 1 if args.trace else workloads.passes_for(args.workload, args.seconds)
    places = f"{env.work.relative_to(root).as_posix()}/places-{args.seed}.txt"
    inputs = workloads.generate(args.workload, args.seed, passes, places)
    (root / places).write_text("".join(inputs["places"]))
    ops, cli_panel = inputs["ops"], inputs["cli_panel"]
    needed = ops + cli_panel if args.trace else ops
    answers = oracle_answers(env, ledger.oracle_requests(needed), [places])
    expected = ledger.expected_values(needed, answers)

    # warm the bytecode cache so no timed child compiles eisenkit
    warm, _, _ = run_cold(env, "import eisenkit.cli", [])
    if warm["rc"] != 0:
        raise BenchError(f"cannot import eisenkit: {warm['err'][-2000:]}")
    if args.trace:
        metrics, book, details, backend = measure_traced(
            env, args.workload, inputs, expected[: len(ops)], expected[len(ops) :]
        )
    else:
        metrics, book, details, backend = measure(env, args.workload, inputs, expected, passes)
    record = {
        "environment": environment(env, backend, args),
        "passes": passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": book.attempted,
        "failed": book.failed,
        "failures_by_class": book.by_class(),
        "correct": book.correct(),
        "failures": book.failures,
        "details": details,
    }
    out = env.work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    return {
        "correct": record["correct"],
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"ekbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
