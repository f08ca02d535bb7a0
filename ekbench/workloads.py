"""Seeded, stratified inputs for the three workloads, and how to run them.

Every dimension that drives cost or accuracy (log y, radius, Re s, |Im s|,
real versus complex s) is stratified: a run of n ops puts one value in each
of n equal-width strata, jittered inside it, and the seed only picks the
jitter and the pairing.  Two seeds therefore give the same cost mix, and the
op list depends on the arguments alone, never on how fast the host is.

An op is a JSON-able dict.  The program under test sees only these values.
"""

from __future__ import annotations

import json
import math
import random

NAMES = ("eval_grid", "lattice_extract", "cli_cold")

EVAL_BLOCKS = 8
EVAL_ROWS_PER_BLOCK = 20  # x 8 points x 8 blocks = 1,280 eval_fourier ops per pass
LATTICE_SINGLES = 96
LATTICE_EXTRACTIONS = 16
CLI_PER_SUBCOMMAND = 17  # x 6 subcommands = 102 cold processes per pass
CLI_PANEL_PER_SUBCOMMAND = 3
POLES = (0.0, 0.5, 1.0)
PLACE_PRIME_LIMIT = 10**5

SUBCOMMANDS = ("eval", "fourier", "fe-check", "xi", "euler", "decompose")
FE_CHECKS = ("xi", "scattering", "first-coefficient", "eisenstein")
DECOMPOSE_TYPES = tuple(
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False, shuffle: bool = True) -> list:
    """One jittered value in each of n equal strata of [lo, hi], shuffled
    (or in stratum order)."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = [a + (b - a) * (k + rng.random()) / n for k in range(n)]
    if shuffle:
        rng.shuffle(out)
    return [math.exp(v) for v in out] if log else out


# stratum multipliers of latin_design, one per dimension; all coprime to the
# op counts used here (96, 16, 17 and 3)
_DESIGN_STEPS = (1, 5, 7, 11)


def latin_design(rng: random.Random, n: int, *ranges: tuple) -> list:
    """n points whose j-th coordinates cover n strata of ``ranges[j]`` (each
    (lo, hi, log)), point k taking stratum (step_j * k) mod n: a fixed
    rank-1 lattice that spreads the strata over each other.  Only the jitter
    and the order depend on the seed, so the joint mix (cost and accuracy
    together) is the same for every seed."""
    columns = [strata(rng, n, *r, shuffle=False) for r in ranges]
    points = [tuple(col[(step * k) % n] for col, step in zip(columns, _DESIGN_STEPS)) for k in range(n)]
    rng.shuffle(points)
    return points


def _signed(rng: random.Random, values: list) -> list:
    return [v if rng.random() < 0.5 else -v for v in values]


def _off_poles(s: complex, clearance: float) -> bool:
    return min(abs(s - p) for p in POLES) >= clearance


def _fmt(z: complex) -> str:
    # passed as --s=VALUE: argparse would read a leading "-" as an option
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


# ----------------------------------------------------------------- eval_grid


def eval_grid(rng: random.Random) -> list:
    """8 blocks of 20 rows; a row is one s at 8 points z, 6 with log y in
    [0.5, 3] and 2 in the cusp, log y in [1e-3, 0.1]; x in [-3, 3], Re s in
    [-1, 3], |Im s| <= 30 and 0.1 clear of 0, 1/2 and 1.

    Each block is stratified on its own, so every stretch of the run has
    the same cost mix.
    """
    ops = []
    for block in range(EVAL_BLOCKS):
        n = EVAL_ROWS_PER_BLOCK
        res = strata(rng, n, -1.0, 3.0)
        ims = _signed(rng, strata(rng, n, 0.0, 30.0))
        for i in range(n):
            while not _off_poles(complex(res[i], ims[i]), 0.1):
                # only |Im s| < 0.1 can come near a pole: move Re s within its stratum
                k = math.floor((res[i] + 1.0) / 4.0 * n)
                res[i] = -1.0 + 4.0 * (k + rng.random()) / n
        upper = strata(rng, 6 * n, 0.5, 3.0, log=True)
        cusp = strata(rng, 2 * n, 1e-3, 0.1, log=True)
        xs = strata(rng, 8 * n, -3.0, 3.0)
        for i in range(n):
            ys = upper[6 * i : 6 * i + 6] + cusp[2 * i : 2 * i + 2]
            rng.shuffle(ys)
            row = block * n + i
            for j, y in enumerate(ys):
                ops.append({"kind": "fourier", "row": row, "x": xs[8 * i + j], "y": y, "s": [res[i], ims[i]]})
    return ops


# ----------------------------------------------------------- lattice_extract


def lattice_extract(rng: random.Random) -> list:
    """96 single-point lattice sums with radius in [200, 1000] and 16
    lattice-sourced a_n extractions with radius in [200, 300]; Re s in
    (1.2, 4], y in [0.5, 2].  A quarter of the singles and half of the
    extractions take the real-s kernel path, the rest |Im s| in (0, 10].
    (A complex-s extraction takes 0.6 s at radius 300 and 2.5 s at 600 on a
    2-core Xeon, so larger radii would leave the run to a few long ops.)

    Accuracy goes like (2 Re s - 2) log10(radius) and also depends on x and
    y, so (Re s, radius, y, x) come from latin_design, and the real-s ops
    fall on every second or fourth radius stratum: the cost and the accuracy
    mix barely move with the seed.
    """
    ops = []
    for kind, count, radii, real_every in (
        ("lattice", LATTICE_SINGLES, (200, 1000, True), 4),
        ("extract", LATTICE_EXTRACTIONS, (200, 300, True), 2),
    ):
        points = latin_design(rng, count, (1.2, 4.0, False), radii, (0.5, 2.0, True), (-3.0, 3.0, False))
        points.sort(key=lambda p: p[1])
        ims = _signed(rng, strata(rng, count - count // real_every, 0.0, 10.0))
        ns = [k % 4 for k in range(count)]
        rng.shuffle(ns)
        phase = rng.randrange(real_every)
        for k, (sigma, radius, y, x) in enumerate(points):
            op = {"kind": kind, "y": y, "s": [sigma, 0.0 if k % real_every == phase else ims.pop()], "radius": round(radius)}
            if kind == "lattice":
                op["x"] = x
            else:
                op["n"] = ns[k]
            ops.append(op)
    # cheap and dear ops interleaved, so a drift in host speed hits every kind alike
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------ cli_cold


def place_lines(rng: random.Random) -> list:
    """Unit-circle Satake pairs (e^(i t), e^(-i t)) at every prime < 10^5."""
    sieve = bytearray(b"\x01") * PLACE_PRIME_LIMIT
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(PLACE_PRIME_LIMIT**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    lines = []
    for p in (i for i, flag in enumerate(sieve) if flag):
        t = rng.uniform(0.0, math.pi)
        c, s = math.cos(t), math.sin(t)
        lines.append(f"{p} {c!r} {s!r} {c!r} {-s!r}\n")
    return lines


def _spectral(rng: random.Random, n: int, re_lo: float, re_hi: float, im_max: float, clearance=0.1):
    res = strata(rng, n, re_lo, re_hi)
    ims = _signed(rng, strata(rng, n, 0.0, im_max))
    out = []
    for re, im in zip(res, ims):
        s = complex(re, im)
        while not _off_poles(s, clearance):
            s = complex(s.real, math.copysign(clearance * (1.0 + rng.random()), im))
        out.append(s)
    return out


def cli_ops(rng: random.Random, per_subcommand: int, places_path: str) -> list:
    """Seeded arguments for every subcommand, all --format json."""
    k = per_subcommand
    ops = []
    # eval --method both needs Re s > 1 for the lattice sum; its accuracy is set
    # by Re s and the radius together, so their strata come from latin_design
    for (sigma, radius, y, x), im in zip(
        latin_design(rng, k, (1.2, 4.0, False), (100, 300, True), (0.5, 3.0, True), (-3.0, 3.0, False)),
        _signed(rng, strata(rng, k, 0.0, 10.0)),
    ):
        s = complex(sigma, im)
        argv = ["eval", f"--z={_fmt(complex(x, y))}", f"--s={_fmt(s)}", "--method", "both", "--radius", str(round(radius))]
        ops.append({"kind": "cli", "sub": "eval", "argv": argv, "x": x, "y": y, "s": [s.real, s.imag], "radius": round(radius)})
    ns = [1 + i % 4 for i in range(k)]
    rng.shuffle(ns)
    for n, (sigma, radius, y), im in zip(
        ns,
        latin_design(rng, k, (1.2, 4.0, False), (60, 150, True), (0.5, 2.0, True)),
        _signed(rng, strata(rng, k, 0.0, 10.0)),
    ):
        s = complex(sigma, im)
        argv = ["fourier", "--n", str(n), "--y", repr(y), f"--s={_fmt(s)}", "--extract", "--radius", str(round(radius))]
        ops.append({"kind": "cli", "sub": "fourier", "argv": argv, "n": n, "y": y, "s": [s.real, s.imag], "radius": round(radius)})
    checks = [FE_CHECKS[i % len(FE_CHECKS)] for i in range(k)]
    rng.shuffle(checks)
    for check, y, x in zip(checks, strata(rng, k, 0.8, 2.0, log=True), strata(rng, k, -0.5, 0.5)):
        # the strip grid's shape: sigma in [0.1, 0.9] at least 0.1 from 1/2, |t| <= 5
        points = [
            complex(rng.choice((rng.uniform(0.1, 0.4), rng.uniform(0.6, 0.9))), rng.uniform(-5.0, 5.0))
            for _ in range(4)
        ]
        argv = ["fe-check", "--check", check, f"--z={_fmt(complex(x, y))}", "--points=" + ",".join(_fmt(p) for p in points)]
        ops.append(
            {"kind": "cli", "sub": "fe-check", "argv": argv, "check": check, "y": y, "points": [[p.real, p.imag] for p in points]}
        )
    for s in _spectral(rng, k, -3.0, 4.0, 30.0):
        ops.append({"kind": "cli", "sub": "xi", "argv": ["xi", f"--s={_fmt(s)}"], "s": [s.real, s.imag]})
    for s, max_q in zip(_spectral(rng, k, 1.2, 3.0, 10.0), strata(rng, k, 1e3, 1e5, log=True)):
        argv = ["euler", "--input", places_path, f"--s={_fmt(s)}", "--max-q", str(round(max_q))]
        ops.append({"kind": "cli", "sub": "euler", "argv": argv, "s": [s.real, s.imag], "max_q": round(max_q)})
    for _ in range(k):
        types = rng.sample(DECOMPOSE_TYPES, 8)
        ops.append({"kind": "cli", "sub": "decompose", "argv": ["decompose", "--table", ",".join(types)], "types": types})
    # every run of six consecutive ops holds one op of each subcommand
    by_sub = [ops[i * k : (i + 1) * k] for i in range(len(SUBCOMMANDS))]
    out = []
    for b in range(k):
        block = [dict(group[b], argv=group[b]["argv"] + ["--format", "json"]) for group in by_sub]
        rng.shuffle(block)
        out += block
    return out


# ----------------------------------------------------------------- generation


# what one pass takes on a 2-core Xeon host; --seconds S runs max(1, round(S / this)) passes
PASS_SECONDS = {"eval_grid": 10, "lattice_extract": 10, "cli_cold": 45}


def passes_for(name: str, seconds: int) -> int:
    return max(1, round(seconds / PASS_SECONDS[name]))


def generate(name: str, seed: int, passes: int, places_path: str) -> dict:
    """The run's inputs: {"ops": [...], "cli_panel": [...], "places": [...]}.

    ``cli_panel`` is three ops per subcommand.  A traced run replays it
    in-process on every workload, so every layer is measured on every
    workload, and runs it as cold processes for the per-subcommand latency.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    places = place_lines(random.Random(f"places:{seed}"))
    ops = []
    for p in range(passes):
        if name == "eval_grid":
            ops += [dict(op, row=op["row"] + p * EVAL_BLOCKS * EVAL_ROWS_PER_BLOCK) for op in eval_grid(rng)]
        elif name == "lattice_extract":
            ops += lattice_extract(rng)
        else:
            ops += cli_ops(rng, CLI_PER_SUBCOMMAND, places_path)
    panel = cli_ops(random.Random(f"cli_panel:{seed}"), CLI_PANEL_PER_SUBCOMMAND, places_path)
    return {"ops": ops, "cli_panel": panel, "places": places}


def fingerprint(inputs: dict) -> str:
    return json.dumps(inputs, sort_keys=True)
