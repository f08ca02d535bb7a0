"""Judge every op against its oracle and class each failure.

An op's digits are -log10(|err| / scale), clamped to [0, 17]; an op that
raised, exited non-zero or printed no result scores 0.  An op passes when
every output it checks is within its tolerance.  A failure is put in the
first class whose condition the op meets:

* ``cusp_no_pullback``: the op's only failed output is a finite Fourier
  value at a point z that SL2(Z) moves off its horizontal line, and the
  program's own eval_fourier meets the tolerance at the point z' it pulls
  z back to (``oracles.pullback``).  E is invariant, so the failure is the
  missing pullback: below y ~ 0.01 the unreduced series hits its 30 + 512
  mode cap, and above that it loses digits to its large terms;
* ``bessel_abs_error_large_im_s``: the only failed output is a finite
  Fourier value whose error (at z', when z' exists) is within the
  absolute-error model of the K-Bessel defect, ``bessel_abs_error``;
* ``nondeterministic``: the determinism panel's checksum moved;
* ``unexplained``: anything else, including every op that raised, exited
  non-zero, printed nothing or returned a non-finite value.

A run is correct only when every failure falls in one of the two known
defect classes.
"""

from __future__ import annotations

import functools
import math

import oracles
from mpmath import mp, mpc

KNOWN_DEFECTS = ("cusp_no_pullback", "bessel_abs_error_large_im_s")
MAX_DIGITS = 17.0

FOURIER_TOL = 1e-8  # relative, the strip-grid functional-equation tolerance
SPECIAL_TOL = 1e-10  # xi, the closed-form a_n and the reflection checks
EULER_TOL = 1e-11
LATTICE_SLACK = 1e-10  # added to the lattice tail bound, relative

# K_(s-1/2) is accurate to about 1e-16 in absolute terms while its size
# falls like e^(-pi |Im s| / 2), and a_n divides it by xi(2s), which falls
# as fast; so E is off by up to about 1e-16 sqrt(y) / |xi(2s)|.  Over the
# 797 failed upper-band ops of a 2,560-op eval_grid run (seed 901),
# |err| |xi(2s)| / sqrt(y) was at most 1.4e-16; the class allows 1e-14.
BESSEL_ABS_EPS = 1e-14


def digits(err: float, scale: float) -> float:
    if not math.isfinite(err):
        return 0.0
    if err == 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(err / scale)))


def lattice_tail(y: float, sigma: float, radius: int) -> float:
    """The documented O(R^(2 - 2 Re s)) tail bound of the coprime lattice sum."""
    c = min(y * y, 0.25)
    return 8.0 * y**sigma * c ** (-sigma) * radius ** (2.0 - 2.0 * sigma) / (2.0 * sigma - 2.0)


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


# ------------------------------------------------------------ oracle requests


def oracle_requests(ops: list) -> list:
    """One request per op (eval_grid rows share one), in op order; ops that
    need no oracle value get None."""
    requests, rows = [], {}
    for op in ops:
        kind, sub = op["kind"], op.get("sub")
        if kind == "fourier":
            key = (op["row"], tuple(op["s"]))
            if key not in rows:
                rows[key] = {"kind": "E", "s": op["s"], "points": []}
                requests.append(rows[key])
            rows[key]["points"].append([op["x"], op["y"]])
        elif kind == "lattice" or sub == "eval":
            requests.append({"kind": "E", "s": op["s"], "points": [[op["x"], op["y"]]]})
        elif kind == "extract" or sub == "fourier":
            requests.append({"kind": "a_n", "s": op["s"], "y": op["y"], "n": op["n"]})
        elif sub == "xi":
            requests.append({"kind": "xi", "s": op["s"]})
        elif sub == "euler":
            requests.append({"kind": "euler", "s": op["s"], "max_q": op["max_q"], "places": op["argv"][2]})
    return requests


def expected_values(ops: list, answers: list) -> list:
    """Spread the oracle answers back over the ops (inverse of oracle_requests)."""
    out, it, rows = [], iter(answers), {}
    for op in ops:
        kind, sub = op["kind"], op.get("sub")
        if kind == "fourier":
            key = (op["row"], tuple(op["s"]))
            if key not in rows:
                rows[key] = iter(next(it)["values"])
            out.append({"value": next(rows[key])})
        elif kind in ("lattice", "extract") or sub in ("eval", "fourier", "xi", "euler"):
            answer = next(it)
            if "values" in answer:
                answer = {"value": answer["values"][0]}
            out.append(answer)
        else:
            out.append(None)
    return out


# -------------------------------------------------------------------- judging


FOURIER_PART = "fourier_value"  # the Fourier-expansion output of fourier and CLI eval ops


class Verdict:
    """``fourier_err`` is the absolute error of the Fourier value when that
    finite value is the op's only failed output, else None."""

    __slots__ = ("digits", "passed", "detail", "fourier_err")

    def __init__(self, digits_, passed, detail="", fourier_err=None):
        self.digits = digits_
        self.passed = passed
        self.detail = detail
        self.fourier_err = fourier_err


def _check(got: complex, want: complex, scale: float, allowed: float):
    err = abs(got - want)
    return digits(err, scale), err <= allowed, err


def _merge(parts: list, what: str) -> Verdict:
    failed = [name for name, (_, ok, _) in parts if not ok]
    detail = f"{what}: {', '.join(failed)} out of tolerance" if failed else ""
    fourier_err = None
    if failed == [FOURIER_PART]:
        err = dict(parts)[FOURIER_PART][2]
        fourier_err = err if math.isfinite(err) else None
    return Verdict(min(d for _, (d, _, _) in parts), not failed, detail, fourier_err)


def judge(op: dict, result, expected) -> Verdict:
    """Verdict for one op; ``result`` is what the worker or a cold process reported."""
    if "raised" in result:
        return Verdict(0.0, False, f"raised {result['raised']}")
    kind = op["kind"]
    if kind == "fourier":
        want = _c(expected["value"])
        scale = max(1.0, abs(want))
        return _merge([(FOURIER_PART, _check(_c(result["value"]), want, scale, FOURIER_TOL * scale))], "fourier")
    if kind == "lattice":
        want = _c(expected["value"])
        scale = max(1.0, abs(want))
        allowed = lattice_tail(op["y"], op["s"][0], op["radius"]) + LATTICE_SLACK * scale
        return _merge([("value", _check(_c(result["value"]), want, scale, allowed))], "lattice")
    if kind == "extract":
        want = _c(expected["value"])
        scale = max(1.0, abs(_c(expected["a0"])))
        allowed = lattice_tail(op["y"], op["s"][0], op["radius"]) + LATTICE_SLACK * scale
        return _merge([("a_n", _check(_c(result["value"]), want, scale, allowed))], "extract")
    return _judge_cli(op, result, expected)


def _judge_cli(op, result, expected) -> Verdict:
    sub, out = op["sub"], result["out"]
    if result["rc"] != 0 or out is None:
        return Verdict(0.0, False, f"exit {result['rc']}: {result.get('err', '')[:200]}")
    parts = []
    if sub == "eval":
        want = _c(expected["value"])
        scale = max(1.0, abs(want))
        fou = complex(out["fourier_value_re"], out["fourier_value_im"])
        lat = complex(out["lattice_value_re"], out["lattice_value_im"])
        parts.append((FOURIER_PART, _check(fou, want, scale, FOURIER_TOL * scale)))
        tail = lattice_tail(op["y"], op["s"][0], op["radius"])
        parts.append(("lattice_value", _check(lat, want, scale, tail + LATTICE_SLACK * scale)))
    elif sub == "fourier":
        want = _c(expected["value"])
        scale = max(1.0, abs(_c(expected["a0"])))
        tail = lattice_tail(op["y"], op["s"][0], op["radius"])
        parts.append(("a_n", _check(complex(out["a_n_re"], out["a_n_im"]), want, scale, SPECIAL_TOL * scale)))
        parts.append(("extracted", _check(complex(out["extracted_re"], out["extracted_im"]), want, scale, tail + LATTICE_SLACK * scale)))
    elif sub == "fe-check":
        tol = FOURIER_TOL if op["check"] == "eisenstein" else SPECIAL_TOL
        defect = out["max_defect"]
        ok = out["skipped"] == 0 and defect is not None
        parts.append(("max_defect", (digits(defect, 1.0), ok and defect <= tol, defect) if ok else (0.0, False, math.inf)))
    elif sub == "xi":
        want = _c(expected["value"])
        scale = expected["scale"]
        parts.append(("xi", _check(complex(out["xi_re"], out["xi_im"]), want, scale, SPECIAL_TOL * scale)))
        parts.append(("xi_reflected", _check(complex(out["xi_reflected_re"], out["xi_reflected_im"]), want, scale, SPECIAL_TOL * scale)))
    elif sub == "euler":
        want = _c(expected["value"])
        scale = abs(want)
        parts.append(("value", _check(complex(out["value_re"], out["value_im"]), want, scale, EULER_TOL * scale)))
        parts.append(("factor_count", (MAX_DIGITS, out["factor_count"] == expected["count"], 0.0)))
    else:  # decompose
        parts.append(("rows", (MAX_DIGITS, not _decompose_problems(op, out), 0.0)))
    return _merge(parts, sub)


def _decompose_problems(op, out) -> list:
    want = [(t[0], int(t[1:]), k) for t in op["types"] for k in range(int(t[1:]))]
    if [(r["type"], r["rank"], r["removed_index"]) for r in out["rows"]] != want:
        return ["row list"]
    return [problem for row in out["rows"] for problem in oracles.decomposition_defects(row)]


# ------------------------------------------------------------- classification


def rescue_op(op: dict, verdict: Verdict):
    """The failed op's Fourier evaluation redone at the pulled-back point, or
    None when the op failed elsewhere than in a finite Fourier value, or when
    SL2(Z) leaves z on its horizontal line (a translation changes nothing)."""
    if verdict.fourier_err is None:
        return None
    x, y = (float(v) for v in oracles.pullback(op["x"], op["y"]))
    if y <= op["y"]:
        return None
    return {"kind": "fourier", "x": x, "y": y, "s": op["s"]}


@functools.cache
def _xi_2s_abs(s: tuple) -> float:
    with mp.workdps(20):
        return float(abs(oracles.xi(2 * mpc(*s))))


def bessel_abs_error(op: dict) -> float:
    """The largest Fourier-value error the K-Bessel defect explains at the
    op's point: BESSEL_ABS_EPS sqrt(y) / |xi(2s)|."""
    return BESSEL_ABS_EPS * math.sqrt(op["y"]) / _xi_2s_abs(tuple(op["s"]))


def classify(op: dict, verdict: Verdict, rescue, rescue_verdict) -> str:
    """The class of a failed op; ``rescue`` is rescue_op(op, verdict) and
    ``rescue_verdict`` the judgement of the program's value there."""
    if verdict.fourier_err is None:
        return "unexplained"
    if rescue is not None and rescue_verdict.passed:
        return "cusp_no_pullback"
    at, err = (rescue, rescue_verdict.fourier_err) if rescue is not None else (op, verdict.fourier_err)
    if err is not None and err <= bessel_abs_error(at):
        return "bessel_abs_error_large_im_s"
    return "unexplained"


class Ledger:
    """Counts attempted ops and keeps every failure; ``classify`` names the
    class of each once the pulled-back re-evaluations are in."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.digits: list = []
        self.passed_digits: list = []
        self.failed_ids: set = set()

    def add(self, op_id: int, op: dict, result, expected) -> None:
        verdict = judge(op, result, expected)
        self.attempted += 1
        self.digits.append(verdict.digits)
        if verdict.passed:
            self.passed_digits.append(verdict.digits)
        else:
            self.failed_ids.add(op_id)
            self.failures.append(
                {"op": op_id, "class": None, "detail": verdict.detail, "input": op,
                 "verdict": verdict, "rescue": rescue_op(op, verdict), "expected": expected}
            )

    def rescue_ops(self) -> list:
        """Fourier ops at pulled-back points, one per failure that has one."""
        return [f["rescue"] for f in self.failures if f.get("rescue")]

    def classify(self, rescue_results: list) -> None:
        """Name each failure's class; ``rescue_results`` pairs with rescue_ops()."""
        results = iter(rescue_results)
        for f in self.failures:
            if f["class"] is None:
                verdict, rescue, expected = f.pop("verdict"), f.pop("rescue"), f.pop("expected")
                rescue_verdict = judge(rescue, next(results), expected) if rescue is not None else None
                f["class"] = classify(f["input"], verdict, rescue, rescue_verdict)

    def add_determinism(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"op": None, "class": "nondeterministic", "detail": "; ".join(problems)})

    @property
    def failed(self) -> int:
        return len(self.failures)

    def correct(self) -> bool:
        return all(f["class"] in KNOWN_DEFECTS for f in self.failures)

    def by_class(self) -> dict:
        out: dict = {}
        for f in self.failures:
            out[f["class"]] = out.get(f["class"], 0) + 1
        return out
