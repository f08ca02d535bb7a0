"""Independent reference values for the benchmark, computed without eisenkit.

E(z, s) and a_n(y, s) come from mpmath at 30 significant digits.  The oracle
first pulls z back into the standard fundamental domain of SL2(Z) (Cohen,
A Course in Computational Algebraic Number Theory, Alg. 7.4.2), where
y >= sqrt(3)/2 and a handful of Fourier modes reach 1e-22 of the largest.  K_nu is the
trapezoid rule on int_0^inf exp(-X cosh t) cosh(nu t) dt in mpmath, with the
step taken from the analyticity strip |Im t| < 1.2 and guard digits that
absorb the exp(pi |Im nu| / 2) cancellation; the self-check compares it with
mpmath.besselk.  The Euler product is a direct compensated log-sum, and the
root-system rows are checked against closed forms.

Run as ``oracles.py ROOT REQUESTS.json ANSWERS.json`` it first reproduces
ROOT/docs/golden/*.json (the self-check; a failure exits 3 and writes
nothing), then answers the requests.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from pathlib import Path

import mpmath
from mpmath import libmp, mp, mpc, mpf

DPS = 30
_STRIP = 1.2  # half-width of the analyticity strip used for the Bessel step
_ACCURACY_DIGITS = 36  # target of the Bessel rule, relative to its peak


# ---------------------------------------------------------------- E and a_n


def pullback(x: float, y: float) -> tuple:
    """Reduce x + iy to |x| <= 1/2, |z| >= 1 under SL2(Z) (Cohen Alg. 7.4.2)."""
    z = mpc(x, y)
    for _ in range(10_000):
        z -= mpmath.nint(z.real)
        if abs(z) < 1:
            z = -1 / z
        else:
            return z.real, z.imag
    raise RuntimeError(f"pullback of {x}+{y}i did not terminate")


def xi(w):
    return mpmath.pi ** (-w / 2) * mpmath.gamma(w / 2) * mpmath.zeta(w)


def _sigma(n: int, e):
    return mpmath.fsum(mpf(d) ** e for d in range(1, n + 1) if n % d == 0)


class SpectralRow:
    """Everything about one s that the Fourier expansion shares across z."""

    def __init__(self, s: complex):
        b = abs(s.imag)
        # the cosh integral of K_{s-1/2} cancels down by exp(-pi b / 2)
        self.guard = int(math.pi * b / 2 / math.log(10)) + 12
        with mp.workdps(DPS + self.guard):
            self.s = mpc(s)
            self.nu = self.s - mpf(1) / 2
            self.xi2s = xi(2 * self.s)
            self.phi = xi(2 * self.s - 1) / self.xi2s
            self.h = 2 * math.pi * _STRIP / (
                _ACCURACY_DIGITS * math.log(10) + (_STRIP + math.pi / 2) * b + 4.0
            )
            self._nodes = ([], [])
            self._factors = []

    def _depth(self) -> float:
        # log of (integrand at t = 0) / (10^-ACC K): K can be exp(-pi |Im nu| / 2) of it
        return _ACCURACY_DIGITS * math.log(10) + math.pi * abs(float(self.nu.imag)) / 2

    def _grid(self, x_min: float) -> int:
        # nodes reach where exp(-x_min (cosh t - 1) + |Re nu| t) is 10^-ACC of K
        a = abs(float(self.nu.real))
        w = self._depth()
        t = 1.0
        for _ in range(100):
            t = math.acosh(1.0 + (w + a * t) / x_min)
        count = int(math.ceil(t / self.h)) + 1
        cosh_m1, cosh_nu = self._nodes
        for k in range(len(cosh_m1), count):
            t = mpf(self.h) * k
            cosh_m1.append(mpmath.cosh(t) - 1)
            cosh_nu.append(mpmath.cosh(self.nu * t))
        return count

    def bessel_ks(self, x1, n_max: int) -> list:
        """[K_nu(n x1) for n = 1..n_max] on one shared grid."""
        with mp.workdps(DPS + self.guard):
            prec = mp.prec
            x1 = mpf(x1)
            count = self._grid(float(x1))
            cosh_m1, cosh_nu = self._nodes
            a = abs(float(self.nu.real))
            w = self._depth()
            xf, hf = float(x1), float(self.h)
            # raw mpmath tuples keep the inner loop cheap: exact products, one rounding per sum
            c_re = [c.real._mpf_ for c in cosh_nu[:count]]
            c_im = [c.imag._mpf_ for c in cosh_nu[:count]]
            # exp(-n x1 cosh t) = exp(-n x1) * base^n, with base = exp(-x1 (cosh t - 1)) <= 1
            base = [mpmath.exp(-x1 * c)._mpf_ for c in cosh_m1[:count]]
            power = [mpf(1)._mpf_] * count
            out = []
            for n in range(1, n_max + 1):
                # a node is dropped once its integrand is 10^-ACC of K
                while len(power) > 1:
                    k = len(power) - 1
                    if n * xf * float(cosh_m1[k]) - a * hf * k <= w:
                        break
                    power.pop()
                power = [libmp.mpf_mul(p, e, prec, "n") for p, e in zip(power, base)]
                terms = list(zip(power, c_re, c_im))
                half = libmp.mpf_shift(power[0], -1)
                re = libmp.mpf_sum([libmp.mpf_mul(half, c_re[0])] + [libmp.mpf_mul(p, c) for p, c, _ in terms[1:]], prec, "n")
                im = libmp.mpf_sum([libmp.mpf_mul(half, c_im[0])] + [libmp.mpf_mul(p, c) for p, _, c in terms[1:]], prec, "n")
                out.append(self.h * mpmath.exp(-n * x1) * mpc(mpf(re), mpf(im)))
            return out

    def a0(self, y):
        with mp.workdps(DPS + self.guard):
            y = mpf(y)
            return y**self.s + self.phi * y ** (1 - self.s)

    def coefficients(self, y, n_max: int) -> list:
        """[a_n(y, s) for n = 1..n_max]."""
        with mp.workdps(DPS + self.guard):
            y = mpf(y)
            ks = self.bessel_ks(2 * mpmath.pi * y, n_max)
            # 2 n^nu sigma_{1-2s}(n) / xi(2s) depends on s alone: every z of the row shares it
            for n in range(len(self._factors) + 1, n_max + 1):
                self._factors.append(2 * mpf(n) ** self.nu * _sigma(n, 1 - 2 * self.s) / self.xi2s)
            root_y = mpmath.sqrt(y)
            return [f * root_y * k for f, k in zip(self._factors, ks)]

    def eisenstein(self, x: float, y: float):
        """E(x + iy, s) from the Fourier expansion at the pulled-back point."""
        with mp.workdps(DPS + self.guard):
            xr, yr = pullback(x, y)
            total = self.a0(yr)
            # a_n ~ exp(|nu| - 2 pi n y) once 2 pi n y > |nu|; stop 1e-22 below that
            n_max = int((abs(self.nu) + 22 * math.log(10) + 5) / (2 * math.pi * float(yr))) + 2
            terms = self.coefficients(yr, n_max)
            for n, a_n in enumerate(terms, start=1):
                total += 2 * a_n * mpmath.cos(2 * mpmath.pi * n * xr)
            return total


def xi_value(s: complex):
    """xi(s) and the natural size of its error, |pi^(-s/2) Gamma(s/2)| max(1, |zeta|)."""
    with mp.workdps(DPS):
        s = mpc(s)
        factor = mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2)
        zeta = mpmath.zeta(s)
        return factor * zeta, abs(factor) * max(1, abs(zeta))


# ------------------------------------------------------------ Euler products


def euler_log_sum(places: list, s: complex, max_q: int) -> tuple:
    """exp(-sum log(1 - lambda q^-s)) over q <= max_q, summed exactly (fsum)."""
    re_parts, im_parts = [], []
    count = 0
    for q, eigenvalues in places:
        if q > max_q:
            break
        q_pow = cmath.exp(-s * math.log(q))
        for lam in eigenvalues:
            term = cmath.log(1.0 - lam * q_pow)
            re_parts.append(-term.real)
            im_parts.append(-term.imag)
        count += 1
    return cmath.exp(complex(math.fsum(re_parts), math.fsum(im_parts))), count


# -------------------------------------------------------------- root systems

_POSITIVE_ROOTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def positive_roots(letter: str, rank: int) -> int:
    return _POSITIVE_ROOTS[letter](rank)


def decomposition_defects(row: dict) -> list:
    """Closed-form checks on one decompose row; an empty list means it passed.

    The graded nilradical has dimension |Phi+| - |Phi+ of the Levi|, and its
    level integers are a_j = j for j = 1..m.
    """
    problems = []
    levi = 0 if row["levi"] == "T" else sum(positive_roots(part[0], int(part[1:])) for part in row["levi"].split("+"))
    if sum(row["dims"]) != positive_roots(row["type"], row["rank"]) - levi:
        problems.append("dimension not conserved")
    if row["a"] != list(range(1, row["m"] + 1)) or len(row["dims"]) != row["m"]:
        problems.append("a_j != j")
    return problems


# ------------------------------------------------------------------ requests


def _pair(value) -> list:
    value = complex(value)
    return [value.real, value.imag]


def answer(request: dict, places: dict) -> dict:
    """Reference value(s) for one request; see workloads.oracle_requests."""
    kind = request["kind"]
    if kind == "E":
        row = SpectralRow(complex(*request["s"]))
        values = [row.eisenstein(x, y) for x, y in request["points"]]
        return {"values": [_pair(v) for v in values]}
    if kind == "a_n":
        row = SpectralRow(complex(*request["s"]))
        a0 = row.a0(request["y"])
        n = request["n"]
        value = a0 if n == 0 else row.coefficients(request["y"], n)[-1]
        return {"value": _pair(value), "a0": _pair(a0)}
    if kind == "xi":
        value, scale = xi_value(complex(*request["s"]))
        return {"value": _pair(value), "scale": float(scale)}
    if kind == "euler":
        value, count = euler_log_sum(places[request["places"]], complex(*request["s"]), request["max_q"])
        return {"value": _pair(value), "count": count}
    raise ValueError(f"unknown oracle request {kind!r}")


def read_places(path: str) -> list:
    out = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.split("#", 1)[0].split()
            if text:
                comps = [float(t) for t in text[1:]]
                out.append((int(text[0]), [complex(a, b) for a, b in zip(comps[::2], comps[1::2])]))
    out.sort(key=lambda place: place[0])
    return out


# ---------------------------------------------------------------- self-check


def _close(got, want, tol) -> bool:
    return abs(complex(got) - complex(want)) <= tol * max(1.0, abs(complex(want)))


def self_check(golden_dir: Path) -> list:
    """Reproduce the committed golden CLI outputs; returns the failures."""

    def load(name):
        return json.loads((golden_dir / name).read_text())

    failures = []
    ev = load("eval.json")
    row = SpectralRow(2.5)
    if not _close(row.eisenstein(0.0, 1.0), complex(ev["value_re"], ev["value_im"]), 1e-13):
        failures.append("eval.json: E(i, 2.5)")
    fo = load("fourier.json")
    a1 = SpectralRow(complex(2.5)).coefficients(fo["y"], 1)[0]
    if not _close(a1, complex(fo["a_n_re"], fo["a_n_im"]), 1e-13):
        failures.append("fourier.json: a_1(1, 2.5)")
    golden_xi = load("xi.json")
    value, _ = xi_value(0.3 + 2j)
    if not _close(value, complex(golden_xi["xi_re"], golden_xi["xi_im"]), 1e-13):
        failures.append("xi.json: xi(0.3+2i)")
    fe = load("fe-check.json")
    for entry in fe["rows"]:
        s = complex(entry["s"].replace("i", "j"))
        with mp.workdps(DPS):
            c = xi(2 * mpc(s) - 1) / xi(2 * mpc(s))
            c_reflected = xi(1 - 2 * mpc(s)) / xi(2 - 2 * mpc(s))
        if abs(c * c_reflected - 1) > 1e-25 or entry["defect"] > 1e-12:
            failures.append(f"fe-check.json: scattering at {entry['s']}")
    eu = load("euler.json")
    places = read_places(str(golden_dir / "places_sample.txt"))
    value, count = euler_log_sum(places, 2.2, eu["max_q"])
    if count != eu["factor_count"] or not _close(value, complex(eu["value_re"], eu["value_im"]), 1e-14):
        failures.append("euler.json: partial L at s = 2.2")
    for entry in load("decompose.json")["rows"]:
        if decomposition_defects(entry):
            failures.append(f"decompose.json: {entry['type']}{entry['rank']} row {entry['removed_index']}")
    # the Bessel rule against mpmath's own besselk, including a large imaginary order
    for nu, x in ((2.0, 5.5), (0.25 + 7.0j, 6.0), (2.5 + 30.0j, 5.6), (-1.5 + 12.0j, 40.0)):
        r = SpectralRow(complex(nu) + 0.5)
        with mp.workdps(DPS + r.guard):
            ours = r.bessel_ks(x, 1)[0]
            ref = mpmath.besselk(mpc(nu), x)
            if abs(ours - ref) > mpf(10) ** (-DPS + 2) * abs(ref):
                failures.append(f"bessel rule K_{nu}({x})")
    return failures


def main(argv: list) -> int:
    root, request_path, answer_path = (Path(a) for a in argv)
    failures = self_check(root / "docs" / "golden")
    if failures:
        print("oracle self-check failed: " + "; ".join(failures), file=sys.stderr)
        return 3
    payload = json.loads(request_path.read_text())
    places = {path: read_places(str(root / path)) for path in payload["places"]}
    answer_path.write_text(json.dumps([answer(req, places) for req in payload["requests"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
