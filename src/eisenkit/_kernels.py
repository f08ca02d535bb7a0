"""Hot-loop kernels: the coprime lattice sum in numpy, the K-Bessel trapezoid in scalar Python.

The lattice kernels return the half-lattice sum

    S = 1 + sum_{m=1..R} sum_{n=-R..R, gcd(m,|n|)=1} ((m*x + n)^2 + (m*y)^2)^(-s)

which is the full coprime box sum folded along (m,n) -> (-m,-n); the leading
1 is the folded (0,+-1) contribution.  Callers multiply by y^s.

The coprime pairs are enumerated once per process, not once per call, shell
by shell in the max-norm r = max(m, |n|).  Shell r >= 2 holds the four
pairs (r, -k), (r, k), (k, -r), (k, r) for each 1 <= k < r coprime to r, so
the table keeps one entry (r, k) per four pairs, in two int16 arrays r and
k, shell by shell, k ascending: sum phi(r) ~ 3 R^2 / pi^2 entries, 4 bytes
each.  Shell 1, (1, -1), (1, 0), (1, 1), fits no such pattern and is summed
apart in scalar code with the leading 1.  So the entries of radius R are the
table's prefix up to the end of shell R, whatever radii came before.  Each
array is allocated once for every shell up to MAX_RADIUS, the only radius
bound, 2.4 MB, under numpy's 4 MiB hugepage threshold, and filled in place
by _shells blocks, so growth copies no table and only the filled prefix
becomes resident.
A prefix is summed in blocks of _CHUNK / 4 entries, at most _CHUNK = 2^14
pairs: each block first writes its four sides into full-length m and n
rows.  Every array pass writes into seven float64 buffers of one block each
(0.9 MB, inside a 2 MB L2 cache), allocated once per call, so the transient
memory of a sum is bounded whatever the radius and no pass makes a
temporary.  Blocks reduce by numpy's pairwise ``.sum()``, never by BLAS,
whose split of the work can follow the thread count; so a sum does not
depend on the thread count.

numpy is imported inside the lattice functions only, so the Bessel path and
everything that never sums the lattice run without it.

The K-Bessel trapezoid sums tens of nodes per call on the Fourier modes, where
numpy's per-call overhead would dominate, so it is one scalar loop.  It
carries the phases of the integrand as complex recurrences, so each node
costs one cosh and one exp, and sums into one complex accumulator.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from ._arith import factorize, primes_up_to

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 1 << 14  # pairs per summation block
MAX_RADIUS = 2000  # a sum costs R^2; its tail shrinks only as R^(2 - 2 Re s)

# (r, k, ends): r and k are int16 arrays with one slot per entry of shells
# 2..MAX_RADIUS, sum phi(r) slots.  Their first ends[-1] slots are the
# entries (r, k) in shell order, and the list ends[r] is where shell r ends
# (shell 1 has no entry: ends[1] = 0); a block is written before its shells
# join ends.  None until the first sum.
_table = None


def _shells(lo: int, hi: int):
    """Entries (r, k) of shells lo..hi (2 <= lo) in table order, as blocks of
    max(1, 4 _CHUNK // hi) whole shells: (r, k, phi(r) of each shell).

    A block's mask has row r and column k - 1, true where k < r is coprime to
    r, so masking the grid of k lists its entries shell by shell, k
    ascending, straight into int16.
    """
    import numpy as np

    step = max(1, 4 * _CHUNK // hi)
    for r0 in range(lo, hi + 1, step):
        r1 = min(r0 + step, hi + 1)
        edges = np.arange(r0, r1, dtype=np.int16)
        ks = np.arange(1, r1 - 1, dtype=np.int16)
        mask = ks < edges[:, None]
        for row, r in zip(mask, range(r0, r1)):
            for p, _ in factorize(r):
                row[p - 1 :: p] = False
        phi = np.count_nonzero(mask, axis=1)
        yield np.repeat(edges, phi), np.broadcast_to(ks, mask.shape)[mask], phi


def _cached_entries(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries (r, k) of shells 2..radius <= MAX_RADIUS, from the table."""
    global _table
    import numpy as np

    if _table is None:
        # sum of phi(r), r = 2..MAX_RADIUS, by the totient sieve
        totient = np.arange(MAX_RADIUS + 1)
        for p in primes_up_to(MAX_RADIUS):
            totient[p::p] -= totient[p::p] // p
        size = int(totient[2:].sum())
        _table = (np.empty(size, dtype=np.int16), np.empty(size, dtype=np.int16), [0, 0])
    rs, ks, ends = _table
    if radius >= len(ends):
        for r, k, phi in _shells(len(ends), radius):
            rs[ends[-1] : ends[-1] + r.size] = r
            ks[ends[-1] : ends[-1] + k.size] = k
            ends += (ends[-1] + np.cumsum(phi)).tolist()
    return rs[: ends[radius]], ks[: ends[radius]]


def _accumulate(out: np.ndarray, xs: np.ndarray, y: float, s_re: float, s_im: float, rs, ks) -> None:
    """out[i] += sum over the entries (r, k) and their four pairs
    (m, n) = (r, -k), (r, k), (k, -r), (k, r) of ((m xs[i] + n)^2 + (m y)^2)^(-s)."""
    import numpy as np

    quarter = _CHUNK // 4
    # every pass below writes into these rows; a short last block uses prefixes
    rows = np.empty((7, 4 * min(quarter, rs.size)))
    for a in range(0, rs.size, quarter):
        r, k = rs[a : a + quarter], ks[a : a + quarter]
        m, n, my2, logw, mag, tau2, den = rows[:, : 4 * r.size]
        # the block's pairs, side by side: m = (r, r, k, k), n = (-k, k, -r, r);
        # each int16 quarter is cast once, the rest copied or negated in float64
        sides_m, sides_n = m.reshape(4, r.size), n.reshape(4, r.size)
        sides_n[1] = k
        sides_n[3] = r
        np.negative(sides_n[1], out=sides_n[0])
        np.negative(sides_n[3], out=sides_n[2])
        sides_m[:2] = sides_n[3]
        sides_m[2:] = sides_n[1]
        np.multiply(m, y, out=my2)
        my2 *= my2
        for i, x in enumerate(xs):
            np.multiply(m, x, out=logw)
            logw += n
            logw *= logw
            logw += my2
            np.log(logw, out=logw)
            np.multiply(logw, -s_re, out=mag)
            np.exp(mag, out=mag)
            if s_im == 0.0:
                out[i] += mag.sum()
                continue
            # w^(-s) = e^(-sigma log w) (cos(t log w) - i sin(t log w)) on real
            # arrays, the phase through tau = tan(t log w / 2):
            # cos = (1 - tau^2) / (1 + tau^2), sin = 2 tau / (1 + tau^2), each
            # within 1 ulp of 1 of the true value.  numpy 2.4 on a 2-core Xeon
            # takes 2.2 ns per element for np.tan against 49 for np.cos plus
            # np.sin.  No double lies within 1e-19 of an odd multiple of pi/2,
            # so tau^2 stays far below overflow.
            logw *= 0.5 * s_im
            tau = np.tan(logw, out=logw)
            np.multiply(tau, tau, out=tau2)
            np.add(tau2, 1.0, out=den)
            mag /= den
            np.subtract(1.0, tau2, out=tau2)
            tau2 *= mag
            np.multiply(mag, tau, out=den)
            out[i] += complex(tau2.sum(), -2.0 * den.sum())


def _first_terms(x: float, y: float, s_re: float, s_im: float) -> complex:
    """1 plus the terms of shell 1, (m, n) = (1, -1), (1, 0), (1, 1): the part
    of S outside the table."""
    total = 1.0
    for n in (-1.0, 0.0, 1.0):
        logw = math.log((x + n) ** 2 + y * y)
        total += cmath.exp(complex(-s_re * logw, -s_im * logw))
    return total


def lattice_sum(x: float, y: float, s_re: float, s_im: float, radius: int) -> complex:
    """S at one x."""
    return complex(lattice_sum_batch((x,), y, s_re, s_im, radius)[0])


def lattice_sum_batch(xs, y: float, s_re: float, s_im: float, radius: int) -> np.ndarray:
    """S at many x values sharing one coprime enumeration, radius >= 1."""
    import numpy as np

    xs = np.asarray(xs, dtype=np.float64)
    out = np.zeros(xs.shape[0], dtype=np.complex128)
    _accumulate(out, xs, y, s_re, s_im, *_cached_entries(radius))
    out += [_first_terms(x, y, s_re, s_im) for x in xs.tolist()]
    return out


def bessel_k_trapezoid(a: float, b: float, y: float, h: float, nsteps: int) -> complex:
    """Trapezoid sum h*(f(0)/2 + sum_{k=1..nsteps} f(k h)) for the K-Bessel
    integrand f(t) = exp(-y cosh t) cosh((a + i b) t), a, b >= 0.

    Each node uses 2 f(t) = e^(a t - y cosh t) (p + q) with the phases
    p = e^(i b t) and q = e^(-(2a + i b) t) carried as recurrences, so a node
    costs one cosh and one exp; the nodes sum into one complex accumulator.
    |p| = 1 and q only decays, so no factor overflows before the integrand
    does.
    """
    step_p = cmath.exp(complex(0.0, b * h))
    step_q = cmath.exp(complex(-2.0 * a * h, -b * h))
    p, q = step_p, step_q
    total = complex(math.exp(-y))  # 2 f(0) / 2
    for k in range(1, nsteps + 1):
        t = k * h
        total += math.exp(a * t - y * math.cosh(t)) * (p + q)
        p *= step_p
        q *= step_q
    return 0.5 * h * total
