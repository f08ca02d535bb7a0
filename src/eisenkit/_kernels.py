"""Hot-loop kernels: the coprime lattice sum in numpy, the K-Bessel trapezoid in scalar Python.

The lattice kernels return the half-lattice sum

    S = 1 + sum_{m=1..R} sum_{n=-R..R, gcd(m,|n|)=1} ((m*x + n)^2 + (m*y)^2)^(-s)

which is the full coprime box sum folded along (m,n) -> (-m,-n); the leading
1 is the folded (0,+-1) contribution.  Callers multiply by y^s.

The pairs are taken shell by shell in the max-norm r = max(m, |n|).  Shell
r >= 2 holds the four pairs (r, -k), (r, k), (k, -r), (k, r) for each
1 <= k < r coprime to r.  One evaluator (_side_sums) sums the terms
|a z + b|^(-2s) of four sides' rows (a, b), w^(-s) from log w by _power,
which also weighs the shells by r^(-2s).  It takes two sets of rows:

* the moment path's (_moment_sums), O(R) per sum: with u = k / r the four
  pairs' terms are r^(-2s) F(u), F(v) the sum at the rows (1, +-v) and
  (v, +-1), one function for every shell.  F is fitted by Chebyshev
  polynomials on fixed panels of v (Trefethen, Approximation Theory and
  Approximation Practice, 2013), and a table of those polynomials' sums
  over each shell's k (_moment_table), free of z and s, sums every shell
  at once.  A sum takes this path only where an estimate from the fit's
  trailing coefficients is below _MOMENT_TOL max(1, |S|), so not where F
  varies too fast for the fit: at large |Im s|, at y well above 2 or
  close to 0.  F(0) + F(1) = 2 (1 + shell 1's terms) gives the leading 1
  and shell 1, (1, -1), (1, 0), (1, 1), on both paths;
* the direct sum's (_direct_sums), O(R^2) per sum, at every other x: the
  integer rows a = (r, r, k, k), b = (-k, k, -r, r) of the pair table's
  entries (r, k).

With S they return the tail estimate's inputs: P = 1 +
sum_(r=2..R) phi(r) r^(-2s), and I = int_0^1 F, by Fejer's rule on the
moment path's samples where it ran, else over the image of the box's
boundary (_edge_integrals).  A sum past double range raises OverflowError.

Both tables are built once per process and grow with the radius: the
pair table from _shells sieve blocks, two int16 arrays of one entry
(r, k) per four pairs, shell by shell, k ascending, allocated once to
MAX_RADIUS (2.4 MB, under numpy's 4 MiB hugepage threshold, so only the
filled prefix becomes resident); the moment table by discrete Gauss rules
(_moment_table), about 5 ms to R = 1000 on a 2-core Xeon.  A table's
prefix for radius R depends on the shells up to R alone, so no sum
depends on the radii asked for before it.  A process whose sums all take
the moment path never builds the pair table, and a call where no x can
pass the moment path's test builds no moment table.  The direct sum takes
the pairs in blocks of _CHUNK = 2^14, so its transient memory is a few
arrays of 128 kB whatever the radius.  It reduces by numpy's pairwise
``.sum()``, the moment path by ``np.einsum``; neither calls BLAS (no
``@``, ``np.dot`` or ``matmul``), whose split of the work can follow the
thread count, so a sum does not depend on the thread count.

numpy is imported inside the lattice functions only, so the Bessel path and
everything that never sums the lattice run without it.

The K-Bessel trapezoid sums tens of nodes per call on the Fourier modes, where
numpy's per-call overhead would dominate, so it is one scalar loop.  It
carries the phases of the integrand as complex recurrences, so each node
costs one cosh and one exp, and sums into one complex accumulator.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import TYPE_CHECKING

from ._arith import factorize, primes_up_to

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 1 << 14  # pairs per summation block
MAX_RADIUS = 2000  # a direct sum costs R^2; its tail shrinks only as R^(2 - 2 Re s)

# (r, k, ends): r and k are int16 arrays with one slot per entry of shells
# 2..MAX_RADIUS, sum phi(r) slots.  Their first ends[-1] slots are the
# entries (r, k) in shell order, and the list ends[r] is where shell r ends
# (shell 1 has no entry: ends[1] = 0); a block is written before its shells
# join ends.  None until the first sum.
_table = None

_PANELS = 4  # panels of [0, 1] that the shell function F is fitted on
_TERMS = 24  # Chebyshev terms per panel
_MOMENT_TOL = 1e-15  # the moment path's error estimate must be below this times max(1, |S|)
_ROUNDING = 4.0  # the samples' rounding in two trailing coefficients, in eps times the terms' moduli

# (M, [top]): the moment table, one float64 column per shell up to
# MAX_RADIUS (0.77 MB), filled for the shells 2..top; None until the first sum
_moments = None

_DIRECT = 50  # a run of at most this many fractions is summed point by point
_COPRIME = 4 * _DIRECT + 2  # the last shell of such runs alone, summed over its coprime k
_NODES = _TERMS // 2  # a Gram rule's nodes: exact to degree 2 _NODES - 1 = _TERMS - 1

# (nodes, weights) of the Gram rules (_gram_rules), row L for a run of L
# fractions; None until a table column needs one
_rules = None


def _shells(lo: int, hi: int, cells: int):
    """Entries (r, k) of shells lo..hi (2 <= lo) in table order, as blocks of
    max(1, cells // hi) whole shells, about cells grid cells each:
    (r, k, phi(r) of each shell).

    A block's mask has row r and column k - 1, true where k < r is coprime to
    r, so masking the grid of k lists its entries shell by shell, k
    ascending, straight into int16.
    """
    import numpy as np

    step = max(1, cells // hi)
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


@functools.cache
def _totients() -> np.ndarray:
    """phi(r) for r = 0..MAX_RADIUS by the totient sieve, read-only, as
    exact float64 to weigh the shells."""
    import numpy as np

    phi = np.arange(MAX_RADIUS + 1, dtype=np.float64)
    for p in primes_up_to(MAX_RADIUS):
        phi[p::p] -= phi[p::p] // p
    phi.setflags(write=False)
    return phi


def _cached_entries(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries (r, k) of shells 2..radius <= MAX_RADIUS, from the table."""
    global _table
    import numpy as np

    if _table is None:
        size = int(_totients()[2:].sum())
        _table = (np.empty(size, dtype=np.int16), np.empty(size, dtype=np.int16), [0, 0])
    rs, ks, ends = _table
    if radius >= len(ends):
        for r, k, phi in _shells(len(ends), radius, 4 * _CHUNK):
            rs[ends[-1] : ends[-1] + r.size] = r
            ks[ends[-1] : ends[-1] + k.size] = k
            ends += (ends[-1] + np.cumsum(phi)).tolist()
    return rs[: ends[radius]], ks[: ends[radius]]


def _power(logw: np.ndarray, s_re: float, s_im: float):
    """(|w^(-s)|, Re w^(-s), Im w^(-s)) from logw = log w, w > 0, which it
    overwrites; for real s the second is the first and the third None.  The
    phase goes through tau = tan(t log w / 2), t = Im s:
    w^(-s) = e^(-sigma log w) ((1 - tau^2) - 2 i tau) / (1 + tau^2), within
    1 ulp of 1 of the true value, at 2.2 ns per element for np.tan against
    49 for np.cos plus np.sin (numpy 2.4, 2-core Xeon).  No double lies
    within 1e-19 of an odd multiple of pi/2, so tau^2 cannot overflow.
    """
    import numpy as np

    mag = np.multiply(logw, -s_re)
    np.exp(mag, out=mag)
    if s_im == 0.0:
        return mag, mag, None
    logw *= 0.5 * s_im
    tau = np.tan(logw, out=logw)
    tau2 = np.multiply(tau, tau)
    scale = np.add(tau2, 1.0)
    np.divide(mag, scale, out=scale)
    np.subtract(1.0, tau2, out=tau2)
    tau2 *= scale
    tau *= scale
    tau *= -2.0
    return mag, tau2, tau


def _side_sums(a: np.ndarray, b: np.ndarray, ay2: np.ndarray, x, s_re: float, s_im: float):
    """(T, A): the sums over the first axis, the four sides, of the terms
    |a z + b|^(-2s) = ((a x + b)^2 + ay2)^(-s), ay2 = (a y)^2, at z = x + i y,
    and of their moduli, in one order; x broadcasts against the rows.  T is
    complex for complex s, else A itself."""
    import numpy as np

    logw = a * x
    logw += b
    logw *= logw
    logw += ay2
    np.log(logw, out=logw)
    mag, re, im = _power(logw, s_re, s_im)
    moduli = mag[0] + mag[1]
    moduli += mag[2]
    moduli += mag[3]
    if im is None:
        return moduli, moduli
    total = np.empty(moduli.shape, dtype=np.complex128)
    for part, sides in ((total.real, re), (total.imag, im)):
        np.add(sides[0], sides[1], out=part)
        part += sides[2]
        part += sides[3]
    return total, moduli


def _direct_sums(xs: np.ndarray, y: float, s_re: float, s_im: float, radius: int) -> np.ndarray:
    """The terms of shells 2..radius at each x, summed by _side_sums over
    the rows a = (r, r, k, k), b = (-k, k, -r, r) of each block of table
    entries (r, k)."""
    import numpy as np

    rs, ks = _cached_entries(radius)
    sums = np.zeros(xs.size, dtype=np.complex128)
    quarter = _CHUNK // 4
    # one buffer for every block's a, b and (a y)^2: arrays made anew for
    # each block cost a sum at one x a sixth more
    rows = np.empty((3, 4, min(quarter, rs.size)))
    for start in range(0, rs.size, quarter):
        r, k = rs[start : start + quarter], ks[start : start + quarter]
        a, b, ay2 = rows[:, :, : r.size]
        a[:2], a[2:] = r, k
        b[1::2] = a[2::-2]
        np.negative(b[1::2], out=b[::2])
        np.multiply(a, y, out=ay2)
        ay2 *= ay2
        for i, x in enumerate(xs.tolist()):
            sums[i] += _side_sums(a, b, ay2, x, s_re, s_im)[0].sum()
    return sums


def _gram_rules(length: int):
    """(nodes, weights), with a row for every run length up to at least
    length: row L > _DIRECT holds the positions in 0..L - 1 and the weights
    of the _NODES-point Gauss rule of the counting measure on j = 0..L - 1,
    which sums every polynomial of degree below _TERMS over the run exactly
    (Golub & Welsch, Math. Comp. 23, 1969), without LAPACK.

    The measure's monic orthogonal polynomials, the discrete Chebyshev
    (Gram) polynomials of t = j - (L - 1) / 2, satisfy p_(k+1) = t p_k -
    beta_k p_(k-1), beta_k = k^2 (L^2 - k^2) / (4 (4 k^2 - 1)).  In
    v = 2 t / L they tend to Legendre's as L grows, so Newton steps on p_12
    from the estimates cos(pi (k - 1/4) / 12.5) of the Legendre roots, as in
    _gauss_legendre, reach rounding in four for L > _DIRECT.  Six
    are taken, the weights L beta_1 ... beta_11 / (p_11 p_12') in v at the
    sixth's start, within 3e-14 relative.  The rule is symmetric, so only
    the positive v are iterated.  A row is computed element by element, in a
    fixed number of steps, so its bits do not depend on the rows computed
    with it; the rows grow to at least twice their length, so a growing
    table computes rules a few times.
    """
    global _rules
    import numpy as np

    have = _DIRECT + 1 if _rules is None else len(_rules[0])
    if length >= have:
        top = min(max(length, 2 * have), MAX_RADIUS // 4 + 1)
        size = np.arange(have, top + 1, dtype=np.float64)[:, None]
        k2 = np.arange(1.0, _NODES) ** 2
        beta = k2 * (1.0 - k2 / (size * size)) / (4.0 * k2 - 1.0)
        v = np.cos(np.pi * (np.arange(_NODES // 2) + 0.75) / (_NODES + 0.5)) + np.zeros_like(size)
        for _ in range(6):
            # p_k and p_k' side by side in three buffers:
            # (p, p')_(k+1) = v (p, p')_k - beta_k (p, p')_(k-1) + (0, p_k)
            prev, this, spare = np.empty((3, 2) + v.shape)
            prev[0], prev[1], this[0], this[1] = 1.0, 0.0, v, 1.0
            for k in range(_NODES - 1):
                np.multiply(v, this, out=spare)
                np.multiply(beta[:, k : k + 1], prev, out=prev)
                spare -= prev
                spare[1] += this[0]
                prev, this, spare = this, spare, prev
            v = v - this[0] / this[1]
        weight = size * np.prod(beta, axis=1, keepdims=True) / (prev[0] * this[1])
        nodes, weights = np.zeros((2, top + 1, _NODES))
        if _rules is not None:
            nodes[:have], weights[:have] = _rules
        nodes[have:] = np.concatenate(((size - 1.0) / 2.0 - size / 2.0 * v, (size - 1.0) / 2.0 + size / 2.0 * v), axis=1)
        weights[have:] = np.concatenate((weight, weight), axis=1)
        _rules = nodes, weights
    return _rules


@functools.cache
def _coprime() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, first, count) for the shells n <= _COPRIME, whose runs are all
    short: k lists the k <= (n - 1) / 2 coprime to n, shell by shell, k
    ascending, by the sieve of the primes, and panel p of shell n holds
    k[first[n, p] : first[n, p] + count[n, p]]; read-only."""
    import numpy as np

    n, j = np.arange(_COPRIME + 1)[:, None], np.arange(_COPRIME // 2 + 1)
    grid = (j >= 1) & (j <= (n - 1) // 2)
    for p in primes_up_to(_COPRIME // 2):
        grid[::p, ::p] = False
    low = grid & (j <= (n - 1) // 4)
    count = np.stack((np.count_nonzero(low, axis=1), np.count_nonzero(grid & ~low, axis=1)), axis=1)
    first = np.cumsum(count).reshape(-1, 2) - count
    k = np.nonzero(grid)[1].astype(np.int16)
    for array in (k, first, count):
        array.setflags(write=False)
    return k, first, count


def _fraction_sums(ns: np.ndarray, starts: np.ndarray, lengths: np.ndarray, parts: np.ndarray, rules) -> np.ndarray:
    """Columns n in ns, laid out as the moment table's, of sums of
    T_i(xi_p(j / n)) over the run of lengths[n, p] j from starts[n, p]: all
    of them, or for n <= _COPRIME those coprime to n, which make M(n).

    Each run takes parts[n, p] groups of _NODES slots: its Gram rule's nodes
    and weights from rules where it holds more than _DIRECT j, else its
    j in order at weight 1 and weight 0 past its end.  A slot axis of
    _NODES rows is summed in order for every group at once; a lone group,
    as shell 3, 4 or 6 alone makes, holds one point, exact in any order."""
    import numpy as np

    starts, lengths, parts = starts.ravel(), lengths.ravel(), parts.ravel()
    first = np.cumsum(parts) - parts
    run = np.repeat(np.arange(parts.size), parts)
    size, n = lengths[run], ns[run // 2]
    slot = np.arange(_NODES)[:, None] + _NODES * (np.arange(run.size) - first[run])
    w = (slot < size).astype(np.float64)
    slot += starts[run]
    if ns[0] <= _COPRIME:
        # a short shell's slots index its coprime k, the pads the last one
        ks, short = _coprime()[0], n <= _COPRIME
        slot[:, short] = ks[np.minimum(slot[:, short], ks.size - 1)]
    twice = slot.astype(np.float64)
    del slot
    rule = size > _DIRECT
    if rule.any():
        nodes, weights = rules
        twice[:, rule] = nodes[size[rule]].T + starts[run[rule]]
        w[:, rule] = weights[size[rule]].T
    # 2 xi = (16 j - (4 p + 2) n) / n, in place
    twice *= 16.0
    twice -= (4 * (run % 2) + 2) * n
    twice /= n
    # row i: w T_i summed over each group, T_i by its recurrence, weighted
    # from the start, into the buffer of T_(i-2)
    sums = np.empty((_TERMS, run.size))
    t_prev, t, product = w, np.multiply(twice, w), np.empty_like(w)
    t *= 0.5
    np.add.reduce(t_prev, axis=0, out=sums[0])
    np.add.reduce(t, axis=0, out=sums[1])
    for i in range(2, _TERMS):
        np.multiply(twice, t, out=product)
        np.subtract(product, t_prev, out=t_prev)
        t_prev, t = t, t_prev
        np.add.reduce(t, axis=0, out=sums[i])
    del twice, w, t_prev, t, product
    # the groups of each run, added in order
    nonempty = np.flatnonzero(parts)
    if nonempty.size < run.size:
        sums = np.add.reduceat(sums, first[nonempty], axis=1)
    block = np.zeros((parts.size, _TERMS))
    block[nonempty] = sums.T
    return block.reshape(ns.size, -1).T


def _moment_table(radius: int) -> np.ndarray:
    """Columns r = 2..radius <= MAX_RADIUS of the moment table M.

    Row p * _TERMS + i of column r is the sum of T_i(xi_p(k / r)) over the
    k coprime to r with k / r in panel p < P / 2, the panels being
    [p / P, (p + 1) / P) for the P = _PANELS panels of [0, 1] and xi_p taking
    panel p to [-1, 1].  The k coprime to r are symmetric under k -> r - k,
    which takes panel p to panel P - 1 - p and xi to -xi, so the other half
    of the panels need no rows: their sums are (-1)^i times these.  Shell
    2's one entry, k / r = 1/2, is its own mirror image, so it counts half.

    A panel's fractions j / r form a run of j, and T_i(xi_p(j / r)) has
    degree i < _TERMS in j, so a run longer than _DIRECT is summed exactly by
    its 12-node Gram rule (_gram_rules).  Each j / r, 0 < j <= r / 2, reduces
    to one k / m, k coprime to m | r, m > 1 (the sum of phi(m) over m | r
    is r: Hardy & Wright, An Introduction to the Theory of Numbers), so past
    _COPRIME, where the rules begin, M(r) = A(r) - sum of M(m) over m | r,
    1 < m < r, with A(r) the sums over every j / r, u = 1/2 at half weight
    (shell 2's half, which every even shell takes off again).  Up to
    _COPRIME every run is summed point by point over its coprime k
    (_coprime), and no rule is needed.  To MAX_RADIUS that is 52k points
    where the coprime k are 608k.

    The sums take blocks of about _CHUNK / 4 points (32 kB per array).  The
    divisors are taken in blocks of columns [lo, hi], hi < 2 lo, so that a
    column's divisors lie in earlier blocks, each of about _CHUNK / 64
    (column, divisor) pairs (0.1 MB of gathered columns).  A column's
    arithmetic depends on r alone, in one order, so no column depends on
    the radii asked for before.
    """
    global _moments
    import numpy as np

    if _moments is None:
        _moments = (np.empty((_PANELS // 2 * _TERMS, MAX_RADIUS + 1)), [1])
    table, top = _moments
    lo = top[0] + 1
    if radius < lo:
        return table[:, 2 : radius + 1]
    ns = np.arange(lo, radius + 1)
    # panel 0 holds j = 1..(n - 1) // 4, panel 1 the j on to (n - 1) // 2
    quarter = (ns - 1) // 4
    starts = np.stack((np.ones_like(ns), quarter + 1), axis=1)
    lengths = np.stack((quarter, (ns - 1) // 2 - quarter), axis=1)
    del quarter
    short = ns <= _COPRIME
    if short.any():
        starts[short], lengths[short] = (array[ns[short]] for array in _coprime()[1:])
    parts = np.where(lengths > _DIRECT, 1, -(-lengths // _NODES))
    ends = np.cumsum(parts.sum(axis=1))
    rules = _gram_rules(int(lengths.max()))
    a = 0
    while a < ns.size:
        b = max(a + 1, int(np.searchsorted(ends, (ends[a - 1] if a else 0) + _CHUNK // (4 * _NODES), side="right")))
        table[:, lo + a : lo + b] = _fraction_sums(ns[a:b], starts[a:b], lengths[a:b], parts[a:b], rules)
        a = b
    # u = 1/2 at half weight: shell 2's one k, and in A of every even n past _COPRIME
    even = ns[(ns % 2 == 0) & ((ns == 2) | (ns > _COPRIME))]
    table[_TERMS :, even] += 0.5
    del ns, starts, lengths, short, parts, ends, even
    if radius > _COPRIME:
        # the pairs (m, r = m q), m, q > 1, r >= lo past _COPRIME, by r and then q
        q = np.arange(2, radius // 2 + 1)
        first = np.maximum(-(-max(lo, _COPRIME + 1) // q), 2)
        number = np.maximum(radius // q - first + 1, 0)
        m = np.arange(number.sum()) + np.repeat(first - np.cumsum(number) + number, number)
        r = m * np.repeat(q, number)
        order = np.argsort(r, kind="stable")
        m = m[order]
        r = r[order]
        del order
        a = 0
        while a < r.size:
            hi = min(2 * r[a] - 1, r[min(a + max(1, _CHUNK // 64), r.size) - 1])
            b = int(np.searchsorted(r, hi, side="right"))
            heads = np.flatnonzero(np.diff(r[a:b], prepend=0))
            table[:, r[a:b][heads]] -= np.add.reduceat(table[:, m[a:b]], heads, axis=1)
            a = b
    top[0] = radius
    return table[:, 2 : radius + 1]


@functools.cache
def _chebyshev() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, transform, fejer) for the table's half, P / 2 = _PANELS // 2
    panels of [0, 1/2] with the _TERMS Chebyshev points u of each.

    transform takes a panel's values at its points to its Chebyshev
    coefficients (exact for degree < _TERMS), and fejer them to their
    integral over the panel, Fejer's first rule (Trefethen, SIAM Review 50,
    2008), from int_-1^1 T_i = 2 / (1 - i^2), i even.  a and b, shape
    (4, 1, P _TERMS + 2), are F(v)'s rows (1, +-v) and (v, +-1) at v = u,
    then v = 1 - u, then v = 0 and its mirror v = 1."""
    import numpy as np

    theta = np.pi * (np.arange(_TERMS) + 0.5) / _TERMS
    u = ((np.arange(_PANELS // 2)[:, None] + 0.5 * (np.cos(theta) + 1.0)) / _PANELS).ravel()
    v = np.concatenate((u, 1.0 - u, (0.0, 1.0)))
    one = np.ones_like(v)
    a = np.stack((one, one, v, v))[:, None, :]
    b = np.stack((v, -v, one, -one))[:, None, :]
    transform = 2.0 / _TERMS * np.cos(np.arange(_TERMS)[:, None] * theta)
    transform[0] *= 0.5
    i = np.arange(0, _TERMS, 2)
    fejer = (transform[::2] * (2.0 / (1.0 - i * i))[:, None]).sum(axis=0) / (2 * _PANELS)
    for array in (a, b, transform, fejer):
        array.setflags(write=False)
    return a, b, transform, fejer


def _shell_weights(s_re: float, s_im: float, radius: int) -> np.ndarray:
    """w_r = r^(-2s), r = 2..radius, as the rows |w|, Re w, Im w (|w| alone
    for real s), by _power: about half the time of numpy's complex exp."""
    import numpy as np

    mag, re, im = _power(2.0 * np.log(np.arange(2, radius + 1, dtype=np.float64)), s_re, s_im)
    return mag[None] if im is None else np.stack((mag, re, im))


def _moment_sums(xs: np.ndarray, y: float, s_re: float, s_im: float, radius: int):
    """(S, P, I, errors, first): S at each x from the moment table, P and I
    as lattice_sum_batch returns them, an estimate of each sum's error, and
    first = G(0) / 2 = 1 + |z - 1|^(-2s) + |z|^(-2s) + |z + 1|^(-2s), the
    leading 1 and shell 1's terms.

    The k coprime to r are symmetric under k -> r - k, so shell r is
    r^(-2s) times the sum of G(u) = F(u) + F(1 - u) over the table's half;
    the sides and halves are added in one order, whatever the x, so a sum
    does not depend on the other x of its batch.  With g the Chebyshev
    coefficients of G on its panels and V = sum_r w_r M[r], the shells sum
    to sum g V, which is sum G W over G's values at the Chebyshev points, W
    the transform of V: W is shared by every x, so an x costs its samples
    of G alone, which also give I = int_0^(1/2) G by Fejer's rule.  A
    panel's two trailing coefficients estimate G's error on it, so the
    largest of them times sum_r |w_r| phi(r) estimates the error of the
    sums, and of I times the tail's count, which is smaller.  They also
    carry the samples' rounding, which no fit resolves: at most 3.9 eps
    max A together over 2,782 converged panels, A the sum of the moduli of
    G's eight terms (Re s in (1.2, 4], |Im s| <= 10, y in [0.5, 2.5]).  So
    _ROUNDING eps max A is taken off each panel's two before they are
    weighted; without it the floor alone, weighted by sum_r |w_r| phi(r)
    near 1 at Re s near 1.2, reaches the tolerance and sends converged sums
    to the direct sum.  G(0) is in neither the fit nor the estimate.

    The shells sum to at most sum_r |w_r| phi(r) max |G| / 2, as the half
    holds phi(r) / 2 of shell r's k.  Where that, doubled and taken at the
    call's largest |G| and |first| in place of |S|, leaves every estimate at
    or above _MOMENT_TOL max(1, |S|), S is returned as first and I as 0, for
    the direct sum to replace, and the table is neither built nor read."""
    import numpy as np

    a, b, transform, fejer = _chebyshev()
    w = _shell_weights(s_re, s_im, radius)
    # sum_r phi(r) times |w|, then Re w and Im w
    counts = np.einsum("kj,j->k", w, _totients()[2 : radius + 1])
    weight, parts = counts[0], w
    partial = complex(1.0 + counts[0])
    if s_im != 0.0:
        parts = w[1:]
        partial = complex(1.0 + counts[1], counts[2])
    total, moduli = _side_sums(a, b, (a * y) ** 2, xs[:, None], s_re, s_im)
    half, shape = _PANELS // 2 * _TERMS, (xs.size, _PANELS // 2, _TERMS)
    values = (total[:, :half] + total[:, half : 2 * half]).reshape(shape)
    moduli = (moduli[:, :half] + moduli[:, half : 2 * half]).reshape(shape)
    first = ((total[:, -2] + total[:, -1]) / 2.0).astype(np.complex128)
    trailing = np.abs((values[:, :, None, :] * transform[-2:]).sum(axis=-1)).sum(axis=-1)
    rounding = _ROUNDING * np.finfo(np.float64).eps * moduli.max(axis=-1)
    # np.maximum keeps a NaN, so a sum whose samples overflow still fails the test
    errors = np.maximum(trailing - rounding, 0.0).max(axis=-1) * weight
    largest = float(np.abs(first).max(initial=0.0)) + weight * float(np.abs(values).max(initial=0.0))
    if not (errors < _MOMENT_TOL * max(1.0, largest)).any():
        return first.copy(), partial, np.zeros_like(first), errors, first
    # V's real parts, then W's; then W and the Fejer weights in G's dtype,
    # as einsum takes a buffer of 8,192 elements for an operand it casts
    v = np.einsum("ij,kj->ki", _moment_table(radius), parts).reshape(-1, _PANELS // 2, _TERMS)
    folded = np.einsum("kpi,ij->kpj", v, transform)
    rows = np.empty((2, _PANELS // 2, _TERMS), dtype=values.dtype)
    rows[0] = folded[0] if s_im == 0.0 else folded[0] + 1j * folded[1]
    rows[1] = fejer
    dots = np.einsum("xpj,kpj->kx", values, rows)
    return dots[0] + first, partial, dots[1].astype(np.complex128), errors, first


@functools.lru_cache(maxsize=1)
def _gauss_legendre():
    """16-point Gauss-Legendre nodes and weights on [-1, 1], built once:
    Newton steps on the Legendre recurrence from the estimates
    cos(pi (k - 1/4) / 16.5) of the roots, which converge to rounding in
    four, and w = 2 / ((1 - x^2) P_16'(x)^2).  numpy.polynomial's leggauss
    would cost an import of 3 ms and 1 MB."""
    import numpy as np

    x = np.cos(np.pi * (np.arange(16) + 0.75) / 16.5)
    for _ in range(6):
        p_prev, p = np.ones_like(x), x
        for j in range(2, 17):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = 16 * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _edge_integrals(xs, y: float, s: complex):
    """I = int_0^1 F(u) du at z = x + i y for each x in xs.

    (m, n) -> w = m z + n has Jacobian y and maps the box
    max(|m|, |n|) <= 1 to Q, the parallelogram with corners +-z +-1; in
    polar coordinates about 0, I = 1/(2y) times the integral of
    r(theta)^(2-2s) over the angle, r(theta) the distance from 0 to Q's
    boundary.  Q is symmetric about 0: its edges from 1 - z to 1 + z
    (n = 1) and from 1 + z to z - 1 (m = 1) are taken twice.  On an edge
    whose line lies at distance d from 0, put u = d sinh v along it from the
    foot of the perpendicular: then r = d cosh v and dtheta = dv / cosh v, so
    the edge gives d^(2-2s) int cosh(v)^(1-2s) dv.  In v the integrand is
    analytic in |Im v| < pi/2 however small d / |Q| is (in theta it steepens
    at the ends of the edge as y falls, in u it peaks), and its exponent
    moves at a rate of at most |2s - 1|.  So composite 16-point
    Gauss-Legendre on panels at most min(1, 8 / |2s - 1|) wide reaches
    rounding level for any y and |Im s|; the panel count, the same for every
    x, grows with |Im s|, and the panels are summed in blocks of at most
    2^16 nodes, so memory stays bounded as it grows.
    """
    import numpy as np

    abs_z2 = xs * xs + y * y
    # v at the ends of the n = 1 edge (d = y / |z|) and the m = 1 edge (d = y)
    ends = np.arcsinh(np.array([xs - abs_z2, -1.0 - xs, xs + abs_z2, 1.0 - xs]) / y)
    lo, width = ends[:2], ends[2:] - ends[:2]
    panels = math.ceil(float(width.max()) * max(1.0, abs(2.0 * s - 1.0) / 8.0))
    nodes, weights = _gauss_legendre()
    step = max(1, 2048 // xs.size)  # panels per block of at most 2^16 nodes
    edges = 0.0
    for first in range(0, panels, step):
        frac = (np.arange(first, min(first + step, panels))[:, None] + 0.5 * (nodes + 1.0)) / panels
        v = lo[..., None, None] + width[..., None, None] * frac
        integrand = np.exp((1.0 - 2.0 * s) * np.log(np.cosh(v)))
        # numpy's own sum, not BLAS, so the result does not follow the thread count
        edges = edges + (integrand * weights).sum(axis=(-2, -1))
    edges = edges * width / (2 * panels)
    return cmath.exp((1.0 - 2.0 * s) * math.log(y)) * (np.exp((s - 1.0) * np.log(abs_z2)) * edges[0] + edges[1])


def lattice_sum(x: float, y: float, s_re: float, s_im: float, radius: int) -> tuple[complex, complex, complex]:
    """(S, P, I) at one x (lattice_sum_batch)."""
    sums, partial, integrals = lattice_sum_batch((x,), y, s_re, s_im, radius)
    return complex(sums[0]), partial, complex(integrals[0])


def lattice_sum_batch(xs, y: float, s_re: float, s_im: float, radius: int):
    """(S, P, I) for many x values sharing one coprime enumeration,
    radius >= 1: S at each x, from the moment table where its error estimate
    is below _MOMENT_TOL max(1, |S|), by the direct sum at the other x;
    P = 1 + sum_(r=2..R) phi(r) r^(-2s); and I = int_0^1 F at each x.
    OverflowError where an S leaves double range."""
    import numpy as np

    xs = np.asarray(xs, dtype=np.float64)
    # F can overflow where the terms do not (F(x) ~ y^(-2s), a term at most
    # (2y)^(-2s)): its estimate then fails the test below; an overflowing S raises
    with np.errstate(over="ignore", invalid="ignore"):
        out, partial, integrals, errors, first = _moment_sums(xs, y, s_re, s_im, radius)
        direct = ~(errors < _MOMENT_TOL * np.maximum(1.0, np.abs(out)))
        if direct.any():
            out[direct] = _direct_sums(xs[direct], y, s_re, s_im, radius) + first[direct]
    if not np.isfinite(out).all():
        raise OverflowError(f"the lattice sum at y = {y}, s = {complex(s_re, s_im)} leaves double range")
    if direct.any():
        integrals[direct] = _edge_integrals(xs[direct], y, complex(s_re, s_im))
    return out, partial, integrals


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
