"""Split root systems, maximal parabolics, Levi types, nilradical gradings.

Roots live in exact integer arithmetic as coefficient vectors over the simple
roots, with the Cartan matrix as the pairing (convention
C[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), so reflection s_i sends
v to v - (sum_j v_j C[j][i]) e_i).  Positive roots are the closure of the
simple roots under the simple reflections taken inside Phi+ alone: s_i moves
only coordinate i and permutes Phi+ minus {alpha_i} (Humphreys, Introduction
to Lie Algebras, 10.2), so a reflected root is kept when its i-th coefficient
stays >= 0.

Removing one simple root alpha_k selects a maximal parabolic; grading the
nilradical roots beta by coroots, at level <alpha~, beta^vee> =
v_k |alpha_k|^2 / |beta|^2 for the coefficient v_k of beta at alpha_k, yields
the levels j = 1..m of the dual group's nilradical, whose dimensions are the
candidate irreducible-constituent dimensions; level j takes argument js in
the constant-term ratio (Shahidi 1981).  The irreducibility of each graded
level (true for maximal parabolics of simple groups) is only checked
dimensionally here.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, fields

from .errors import InvalidTypeError, integer

#: supported ranks per type; A-D stop at 32 because the decomposition table
#: costs about rank^3.7 (0.09 s at A32, 6.4 s at A100 on a 2-core Xeon), so
#: an unbounded rank from outside could run for hours
_RANK_RANGE = {
    "A": (1, 32),
    "B": (2, 32),
    "C": (3, 32),
    "D": (4, 32),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _validate_type(cartan_type: str, rank: int) -> tuple[str, int]:
    letter = str(cartan_type).upper()
    if letter not in _RANK_RANGE:
        raise InvalidTypeError(f"unknown Cartan type {cartan_type!r}")
    rank = integer(rank, "rank")
    low, high = _RANK_RANGE[letter]
    if not low <= rank <= high:
        raise InvalidTypeError(f"{letter}_{rank}: type {letter} takes ranks {low} to {high}")
    return letter, rank


def _cartan(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix in the convention C[i][j] = 2 (a_i, a_j) / (a_j, a_j).

    Node numbering follows Bourbaki: chains for A/B/C, the fork at the tail
    for D, node 2 hanging off node 4 in E, the double edge in the middle of F
    (alpha_1, alpha_2 long) and alpha_1 short in G.
    """
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            link(i, i + 1)
        if letter == "B":  # alpha_n short
            link(n - 2, n - 1, -2, -1)
        elif letter == "C":  # alpha_n long
            link(n - 2, n - 1, -1, -2)
    elif letter == "D":
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif letter == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    elif letter == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif letter == "G":
        link(0, 1, -1, -3)
    return tuple(tuple(row) for row in c)


@dataclass(frozen=True)
class RootSystem:
    """Simple root system with integer-coefficient positive roots; the simple
    roots are the unit vectors."""

    cartan_type: str
    rank: int
    positive_roots: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]

    @property
    def name(self) -> str:
        return f"{self.cartan_type}{self.rank}"


def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Generate the positive roots of a simple type by reflection closure in Phi+.

    Starting from the simple roots, each s_i is applied and the image kept
    when its i-th coefficient is >= 0 (only -alpha_i fails); every positive
    root is reached, since a non-simple one is s_i of a lower positive root.
    Roots are ordered by height then coefficients (graded lexicographic).
    """
    letter, n = _validate_type(cartan_type, rank)
    c = _cartan(letter, n)
    simple = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    # column i of C restricted to its nonzero entries: i and its neighbours
    columns = [[(j, c[j][i]) for j in range(n) if c[j][i]] for i in range(n)]

    seen = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for v in frontier:
            for i, column in enumerate(columns):
                coef = v[i] - sum(v[j] * cji for j, cji in column)
                if coef >= 0:
                    w = v[:i] + (coef,) + v[i + 1 :]
                    if w not in seen:
                        seen.add(w)
                        fresh.append(w)
        frontier = fresh
    positives = sorted(seen, key=lambda v: (sum(v), v))
    return RootSystem(letter, n, tuple(positives), c)


@dataclass(frozen=True)
class ParabolicDatum:
    """Maximal parabolic selected by deleting one simple root."""

    system: RootSystem
    removed_index: int

    def __post_init__(self):
        if not 0 <= integer(self.removed_index, "removed_index") < self.system.rank:
            raise InvalidTypeError(
                f"removed_index {self.removed_index} out of range for {self.system.name}"
            )


# kept for the last systems: enumerate_table grades every parabolic of one
# system in turn, and the lengths depend on the system alone
@functools.lru_cache(maxsize=2)
def _doubled_lengths(system: RootSystem) -> dict[tuple[int, ...], int]:
    """2 |beta|^2 of every positive root beta, on one integer scale.

    The simple roots' squared lengths d_i grow along the diagram's edges by
    |alpha_j|^2 / |alpha_i|^2 = C[j][i] / C[i][j], from d_0 = r, the
    long-to-short ratio (1, 2 or 3): a path crosses the one multiple edge at
    most once, so every d_i is 1, r or r^2.  Then 2 |beta|^2 = v^T G v with
    G[i][j] = 2 (alpha_i, alpha_j) = C[i][j] d_j.
    """
    cartan, n = system.cartan, system.rank
    ratio = max((-c for row in cartan for c in row if c < 0), default=1)
    length = {0: ratio}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if cartan[i][j] and j not in length:
                length[j] = length[i] * cartan[j][i] // cartan[i][j]
                stack.append(j)
    # the nonzero entries of each row of G
    gram = [[(j, cartan[i][j] * length[j]) for j in range(n) if cartan[i][j]] for i in range(n)]
    return {
        v: sum(v[i] * sum(g * v[j] for j, g in row) for i, row in enumerate(gram) if v[i])
        for v in system.positive_roots
    }


def nilradical_decomposition(p: ParabolicDatum) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Partition the nilradical's roots by the coroot grading <alpha~, beta^vee>.

    A root beta with coefficient v_k at the removed node k sits at level
    v_k |alpha_k|^2 / |beta|^2, the coefficient of alpha_k^vee in beta^vee:
    the grading of the dual group's nilradical, whose level j carries the
    argument js of the constant-term ratio.  For the simply-laced types A, D
    and E it is v_k itself.  Level j sits at index j - 1; levels come out
    consecutive, j = 1..m, and their sizes sum to |Phi+| - |Phi+_Levi|.
    """
    k = p.removed_index
    twice = _doubled_lengths(p.system)
    alpha_k = tuple(int(i == k) for i in range(p.system.rank))
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for v in p.system.positive_roots:
        if v[k] >= 1:
            buckets.setdefault(v[k] * twice[alpha_k] // twice[v], []).append(v)
    m = max(buckets) if buckets else 0
    return tuple(tuple(buckets.get(j, ())) for j in range(1, m + 1))


def _classify_component(nodes: set[int], cartan, neighbours) -> tuple[str, int]:
    # a connected proper subdiagram of a simple diagram (Bourbaki VI,
    # Planches).  With a double edge it is B2 or a chain ending in that edge:
    # B when the short root (b with C[a][b] == -2) ends the chain, else C.
    # Simply laced, it is A without a degree-3 node, else D when two of that
    # node's neighbours are leaves (three in D4) and E when one is
    rank = len(nodes)
    degree = {v: sum(w in nodes for w in neighbours[v]) for v in nodes}
    short = next((b for a in nodes for b in nodes if cartan[a][b] == -2), None)
    if short is not None:
        if rank == 2:
            return ("B", 2)  # B2 == C2; B is the canonical label here
        return ("B", rank) if degree[short] == 1 else ("C", rank)
    fork = next((v for v in nodes if degree[v] == 3), None)
    if fork is None:
        return ("A", rank)
    leaves = sum(degree[w] == 1 for w in neighbours[fork])  # all three lie in nodes
    return ("D", rank) if leaves >= 2 else ("E", rank)


def levi_type(p: ParabolicDatum) -> list[tuple[str, int]]:
    """Simple factors of the Levi's root system, e.g. [("A", 1), ("A", 1)].

    A Dynkin diagram is a tree, so deleting the removed node leaves one
    component per neighbour of it; each is grown from that neighbour and
    classified from local facts (its double edge, or its degree-3 node and
    that node's leaves).  Factors are sorted by (type letter, rank); a
    rank-2 double-edge component is reported as B2 (isomorphic to C2).
    """
    cartan, k = p.system.cartan, p.removed_index
    n = p.system.rank
    neighbours = [[j for j in range(n) if j != i and cartan[i][j]] for i in range(n)]
    factors = []
    for start in neighbours[k]:
        nodes, stack = {k, start}, [start]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in nodes:
                    nodes.add(w)
                    stack.append(w)
        nodes.remove(k)
        factors.append(_classify_component(nodes, cartan, neighbours))
    return sorted(factors)


def format_levi(factors: list[tuple[str, int]]) -> str:
    return "+".join(f"{letter}{rank}" for letter, rank in factors) if factors else "T"


@dataclass(frozen=True)
class TableRow:
    """One maximal parabolic in the decomposition table, one field per column."""

    type: str
    rank: int
    removed_index: int
    levi: str
    m: int
    dims: tuple[int, ...]
    a: tuple[int, ...]

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


TABLE_COLUMNS = tuple(f.name for f in fields(TableRow))


def enumerate_table(types: list[tuple[str, int]]) -> list[TableRow]:
    """Decomposition rows for every maximal parabolic of the listed systems,
    in listed order then by removed index."""
    rows = []
    for cartan_type, rank in types:
        rs = build_root_system(cartan_type, rank)
        for k in range(rs.rank):
            p = ParabolicDatum(rs, k)
            levels = nilradical_decomposition(p)
            rows.append(
                TableRow(
                    type=rs.cartan_type,
                    rank=rs.rank,
                    removed_index=k,
                    levi=format_levi(levi_type(p)),
                    m=len(levels),
                    dims=tuple(map(len, levels)),
                    a=tuple(range(1, len(levels) + 1)),
                )
            )
    return rows

