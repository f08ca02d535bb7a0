"""Split root systems, maximal parabolics, Levi types, nilradical gradings.

Roots live in exact integer arithmetic as coefficient vectors over the simple
roots, with the Cartan matrix as the pairing (convention
C[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), so reflection s_i sends
v to v - (sum_j v_j C[j][i]) e_i).  Positive roots are the closure of the
simple roots under the simple reflections taken inside Phi+ alone: s_i moves
only coordinate i and permutes Phi+ minus {alpha_i} (Humphreys, Introduction
to Lie Algebras, 10.2), so a reflected root is kept when its i-th coefficient
stays >= 0; the same s_i maps its coroot through the transposed matrix.

Removing one simple root alpha_k selects a maximal parabolic; grading the
nilradical roots beta by the coefficient <alpha~, beta^vee> of alpha_k^vee in
beta^vee, which is v_k |alpha_k|^2 / |beta|^2 for the coefficient v_k of beta
at alpha_k, yields the levels j = 1..m of the dual group's nilradical; level
j takes argument js in the constant-term ratio (Langlands, Euler Products,
1971; Shahidi 1981).  The tests check that each level is an irreducible
representation of the dual Levi: one highest weight, whose Weyl dimension is
the level's size.
"""

from __future__ import annotations

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
    roots are the unit vectors, and coroots[i], over the simple coroots, is
    the coroot of positive_roots[i]."""

    cartan_type: str
    rank: int
    positive_roots: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]

    @property
    def name(self) -> str:
        return f"{self.cartan_type}{self.rank}"


def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Generate the positive roots of a simple type by reflection closure in Phi+.

    Starting from the simple roots, each s_i is applied and the image kept
    when its i-th coefficient is >= 0 (only -alpha_i fails); every positive
    root is reached, since a non-simple one is s_i of a lower positive root.
    Its coroot is s_i of its source's, from alpha_i^vee = e_i.  Roots are
    ordered by height then coefficients (graded lexicographic).
    """
    letter, n = _validate_type(cartan_type, rank)
    c = _cartan(letter, n)
    simple = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    # column i of C restricted to its nonzero entries: i and its neighbours;
    # row i pairs alpha_i with a coroot as column i pairs a root with alpha_i^vee
    columns = [[(j, c[j][i]) for j in range(n) if c[j][i]] for i in range(n)]
    rows = [[(j, c[i][j]) for j in range(n) if c[i][j]] for i in range(n)]

    coroot_of = dict(zip(simple, simple))
    frontier = list(simple)
    while frontier:
        fresh = []
        for v in frontier:
            u = coroot_of[v]
            for i, column in enumerate(columns):
                coef = v[i] - sum(v[j] * cji for j, cji in column)
                if coef >= 0:
                    w = v[:i] + (coef,) + v[i + 1 :]
                    if w not in coroot_of:
                        co = u[i] - sum(cij * u[j] for j, cij in rows[i])
                        coroot_of[w] = u[:i] + (co,) + u[i + 1 :]
                        fresh.append(w)
        frontier = fresh
    positives = sorted(coroot_of, key=lambda v: (sum(v), v))
    return RootSystem(letter, n, tuple(positives), c, tuple(coroot_of[v] for v in positives))


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


def nilradical_decomposition(p: ParabolicDatum) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Partition the nilradical's roots by the coroot grading <alpha~, beta^vee>.

    A root beta sits at level j, the coefficient of alpha_k^vee in its
    coroot beta^vee (k the removed node), which is v_k |alpha_k|^2 / |beta|^2
    for the coefficient v_k of beta at alpha_k: the grading of the dual
    group's nilradical, whose level j carries the argument js of the
    constant-term ratio.  For the simply-laced types A, D and E it is v_k
    itself.  Level j sits at index j - 1; levels come out consecutive,
    j = 1..m, and their sizes sum to |Phi+| - |Phi+_Levi|.
    """
    k = p.removed_index
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for v, coroot in zip(p.system.positive_roots, p.system.coroots):
        if coroot[k] >= 1:
            buckets.setdefault(coroot[k], []).append(v)
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

