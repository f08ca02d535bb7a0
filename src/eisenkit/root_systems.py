"""Split root systems, maximal parabolics, Levi types, nilradical gradings.

Roots live in exact integer arithmetic as coefficient vectors over the simple
roots, with the Cartan matrix as the pairing (convention
C[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j), so reflection s_i sends
v to v - (sum_j v_j C[j][i]) e_i).  Positive roots are generated as the
simple-reflection orbit of the simple roots restricted to nonnegative
coefficient vectors.

Removing one simple root selects a maximal parabolic; grading the nilradical
roots by their coefficient at the removed node yields the levels j = 1..m
whose dimensions are the candidate irreducible-constituent dimensions and
whose integers a_j = j drive the constant-term ratio bookkeeping.  The
irreducibility of each graded level (true for maximal parabolics of simple
groups) is only checked dimensionally here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidTypeError

_LETTERS = "ABCDEFG"

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


def _validate_type(cartan_type: str, rank: int) -> str:
    letter = str(cartan_type).upper()
    if letter not in _LETTERS:
        raise InvalidTypeError(f"unknown Cartan type {cartan_type!r}")
    low, high = _RANK_RANGE[letter]
    if not low <= rank <= high:
        raise InvalidTypeError(f"{letter}_{rank}: type {letter} takes ranks {low} to {high}")
    return letter


def cartan_matrix(cartan_type: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix in the convention C[i][j] = 2 (a_i, a_j) / (a_j, a_j).

    Node numbering follows Bourbaki: chains for A/B/C, the fork at the tail
    for D, node 2 hanging off node 4 in E, the double edge in the middle of F
    (alpha_1, alpha_2 long) and alpha_1 short in G.
    """
    letter = _validate_type(cartan_type, rank)
    n = rank
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
    """Simple root system with integer-coefficient positive roots."""

    cartan_type: str
    rank: int
    simple_roots: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]

    @property
    def name(self) -> str:
        return f"{self.cartan_type}{self.rank}"


def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Generate the positive roots of a simple type by reflection closure.

    The full root set is the orbit of the simple roots under the simple
    reflections; positives are those with all coefficients >= 0, ordered by
    height then coefficients (graded lexicographic).
    """
    letter = _validate_type(cartan_type, rank)
    c = cartan_matrix(letter, rank)
    n = rank
    simple = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    def reflect(v, i):
        pairing = sum(v[j] * c[j][i] for j in range(n))
        out = list(v)
        out[i] -= pairing
        return tuple(out)

    seen = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for v in frontier:
            for i in range(n):
                w = reflect(v, i)
                if w not in seen:
                    seen.add(w)
                    fresh.append(w)
        frontier = fresh
    positives = sorted(
        (v for v in seen if all(coef >= 0 for coef in v)),
        key=lambda v: (sum(v), v),
    )
    return RootSystem(letter, rank, simple, tuple(positives), c)


@dataclass(frozen=True)
class ParabolicDatum:
    """Maximal parabolic selected by deleting one simple root."""

    system: RootSystem
    removed_index: int

    def __post_init__(self):
        if not 0 <= self.removed_index < self.system.rank:
            raise InvalidTypeError(
                f"removed_index {self.removed_index} out of range for {self.system.name}"
            )


@dataclass(frozen=True)
class DecompositionLevel:
    """Graded level j of the nilradical: its roots and dimension."""

    a: int
    roots: tuple[tuple[int, ...], ...]
    dimension: int


@dataclass(frozen=True)
class AdjointDecomposition:
    """Nilradical graded by the removed simple root's coefficient."""

    levels: tuple[DecompositionLevel, ...]

    @property
    def m(self) -> int:
        return len(self.levels)

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(level.dimension for level in self.levels)

    @property
    def a_values(self) -> tuple[int, ...]:
        return tuple(level.a for level in self.levels)


def nilradical_decomposition(p: ParabolicDatum) -> AdjointDecomposition:
    """Partition the nilradical's roots by coefficient at the removed node.

    Levels come out consecutive, a_j = j for j = 1..m, and their dimensions
    sum to |Phi+| - |Phi+_Levi|.
    """
    k = p.removed_index
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for v in p.system.positive_roots:
        if v[k] >= 1:
            buckets.setdefault(v[k], []).append(v)
    m = max(buckets) if buckets else 0
    levels = []
    for j in range(1, m + 1):
        roots = tuple(buckets.get(j, ()))
        levels.append(DecompositionLevel(a=j, roots=roots, dimension=len(roots)))
    return AdjointDecomposition(tuple(levels))


def _components(indices, cartan):
    adjacency = {i: [] for i in indices}
    for i in indices:
        for j in indices:
            if i != j and cartan[i][j] != 0:
                adjacency[i].append(j)
    remaining = set(indices)
    components = []
    while remaining:
        seed = min(remaining)
        stack = [seed]
        comp = {seed}
        while stack:
            node = stack.pop()
            for nb in adjacency[node]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        remaining -= comp
        components.append(sorted(comp))
    return components


def _classify_component(nodes, cartan) -> tuple[str, int]:
    # classify a connected proper subdiagram of a simple diagram.  None is G2
    # or F4, and one with a double edge and rank >= 3 is a chain with that
    # edge at one end, so degree counts and edge multiplicities decide
    rank = len(nodes)
    if rank == 1:
        return ("A", 1)
    edges = []
    for a in nodes:
        for b in nodes:
            if a < b and cartan[a][b] != 0:
                edges.append((a, b, cartan[a][b] * cartan[b][a]))
    degree = {node: 0 for node in nodes}
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    double = next(((a, b) for a, b, mult in edges if mult == 2), None)
    if double is not None:
        if rank == 2:
            return ("B", 2)  # B2 == C2; B is the canonical label here
        a, b = double
        # C[a][b] == -2 means a long, b short; the chain ends at one of the
        # two, and ending at the short root v makes it B
        v = b if cartan[a][b] == -2 else a
        return ("B", rank) if degree[v] == 1 else ("C", rank)
    # simply laced: path -> A, fork -> D or E by branch lengths
    if max(degree.values()) <= 2:
        return ("A", rank)
    hub = next(node for node, deg in degree.items() if deg == 3)
    adjacency = {node: [] for node in nodes}
    for a, b, _ in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    branch_lengths = []
    for start in adjacency[hub]:
        length = 1
        prev, cur = hub, start
        while True:
            nxt = [w for w in adjacency[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        branch_lengths.append(length)
    branch_lengths.sort()
    if branch_lengths[0] == 1 and branch_lengths[1] == 1:
        return ("D", rank)
    return ("E", rank)


def levi_type(p: ParabolicDatum) -> list[tuple[str, int]]:
    """Simple factors of the Levi's root system, e.g. [("A", 1), ("A", 1)].

    The removed node is deleted from the diagram and each remaining connected
    component is classified from its induced Cartan block.  Factors are
    sorted by (type letter, rank); a rank-2 double-edge component is reported
    as B2 (isomorphic to C2).
    """
    keep = [i for i in range(p.system.rank) if i != p.removed_index]
    factors = [
        _classify_component(comp, p.system.cartan) for comp in _components(keep, p.system.cartan)
    ]
    return sorted(factors)


def format_levi(factors: list[tuple[str, int]]) -> str:
    return "+".join(f"{letter}{rank}" for letter, rank in factors) if factors else "T"


@dataclass(frozen=True)
class TableRow:
    """One maximal parabolic in the decomposition table."""

    cartan_type: str
    rank: int
    removed_index: int
    levi: str
    m: int
    dims: tuple[int, ...]
    a: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "type": self.cartan_type,
            "rank": self.rank,
            "removed_index": self.removed_index,
            "levi": self.levi,
            "m": self.m,
            "dims": list(self.dims),
            "a": list(self.a),
        }


TABLE_COLUMNS = ("type", "rank", "removed_index", "levi", "m", "dims", "a")


def enumerate_table(types: list[tuple[str, int]]) -> list[TableRow]:
    """Decomposition rows for every maximal parabolic of the listed systems,
    in listed order then by removed index."""
    rows = []
    for cartan_type, rank in types:
        rs = build_root_system(cartan_type, rank)
        for k in range(rs.rank):
            p = ParabolicDatum(rs, k)
            dec = nilradical_decomposition(p)
            rows.append(
                TableRow(
                    cartan_type=rs.cartan_type,
                    rank=rs.rank,
                    removed_index=k,
                    levi=format_levi(levi_type(p)),
                    m=dec.m,
                    dims=dec.dimensions,
                    a=dec.a_values,
                )
            )
    return rows

