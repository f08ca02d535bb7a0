"""Root systems, Levi classification, nilradical gradings."""

import pytest

from eisenkit.errors import DomainError, InvalidTypeError
from eisenkit.root_systems import (
    ParabolicDatum,
    build_root_system,
    enumerate_table,
    format_levi,
    levi_type,
    nilradical_decomposition,
)
from oracles import levi_positive_roots, positive_root_count_closed_form

SUITE = [
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("A", 4),
    ("B", 2),
    ("B", 3),
    ("B", 4),
    ("C", 3),
    ("C", 4),
    ("D", 4),
    ("D", 5),
    ("F", 4),
    ("G", 2),
]

#: every type through rank 8, E7 and E8 included
ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

# ---------------------------------------------------------------------------
# construction


def test_a1_has_single_root():
    rs = build_root_system("A", 1)
    assert rs.positive_roots == ((1,),)


def test_a2_roots_by_brute_closure():
    rs = build_root_system("A", 2)
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_g2_roots_exactly():
    # brute-force closure from the G2 Cartan matrix, alpha_1 short
    rs = build_root_system("G", 2)
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


@pytest.mark.parametrize("cartan_type,rank", SUITE + [("E", 6)])
def test_positive_root_counts_match_closed_form(cartan_type, rank):
    rs = build_root_system(cartan_type, rank)
    assert len(rs.positive_roots) == positive_root_count_closed_form(cartan_type, rank)


def test_simple_roots_are_unit_vectors():
    rs = build_root_system("B", 3)
    for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert unit in rs.positive_roots


def test_positive_roots_ordered_by_height_then_lex():
    rs = build_root_system("C", 3)
    heights = [sum(v) for v in rs.positive_roots]
    assert heights == sorted(heights)
    for a, b in zip(rs.positive_roots, rs.positive_roots[1:]):
        assert (sum(a), a) < (sum(b), b)


def test_invalid_types_rejected():
    for cartan_type, rank in (
        ("H", 2), ("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 9), ("F", 3), ("G", 3),
        ("A", 33), ("D", 33),
    ):
        with pytest.raises(InvalidTypeError):
            build_root_system(cartan_type, rank)
    assert build_root_system("D", 32).rank == 32  # the largest rank accepted


def test_rank_must_be_an_integer():
    for rank in (2.0, 2.5, "2"):
        with pytest.raises(DomainError):
            build_root_system("A", rank)


def test_removed_index_must_be_an_integer():
    rs = build_root_system("A", 2)
    for index in (1.0, 0.5, "1"):
        with pytest.raises(DomainError):
            ParabolicDatum(rs, index)


# ---------------------------------------------------------------------------
# Levi classification


def test_levi_examples_from_low_rank():
    assert levi_type(ParabolicDatum(build_root_system("A", 2), 0)) == [("A", 1)]
    assert levi_type(ParabolicDatum(build_root_system("G", 2), 1)) == [("A", 1)]
    assert levi_type(ParabolicDatum(build_root_system("A", 3), 1)) == [("A", 1), ("A", 1)]


def test_levi_classification_with_multiple_lengths():
    f4 = build_root_system("F", 4)
    assert levi_type(ParabolicDatum(f4, 0)) == [("C", 3)]
    assert levi_type(ParabolicDatum(f4, 3)) == [("B", 3)]
    assert levi_type(ParabolicDatum(f4, 1)) == [("A", 1), ("A", 2)]
    b4 = build_root_system("B", 4)
    assert levi_type(ParabolicDatum(b4, 0)) == [("B", 3)]
    assert levi_type(ParabolicDatum(b4, 3)) == [("A", 3)]
    c4 = build_root_system("C", 4)
    assert levi_type(ParabolicDatum(c4, 0)) == [("C", 3)]
    # 0-based nodes of the rank-32 chains: the far end, the node next to the
    # double edge (or to the D fork) and the last node
    expected = {
        ("B", 32): {0: [("B", 31)], 30: [("A", 1), ("A", 30)], 31: [("A", 31)]},
        ("C", 32): {0: [("C", 31)], 30: [("A", 1), ("A", 30)], 31: [("A", 31)]},
        ("D", 32): {0: [("D", 31)], 29: [("A", 1), ("A", 1), ("A", 29)], 31: [("A", 31)]},
    }
    for (cartan_type, rank), by_node in expected.items():
        rs = build_root_system(cartan_type, rank)
        for node, factors in by_node.items():
            assert levi_type(ParabolicDatum(rs, node)) == factors, (cartan_type, node)


def test_levi_fork_classification():
    d5 = build_root_system("D", 5)
    assert levi_type(ParabolicDatum(d5, 0)) == [("D", 4)]
    assert levi_type(ParabolicDatum(d5, 4)) == [("A", 4)]
    e6 = build_root_system("E", 6)
    assert levi_type(ParabolicDatum(e6, 1)) == [("A", 5)]
    assert levi_type(ParabolicDatum(e6, 0)) == [("D", 5)]
    # every node of D4, E7 and E8, 0-based
    expected = {
        ("D", 4): ["A3", "A1+A1+A1", "A3", "A3"],
        ("E", 7): ["D6", "A6", "A1+A5", "A1+A2+A3", "A2+A4", "A1+D5", "E6"],
        ("E", 8): ["D7", "A7", "A1+A6", "A1+A2+A4", "A3+A4", "A2+D5", "A1+E6", "E7"],
    }
    for (cartan_type, rank), levis in expected.items():
        rs = build_root_system(cartan_type, rank)
        got = [format_levi(levi_type(ParabolicDatum(rs, k))) for k in range(rank)]
        assert got == levis, (cartan_type, rank)


def test_levi_rank_one_removal_gives_torus():
    assert levi_type(ParabolicDatum(build_root_system("A", 1), 0)) == []
    assert format_levi([]) == "T"


def test_levi_roots_closed_under_addition():
    for cartan_type, rank in SUITE:
        rs = build_root_system(cartan_type, rank)
        positives = set(rs.positive_roots)
        for k in range(rank):
            levi = set(levi_positive_roots(ParabolicDatum(rs, k)))
            for u in levi:
                for v in levi:
                    w = tuple(a + b for a, b in zip(u, v))
                    if w in positives:
                        assert w in levi


# ---------------------------------------------------------------------------
# nilradical grading


def test_a2_grading_example():
    dec = nilradical_decomposition(ParabolicDatum(build_root_system("A", 2), 0))
    assert dec.m == 1
    assert dec.dimensions == (2,)
    assert set(dec.levels[0]) == {(1, 0), (1, 1)}


def test_g2_long_root_parabolic_grading():
    # removing the long simple root: level 1 holds {b, a+b, 2a+b, 3a+b},
    # level 2 holds {3a+2b}; the 4-dimensional level is the symmetric-cube slot
    dec = nilradical_decomposition(ParabolicDatum(build_root_system("G", 2), 1))
    assert dec.m == 2
    assert dec.dimensions == (4, 1)
    assert dec.a_values == (1, 2)
    assert set(dec.levels[0]) == {(0, 1), (1, 1), (2, 1), (3, 1)}
    assert dec.levels[1] == ((3, 2),)


def test_rank_one_grading():
    dec = nilradical_decomposition(ParabolicDatum(build_root_system("A", 1), 0))
    assert dec.m == 1
    assert dec.dimensions == (1,)


@pytest.mark.parametrize("cartan_type,rank", ALL_TYPES)
def test_grading_invariants(cartan_type, rank):
    rs = build_root_system(cartan_type, rank)
    for k in range(rank):
        p = ParabolicDatum(rs, k)
        dec = nilradical_decomposition(p)
        levi_count = len(levi_positive_roots(p))
        # the Levi factors' closed-form root counts add up to the Levi's roots
        assert sum(positive_root_count_closed_form(*f) for f in levi_type(p)) == levi_count
        # dimension conservation
        assert sum(dec.dimensions) == len(rs.positive_roots) - levi_count
        # consecutive a_j = j
        assert dec.a_values == tuple(range(1, dec.m + 1))
        # well-defined: each nilradical root in exactly one level, coefficient >= 1
        seen = set()
        for j, roots in enumerate(dec.levels, start=1):
            for root in roots:
                assert root[k] == j
                assert root not in seen
                seen.add(root)
        assert len(seen) == sum(dec.dimensions)


# ---------------------------------------------------------------------------
# tables


def test_enumerate_table_a2():
    rows = enumerate_table([("A", 2)])
    assert len(rows) == 2
    for row in rows:
        assert row.m == 1
        assert row.dims == (2,)


def test_enumerate_table_g2():
    rows = enumerate_table([("G", 2)])
    assert len(rows) == 2
    by_index = {row.removed_index: row for row in rows}
    assert by_index[1].dims == (4, 1)
    assert by_index[0].dims == (2, 1, 2)  # short-root parabolic, graded by the same rule


def test_enumerate_table_empty():
    assert enumerate_table([]) == []


def test_parabolic_index_validation():
    rs = build_root_system("A", 2)
    with pytest.raises(InvalidTypeError):
        ParabolicDatum(rs, 2)
    with pytest.raises(InvalidTypeError):
        ParabolicDatum(rs, -1)
