"""Root systems, Levi classification, nilradical gradings."""

import pytest

import oracles
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
    levels = nilradical_decomposition(ParabolicDatum(build_root_system("A", 2), 0))
    assert len(levels) == 1
    assert set(levels[0]) == {(1, 0), (1, 1)}


def test_g2_long_root_parabolic_grading():
    # removing the long simple root b: the long roots b, 3a+b sit at level 1,
    # 3a+2b at level 2, and the short roots a+b, 2a+b at 1 |b|^2 / |a|^2 = 3
    levels = nilradical_decomposition(ParabolicDatum(build_root_system("G", 2), 1))
    assert tuple(map(len, levels)) == (2, 1, 2)
    assert set(levels[0]) == {(0, 1), (3, 1)}
    assert levels[1] == ((3, 2),)
    assert set(levels[2]) == {(1, 1), (2, 1)}
    # removing the short root a, whose Levi is the long root b: the
    # 4-dimensional level is the symmetric-cube slot
    levels = nilradical_decomposition(ParabolicDatum(build_root_system("G", 2), 0))
    assert set(levels[0]) == {(1, 0), (1, 1), (3, 1), (3, 2)}
    assert levels[1] == ((2, 1),)


def test_b2_siegel_parabolic_is_one_level():
    # SO5's Siegel parabolic (removed_index 1): ^L n is Sym^2 of GL2
    b2 = build_root_system("B", 2)
    assert tuple(map(len, nilradical_decomposition(ParabolicDatum(b2, 1)))) == (3,)
    assert tuple(map(len, nilradical_decomposition(ParabolicDatum(b2, 0)))) == (2, 1)


def test_rank_one_grading():
    levels = nilradical_decomposition(ParabolicDatum(build_root_system("A", 1), 0))
    assert levels == (((1,),),)


@pytest.mark.parametrize("cartan_type,rank", ALL_TYPES)
def test_grading_invariants(cartan_type, rank):
    rs = build_root_system(cartan_type, rank)
    for k in range(rank):
        p = ParabolicDatum(rs, k)
        levels = nilradical_decomposition(p)
        levi_count = len(levi_positive_roots(p))
        # the Levi factors' closed-form root counts add up to the Levi's roots
        assert sum(positive_root_count_closed_form(*f) for f in levi_type(p)) == levi_count
        # dimension conservation
        assert sum(map(len, levels)) == len(rs.positive_roots) - levi_count
        # no level 1..m is empty, so level j's position is the j of its
        # argument js in the constant-term ratio
        assert levels and all(levels)
        # well-defined: each nilradical root in exactly one level, the level
        # <rho_P, beta^vee> / <rho_P, alpha_k^vee> of the rho_P-pairing oracle
        want = oracles.coroot_levels(p)
        seen = set()
        for j, roots in enumerate(levels, start=1):
            for root in roots:
                assert want[root] == j
                assert root not in seen
                seen.add(root)
        assert seen == set(want)
        # the coefficient at the removed node grades the same way exactly
        # when the type is simply laced
        by_coefficient = all(root[k] == j for j, roots in enumerate(levels, start=1) for root in roots)
        assert by_coefficient == (cartan_type in "ADE")


def test_coroots_are_two_beta_over_beta_beta():
    # the closure's coroots against 2 beta / (beta, beta) from the Gram
    # matrix, root by root, on all 31 types through rank 8
    for cartan_type, rank in ALL_TYPES:
        rs = build_root_system(cartan_type, rank)
        want = oracles.coroots_from_lengths(rs)
        assert rs.coroots == tuple(want[v] for v in rs.positive_roots), (cartan_type, rank)


def test_each_level_is_irreducible():
    # level j of the dual nilradical is an irreducible representation of the
    # dual Levi (Langlands, Euler Products; Shahidi 1981): on each of the 161
    # maximal parabolics through rank 8 it has one Levi-highest weight, and
    # Weyl's dimension formula there gives its size
    levels_checked = 0
    for cartan_type, rank in ALL_TYPES:
        rs = build_root_system(cartan_type, rank)
        for k in range(rank):
            p = ParabolicDatum(rs, k)
            levels = nilradical_decomposition(p)
            found = oracles.level_highest_weights_and_dimensions(p, levels)
            for roots, (highest, dims) in zip(levels, found):
                assert len(highest) == 1, (cartan_type, rank, k, highest)
                assert dims == [len(roots)], (cartan_type, rank, k, highest, dims)
                levels_checked += 1
    assert levels_checked == 277


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
    assert by_index[0].dims == (4, 1)  # Levi on the long root: Sym^3 + det
    assert by_index[1].dims == (2, 1, 2)
    assert by_index[1].a == (1, 2, 3)


def test_enumerate_table_empty():
    assert enumerate_table([]) == []


def test_parabolic_index_validation():
    rs = build_root_system("A", 2)
    with pytest.raises(InvalidTypeError):
        ParabolicDatum(rs, 2)
    with pytest.raises(InvalidTypeError):
        ParabolicDatum(rs, -1)
