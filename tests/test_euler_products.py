"""Euler products over Satake data: local factors, truncated products,
constant-term ratios, and place-file ingestion."""

import cmath
import math
import random
import warnings

import pytest

import oracles
from eisenkit.errors import (
    ConvergenceWarning,
    DivergenceError,
    DomainError,
    PlaceDataError,
    PoleError,
)
from eisenkit.euler_products import (
    LFunctionData,
    PlaceDatum,
    RatioSpec,
    SatakeClass,
    constant_term_ratio,
    local_factor,
    partial_l,
    read_place_data,
    trivial_zeta_data,
)
from eisenkit.special_functions import zeta

# ---------------------------------------------------------------------------
# domain types


def test_satake_class_validation():
    SatakeClass((1.0, -1.0, 1j))
    with pytest.raises(DomainError):
        SatakeClass(())
    with pytest.raises(DomainError):
        SatakeClass((1.0, 0.0))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf), complex(1.0, math.nan)):
        with pytest.raises(DomainError):
            SatakeClass((1.0, bad))


def test_place_datum_accepts_prime_powers_only():
    one = SatakeClass((1.0,))
    for q in (2, 3, 8, 9, 125):
        PlaceDatum(q, one)
    for q in (1, 6, 12, 100, 4.5, 4.0, "4"):
        with pytest.raises(DomainError):
            PlaceDatum(q, one)


def test_lfunction_data_sorts_and_validates():
    one = SatakeClass((1.0,))
    data = LFunctionData((PlaceDatum(5, one), PlaceDatum(2, one), PlaceDatum(3, one)))
    assert [p.q for p in data.places] == [2, 3, 5]
    with pytest.raises(DomainError):
        LFunctionData((PlaceDatum(2, one), PlaceDatum(2, one)))
    with pytest.raises(DomainError):
        LFunctionData((PlaceDatum(2, one), PlaceDatum(3, SatakeClass((1.0, 1.0)))))


def test_ratio_spec_validation():
    data = trivial_zeta_data(50)
    RatioSpec(((1, data), (2, data)))
    with pytest.raises(DomainError):
        RatioSpec(())
    with pytest.raises(DomainError):
        RatioSpec(((2, data), (1, data)))
    with pytest.raises(DomainError):
        RatioSpec(((1, data), (1, data)))
    with pytest.raises(DomainError):
        RatioSpec(tuple((j + 1, data) for j in range(9)))
    # the a_j are positive integers
    for bad in (((0, data),), ((-1, data), (1, data)), ((1.5, data),), ((1, data), (2.0, data))):
        with pytest.raises(DomainError):
            RatioSpec(bad)
    # each level is an (a_j, LFunctionData) pair: a str as the data would
    # fail only later, in constant_term_ratio, with an AttributeError
    for bad in (((1, "x"),), (1,), ((1, data, data),), ((1,),), ((1, data), (2, None))):
        with pytest.raises(DomainError):
            RatioSpec(bad)


# ---------------------------------------------------------------------------
# local factors


def test_local_factor_trivial_example():
    place = PlaceDatum(2, SatakeClass((1.0,)))
    assert local_factor(place, 1.0) == 2.0


def test_local_factor_double_eigenvalue_example():
    place = PlaceDatum(3, SatakeClass((1.0, 1.0)))
    assert abs(local_factor(place, 2.0) - 81.0 / 64.0) < 1e-14


def test_local_factor_conjugation_symmetry_for_unitary_pairs():
    theta = 1.234
    lam = cmath.exp(1j * theta)
    place = PlaceDatum(7, SatakeClass((lam, 1.0 / lam)))
    for s in (complex(1.5, 2.0), complex(2.0, -3.3)):
        assert abs(local_factor(place, s.conjugate()) - local_factor(place, s).conjugate()) < 1e-14


def test_local_factor_matches_independent_determinant():
    rng = random.Random(41)
    for _ in range(30):
        dim = rng.randrange(1, 5)
        eigenvalues = tuple(
            cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi)) for _ in range(dim)
        )
        q = rng.choice((2, 3, 5, 7, 9, 11, 13))
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-2, 2))
        place = PlaceDatum(q, SatakeClass(eigenvalues))
        q_pow = complex(q) ** (-s)
        matrix = [
            [(1.0 if i == j else 0.0) - (eigenvalues[i] * q_pow if i == j else 0.0) for j in range(dim)]
            for i in range(dim)
        ]
        want = 1.0 / oracles.det_laplace(matrix)
        assert abs(local_factor(place, s) - want) < 1e-12 * abs(want)


def test_local_factor_pole():
    place = PlaceDatum(2, SatakeClass((1.0,)))
    with pytest.raises(PoleError):
        local_factor(place, 0.0)  # 1 - 1*2^0 = 0


# ---------------------------------------------------------------------------
# partial L


def test_trivial_data_identity_is_bit_for_bit():
    data = trivial_zeta_data(1000)
    got = partial_l(data, 2.0, 1000).value
    acc = 1.0 + 0.0j
    for place in data.places:
        acc *= 1.0 / (1.0 - complex(place.q) ** (-complex(2.0)))
    assert got == acc


def test_partial_l_approaches_zeta():
    data = trivial_zeta_data(10**5)
    result = partial_l(data, 2.0, 10**5)
    assert abs(result.value - zeta(2)) < 1e-4
    # and the reported multiplicative tail really covers the truncation
    assert abs(result.value - zeta(2)) <= abs(result.value) * math.expm1(result.tail_bound)


def test_partial_l_empty_product():
    data = LFunctionData(())
    result = partial_l(data, 2.0, 100)
    assert result.value == 1.0
    assert result.factor_count == 0


def test_partial_l_truncation_counts_places():
    data = trivial_zeta_data(100)
    assert partial_l(data, 2.0, 10).factor_count == 4  # 2, 3, 5, 7
    assert partial_l(data, 2.0, 1).factor_count == 0


def test_cutoffs_are_integers():
    data = trivial_zeta_data(100)
    for bad in (100.0, 10.5, "100"):
        with pytest.raises(DomainError):
            trivial_zeta_data(bad)
        with pytest.raises(DomainError):
            partial_l(data, 2.0, bad)


def test_partial_l_monotone_stabilization():
    data = trivial_zeta_data(20001)
    diffs = []
    for cutoff in (100, 1000, 10000):
        a = partial_l(data, 2.0, cutoff).value
        b = partial_l(data, 2.0, 2 * cutoff).value
        diffs.append(abs(a - b))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < diffs[0] / 50.0


def test_partial_l_convergence_policing():
    data = trivial_zeta_data(100)
    with pytest.raises(DivergenceError):
        partial_l(data, 0.9, 100)
    for s in (math.nan, complex(2.5, math.inf)):
        with pytest.raises(DomainError):
            partial_l(data, s, 100)
        with pytest.raises(DomainError):
            constant_term_ratio(RatioSpec(((1, data),)), s, 100)
        with pytest.raises(DomainError):
            local_factor(PlaceDatum(2, SatakeClass((1.0,))), s)
    with pytest.warns(ConvergenceWarning):
        partial_l(data, 1.05, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        partial_l(data, 2.0, 100)  # comfortable margin: no warning


def test_partial_l_abscissa_accounts_for_eigenvalue_growth():
    # |lambda| = q shifts the abscissa to 2
    places = (PlaceDatum(2, SatakeClass((2.0,))), PlaceDatum(3, SatakeClass((3.0,))))
    data = LFunctionData(places)
    assert data.convergence_abscissa() == pytest.approx(2.0)
    with pytest.raises(DivergenceError):
        partial_l(data, 1.5, 10)
    partial_l(data, 2.5, 10)


# ---------------------------------------------------------------------------
# constant-term ratio


def test_ratio_single_level_composes_partial_values():
    data = trivial_zeta_data(1000)
    got = constant_term_ratio(RatioSpec(((1, data),)), 2.0, 1000)
    numerator, denominator = partial_l(data, 2.0, 1000), partial_l(data, 3.0, 1000)
    assert got.value == numerator.value / denominator.value
    # the error figures of both products are carried along
    assert got.tail_bound == numerator.tail_bound + denominator.tail_bound
    assert got.margin == numerator.margin
    assert got.factor_count == numerator.factor_count + denominator.factor_count


def test_ratio_empty_truncation_is_one():
    data = trivial_zeta_data(1000)
    spec = RatioSpec(((1, data), (2, data)))
    ratio = constant_term_ratio(spec, 2.0, 1)
    assert ratio.value == 1.0
    assert ratio.factor_count == 0


def test_ratio_two_levels_multiply():
    data = trivial_zeta_data(500)
    spec2 = RatioSpec(((1, data), (2, data)))
    r1 = constant_term_ratio(RatioSpec(((1, data),)), 2.0, 500).value
    # level (2, data) alone: arguments 2s and 1 + 2s
    r2 = partial_l(data, 4.0, 500).value / partial_l(data, 5.0, 500).value
    assert constant_term_ratio(spec2, 2.0, 500).value == r1 * r2


def test_ratio_error_names_offending_level():
    data = trivial_zeta_data(100)
    with pytest.raises(DivergenceError, match="level j = 1"):
        constant_term_ratio(RatioSpec(((1, data), (3, data))), 0.4, 100)
    # second level carries data with abscissa 3 (|lambda| = q^2), so it is the
    # one that fails at s = 1.5 while the trivial first level is fine
    growth = LFunctionData((PlaceDatum(2, SatakeClass((4.0,))), PlaceDatum(3, SatakeClass((9.0,)))))
    with pytest.raises(DivergenceError, match="level j = 2"):
        constant_term_ratio(RatioSpec(((1, data), (2, growth))), 1.5, 100)


# ---------------------------------------------------------------------------
# place-data ingestion


def test_read_place_data_round_trip(tmp_path):
    path = tmp_path / "places.txt"
    path.write_text(
        "# unitary pair at 2, trivial at 3\n"
        "\n"
        "2 0.5 0.8660254037844386 0.5 -0.8660254037844386\n"
        "3 1.0 0.0 1.0 0.0   # inline comment\n"
    )
    data = read_place_data(str(path))
    assert [p.q for p in data.places] == [2, 3]
    assert data.places[0].satake.dim == 2
    assert data.places[1].satake.eigenvalues == (1.0 + 0j, 1.0 + 0j)


def test_read_place_data_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1.0 0.0\n3 1.0 0.0\nnot-a-number 1.0 0.0\n")
    with pytest.raises(PlaceDataError, match="line 3") as info:
        read_place_data(str(path))
    assert info.value.line_number == 3


def test_read_place_data_rejects_odd_components():
    with pytest.raises(PlaceDataError, match="line 1"):
        read_place_data(["2 1.0 0.0 0.5\n"])


def test_read_place_data_rejects_zero_eigenvalue_and_bad_q():
    with pytest.raises(PlaceDataError, match="line 2"):
        read_place_data(["2 1.0 0.0\n", "3 0.0 0.0\n"])
    with pytest.raises(PlaceDataError, match="line 1"):
        read_place_data(["6 1.0 0.0\n"])
    for bad in ("nan 0", "0 inf", "-inf 0", "1 nan"):
        with pytest.raises(PlaceDataError, match="line 2"):
            read_place_data(["2 1.0 0.0\n", f"3 {bad}\n"])


def test_read_place_data_empty_gives_empty_product():
    data = read_place_data(["# only comments\n", "\n"])
    assert data.places == ()
    assert partial_l(data, 2.0, 10).value == 1.0
