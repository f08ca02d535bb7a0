"""CLI surface: parsing, exit codes, formats, golden files."""

import csv
import io
import json
from pathlib import Path

import pytest

from eisenkit import cli
from eisenkit.eisenstein import fourier_coefficient

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "docs" / "golden"


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# complex-token parsing


@pytest.mark.parametrize(
    "token,value",
    [
        ("2.5", 2.5 + 0j),
        ("0+1i", 1j),
        ("0.3+2i", 0.3 + 2j),
        ("-0.4+0.8i", -0.4 + 0.8j),
        ("3-1i", 3 - 1j),
        ("2i", 2j),
        ("i", 1j),
        ("-i", -1j),
        ("1+i", 1 + 1j),
        ("0.5+2j", 0.5 + 2j),
    ],
)
def test_parse_complex(token, value):
    assert cli.parse_complex(token) == value


@pytest.mark.parametrize("token", ["", "1+2", "1 + 2i", "abc", "2ii", "nan", "nan+1i", "1+nani"])
def test_parse_complex_rejects_garbage(token):
    with pytest.raises(ValueError):
        cli.parse_complex(token)


def test_format_complex_round_trips():
    for value in (2.5 + 0j, -0.4 + 0.8j, 1j, complex(3, -1)):
        assert cli.parse_complex(cli.format_complex(value)) == value


# ---------------------------------------------------------------------------
# commands and exit codes


def test_eval_both_reports_small_discrepancy(capsys):
    code, out, _ = run_cli(
        ["eval", "--z", "0+1i", "--s", "2.5", "--method", "both", "--radius", "400", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["discrepancy"] < 1e-6


def test_eval_lattice_below_abscissa_exits_2(capsys):
    code, out, err = run_cli(["eval", "--z", "0+1i", "--s", "0.8", "--method", "lattice"], capsys)
    assert code == 2
    assert "DivergenceError" in err
    # a non-finite s is refused too, where it used to print NaN and exit 0
    argv = ["eval", "--z", "0.3+1.2i", "--s", "nan+1i", "--method", "lattice", "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert "ValueError" in err
    # so is a radius past the kernels' pair table, which ends at 2000
    for radius in ("2001", "32768"):
        argv = ["eval", "--z", "0+1i", "--s", "2.5", "--method", "lattice", "--radius", radius]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "DomainError" in err
    argv = ["eval", "--z", "0+1i", "--s", "2.5", "--method", "lattice", "--radius", "2000"]
    assert run_cli(argv, capsys)[0] == 0


def test_eval_fourier_json_schema(capsys):
    code, out, _ = run_cli(
        ["eval", "--z", "0+1i", "--s", "2.5", "--method", "fourier", "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    for key in ("value_re", "value_im", "tail_bound"):
        assert key in report


def test_xi_pole_exits_4(capsys):
    code, _, err = run_cli(["xi", "--s", "1"], capsys)
    assert code == 4
    assert "PoleError" in err


def test_fourier_extract_matches_closed_form(capsys):
    code, out, _ = run_cli(
        [
            "fourier",
            "--n", "1", "--y", "2.0", "--s", "2.5",
            "--extract", "--radius", "300",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["extraction_difference"] < 1e-6


@pytest.mark.parametrize("n, y, radius", [("64", "1", "300"), ("1", "0.02", "600")])
def test_fourier_extract_has_no_aliased_modes(n, y, radius, capsys):
    # 64 nodes would read a_0 = 2.39 for a_64 = 1.6e-171, and a_1 = 452.84
    # at y = 0.02 plus its aliases a_63, a_65, ... as 458.12
    argv = ["fourier", "--n", n, "--y", y, "--s", "2.5", "--extract", "--radius", radius]
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    a_0 = fourier_coefficient(0, float(y), 2.5)
    assert json.loads(out)["extraction_difference"] < 1e-6 * max(1.0, abs(a_0))


def test_fourier_extract_past_node_bound_exits_4(capsys):
    code, _, err = run_cli(["fourier", "--n", "1", "--y", "1e-6", "--s", "2.5", "--extract"], capsys)
    assert code == 4
    assert "AccuracyError" in err


def test_fe_check_default_grid(capsys):
    code, out, _ = run_cli(["fe-check", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["points"] == 20
    assert report["skipped"] == 0
    assert report["max_defect"] < 1e-8


def test_fe_check_skips_pole_points_and_continues(capsys):
    code, out, _ = run_cli(
        ["fe-check", "--check", "scattering", "--points", "0.5+0i,0.3+2i", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["skipped"] == 1
    assert report["rows"][0]["skipped"].startswith("PoleError")
    assert report["rows"][1]["defect"] < 1e-10


def test_fe_check_csv_rows_with_different_keys(capsys):
    # one row has a defect, the other is skipped: the header covers both
    code, out, _ = run_cli(
        ["fe-check", "--check", "scattering", "--points", "0.3+2i,0.5", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["s", "defect", "skipped"]
    assert len(rows) == 3
    assert rows[1][0] == "0.3+2i" and float(rows[1][1]) < 1e-10 and rows[1][2] == ""
    assert rows[2][0] == "0.5+0i" and rows[2][1] == "" and rows[2][2].startswith("PoleError")


def test_complex_values_may_start_with_minus(capsys):
    joined = ["eval", "--z=-0.4+0.8i", "--s=2.5", "--method", "fourier", "--format", "json"]
    code, want, _ = run_cli(joined, capsys)
    assert code == 0
    spaced = ["eval", "--z", "-0.4+0.8i", "--s", "2.5", "--method", "fourier", "--format", "json"]
    code, got, _ = run_cli(spaced, capsys)
    assert code == 0
    assert got == want
    assert json.loads(got)["z"] == "-0.4+0.8i"
    code, out, _ = run_cli(["xi", "--s", "-i", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["s"] == "0-1i"
    argv = ["fe-check", "--check", "scattering", "--points", "-0.3+2i,0.7", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert [row["s"] for row in json.loads(out)["rows"]] == ["-0.3+2i", "0.7+0i"]


def test_fe_check_mode_bound_failure_exits_nonzero(capsys, monkeypatch):
    # only pole exclusions are skipped; an evaluator that misses its target
    # must fail the run, not become a skipped row
    from eisenkit import eisenstein

    # the divisor memo is keyed on s alone: no table of 3 entries may outlive the patch
    eisenstein._divisor_factors.cache_clear()
    monkeypatch.setattr(eisenstein, "_MODES", 2)
    try:
        code, out, err = run_cli(
            ["fe-check", "--check", "eisenstein", "--points", "0.3+2i", "--format", "json"],
            capsys,
        )
    finally:
        eisenstein._divisor_factors.cache_clear()
    assert code == 4
    assert out == ""
    assert "AccuracyError" in err


def test_fe_check_xi_sweep(capsys):
    code, out, _ = run_cli(["fe-check", "--check", "xi", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["points"] == 100
    assert report["max_defect"] < 1e-10


def test_fe_check_first_coefficient_sweep(capsys):
    code, out, _ = run_cli(["fe-check", "--check", "first-coefficient", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["points"] == 20
    assert report["skipped"] == 0
    assert report["max_defect"] < 1e-12


def test_text_output_lists_rows_after_the_keys(capsys):
    code, out, _ = run_cli(["fe-check", "--check", "scattering", "--points", "0.3+2i,0.5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == [
        "command: fe-check", "check: scattering", "z: 0.3+1.4i", "points: 2", "skipped: 1"
    ]
    assert lines[5].startswith("max_defect: ")
    assert lines[6].startswith("  s=0.3+2i  defect=")
    assert lines[7] == "  s=0.5+0i  skipped=PoleError: pole exclusion"
    assert len(lines) == 8
    code, out, _ = run_cli(["decompose", "G", "2"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "command: decompose",
        "columns: ['type', 'rank', 'removed_index', 'levi', 'm', 'dims', 'a']",
        "  type=G  rank=2  removed_index=0  levi=A1  m=3  dims=[2, 1, 2]  a=[1, 2, 3]",
        "  type=G  rank=2  removed_index=1  levi=A1  m=2  dims=[4, 1]  a=[1, 2]",
    ]


def test_csv_output_without_rows_is_key_value(capsys):
    code, out, _ = run_cli(["xi", "--s", "2", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert [row[0] for row in rows[1:]] == [
        "command", "s", "xi_re", "xi_im", "xi_reflected_re", "xi_reflected_im", "reflection_defect"
    ]
    assert rows[1] == ["command", "xi"] and rows[2] == ["s", "2+0i"]
    assert float(rows[3][1]) == pytest.approx(0.5235987755982989)  # xi(2) = pi/6


def test_euler_trivial_file_close_to_zeta2(tmp_path, capsys):
    from eisenkit._arith import primes_up_to

    path = tmp_path / "trivial.txt"
    path.write_text("".join(f"{p} 1.0 0.0\n" for p in primes_up_to(10**5 - 1)))
    code, out, _ = run_cli(
        ["euler", "--input", str(path), "--s", "2", "--max-q", "100000", "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["value_re"] - 1.64493) < 1e-4
    assert report["warnings"] == []


def test_euler_malformed_line_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1.0 0.0\n3 1.0 0.0\n5 oops 0.0\n")
    code, _, err = run_cli(["euler", "--input", str(path)], capsys)
    assert code == 3
    assert "line 3" in err
    for bad in ("nan 0", "0 inf"):
        path.write_text(f"2 1.0 0.0\n3 {bad}\n")
        code, out, err = run_cli(
            ["euler", "--input", str(path), "--s", "3", "--format", "json"], capsys
        )
        assert code == 3
        assert "line 2" in err
        assert out == ""


def test_euler_inconsistent_places_exit_3(tmp_path, capsys):
    # a repeated q, and Satake classes of two dimensions
    path = tmp_path / "places.txt"
    for text, message in (
        ("2 1.0 0.0\n3 1.0 0.0\n2 0.5 0.0\n", "duplicate place(s) q = [2]"),
        ("2 1.0 0.0\n3 1.0 0.0 1.0 0.0\n", "inconsistent Satake dimensions [1, 2]"),
    ):
        path.write_text(text)
        code, out, err = run_cli(["euler", "--input", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert "PlaceDataError" in err and message in err


def test_euler_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run_cli(["euler", "--input", str(tmp_path / "nope.txt")], capsys)
    assert code == 3


def test_euler_empty_file_warns_value_one(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    code, out, _ = run_cli(["euler", "--input", str(path), "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["value_re"] == 1.0
    assert report["warnings"]


def test_decompose_g2(capsys):
    code, out, _ = run_cli(["decompose", "G", "2", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    dims = {tuple(row["dims"]) for row in report["rows"]}
    assert (4, 1) in dims
    assert len(report["rows"]) == 2
    assert list(report["rows"][0]) == report["columns"]


def test_decompose_a1(capsys):
    code, out, _ = run_cli(["decompose", "A", "1", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 1
    assert report["rows"][0]["dims"] == [1]


def test_decompose_invalid_type_exits_2(capsys):
    # neither TYPE RANK nor --table, a bad type or rank, a bad --table token
    for argv in (
        [], ["G"], ["H", "2"], ["A", "33"], ["D", "33"], ["--table", "A2,,G2"], ["--table", "A2,"]
    ):
        code, _, err = run_cli(["decompose", *argv], capsys)
        assert code == 2, argv
        assert "InvalidTypeError" in err


def test_decompose_table_csv(capsys):
    code, out, _ = run_cli(["decompose", "--table", "A2,G2", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["type", "rank", "removed_index", "levi", "m", "dims", "a"]
    g2_long = [r for r in rows if r[:3] == ["G", "2", "1"]]
    assert g2_long and g2_long[0][5] == "4 1" and g2_long[0][6] == "1 2"


def test_verbose_prints_defaults(capsys):
    argv = ["eval", "--z", "0+1i", "--s", "2.5", "--method", "fourier", "--verbose"]
    code, _, err = run_cli(argv, capsys)
    assert code == 0
    assert "defaults:" in err
    assert "radius=1000" in err
    assert "method=fourier" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["xi", "--s", "2", "--radius", "5"],
        ["fe-check", "--radius", "5"],
        ["decompose", "G", "2", "--terms", "3"],
        ["eval", "--z", "0+1i", "--s", "2.5", "--terms", "40"],
        ["fourier", "--n", "1", "--y", "1", "--s", "2.5", "--extract", "--nodes", "32"],
    ],
)
def test_flags_a_command_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# JSON round-trip and golden files


def test_json_output_round_trips(capsys):
    code, out, _ = run_cli(["decompose", "G", "2", "--format", "json"], capsys)
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report


def _assert_matches(got, want, path=""):
    assert type(got) is type(want), f"{path}: {type(got)} != {type(want)}"
    if isinstance(want, dict):
        assert set(got) == set(want), f"{path}: keys {set(got)} != {set(want)}"
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), path
    else:
        assert got == want, path


GOLDEN_ARGS = {
    "eval": ["eval", "--z", "0+1i", "--s", "2.5", "--method", "fourier", "--format", "json"],
    "fourier": ["fourier", "--n", "1", "--y", "1.0", "--s", "2.5", "--format", "json"],
    "fe-check": ["fe-check", "--check", "scattering", "--points", "0.3+2i,0.7-2i", "--format", "json"],
    "xi": ["xi", "--s", "0.3+2i", "--format", "json"],
    "euler": [
        "euler", "--input", str(REPO_ROOT / "docs" / "golden" / "places_sample.txt"),
        "--s", "2.2", "--max-q", "50", "--format", "json",
    ],
    "decompose": ["decompose", "G", "2", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
def test_golden_file(name, capsys):
    code, out, _ = run_cli(GOLDEN_ARGS[name], capsys)
    assert code == 0
    got = json.loads(out)
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    if name == "euler":
        # the input path echoes whatever the caller passed
        got["input"] = want["input"] = "<input>"
    _assert_matches(got, want)
