"""Command-line surface: point evaluations, verification sweeps, Euler
products from place data, and decomposition tables.

Commands: eval, fourier, fe-check, xi, euler, decompose.  Every command is
deterministic for fixed arguments, emits text, JSON, or CSV, and exits with
0 on success, 2 on usage/precondition errors, 3 on data errors, and 4 on
numeric failures (poles, overflow, an evaluator bound reached short of its
accuracy target).  Complex numbers are written as a single token like
``0.3+2i`` (no spaces; ``j`` also accepted).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import random
import sys
import warnings

from . import __version__, _kernels
from .eisenstein import (
    TruncationPolicy,
    _extraction,
    eval_fourier,
    eval_lattice_sum,
    fourier_coefficient,
    scattering_ratio,
)
from .errors import (
    AccuracyError,
    ConvergenceWarning,
    EisenkitError,
    InvalidTypeError,
    PlaceDataError,
    PoleError,
)
from .special_functions import xi_completed

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# eval --method both and fourier --extract refuse where their two values
# differ by more than their tail bounds plus this rounding allowance times
# max(1, |value|), the value being E or the closed-form a_n
_EVAL_ROUNDING = 1e-13


def parse_complex(token: str) -> complex:
    """Parse ``a+bi`` single-token complex notation (also bare reals, ``2i``);
    both parts must be finite."""
    text = token.strip().replace("I", "i").replace("i", "j")
    if text.endswith("j") and text[:-1] in ("", "+", "-"):
        text = text[:-1] + "1j"
    try:
        value = complex(text)
        if cmath.isfinite(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"cannot parse complex number {token!r}; use finite forms like 0.3+2i")


def format_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real:.12g}{sign}{abs(value.imag):.12g}i"


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return value


def _emit(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(report, stream, indent=2)
        stream.write("\n")
        return
    rows = report.get("rows")
    if fmt == "csv":
        writer = csv.writer(stream)
        if rows is not None:
            # rows may differ in keys (fe-check: defect or skipped), so the
            # header is their union in first-seen order
            header = list(dict.fromkeys(k for row in rows for k in row))
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_cell(row.get(k, "")) for k in header])
        else:
            writer.writerow(["key", "value"])
            for key, value in report.items():
                writer.writerow([key, _csv_cell(value)])
        return
    # text
    for key, value in report.items():
        if key == "rows":
            continue
        print(f"{key}: {value}", file=stream)
    if rows is not None:
        for row in rows:
            print("  " + "  ".join(f"{k}={v}" for k, v in row.items()), file=stream)


def _print_defaults(args) -> None:
    settings = " ".join(f"{key}={value}" for key, value in vars(args).items() if key != "func")
    print(f"defaults: {settings}", file=sys.stderr)


def _complex_fields(prefix: str, value: complex) -> dict:
    return {f"{prefix}_re": value.real, f"{prefix}_im": value.imag}


def cmd_eval(args) -> dict:
    z = parse_complex(args.z)
    s = parse_complex(args.s)
    policy = TruncationPolicy(lattice_radius=args.radius)
    report = {
        "command": "eval",
        "z": format_complex(z),
        "s": format_complex(s),
        "method": args.method,
    }
    if args.method in ("lattice", "both"):
        lat = eval_lattice_sum(z, s, policy)
    if args.method in ("fourier", "both"):
        fou = eval_fourier(z, s)
    if args.method == "lattice":
        report.update(_complex_fields("value", lat.value))
        report["tail_bound"] = lat.tail_bound
    elif args.method == "fourier":
        report.update(_complex_fields("value", fou.value))
        report["tail_bound"] = fou.tail_bound
    else:
        report.update(_complex_fields("lattice_value", lat.value))
        report["lattice_tail_bound"] = lat.tail_bound
        report.update(_complex_fields("fourier_value", fou.value))
        report["fourier_tail_bound"] = fou.tail_bound
        discrepancy = abs(lat.value - fou.value)
        allowed = lat.tail_bound + fou.tail_bound + _EVAL_ROUNDING * max(1.0, abs(fou.value))
        if not discrepancy <= allowed:
            raise AccuracyError(
                f"lattice and Fourier values of E(z, s) differ by {discrepancy:.3g}, "
                f"beyond their tail bounds and rounding ({allowed:.3g})"
            )
        report["discrepancy"] = discrepancy
    return report


def cmd_fourier(args) -> dict:
    s = parse_complex(args.s)
    policy = TruncationPolicy(lattice_radius=args.radius)
    a_n = fourier_coefficient(args.n, args.y, s)
    report = {
        "command": "fourier",
        "n": args.n,
        "y": args.y,
        "s": format_complex(s),
    }
    report.update(_complex_fields("a_n", a_n))
    if args.extract:
        extracted = _extraction(args.n, args.y, s, policy)
        difference = abs(extracted.value - a_n)
        allowed = extracted.tail_bound + _EVAL_ROUNDING * max(1.0, abs(a_n))
        if not difference <= allowed:
            raise AccuracyError(
                f"closed-form and extracted a_{args.n} differ by {difference:.3g}, "
                f"beyond the extraction's tail bound and rounding ({allowed:.3g})"
            )
        report.update(_complex_fields("extracted", extracted.value))
        report["extraction_difference"] = difference
    return report


def functional_equation_grid() -> tuple[complex, ...]:
    """Canonical 20-point verification grid: sigma in [0.1, 0.9] clear of the
    line sigma = 1/2 by at least 0.1, |t| <= 5."""
    sigmas = (0.1, 0.3, 0.6, 0.75, 0.9)
    ts = (-5.0, -1.5, 2.5, 5.0)
    return tuple(complex(sig, t) for sig in sigmas for t in ts)


def xi_reflection_sample() -> tuple[complex, ...]:
    """Deterministic pseudo-random panel for reflection sweeps: 100 points
    with -1 <= Re s <= 2 and |Im s| <= 10, at distance >= 0.1 from the poles
    {0, 1}.  Outside that band xi_completed takes one side of the reflection
    from the other, so a point there would compare xi with itself."""
    rng = random.Random(712)
    out: list[complex] = []
    while len(out) < 100:
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(-10.0, 10.0))
        if abs(s) >= 0.1 and abs(s - 1.0) >= 0.1:
            out.append(s)
    return tuple(out)


def _grid_points(args) -> list[complex]:
    if args.points:
        return [parse_complex(tok) for tok in args.points.split(",")]
    return list(xi_reflection_sample() if args.check == "xi" else functional_equation_grid())


def _reflection_defect(value: complex, reflected: complex) -> float:
    # |xi(u) - xi(1 - u)| over max(1, |xi(u)|, |xi(1 - u)|): near a pole xi
    # grows like 1/distance, and the rounding of 1 - u grows with it
    return abs(value - reflected) / max(1.0, abs(value), abs(reflected))


def _xi_reflection_defect(u: complex) -> float:
    return _reflection_defect(xi_completed(u), xi_completed(1.0 - u))


# fe-check's --check names and the defect each computes at (z, s);
# eisenstein takes c(s) from the xi values eval_fourier(z, s) leaves in the memo;
# first-coefficient is the xi reflection at the two arguments, 2s - 1 and 2s,
# that matching the n = 1 modes across E(z, s) = c(s) E(z, 1 - s) leaves
_FE_CHECKS = {
    "eisenstein": lambda z, s: abs(eval_fourier(z, s).value - scattering_ratio(s) * eval_fourier(z, 1.0 - s).value),
    "xi": lambda z, s: _xi_reflection_defect(s),
    "first-coefficient": lambda z, s: max(_xi_reflection_defect(2.0 * s - 1.0), _xi_reflection_defect(2.0 * s)),
    "scattering": lambda z, s: abs(scattering_ratio(s) * scattering_ratio(1.0 - s) - 1.0),
}


def cmd_fe_check(args) -> dict:
    z = parse_complex(args.z)
    rows = []
    defects = []
    skipped = 0
    points = _grid_points(args)
    for s in points:
        row = {"s": format_complex(s)}
        try:
            defect = _FE_CHECKS[args.check](z, s)
            row["defect"] = defect
            defects.append(defect)
        except PoleError as exc:
            row["skipped"] = f"{type(exc).__name__}: pole exclusion"
            skipped += 1
        rows.append(row)
    return {
        "command": "fe-check",
        "check": args.check,
        "z": format_complex(z),
        "points": len(points),
        "skipped": skipped,
        "max_defect": max(defects) if defects else None,
        "rows": rows,
    }


def cmd_xi(args) -> dict:
    s = parse_complex(args.s)
    value = xi_completed(s)
    reflected = xi_completed(1.0 - s)
    report = {"command": "xi", "s": format_complex(s)}
    report.update(_complex_fields("xi", value))
    report.update(_complex_fields("xi_reflected", reflected))
    report["reflection_defect"] = _reflection_defect(value, reflected)
    return report


def cmd_euler(args) -> dict:
    # the bookkeeping layers load only for the commands that use them
    from .euler_products import partial_l, read_place_data

    s = parse_complex(args.s)
    data = read_place_data(args.input)
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always", ConvergenceWarning)
        result = partial_l(data, s, args.max_q)
        caught = [str(w.message) for w in log]
    if not data.places:
        caught.append("no places parsed; value is the empty product 1")
    report = {
        "command": "euler",
        "input": str(args.input),
        "s": format_complex(s),
        "max_q": args.max_q,
        "factor_count": result.factor_count,
    }
    report.update(_complex_fields("value", result.value))
    report["tail_bound"] = result.tail_bound
    report["convergence_margin"] = result.margin
    report["warnings"] = caught
    return report


def cmd_decompose(args) -> dict:
    from .root_systems import TABLE_COLUMNS, enumerate_table

    if args.table:
        specs = []
        for token in args.table.split(","):
            token = token.strip()
            letter, rank_text = token[:1], token[1:]
            try:
                specs.append((letter, int(rank_text)))
            except ValueError:
                raise InvalidTypeError(f"bad type token {token!r}; expected e.g. G2") from None
    else:
        if args.cartan_type is None or args.rank is None:
            raise InvalidTypeError("decompose needs TYPE RANK arguments or --table")
        specs = [(args.cartan_type, args.rank)]
    rows = enumerate_table(specs)
    return {
        "command": "decompose",
        "columns": list(TABLE_COLUMNS),
        "rows": [row.as_dict() for row in rows],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eisenkit",
        description="Eisenstein series, completed zeta, Euler products, root-system tables",
    )
    parser.add_argument("--version", action="version", version=f"eisenkit {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--verbose", action="store_true", help="print effective settings to stderr")
    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument(
        "--radius",
        type=int,
        default=TruncationPolicy.lattice_radius,
        help=f"lattice radius, 10 to {_kernels.MAX_RADIUS}",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common, lattice], help="evaluate E(z, s)")
    p_eval.add_argument("--z", required=True, help="half-plane point, e.g. 0.3+1.2i")
    p_eval.add_argument("--s", required=True, help="spectral parameter, e.g. 2.5 or 3+1i")
    p_eval.add_argument("--method", choices=("lattice", "fourier", "both"), default="both")
    p_eval.set_defaults(func=cmd_eval)

    p_fourier = sub.add_parser(
        "fourier", parents=[common, lattice], help="Fourier coefficient a_n(y, s)"
    )
    p_fourier.add_argument("--n", type=int, required=True)
    p_fourier.add_argument("--y", type=float, required=True)
    p_fourier.add_argument("--s", required=True)
    p_fourier.add_argument(
        "--extract", action="store_true", help="also extract a_n by lattice quadrature"
    )
    p_fourier.set_defaults(func=cmd_fourier)

    p_fe = sub.add_parser("fe-check", parents=[common], help="verification sweeps")
    p_fe.add_argument(
        "--check",
        choices=tuple(_FE_CHECKS),
        default="eisenstein",
    )
    p_fe.add_argument("--z", default="0.3+1.4i", help="half-plane point for the eisenstein sweep")
    p_fe.add_argument("--points", default=None, help="comma-separated s values overriding the grid")
    p_fe.set_defaults(func=cmd_fe_check)

    p_xi = sub.add_parser("xi", parents=[common], help="completed zeta at a point")
    p_xi.add_argument("--s", required=True)
    p_xi.set_defaults(func=cmd_xi)

    p_euler = sub.add_parser("euler", parents=[common], help="truncated Euler product from a file")
    p_euler.add_argument("--input", required=True, help="place-data file: q re im re im ...")
    p_euler.add_argument("--s", default="2")
    p_euler.add_argument("--max-q", type=int, default=100000, dest="max_q")
    p_euler.set_defaults(func=cmd_euler)

    p_dec = sub.add_parser("decompose", parents=[common], help="parabolic decomposition table")
    p_dec.add_argument("cartan_type", nargs="?", help="Cartan type letter A..G")
    p_dec.add_argument("rank", nargs="?", type=int)
    p_dec.add_argument("--table", default=None, help="comma-separated types, e.g. A2,G2,F4")
    p_dec.set_defaults(func=cmd_decompose)

    return parser


_COMPLEX_OPTIONS = ("--z", "--s", "--points")


def _join_signed_values(argv: list[str]) -> list[str]:
    """``--z -0.4+0.8i`` -> ``--z=-0.4+0.8i`` for the complex options, whose
    values argparse would otherwise take for an option when they start with -."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _COMPLEX_OPTIONS and token[:1] == "-" and token[:2] != "--":
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else list(argv)))
    if args.verbose:
        _print_defaults(args)
    try:
        report = args.func(args)
    except (PlaceDataError, OSError) as exc:
        _emit_error(exc, args.format)
        return EXIT_DATA
    except (PoleError, AccuracyError, OverflowError) as exc:
        _emit_error(exc, args.format)
        return EXIT_NUMERIC
    except (EisenkitError, ValueError) as exc:
        _emit_error(exc, args.format)
        return EXIT_PRECONDITION
    _emit(report, args.format, sys.stdout)
    return EXIT_OK


def _emit_error(exc: Exception, fmt: str) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if fmt == "json":
        json.dump(record, sys.stderr, indent=2)
        sys.stderr.write("\n")
    else:
        print(f"error [{record['error']}]: {record['message']}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
