"""Command-line frontend.

Every subcommand is a pure function of its arguments: the same arguments
and seed produce byte-identical output.  CSV values carry 17 significant
digits; densities that diverge print as "inf".  Exit codes: 0 ok,
2 usage, 3 domain, 4 infeasible or degenerate input, 5 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings

import numpy as np

from .baselines import (ArnoldParams, LibbyNovickParams, pdf_libby_novick,
                        pdf_three_param, sample_arnold, sample_libby_novick)
from .construction import (AlphaBivariate, AlphaTrivariate, RandomStream,
                           sample_bivariate, sample_trivariate)
from .density import pdf, pdf_grid
from .errors import (ConvergenceError, DegenerateDataError, DomainError,
                     InfeasibleMomentsError)
from .fitting import FitOptions, fit_data
from .moments import correlation, correlation_table, moment_vector

__all__ = ["main"]


# rows per format call: bounds the boxed floats alive at once
_CSV_BLOCK = 1 << 16


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write output file: {exc}") from exc


def _csv_text(header, rows) -> str:
    # one C-level format per block of rows; "%.17g" prints what _fmt prints
    arr = np.asarray(rows, dtype=float).reshape(-1, len(header))
    row_fmt = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    parts = [",".join(header) + "\n"]
    for start in range(0, arr.shape[0], _CSV_BLOCK):
        block = arr[start:start + _CSV_BLOCK]
        parts.append(row_fmt * block.shape[0] % tuple(block.ravel().tolist()))
    return "".join(parts)


def _run_sample(args: argparse.Namespace) -> int:
    stream = RandomStream(args.seed)
    if isinstance(args.alpha, AlphaTrivariate):
        draws = sample_trivariate(args.alpha, args.n, stream)
        header = ("x", "y", "z")
    else:
        draws = sample_bivariate(args.alpha, args.n, stream)
        header = ("x", "y")
    _emit(_csv_text(header, draws), args.output_path)
    return 0


def _run_pdf(args: argparse.Namespace) -> int:
    value = pdf(args.alpha, args.point[0], args.point[1], tol=args.tol)
    _emit(_fmt(value.value) + "\n", args.output_path)
    return 0


def _run_grid(args: argparse.Namespace) -> int:
    grid = pdf_grid(args.alpha, resolution=args.resolution, tol=args.tol)
    _emit(_csv_text(("x", "y", "density"), grid), args.output_path)
    return 0


def _run_moments(args: argparse.Namespace) -> int:
    m = moment_vector(args.alpha)
    payload = {"m10": m.m10, "m01": m.m01, "m20": m.m20, "m02": m.m02, "m11": m.m11}
    _emit(json.dumps(payload, indent=2) + "\n", args.output_path)
    return 0


def _run_corr(args: argparse.Namespace) -> int:
    _emit(_fmt(correlation(args.alpha)) + "\n", args.output_path)
    return 0


def _run_table(args: argparse.Namespace) -> int:
    header = ("a11", "a10", "a01", "corr_a00_10", "corr_a00_5", "corr_a00_2",
              "corr_a00_1", "corr_a00_0.5", "corr_a00_0.1")
    _emit(_csv_text(header, correlation_table()), args.output_path)
    return 0


def _read_pairs(path: str) -> np.ndarray:
    """The ``x`` and ``y`` columns of a CSV file with a header row, as an
    (n, 2) array.  Blank lines are skipped; a ``#`` is data, not a comment."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DomainError("input CSV is empty")
            header = [c.strip().lower() for c in header]
            if "x" not in header or "y" not in header:
                raise DomainError("input CSV must have 'x' and 'y' columns")
            ix, iy = header.index("x"), header.index("y")
            try:
                with warnings.catch_warnings():
                    # a header-only file is reported below, not warned about
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", usecols=(ix, iy), ndmin=2,
                                      comments=None, quotechar='"')
            except ValueError as exc:
                fh.seek(0)
                _raise_bad_row(csv.reader(fh), ix, iy)
                raise DomainError(f"cannot parse input CSV: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read input file: {exc}") from exc
    if data.shape[0] == 0:
        raise DomainError("input CSV has no data rows")
    return data


def _raise_bad_row(rows, ix: int, iy: int) -> None:
    # the first record, header included as record 1, that float() rejects
    next(rows)
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        try:
            float(row[ix]), float(row[iy])
        except (ValueError, IndexError) as exc:
            raise DomainError(f"bad row {lineno} in input CSV: {row!r}") from exc


def _run_fit(args: argparse.Namespace) -> int:
    # built before the file is read, so a bad option is reported first
    options = FitOptions(restarts=args.restarts, max_iterations=args.max_iterations,
                         objective_tolerance=args.objective_tolerance, seed=args.seed)
    data = _read_pairs(args.input_path)
    result = fit_data(data, options, match_third_order=args.match_third_order)
    a = result.alpha_star
    payload = {
        "a11": a.a11, "a10": a.a10, "a01": a.a01, "a00": a.a00,
        "objective_value": result.objective_value,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output_path)
    return 0 if result.converged else 5


def _run_baseline(args: argparse.Namespace) -> int:
    if args.family == "three-param" and args.point is not None:
        value = pdf_three_param(*args.shapes, *args.point)
        _emit(_fmt(value) + "\n", args.output_path)
        return 0
    if args.family == "arnold":
        draws = sample_arnold(ArnoldParams(*args.shapes), args.n, RandomStream(args.seed))
    else:
        # three-param samples as libby-novick at unit rates
        params = LibbyNovickParams(*args.shapes, *(args.rates or ()))
        if args.point is not None:
            _emit(_fmt(pdf_libby_novick(params, *args.point)) + "\n", args.output_path)
            return 0
        draws = sample_libby_novick(params, args.n, RandomStream(args.seed))
    _emit(_csv_text(("x", "y"), draws), args.output_path)
    return 0


def _comma_floats(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValueError("empty component in comma-separated list")
    return tuple(float(p) for p in parts)


def _alpha_arg(text: str) -> tuple:
    vals = _comma_floats(text)
    if len(vals) not in (4, 8):
        raise ValueError("alpha needs 4 components (bivariate) or 8 (trivariate)")
    return vals


def _bivariate_alpha_arg(text: str) -> tuple:
    vals = _comma_floats(text)
    if len(vals) != 4:
        raise ValueError("alpha needs exactly 4 components")
    return vals


def _point_arg(text: str) -> tuple:
    vals = _comma_floats(text)
    if len(vals) != 2:
        raise ValueError("point needs exactly 2 components")
    return vals


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


class _DrawFlag(argparse.Action):
    """Stores a sampling flag and notes that it was given: ``--pdf-at``
    draws nothing, so it refuses ``--n`` and ``--seed``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.draw_flags += (self.option_strings[0],)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bibeta",
        description="Sampling, densities, moments and fitting for the "
                    "shared-component bivariate beta family.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_alpha(p, bivariate_only=False):
        help_text = "comma-separated weights a11,a10,a01,a00"
        if not bivariate_only:
            help_text += " (or 8 values for the trivariate family)"
        p.add_argument("--alpha", type=_bivariate_alpha_arg if bivariate_only else _alpha_arg,
                       required=True, help=help_text)

    def add_draws(p):
        p.add_argument("--n", type=_nonneg_int, default=1000, action=_DrawFlag)
        p.add_argument("--seed", type=int, default=0, action=_DrawFlag)
        p.set_defaults(draw_flags=())

    def add_tol(p):
        p.add_argument("--tol", type=float, default=1e-10)

    def add_common(p, run):
        p.add_argument("--output", dest="output_path", default=None,
                       help="write to this file instead of stdout")
        p.set_defaults(run=run)

    p = sub.add_parser("sample", help="draw pairs (or triples) and emit CSV")
    add_alpha(p)
    add_draws(p)
    add_common(p, _run_sample)

    p = sub.add_parser("pdf", help="density at a single point")
    add_alpha(p, bivariate_only=True)
    p.add_argument("--point", type=_point_arg, required=True, help="x,y")
    add_tol(p)
    add_common(p, _run_pdf)

    p = sub.add_parser("grid", help="density on a regular grid, as CSV")
    add_alpha(p, bivariate_only=True)
    p.add_argument("--resolution", type=_nonneg_int, default=100)
    add_tol(p)
    add_common(p, _run_grid)

    p = sub.add_parser("moments", help="exact moment vector as JSON")
    add_alpha(p, bivariate_only=True)
    add_common(p, _run_moments)

    p = sub.add_parser("corr", help="exact correlation coefficient")
    add_alpha(p, bivariate_only=True)
    add_common(p, _run_corr)

    p = sub.add_parser("table", help="correlation table over the standard grid")
    add_common(p, _run_table)

    p = sub.add_parser("fit", help="moment-matching fit from a CSV of x,y pairs")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--restarts", type=_positive_int, default=8,
                   help="cap on Levenberg-Marquardt starts; a jittered restart "
                        "runs only after every start so far failed to converge")
    p.add_argument("--max-iterations", type=_positive_int, default=4000)
    p.add_argument("--objective-tolerance", type=float, default=1e-13,
                   help="a start converges once a step lowers the objective "
                        "by at most this fraction of its value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--match-third-order", action="store_true")
    add_common(p, _run_fit)

    p = sub.add_parser("baseline", help="comparison families: sample or density")
    p.add_argument("--family", required=True,
                   choices=("libby-novick", "three-param", "arnold"))
    p.add_argument("--shapes", type=_comma_floats, required=True,
                   help="3 shape parameters (5 for arnold)")
    p.add_argument("--rates", type=_comma_floats, default=None,
                   help="3 rate parameters (libby-novick only)")
    add_draws(p)
    p.add_argument("--pdf-at", dest="point", type=_point_arg, default=None,
                   help="evaluate the density at x,y instead of sampling")
    add_common(p, _run_baseline)

    return parser


def _check_usage(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Usage errors found after parsing: the rules that span flags, and
    ``--resolution`` below 2."""
    if args.subcommand == "grid" and args.resolution < 2:
        parser.error("--resolution must be >= 2")
    if args.subcommand != "baseline":
        return
    family = args.family
    want = 5 if family == "arnold" else 3
    if len(args.shapes) != want:
        parser.error(f"--shapes for {family} needs {want} values")
    if args.rates is not None:
        if family != "libby-novick":
            parser.error("--rates applies only to the libby-novick family")
        if len(args.rates) != 3:
            parser.error("--rates needs 3 values")
    if args.point is not None:
        if family == "arnold":
            parser.error("the arnold family has no closed-form density; "
                         "--pdf-at is not supported")
        if args.draw_flags:
            parser.error(f"{args.draw_flags[0]} does not combine with --pdf-at")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "alpha" in args:
            # built here, not in the flag's ``type``: argparse would turn the
            # DomainError, a ValueError, into a usage error
            args.alpha = (AlphaBivariate(*args.alpha) if len(args.alpha) == 4
                          else AlphaTrivariate(*args.alpha))
        _check_usage(parser, args)
        return args.run(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except (InfeasibleMomentsError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
