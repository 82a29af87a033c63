"""Command-line frontend.

Every subcommand is a pure function of its arguments: the same spec and
seed produce byte-identical output.  CSV values carry 17 significant
digits; densities that diverge print as "inf".  Exit codes: 0 ok,
2 usage, 3 domain, 4 infeasible or degenerate input, 5 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import dataclass

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

__all__ = ["CommandSpec", "run", "main"]


@dataclass(frozen=True)
class CommandSpec:
    subcommand: str
    alpha: AlphaBivariate | AlphaTrivariate | None = None
    n: int = 0
    seed: int = 0
    tol: float = 1e-10
    resolution: int = 100
    input_path: str | None = None
    output_path: str | None = None
    family: str | None = None
    shapes: tuple | None = None
    rates: tuple | None = None
    point: tuple | None = None
    fit_options: FitOptions | None = None
    match_third_order: bool = False


# rows per format call: bounds the boxed floats alive at once
_CSV_BLOCK = 1 << 16


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header, rows) -> str:
    # one C-level format per block of rows; "%.17g" prints what _fmt prints
    arr = np.asarray(rows, dtype=float).reshape(-1, len(header))
    row_fmt = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    parts = [",".join(header) + "\n"]
    for start in range(0, arr.shape[0], _CSV_BLOCK):
        block = arr[start:start + _CSV_BLOCK]
        parts.append(row_fmt * block.shape[0] % tuple(block.ravel().tolist()))
    return "".join(parts)


def _run_sample(spec: CommandSpec) -> int:
    stream = RandomStream(spec.seed)
    if isinstance(spec.alpha, AlphaTrivariate):
        draws = sample_trivariate(spec.alpha, spec.n, stream)
        header = ("x", "y", "z")
    else:
        draws = sample_bivariate(spec.alpha, spec.n, stream)
        header = ("x", "y")
    _emit(_csv_text(header, draws), spec.output_path)
    return 0


def _run_pdf(spec: CommandSpec) -> int:
    value = pdf(spec.alpha, spec.point[0], spec.point[1], tol=spec.tol)
    _emit(_fmt(value.value) + "\n", spec.output_path)
    return 0


def _run_grid(spec: CommandSpec) -> int:
    grid = pdf_grid(spec.alpha, resolution=spec.resolution, tol=spec.tol)
    _emit(_csv_text(("x", "y", "density"), grid), spec.output_path)
    return 0


def _run_moments(spec: CommandSpec) -> int:
    m = moment_vector(spec.alpha)
    payload = {"m10": m.m10, "m01": m.m01, "m20": m.m20, "m02": m.m02, "m11": m.m11}
    _emit(json.dumps(payload, indent=2) + "\n", spec.output_path)
    return 0


def _run_corr(spec: CommandSpec) -> int:
    _emit(_fmt(correlation(spec.alpha)) + "\n", spec.output_path)
    return 0


def _run_table(spec: CommandSpec) -> int:
    header = ("a11", "a10", "a01", "corr_a00_10", "corr_a00_5", "corr_a00_2",
              "corr_a00_1", "corr_a00_0.5", "corr_a00_0.1")
    _emit(_csv_text(header, correlation_table()), spec.output_path)
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


def _run_fit(spec: CommandSpec) -> int:
    data = _read_pairs(spec.input_path)
    result = fit_data(data, spec.fit_options,
                      match_third_order=spec.match_third_order)
    a = result.alpha_star
    payload = {
        "a11": a.a11, "a10": a.a10, "a01": a.a01, "a00": a.a00,
        "objective_value": result.objective_value,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
    }
    _emit(json.dumps(payload, indent=2) + "\n", spec.output_path)
    return 0 if result.converged else 5


def _run_baseline(spec: CommandSpec) -> int:
    if spec.family == "arnold":
        params = ArnoldParams(*spec.shapes)
        draws = sample_arnold(params, spec.n, RandomStream(spec.seed))
        _emit(_csv_text(("x", "y"), draws), spec.output_path)
        return 0
    if spec.family == "three-param":
        a0, a1, a2 = spec.shapes
        if spec.point is not None:
            value = pdf_three_param(a0, a1, a2, spec.point[0], spec.point[1])
            _emit(_fmt(value) + "\n", spec.output_path)
            return 0
        params = LibbyNovickParams(a0, a1, a2)
        draws = sample_libby_novick(params, spec.n, RandomStream(spec.seed))
        _emit(_csv_text(("x", "y"), draws), spec.output_path)
        return 0
    rates = spec.rates if spec.rates is not None else (1.0, 1.0, 1.0)
    params = LibbyNovickParams(*spec.shapes, *rates)
    if spec.point is not None:
        value = pdf_libby_novick(params, spec.point[0], spec.point[1])
        _emit(_fmt(value) + "\n", spec.output_path)
        return 0
    draws = sample_libby_novick(params, spec.n, RandomStream(spec.seed))
    _emit(_csv_text(("x", "y"), draws), spec.output_path)
    return 0


_RUNNERS = {
    "sample": _run_sample,
    "pdf": _run_pdf,
    "grid": _run_grid,
    "moments": _run_moments,
    "corr": _run_corr,
    "table": _run_table,
    "fit": _run_fit,
    "baseline": _run_baseline,
}


def run(spec: CommandSpec) -> int:
    """Execute a validated spec; returns the process exit status."""
    if spec.subcommand not in _RUNNERS:
        raise DomainError(f"unknown subcommand {spec.subcommand!r}")
    return _RUNNERS[spec.subcommand](spec)


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

    def add_common(p):
        p.add_argument("--output", dest="output_path", default=None,
                       help="write to this file instead of stdout")

    p = sub.add_parser("sample", help="draw pairs (or triples) and emit CSV")
    add_alpha(p)
    p.add_argument("--n", type=_nonneg_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)

    p = sub.add_parser("pdf", help="density at a single point")
    add_alpha(p, bivariate_only=True)
    p.add_argument("--point", type=_point_arg, required=True, help="x,y")
    p.add_argument("--tol", type=float, default=1e-10)
    add_common(p)

    p = sub.add_parser("grid", help="density on a regular grid, as CSV")
    add_alpha(p, bivariate_only=True)
    p.add_argument("--resolution", type=_nonneg_int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)
    add_common(p)

    p = sub.add_parser("moments", help="exact moment vector as JSON")
    add_alpha(p, bivariate_only=True)
    add_common(p)

    p = sub.add_parser("corr", help="exact correlation coefficient")
    add_alpha(p, bivariate_only=True)
    add_common(p)

    p = sub.add_parser("table", help="correlation table over the standard grid")
    add_common(p)

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
    add_common(p)

    p = sub.add_parser("baseline", help="comparison families: sample or density")
    p.add_argument("--family", required=True,
                   choices=("libby-novick", "three-param", "arnold"))
    p.add_argument("--shapes", type=_comma_floats, required=True,
                   help="3 shape parameters (5 for arnold)")
    p.add_argument("--rates", type=_comma_floats, default=None,
                   help="3 rate parameters (libby-novick only)")
    p.add_argument("--n", type=_nonneg_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pdf-at", dest="point", type=_point_arg, default=None,
                   help="evaluate the density at x,y instead of sampling")
    add_common(p)

    return parser


def _spec_from_args(parser, args) -> CommandSpec:
    kwargs = {"subcommand": args.subcommand,
              "output_path": getattr(args, "output_path", None)}

    alpha_vals = getattr(args, "alpha", None)
    if alpha_vals is not None:
        kwargs["alpha"] = (AlphaBivariate(*alpha_vals) if len(alpha_vals) == 4
                           else AlphaTrivariate(*alpha_vals))

    if args.subcommand == "sample":
        kwargs.update(n=args.n, seed=args.seed)
    elif args.subcommand == "pdf":
        kwargs.update(point=args.point, tol=args.tol)
    elif args.subcommand == "grid":
        if args.resolution < 2:
            parser.error("--resolution must be >= 2")
        kwargs.update(resolution=args.resolution, tol=args.tol)
    elif args.subcommand == "fit":
        kwargs.update(input_path=args.input_path,
                      match_third_order=args.match_third_order,
                      fit_options=FitOptions(restarts=args.restarts,
                                             max_iterations=args.max_iterations,
                                             objective_tolerance=args.objective_tolerance,
                                             seed=args.seed))
    elif args.subcommand == "baseline":
        family = args.family
        want = 5 if family == "arnold" else 3
        if len(args.shapes) != want:
            parser.error(f"--shapes for {family} needs {want} values")
        if args.rates is not None:
            if family != "libby-novick":
                parser.error("--rates applies only to the libby-novick family")
            if len(args.rates) != 3:
                parser.error("--rates needs 3 values")
        if args.point is not None and family == "arnold":
            parser.error("the arnold family has no closed-form density; "
                         "--pdf-at is not supported")
        kwargs.update(family=family, shapes=args.shapes, rates=args.rates,
                      n=args.n, seed=args.seed, point=args.point)

    return CommandSpec(**kwargs)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        spec = _spec_from_args(parser, args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except (InfeasibleMomentsError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        return run(spec)
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
