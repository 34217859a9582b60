"""Command-line front end: evaluate functions, build solutions, verify.

Every subcommand prints a table, CSV by default or a JSON object with
`meta`, `rows`, and `summary` keys.  `_emit` turns the columns it is
handed into Python floats once, printed in their shortest round-trip
form, so identical invocations produce byte-identical output.  The
parser is built once per process.  `_problem` turns `--theorem`, or
`--corollary`/`--id`, into the KineticProblem of `solve`, `corollary`
and `verify`.  Exit codes: 0 success, 2 argument parse error, 3 domain
or convergence failure or an `--output` that cannot be written, 4 when
`verify --expect` names a mode the adjudication did not pass.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import FrackinError
from .fractional_ops import Grid
from .kinetic import (
    Forcing,
    KineticProblem,
    SolutionMode,
    _family_problem,
    build_solution,
    corollary_params,
    eval_solution_grid,
    haubold_series,
)
from .special_functions import SeriesSpec, generalized_struve, mittag_leffler
from .verify import Adjudication, adjudicate

__all__ = ["main"]


def _emit(args, meta: dict, header: list[str], columns, summary: dict) -> None:
    rows = list(zip(*(np.asarray(c, float).tolist() for c in columns)))
    if args.format == "json":
        payload = {"meta": {**meta, "columns": header}, "rows": rows,
                   "summary": summary}
        text = json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(map(repr, row)) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FrackinError(f"cannot write {args.output}: {exc.strerror}")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", default="-", metavar="PATH",
                   help="output file, '-' for standard output (default)")


def _add_grid_flags(p: argparse.ArgumentParser, default_n: int) -> None:
    p.add_argument("--tmin", type=float, default=0.01,
                   help="first grid point (default 0.01)")
    p.add_argument("--tmax", type=float, default=2.0,
                   help="last grid point (default 2.0)")
    p.add_argument("--n", type=int, default=default_n,
                   help=f"number of grid points (default {default_n})")
    p.add_argument("--spacing", choices=("uniform", "log"), default="uniform",
                   help="grid spacing (default uniform)")


def _add_series_flags(p: argparse.ArgumentParser, templates: bool = False) -> None:
    # verify and corollary also serve the specialized templates, which fix
    # most parameters themselves: there the order has a default, and --mu
    # is the scaled-offset divisor of families 10-12
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="first gamma slope of the forcing series (default 1)")
    p.add_argument("--alpha-p", dest="alpha_p", type=float, default=1.0,
                   help="second gamma slope of the forcing series (default 1); "
                        "distinct from the Mittag-Leffler alpha")
    p.add_argument("--mu", type=float, default=None,
                   help="offset of the alpha-slope gamma (default 3/2)"
                        + ("; for specialized families 10-12 this is instead "
                           "the scaled-offset divisor" if templates else ""))
    order = (dict(default=1.0, help="series order l (default 1)") if templates
             else dict(required=True, help="series order l (required)"))
    p.add_argument("--l", dest="order", type=float, **order)
    p.add_argument("--sigma", type=float, default=None,
                   help="offset of the lambda-slope gamma (default l + 3/2)")


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=float, default=1.0,
                   help="forcing time-scale rate (default 1)")
    p.add_argument("--relax", type=float, default=None,
                   help="relaxation rate when distinct from --d "
                        "(family 3 only)")
    p.add_argument("--v", type=float, required=True,
                   help="fractional integral order, in (0, 2] (required)")
    p.add_argument("--n0", type=float, default=1.0,
                   help="initial number density (default 1)")


def _add_table_parser(sub, name: str, command_help: str, selector: str, *,
                      templates: bool = False, **family) -> None:
    """`solve` or `corollary`: the family flag `selector`, made with the
    keywords `family`, then the same flags, all run by `_cmd_table`."""
    p = sub.add_parser(name, help=command_help)
    p.add_argument(selector, type=int, required=True, **family)
    _add_series_flags(p, templates)
    _add_problem_flags(p)
    p.add_argument("--mode", choices=("stated", "corrected"),
                   default="corrected",
                   help="series convention to evaluate (default corrected)")
    _add_grid_flags(p, default_n=200)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_table)


def _make_grid(args) -> Grid:
    if args.spacing == "log":
        return Grid.log(args.tmin, args.tmax, args.n)
    return Grid.uniform(args.tmin, args.tmax, args.n)


def _make_spec(args) -> SeriesSpec:
    mu = 1.5 if args.mu is None else args.mu
    return SeriesSpec(lam=args.lam, alpha=args.alpha_p, mu=mu,
                      order=args.order, sigma=args.sigma)


def _spec_params(spec: SeriesSpec) -> dict:
    """The series parameters of a table's meta, by their flag names."""
    return {"lambda": spec.lam, "alpha_p": spec.alpha, "mu": spec.mu,
            "l": spec.order, "sigma": spec.sigma}


def _problem(args) -> tuple[KineticProblem, dict]:
    """The kinetic problem the arguments name, with its meta entry.

    `--theorem` builds a general family from the series flags; `--corollary`
    or `--id` hands every flag to the specialized template, which ignores
    those its family fixes.
    """
    key = next(name for name in ("theorem", "corollary", "id")
               if getattr(args, name, None) is not None)
    ident = getattr(args, key)
    if key != "theorem":
        # here --mu is the scaled-offset divisor (default 1), not the
        # series offset
        problem = corollary_params(ident).make_problem(
            order=args.order, v=args.v, d=args.d, n0=args.n0, relax=args.relax,
            lam=args.lam, alpha=args.alpha_p,
            mu=1.0 if args.mu is None else args.mu)
        return problem, {key: ident}
    # unlike the templates, family 3 has no default rate here
    if ident == 3 and args.relax is None:
        raise FrackinError("family 3 requires --relax distinct from --d")
    problem = _family_problem(
        ident, _make_spec(args), Forcing.PLAIN if ident == 1 else Forcing.POWERED,
        ident == 3, v=args.v, d=args.d, relax=args.relax, n0=args.n0)
    return problem, {key: ident}


def _cmd_eval_struve(args) -> int:
    spec = _make_spec(args)
    values = [generalized_struve(spec, z) for z in args.z]
    meta = {"command": "eval-struve", "params": _spec_params(spec)}
    _emit(args, meta, ["z", "value"], (args.z, values), {"n": len(values)})
    return 0


def _cmd_eval_mlf(args) -> int:
    values = [mittag_leffler(args.alpha, args.beta, z) for z in args.z]
    meta = {"command": "eval-mlf",
            "params": {"alpha": args.alpha, "beta": args.beta}}
    _emit(args, meta, ["z", "value"], (args.z, values), {"n": len(values)})
    return 0


def _table(args, meta: dict, grid: Grid, sol, summary: dict) -> int:
    values = eval_solution_grid(sol, grid.array)
    summary["n"] = len(values)
    _emit(args, meta, ["t", "value"], (grid.points, values), summary)
    return 0


def _cmd_table(args) -> int:
    problem, source = _problem(args)
    grid = _make_grid(args)
    mode = SolutionMode(args.mode)
    sol = build_solution(problem, mode, t_max=grid.points[-1])
    params = {**_spec_params(problem.forcing_spec), "d": args.d,
              "relax": problem.relax, "v": args.v, "n0": args.n0, **source}
    return _table(args, {"command": args.subcommand, "params": params}, grid,
                  sol, {"mode": mode.value, "truncation_k": sol.truncation_k})


def _cmd_haubold(args) -> int:
    sol = haubold_series(args.c, args.v, args.n0)
    meta = {"command": "haubold",
            "params": {"c": args.c, "v": args.v, "n0": args.n0}}
    return _table(args, meta, _make_grid(args), sol, {})


def _cmd_verify(args) -> int:
    problem, source = _problem(args)
    grid = _make_grid(args)
    result = adjudicate(problem, grid, tol_rel=args.tol)
    passing = []
    if result.verdict in (Adjudication.STATED_PASSES, Adjudication.BOTH_PASS):
        passing.append("stated")
    if result.verdict in (Adjudication.CORRECTED_PASSES,
                          Adjudication.BOTH_PASS):
        passing.append("corrected")
    meta = {"command": "verify",
            "params": {**result.stated.problem_summary, **source}}
    summary = {
        "adjudication": result.verdict.value,
        "passing": passing,
        "tol_rel": args.tol,
        "scale": result.stated.scale,
        "stated": {"max_abs": result.stated.max_abs,
                   "max_abs_refined": result.stated_refined.max_abs},
        "corrected": {"max_abs": result.corrected.max_abs,
                      "max_abs_refined": result.corrected_refined.max_abs},
    }
    _emit(args, meta, ["t", "residual_stated", "residual_corrected"],
          (grid.points, result.stated.residual, result.corrected.residual),
          summary)
    if args.expect is not None and args.expect not in passing:
        print(f"verify: expected mode '{args.expect}' did not pass "
              f"(verdict: {result.verdict.value})", file=sys.stderr)
        return 4
    return 0


@functools.cache  # parse_args reads the parser and never changes it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frackin",
        description="Struve-type series, Mittag-Leffler functions, and "
                    "fractional kinetic equation solutions with residual "
                    "verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval-struve",
                       help="evaluate the generalized Struve series")
    _add_series_flags(p)
    p.add_argument("--z", type=float, nargs="+", required=True,
                   help="evaluation points, z >= 0")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_eval_struve)

    p = sub.add_parser("eval-mlf",
                       help="evaluate the Mittag-Leffler function")
    p.add_argument("--alpha", type=float, required=True,
                   help="first index, > 0")
    p.add_argument("--beta", type=float, required=True, help="second index")
    p.add_argument("--z", type=float, nargs="+", required=True,
                   help="evaluation points, |z| <= 100")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_eval_mlf)

    _add_table_parser(sub, "solve", "tabulate a kinetic-equation solution series",
                      "--theorem", choices=(1, 2, 3),
                      help="solution family: 1 plain-time forcing, 2 "
                           "powered-time, 3 powered-time with distinct "
                           "relaxation rate")

    p = sub.add_parser("verify",
                       help="residual-adjudicate both series conventions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--theorem", type=int, choices=(1, 2, 3),
                       help="solution family to verify")
    group.add_argument("--corollary", type=int, choices=range(1, 13),
                       metavar="{1..12}", help="specialized family to verify")
    _add_series_flags(p, templates=True)
    _add_problem_flags(p)
    p.add_argument("--tol", type=float, default=1e-4,
                   help="relative residual tolerance (default 1e-4)")
    p.add_argument("--expect", choices=("stated", "corrected"), default=None,
                   help="exit 4 unless this mode passes")
    _add_grid_flags(p, default_n=2048)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    _add_table_parser(sub, "corollary",
                      "tabulate one of the twelve specialized series", "--id",
                      templates=True, choices=range(1, 13), metavar="{1..12}",
                      help="specialized family id")

    p = sub.add_parser("haubold",
                       help="tabulate the pure-relaxation baseline")
    p.add_argument("--c", type=float, required=True,
                   help="relaxation rate, > 0")
    p.add_argument("--v", type=float, required=True,
                   help="fractional order, in (0, 2]")
    p.add_argument("--n0", type=float, default=1.0,
                   help="initial number density (default 1)")
    _add_grid_flags(p, default_n=200)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_haubold)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FrackinError as exc:
        print(f"frackin: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
