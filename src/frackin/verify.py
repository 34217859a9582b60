"""Residual checks that decide which solution mode solves the equation.

A candidate N is substituted back into
N(t) - N0*f(t) + relax^v * (I^v N)(t) = 0 on a grid, with the memory
integral I^v evaluated by product quadrature.  The residual's maximum
magnitude, compared against a tolerance relative to the forcing scale,
and its behaviour under grid refinement, drive the adjudication between
the STATED and CORRECTED series modes.  A structurally wrong candidate
leaves a residual that stalls under refinement; a correct one leaves only
quadrature error, which shrinks.

One loop, `_reports`, serves `residual`, `adjudicate` and
`haubold_residual`.  It substitutes any candidate, given in parts: a
builder of each mode's series and N0*f as a function of the times.
`kinetic` supplies what the loop reads off a problem and a series: the
series, the forcing (`KineticProblem.forcing`; the baseline's is the
constant N0), the rate and order of the memory term, which each series
carries (`SolutionSeries.rate` and `ml_alpha`), and the series' limit
at t -> 0+ (`SolutionSeries.origin_value`), the quadrature's origin
sample.

The loop does each piece of work once: it builds each mode's series
once, and sums it and the forcing once, on the refined grid.
`Grid.refine()` keeps every point of the grid, bit for bit, at its odd
indices, so the grid's values are every other entry of the refined
ones.  Each grid's values are still certified at that grid's own scale,
the grid first, so the errors raised are those of `residual` called
grid by grid.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, GridTooCoarse
from .fractional_ops import Grid, rl_profile
from .kinetic import (
    KineticProblem,
    SolutionMode,
    _certified,
    _series_sums,
    build_solution,
    haubold_series,
)

__all__ = [
    "Adjudication",
    "ResidualReport",
    "AdjudicationResult",
    "residual",
    "adjudicate",
    "haubold_residual",
    "DEFAULT_T_CAP",
]

DEFAULT_T_CAP = 5.0
_NOISE_FLOOR = 1e-12
_SHRINK = 0.9


class Adjudication(enum.Enum):
    """Outcome of the two-mode residual comparison."""

    STATED_PASSES = "stated_passes"
    CORRECTED_PASSES = "corrected_passes"
    BOTH_PASS = "both_pass"
    NEITHER_PASS = "neither_pass"


@dataclass(frozen=True)
class ResidualReport:
    """Residual of one candidate on one grid.

    `scale` is the maximum magnitude of the forcing term N0*f over the
    grid; tolerances elsewhere are relative to it.  `adjudication` stays
    None until an adjudication pass fills it in.
    """

    problem_summary: dict
    mode: SolutionMode
    grid: Grid
    residual: np.ndarray
    max_abs: float
    scale: float
    adjudication: Adjudication | None = None


@dataclass(frozen=True)
class AdjudicationResult:
    """Verdict plus the four reports (each mode, base and refined grid)."""

    verdict: Adjudication
    stated: ResidualReport
    corrected: ResidualReport
    stated_refined: ResidualReport
    corrected_refined: ResidualReport


def _candidate(problem: KineticProblem, grid: Grid):
    """The parts `_reports` substitutes for a kinetic problem on the grid."""
    if not isinstance(problem, KineticProblem):
        raise DomainError("residual expects a KineticProblem")
    if not isinstance(grid, Grid):
        raise DomainError("residual expects a Grid")
    spec = problem.forcing_spec
    summary = {
        "lam": spec.lam,
        "alpha": spec.alpha,
        "mu": spec.mu,
        "order": spec.order,
        "sigma": spec.sigma,
        "forcing_argument": problem.forcing_argument.value,
        "v": problem.v,
        "d": problem.d,
        "relax": problem.relax,
        "n0": problem.n0,
    }
    return (lambda mode: build_solution(problem, mode, t_max=grid.points[-1]),
            problem.forcing, summary)


def _reports(grid: Grid, modes: tuple[SolutionMode, ...], build, forcing,
             summary: dict, *, refined: bool = False, tol_rel: float,
             warn: bool, t_cap: float = math.inf) -> list[ResidualReport]:
    """Residual report of each mode on the grid, then, when `refined`, of
    each mode on `grid.refine()`.

    The candidate comes in parts: `build(mode)` makes a mode's series,
    whose `rate` and `ml_alpha` are the relax and v of the memory term
    relax^v * I^v N, and `forcing(ts)` gives N0*f at an array of times.
    The reports are those of one call per grid and mode, with each piece
    of work done once (see the module docstring): each series is built
    once and summed on the finest grid, as is the forcing, and the grid
    takes every other entry.  Each grid's sums are certified at that
    grid's own scale, in the order one call per grid and mode would
    raise.
    """
    if not 0.0 < tol_rel < math.inf:
        raise DomainError(
            f"residual tolerance must be positive and finite, got {tol_rel!r}"
        )
    if grid.points[-1] > t_cap:
        raise DomainError(
            f"grid extends to t={grid.points[-1]!r}, beyond the residual "
            f"window cap {t_cap!r}"
        )
    grids = (grid, grid.refine()) if refined else (grid,)
    ts = grids[-1].array
    levels = (slice(1, None, 2), slice(None)) if refined else (slice(None),)
    sols, sums = {}, {}
    n0f = None
    reports = []
    for g, level in zip(grids, levels):
        for mode in modes:
            if mode not in sols:
                sols[mode] = build(mode)
                sums[mode] = _series_sums(sols[mode], ts)
            sol = sols[mode]
            values = _certified(sol, ts[level], *(a[level] for a in sums[mode]))
            if n0f is None:
                n0f = forcing(ts)
            f = n0f[level]
            origin = sol.origin_value()
            memory = rl_profile(g, np.concatenate(([origin], values)), sol.ml_alpha)
            res = values - f + sol.rate ** sol.ml_alpha * memory
            scale = float(np.max(np.abs(f)))
            reports.append(ResidualReport(
                problem_summary=summary, mode=mode, grid=g, residual=res,
                max_abs=float(np.max(np.abs(res))), scale=scale))
            if warn and g.n >= 8:
                # Richardson check of the quadrature alone: same samples on
                # the half-resolution subgrid, compared at the shared points.
                coarse = Grid(g.array[1::2])
                coarse_samples = np.concatenate(([origin], values[1::2]))
                coarse_memory = rl_profile(coarse, coarse_samples, sol.ml_alpha)
                est = float(np.max(np.abs(memory[1::2] - coarse_memory))) / 3.0
                est *= sol.rate ** sol.ml_alpha
                if est > 0.5 * tol_rel * max(scale, 1e-300):
                    warnings.warn(
                        f"quadrature error estimate {est:.3e} exceeds half the "
                        f"residual tolerance {tol_rel * scale:.3e}; refine the grid",
                        GridTooCoarse,
                        # the caller of residual or haubold_residual
                        stacklevel=3,
                    )
    return reports


def residual(
    problem: KineticProblem,
    mode: SolutionMode,
    grid: Grid,
    *,
    tol_rel: float = 1e-4,
    warn: bool = True,
) -> ResidualReport:
    """Substitute the mode's series into the equation on the grid."""
    (report,) = _reports(grid, (mode,), *_candidate(problem, grid),
                         tol_rel=tol_rel, warn=warn, t_cap=DEFAULT_T_CAP)
    return report


def _mode_passes(base: ResidualReport, refined: ResidualReport, tol_rel: float) -> bool:
    tol = tol_rel * base.scale
    if base.max_abs > tol:
        return False
    if base.max_abs <= _NOISE_FLOOR * max(base.scale, 1.0):
        return True
    return refined.max_abs <= _SHRINK * base.max_abs


def adjudicate(
    problem: KineticProblem,
    grid: Grid,
    *,
    tol_rel: float = 1e-4,
) -> AdjudicationResult:
    """Decide which mode solves the equation on this grid.

    A mode passes when its residual is within tol_rel of the forcing
    scale and shrinks under one grid refinement (unless already at the
    noise floor, where shrinkage is not measurable).
    """
    stated, corrected, stated_fine, corrected_fine = reports = _reports(
        grid, (SolutionMode.STATED, SolutionMode.CORRECTED),
        *_candidate(problem, grid), refined=True, tol_rel=tol_rel, warn=False,
        t_cap=DEFAULT_T_CAP)

    stated_ok = _mode_passes(stated, stated_fine, tol_rel)
    corrected_ok = _mode_passes(corrected, corrected_fine, tol_rel)
    if stated_ok and corrected_ok:
        verdict = Adjudication.BOTH_PASS
    elif stated_ok:
        verdict = Adjudication.STATED_PASSES
    elif corrected_ok:
        verdict = Adjudication.CORRECTED_PASSES
    else:
        verdict = Adjudication.NEITHER_PASS
    # the reports come in the order of AdjudicationResult's fields
    return AdjudicationResult(
        verdict, *(replace(report, adjudication=verdict) for report in reports))


def haubold_residual(
    c: float,
    v: float,
    grid: Grid,
    *,
    n0: float = 1.0,
    tol_rel: float = 1e-5,
    warn: bool = True,
) -> ResidualReport:
    """Residual of the pure-relaxation baseline, whose forcing is constant.

    The candidate N0 * E_{v,1}(-(c t)^v) is substituted into
    N(t) - N0 + c^v * (I^v N)(t) = 0.
    """
    if not isinstance(grid, Grid):
        raise DomainError("haubold_residual expects a Grid")
    c, v, n0 = float(c), float(v), float(n0)
    summary = {"forcing_argument": "constant", "v": v, "relax": c, "n0": n0}
    (report,) = _reports(grid, (SolutionMode.CORRECTED,),
                         lambda mode: haubold_series(c, v, n0),
                         lambda ts: np.full(ts.shape, n0), summary,
                         tol_rel=tol_rel, warn=warn)
    return report
