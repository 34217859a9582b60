"""Residual checks that decide which solution mode solves the equation.

A candidate N is substituted back into
N(t) - N0*f(t) + relax^v * (I^v N)(t) = 0 on a grid, with the memory
integral I^v evaluated by product quadrature.  The residual's maximum
magnitude, compared against a tolerance relative to the forcing scale,
and its behaviour under grid refinement, drive the adjudication between
the STATED and CORRECTED series modes.  A structurally wrong candidate
leaves a residual that stalls under refinement; a correct one leaves only
quadrature error, which shrinks.

`adjudicate` does each piece of that work once: it builds each mode's
series once, and sums it and the forcing once, on the refined grid.
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
    Forcing,
    KineticProblem,
    SolutionMode,
    SolutionSeries,
    _certified,
    _series_sums,
    build_solution,
    eval_solution_grid,
    haubold_series,
)
from .special_functions import generalized_struve_grid, reciprocal_gamma

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


def _problem_summary(problem: KineticProblem) -> dict:
    spec = problem.forcing_spec
    return {
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


def _forcing_values(problem: KineticProblem, ts: np.ndarray) -> np.ndarray:
    spec = problem.forcing_spec
    if problem.forcing_argument is Forcing.PLAIN:
        zs = ts
    else:
        zs = (problem.d * ts) ** problem.v
    return problem.n0 * generalized_struve_grid(spec, zs)


def _check_tol(tol_rel: float) -> None:
    if not abs(tol_rel) < math.inf:
        raise DomainError(f"residual tolerance must be finite, got {tol_rel!r}")


def _origin_value(sol: SolutionSeries) -> float:
    """Limit of the series at t -> 0+, used as the quadrature origin sample.

    Positive powers vanish, zero powers contribute coeff / Gamma(beta).
    A negative power diverges; the origin sample is then pinned to 0.0,
    a convention whose first-panel quadrature error vanishes under grid
    refinement because the integrand stays integrable.
    """
    value = 0.0
    for term in sol.terms:
        if term.power == 0.0:
            value += term.coeff * reciprocal_gamma(term.ml_beta)
    return value


def _residual_core(
    values: np.ndarray,
    origin: float,
    forcing: np.ndarray,
    relax: float,
    v: float,
    grid: Grid,
    summary: dict,
    mode: SolutionMode,
    tol_rel: float,
    warn: bool,
    stacklevel: int = 3,
) -> ResidualReport:
    samples = np.concatenate(([origin], values))
    memory = rl_profile(grid, samples, v)
    res = values - forcing + relax ** v * memory
    scale = float(np.max(np.abs(forcing))) if forcing.size else 0.0
    report = ResidualReport(
        problem_summary=summary,
        mode=mode,
        grid=grid,
        residual=res,
        max_abs=float(np.max(np.abs(res))),
        scale=scale,
    )
    if warn and grid.n >= 8:
        # Richardson check of the quadrature alone: same samples on the
        # half-resolution subgrid, compared at the shared points.
        coarse_points = grid.array[1::2]
        coarse = Grid(tuple(coarse_points))
        coarse_samples = np.concatenate(([origin], values[1::2]))
        coarse_memory = rl_profile(coarse, coarse_samples, v)
        est = float(np.max(np.abs(memory[1::2] - coarse_memory))) / 3.0
        est *= relax ** v
        if est > 0.5 * tol_rel * max(scale, 1e-300):
            warnings.warn(
                f"quadrature error estimate {est:.3e} exceeds half the "
                f"residual tolerance {tol_rel * scale:.3e}; refine the grid",
                GridTooCoarse,
                stacklevel=stacklevel,
            )
    return report


def _reports(
    problem: KineticProblem,
    grid: Grid,
    modes: tuple[SolutionMode, ...],
    *,
    refined: bool,
    tol_rel: float,
    warn: bool,
) -> list[ResidualReport]:
    """Residual report of each mode on the grid, then, when `refined`, of
    each mode on `grid.refine()`.

    These are the reports of `residual` called grid by grid and mode by
    mode, with each piece of work done once (see the module docstring):
    each series is built once and summed on the finest grid, as is the
    forcing, and the grid takes every other entry.  Each grid's sums are
    certified at that grid's own scale, in the order `residual` calls
    would raise.
    """
    if not isinstance(problem, KineticProblem):
        raise DomainError("residual expects a KineticProblem")
    if not isinstance(grid, Grid):
        raise DomainError("residual expects a Grid")
    _check_tol(tol_rel)
    if grid.points[-1] > DEFAULT_T_CAP:
        raise DomainError(
            f"grid extends to t={grid.points[-1]!r}, beyond the residual "
            f"window cap {DEFAULT_T_CAP!r}"
        )
    grids = (grid, grid.refine()) if refined else (grid,)
    ts = grids[-1].array
    levels = (slice(1, None, 2), slice(None)) if refined else (slice(None),)
    summary = _problem_summary(problem)
    sols, sums = {}, {}
    forcing = None
    reports = []
    for g, level in zip(grids, levels):
        for mode in modes:
            if mode not in sols:
                sols[mode] = build_solution(problem, mode, t_max=grid.points[-1])
                sums[mode] = _series_sums(sols[mode], ts)
            sol = sols[mode]
            values = _certified(sol, ts[level], *(a[level] for a in sums[mode]))
            if forcing is None:
                forcing = _forcing_values(problem, ts)
            reports.append(_residual_core(
                values, _origin_value(sol), forcing[level], problem.relax,
                problem.v, g, summary, mode, tol_rel, warn, stacklevel=4))
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
    (report,) = _reports(problem, grid, (mode,), refined=False,
                         tol_rel=tol_rel, warn=warn)
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
    stated, corrected, stated_fine, corrected_fine = _reports(
        problem, grid, (SolutionMode.STATED, SolutionMode.CORRECTED),
        refined=True, tol_rel=tol_rel, warn=False)

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
    return AdjudicationResult(
        verdict=verdict,
        stated=replace(stated, adjudication=verdict),
        corrected=replace(corrected, adjudication=verdict),
        stated_refined=replace(stated_fine, adjudication=verdict),
        corrected_refined=replace(corrected_fine, adjudication=verdict),
    )


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
    _check_tol(tol_rel)
    sol = haubold_series(c, v, n0)
    ts = grid.array
    values = eval_solution_grid(sol, ts)
    forcing = np.full(ts.shape, float(n0))
    summary = {
        "forcing_argument": "constant",
        "v": float(v),
        "relax": float(c),
        "n0": float(n0),
    }
    return _residual_core(
        values,
        float(n0),
        forcing,
        float(c),
        float(v),
        grid,
        summary,
        SolutionMode.CORRECTED,
        tol_rel,
        warn,
    )
