"""Residual computation and mode adjudication.

These tests assert the adjudication MECHANISM: residual magnitudes,
refinement behaviour, and that exactly one mode passes the benchmark
instances.  Which mode that is gets asserted nowhere here; the recorded
outcome lives in ERRATA.md.
"""

import warnings

import numpy as np
import pytest

from frackin import (
    Adjudication,
    ConvergenceError,
    DomainError,
    Forcing,
    Grid,
    GridTooCoarse,
    KineticProblem,
    ResidualReport,
    SeriesSpec,
    SolutionMode,
    adjudicate,
    haubold_residual,
    residual,
)
from frackin.verify import _mode_passes

SPEC = SeriesSpec(lam=1.0, alpha=1.0, mu=1.5, order=1.0)
BENCH_GRID = Grid.uniform(2.0 / 2048, 2.0, 2048)


def benchmark_problems():
    return [
        KineticProblem.plain_time(SPEC, v=0.75, d=1.0),
        KineticProblem.powered_time(SPEC, v=0.75, d=1.0),
        KineticProblem.powered_time_distinct(SPEC, v=0.75, d=1.0, relax=0.6),
    ]


class TestResidual:
    def test_report_fields(self):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        g = Grid.uniform(2.0 / 256, 2.0, 256)
        r = residual(p, SolutionMode.CORRECTED, g, warn=False)
        assert r.residual.shape == (256,)
        assert r.max_abs == pytest.approx(np.max(np.abs(r.residual)))
        assert r.scale > 0.0
        assert r.mode is SolutionMode.CORRECTED
        assert r.adjudication is None
        assert r.problem_summary["v"] == 0.75

    def test_grid_beyond_window_raises(self):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        g = Grid.uniform(0.1, 6.0, 64)
        with pytest.raises(DomainError):
            residual(p, SolutionMode.CORRECTED, g)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_raises(self, tol):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        g = Grid.uniform(2.0 / 64, 2.0, 64)
        for call in (lambda: residual(p, SolutionMode.CORRECTED, g, tol_rel=tol),
                     lambda: adjudicate(p, g, tol_rel=tol),
                     lambda: haubold_residual(1.0, 0.75, g, tol_rel=tol)):
            with pytest.raises(DomainError, match="finite"):
                call()

    @pytest.mark.parametrize("tol", [0.0, -1e-4])
    def test_non_positive_tolerance_raises(self, tol):
        # a tolerance of 0 or below no residual can meet, and the coarse-grid
        # warning would compare against it
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        g = Grid.uniform(2.0 / 64, 2.0, 64)
        for call in (lambda: residual(p, SolutionMode.CORRECTED, g, tol_rel=tol),
                     lambda: adjudicate(p, g, tol_rel=tol),
                     lambda: haubold_residual(1.0, 0.75, g, tol_rel=tol)):
            with pytest.raises(DomainError, match="positive"):
                call()

    def test_coarse_grid_warns(self):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        g = Grid.uniform(2.0 / 16, 2.0, 16)
        with pytest.warns(GridTooCoarse):
            residual(p, SolutionMode.CORRECTED, g, tol_rel=1e-10)

    def test_warning_names_the_callers_line(self):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        g = Grid.uniform(2.0 / 16, 2.0, 16)
        calls = (lambda: residual(p, SolutionMode.CORRECTED, g, tol_rel=1e-10),
                 lambda: haubold_residual(1.0, 0.75, g, tol_rel=1e-12))
        for call in calls:
            with pytest.warns(GridTooCoarse) as record:
                call()
            (warning,) = [w for w in record if w.category is GridTooCoarse]
            assert warning.filename == __file__
            assert warning.lineno == call.__code__.co_firstlineno

    def test_monotone_refinement(self):
        # one mode's residual is pure quadrature error: strictly smaller on
        # every refinement step from 512 to 4096 (10% slack for noise)
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        maxima = {mode: [] for mode in SolutionMode}
        for n in (512, 1024, 2048, 4096):
            g = Grid.uniform(2.0 / n, 2.0, n)
            for mode in SolutionMode:
                maxima[mode].append(residual(p, mode, g, warn=False).max_abs)
        improving = {
            mode: all(b <= 1.1 * a for a, b in zip(vals, vals[1:]))
            and vals[-1] < 0.5 * vals[0]
            for mode, vals in maxima.items()
        }
        # exactly one mode improves under refinement; the other stalls
        assert sum(improving.values()) == 1
        stalled = [m for m, ok in improving.items() if not ok][0]
        vals = maxima[stalled]
        assert vals[-1] > 0.5 * vals[0]


def _report(max_abs, scale=1.0):
    return ResidualReport(problem_summary={}, mode=SolutionMode.CORRECTED,
                          grid=Grid.uniform(0.5, 1.0, 2), residual=np.zeros(2),
                          max_abs=max_abs, scale=scale)


class TestModePasses:
    def test_residual_above_tolerance_fails(self):
        assert not _mode_passes(_report(2e-4), _report(1e-6), 1e-4)

    def test_noise_floor_passes_without_shrinking(self):
        assert _mode_passes(_report(1e-13), _report(1e-13), 1e-4)
        # the floor is absolute below unit scale
        assert _mode_passes(_report(0.0, 0.0), _report(0.0, 0.0), 1e-4)

    def test_shrinkage_decides_above_the_floor(self):
        assert _mode_passes(_report(1e-6), _report(0.8e-6), 1e-4)
        assert not _mode_passes(_report(1e-6), _report(0.95e-6), 1e-4)


class TestAdjudication:
    @pytest.mark.parametrize("problem", benchmark_problems(),
                             ids=["plain", "powered", "distinct"])
    def test_exactly_one_mode_passes(self, problem):
        result = adjudicate(problem, BENCH_GRID)
        assert result.verdict in (Adjudication.STATED_PASSES,
                                  Adjudication.CORRECTED_PASSES)
        passing = result.stated if result.verdict is \
            Adjudication.STATED_PASSES else result.corrected
        failing = result.corrected if result.verdict is \
            Adjudication.STATED_PASSES else result.stated
        assert passing.max_abs <= 1e-4 * passing.scale
        assert failing.max_abs > 1e-4 * failing.scale

    def test_same_verdict_across_benchmarks(self):
        verdicts = {adjudicate(p, BENCH_GRID).verdict
                    for p in benchmark_problems()}
        assert len(verdicts) == 1

    def test_passing_mode_shrinks_under_refinement(self):
        result = adjudicate(benchmark_problems()[0], BENCH_GRID)
        if result.verdict is Adjudication.STATED_PASSES:
            base, fine = result.stated, result.stated_refined
        else:
            base, fine = result.corrected, result.corrected_refined
        assert fine.max_abs <= 0.9 * base.max_abs

    @pytest.mark.parametrize("problem", benchmark_problems(),
                             ids=["plain", "powered", "distinct"])
    def test_log_grid_refines_at_second_order(self, problem):
        # a refined log grid keeps its ratio, so the passing mode's residual
        # falls by about 4 under one refinement, as on the uniform grid
        result = adjudicate(problem, Grid.log(0.01, 2.0, 512))
        assert result.verdict is adjudicate(problem, BENCH_GRID).verdict
        if result.verdict is Adjudication.STATED_PASSES:
            base, fine = result.stated, result.stated_refined
        else:
            base, fine = result.corrected, result.corrected_refined
        assert base.max_abs >= 3.5 * fine.max_abs

    def test_reports_carry_verdict(self):
        result = adjudicate(benchmark_problems()[0],
                            Grid.uniform(2.0 / 256, 2.0, 256))
        assert result.stated.adjudication is result.verdict
        assert result.corrected_refined.adjudication is result.verdict

    def test_degenerate_distinct_rate_matches_tied(self):
        # relax == d built through the distinct-rate structure leaves the
        # residual identical to the tied-rate problem on the same grid
        g = Grid.uniform(2.0 / 256, 2.0, 256)
        tied = KineticProblem.powered_time(SPEC, v=0.75, d=1.0)
        degenerate = KineticProblem(SPEC, Forcing.POWERED, 0.75, 1.0, 1.0,
                                    1.0)
        for mode in SolutionMode:
            r1 = residual(tied, mode, g, warn=False)
            r2 = residual(degenerate, mode, g, warn=False)
            assert np.max(np.abs(r1.residual - r2.residual)) <= 1e-12


def _first_residual_error(problem, grid, error):
    """Message of the first error `residual` raises, grid by grid and
    mode by mode, the order adjudicate's four reports come in."""
    for g in (grid, grid.refine()):
        for mode in (SolutionMode.STATED, SolutionMode.CORRECTED):
            try:
                residual(problem, mode, g, warn=False)
            except error as exc:
                return str(exc)
    return None


class TestSharedEvaluation:
    """adjudicate sums each series once on the refined grid; its reports
    equal those of residual on each grid alone."""

    PROBLEMS = [
        KineticProblem.plain_time(SPEC, v=0.75, d=1.0),
        KineticProblem.powered_time(SPEC, v=1.3, d=1.1),
        KineticProblem.powered_time_distinct(SPEC, v=0.9, d=1.0, relax=0.6),
    ]
    GRIDS = [Grid.uniform(0.01, 2.0, 512), Grid.log(0.01, 2.0, 512)]

    @pytest.mark.parametrize("grid", GRIDS, ids=["uniform", "log"])
    @pytest.mark.parametrize("problem", PROBLEMS,
                             ids=["plain", "powered", "distinct"])
    def test_reports_match_residual(self, problem, grid):
        result = adjudicate(problem, grid)
        reports = {
            (SolutionMode.STATED, 0): result.stated,
            (SolutionMode.CORRECTED, 0): result.corrected,
            (SolutionMode.STATED, 1): result.stated_refined,
            (SolutionMode.CORRECTED, 1): result.corrected_refined,
        }
        alone = {}
        for level, g in enumerate((grid, grid.refine())):
            for mode in SolutionMode:
                want = residual(problem, mode, g, warn=False)
                got = reports[mode, level]
                assert got.grid == g and got.mode is mode
                assert got.scale == want.scale
                assert np.max(np.abs(got.residual - want.residual)) \
                    <= 1e-14 * want.scale
                assert abs(got.max_abs - want.max_abs) <= 1e-14 * want.scale
                alone[mode, level] = want
        passes = {mode: _mode_passes(alone[mode, 0], alone[mode, 1], 1e-4)
                  for mode in SolutionMode}
        verdict = {
            (True, True): Adjudication.BOTH_PASS,
            (True, False): Adjudication.STATED_PASSES,
            (False, True): Adjudication.CORRECTED_PASSES,
            (False, False): Adjudication.NEITHER_PASS,
        }[passes[SolutionMode.STATED], passes[SolutionMode.CORRECTED]]
        assert result.verdict is verdict

    def test_cancelling_series_raises_as_residual_does(self):
        # theorem 2, l = 1, d = 2, v = 1.5 to t = 5: the series terms
        # cancel past what float64 carries
        problem = KineticProblem.powered_time(SPEC, v=1.5, d=2.0)
        grid = Grid.uniform(0.01, 5.0, 256)
        want = _first_residual_error(problem, grid, ConvergenceError)
        assert want is not None and "cancel" in want
        with pytest.raises(ConvergenceError) as info:
            adjudicate(problem, grid)
        assert str(info.value) == want

    def test_window_cap_raises_as_residual_does(self):
        problem = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        grid = Grid.uniform(0.1, 6.0, 64)
        want = _first_residual_error(problem, grid, DomainError)
        with pytest.raises(DomainError) as info:
            adjudicate(problem, grid)
        assert str(info.value) == want


class TestHauboldResidual:
    @pytest.mark.parametrize("v", [0.5, 0.75, 1.0])
    def test_baseline_solves_its_equation(self, v):
        g = Grid.log(1e-5, 5.0, 2048)
        r = haubold_residual(1.0, v, g, warn=False)
        assert r.max_abs <= 1e-5 * r.scale

    def test_scale_is_initial_density(self):
        g = Grid.log(1e-4, 2.0, 128)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = haubold_residual(1.0, 0.75, g, n0=3.0)
        assert r.scale == pytest.approx(3.0)

    def test_rate_scaling(self):
        # doubling c is a time rescale; the residual stays small
        g = Grid.log(1e-5, 2.0, 1024)
        r = haubold_residual(2.0, 0.75, g, warn=False)
        assert r.max_abs <= 1e-5 * r.scale
