"""Solution-series construction, evaluation, and the specialized families.

The literal fixtures in TestDisplayedSeries hand-code the closed-form
series term structures (stated convention) directly, with math.gamma and
the package's Mittag-Leffler evaluator, so any drift in the coefficient
formulas is caught against an independent transcription.
"""

import math
import random

import mpmath as mp
import numpy as np
import pytest
from _oracles import neumann_kinetic_solution, struve_forcing_powers

from frackin import (
    ConvergenceError,
    DomainError,
    Forcing,
    Grid,
    KineticProblem,
    RangeError,
    SeriesSpec,
    SolutionMode,
    SolutionSeries,
    SolutionTerm,
    build_solution,
    corollary_params,
    eval_solution,
    eval_solution_grid,
    haubold_series,
    haubold_solution,
    mittag_leffler,
    mittag_leffler_grid,
)

EPS = np.finfo(float).eps
SPEC = SeriesSpec(lam=1.0, alpha=1.0, mu=1.5, order=1.0)


def neumann_powered(spec_args, v, d, t, terms=80):
    """Neumann series of the powered-time equation, in extended precision."""
    with mp.workdps(60):
        powers = [(c * mp.mpf(d) ** (v * p), v * p)
                  for c, p in struve_forcing_powers(*spec_args, terms=terms, dps=60)]
        return neumann_kinetic_solution(powers, v, d, t, sweeps=80, dps=60)


class TestProblemConstruction:
    def test_plain_time_ties_rates(self):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.3)
        assert p.relax == p.d == 1.3
        assert p.forcing_argument is Forcing.PLAIN

    def test_powered_time(self):
        p = KineticProblem.powered_time(SPEC, v=0.5, d=2.0)
        assert p.forcing_argument is Forcing.POWERED
        assert p.relax == 2.0

    def test_distinct_requires_different_rates(self):
        with pytest.raises(DomainError):
            KineticProblem.powered_time_distinct(SPEC, v=0.5, d=1.0,
                                                 relax=1.0)

    def test_v_range(self):
        with pytest.raises(DomainError):
            KineticProblem.plain_time(SPEC, v=0.0, d=1.0)
        with pytest.raises(DomainError):
            KineticProblem.plain_time(SPEC, v=2.5, d=1.0)
        assert KineticProblem.plain_time(SPEC, v=2.0, d=1.0).v == 2.0

    def test_positive_rates(self):
        with pytest.raises(DomainError):
            KineticProblem.plain_time(SPEC, v=0.5, d=0.0)
        with pytest.raises(DomainError):
            KineticProblem(SPEC, Forcing.PLAIN, 0.5, 1.0, -1.0, 1.0)


class TestSeriesInvariants:
    def test_term_count_checked(self):
        t = SolutionTerm(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            SolutionSeries((t,), 0.5, 1.0, 3, SolutionMode.CORRECTED)

    def test_powers_strictly_increasing(self):
        terms = (SolutionTerm(1.0, 1.0, 2.0), SolutionTerm(1.0, 1.0, 3.0))
        with pytest.raises(DomainError):
            SolutionSeries(terms, 0.5, 1.0, 1, SolutionMode.CORRECTED)

    def test_build_respects_explicit_truncation(self):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        sol = build_solution(p, SolutionMode.CORRECTED, truncation_k=7)
        assert sol.truncation_k == 7
        assert len(sol.terms) == 8

    def test_adaptive_build_meets_tail_rule(self):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        sol = build_solution(p, SolutionMode.CORRECTED, t_max=2.0)
        x = -((sol.rate * 2.0) ** sol.ml_alpha)
        weights = [abs(t.coeff) * 2.0 ** t.power
                   * abs(mittag_leffler(sol.ml_alpha, t.ml_beta, x))
                   for t in sol.terms]
        assert weights[-1] <= 1e-14 * max(weights)

    def test_build_and_evaluation_share_tail_rule(self):
        # the single-term rule alone stopped at k = 42, one term short of
        # what evaluation certifies at t_max
        p = KineticProblem.powered_time(SPEC, v=1.5, d=2.0)
        sol = build_solution(p, SolutionMode.CORRECTED, t_max=5.0)
        assert sol.truncation_k == 43
        ts = np.array([0.5, 2.0, 3.0])
        for t, val in zip(ts, eval_solution_grid(sol, ts)):
            want = float(neumann_powered((1, 1, 1.5, 1, 2.5), 1.5, 2.0, float(t)))
            assert val == pytest.approx(want, rel=1e-9)

    def test_seeded_builds_certify_their_tails(self):
        # a build or its evaluation may refuse values past the float64
        # range or terms that cancel, but evaluation never refuses the
        # tail of a series built to the same t_max
        refused = 0
        for problem, mode, t_max in _seeded_problems():
            ts = Grid.uniform(0.01, t_max, 200).refine().array
            try:
                eval_solution_grid(build_solution(problem, mode, t_max=t_max), ts)
            except ConvergenceError as exc:
                assert "cannot certify its tail" not in str(exc), (problem, mode, t_max)
                refused += 1
        # most draws evaluate: the sweep checks tails, not only errors
        assert refused <= 30

    @pytest.mark.parametrize("v,d,t_bad", [(1.5, 2.0, 3.5), (1.9, 1.0, 5.0)])
    def test_cancelling_terms_raise(self, v, d, t_bad):
        # by t = 5 the terms reach 5e11 (v = 1.5) and 2.5e7 (v = 1.9)
        # against values below 1; the float64 sum there was off by 1.2e-3
        # and 1.4e-7 relative from the Neumann series
        p = KineticProblem.powered_time(SPEC, v=v, d=d)
        sol = build_solution(p, SolutionMode.CORRECTED, t_max=5.0)
        with pytest.raises(ConvergenceError, match="cancel"):
            eval_solution_grid(sol, np.array([0.5, 1.0, t_bad]))
        with pytest.raises(ConvergenceError, match="cancel"):
            eval_solution(sol, t_bad)

    def test_sum_past_float64_range_is_named(self):
        # at t = 4.35 the terms overflow and the sum is inf or nan; an inf
        # term would also meet the tail rule (inf <= inf), so the overflow
        # is checked before cancellation and truncation
        p = KineticProblem.powered_time(SeriesSpec.struve(1.5), v=1.96, d=2.0)
        sol = build_solution(p, SolutionMode.CORRECTED, truncation_k=40)
        with pytest.raises(ConvergenceError, match="float64 range at t=4.35"):
            eval_solution_grid(sol, np.array([0.5, 4.35]))
        # one point lower, the terms are finite and cancel
        with pytest.raises(ConvergenceError, match="cancel at t=2.8"):
            eval_solution_grid(sol, np.array([0.5, 2.8]))

    @pytest.mark.parametrize("spec,forcing,v,k", [
        (SPEC, "plain", 0.75, 85),
        (SPEC, "powered", 2.0, 42),
        # Gamma(0.001 k - 0.3) is negative: the sign of the reciprocal pair
        (SeriesSpec(lam=1.0, alpha=0.001, mu=-0.3, order=1.0), "plain", 0.75, 90),
    ])
    def test_coefficient_past_gamma_overflow(self, spec, forcing, v, k):
        # Gamma(2k + l + 2), or Gamma((2k + l + 1) v + 1), overflows while
        # the reciprocal gammas bring the coefficient back into range
        make = {"plain": KineticProblem.plain_time,
                "powered": KineticProblem.powered_time}[forcing]
        sol = build_solution(make(spec, v=v, d=1.0), SolutionMode.CORRECTED,
                             truncation_k=k)
        with mp.workdps(40):
            e = 2 * k + mp.mpf(spec.order) + 1
            top = e + 1 if forcing == "plain" else e * v + 1
            want = float((-1) ** k * mp.gamma(top) * mp.rgamma(spec.alpha * k + mp.mpf(spec.mu))
                         * mp.rgamma(spec.lam * k + mp.mpf(spec.sigma)) / mp.mpf(2) ** e)
        assert sol.terms[k].coeff == pytest.approx(want, rel=1e-12, abs=0.0)
        if forcing == "plain" and spec == SPEC:
            assert want == pytest.approx(-0.060574, rel=1e-4)

    def test_modes_differ_by_unit_shift_with_equal_coefficients(self):
        p = KineticProblem.powered_time(SPEC, v=0.75, d=1.0)
        k = 6
        stated = build_solution(p, SolutionMode.STATED, truncation_k=k)
        corrected = build_solution(p, SolutionMode.CORRECTED, truncation_k=k)
        for s, c in zip(stated.terms, corrected.terms):
            assert c.coeff == pytest.approx(s.coeff, rel=1e-15)
            assert c.power == pytest.approx(s.power + 1.0, abs=1e-12)
            assert c.ml_beta == pytest.approx(s.ml_beta + 1.0, abs=1e-12)


def _seeded_problems(count=300, seed=20261021):
    """Seeded (problem, mode, t_max) over the 15 families: v in (0.2, 1.95),
    t_max in [1, 5], d and a distinct relax in [0.5, 2], l in [-0.5, 1.5]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        family = rng.randrange(15)
        l, v = rng.uniform(-0.5, 1.5), rng.uniform(0.2, 1.95)
        d, relax = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        if family < 3:
            spec = SeriesSpec.struve(l)
            if family == 0:
                problem = KineticProblem.plain_time(spec, v=v, d=d)
            elif family == 1:
                problem = KineticProblem.powered_time(spec, v=v, d=d)
            else:
                problem = KineticProblem.powered_time_distinct(spec, v=v, d=d, relax=relax)
        else:
            template = corollary_params(family - 2)
            problem = template.make_problem(
                order=l, v=v, d=d, relax=relax if template.distinct_relax else None,
                lam=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.5, 2.0),
                mu=rng.uniform(1.0, 3.0))
        out.append((problem, rng.choice(list(SolutionMode)), rng.uniform(1.0, 5.0)))
    return out


class TestEvaluation:
    def test_corrected_plain_oracle(self):
        # frozen from an independent extended-precision term-by-term sum
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        sol = build_solution(p, SolutionMode.CORRECTED)
        assert eval_solution(sol, 0.8) == pytest.approx(
            0.0923491587408382050620486774297, rel=1e-12)

    def test_grid_matches_scalar(self):
        p = KineticProblem.powered_time(SPEC, v=0.5, d=1.0)
        sol = build_solution(p, SolutionMode.CORRECTED)
        ts = np.array([0.1, 0.7, 1.9, 4.5])
        vals = eval_solution_grid(sol, ts)
        for t, val in zip(ts, vals):
            assert val == pytest.approx(eval_solution(sol, float(t)),
                                        rel=1e-14)

    def test_requires_positive_time(self):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        sol = build_solution(p, SolutionMode.CORRECTED)
        with pytest.raises(DomainError):
            eval_solution(sol, 0.0)

    def test_inadequate_truncation_raises(self):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0)
        sol = build_solution(p, SolutionMode.CORRECTED, truncation_k=2)
        with pytest.raises(ConvergenceError):
            eval_solution(sol, 4.0)

    def test_zero_density_gives_zero(self):
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0, n0=0.0)
        sol = build_solution(p, SolutionMode.CORRECTED, truncation_k=4)
        assert eval_solution(sol, 1.0) == 0.0

    def test_zero_density_adaptive_build_stops_at_once(self):
        # every coefficient vanishes: the adaptive build returns at k = 1
        p = KineticProblem.plain_time(SPEC, v=0.75, d=1.0, n0=0.0)
        sol = build_solution(p, SolutionMode.CORRECTED, t_max=2.0)
        assert sol.truncation_k == 1
        assert np.array_equal(eval_solution_grid(sol, [0.01, 1.0, 2.0]),
                              np.zeros(3))


class TestOriginValue:
    def test_zero_power_term_gives_coeff_over_gamma(self):
        # l = 0: the stated plain-time series starts at t^0 E_{v,1}, with
        # coefficient Gamma(2) / (2 Gamma(3/2)^2) = 2/pi
        p = KineticProblem.plain_time(SeriesSpec.struve(0.0), v=0.75, d=1.0)
        sol = build_solution(p, SolutionMode.STATED)
        assert sol.terms[0].power == 0.0
        assert abs(sol.origin_value() - 2.0 / math.pi) <= math.ulp(2.0 / math.pi)

    def test_positive_and_negative_powers_give_zero(self):
        # the corrected series vanishes at the origin; the stated powered
        # series diverges there, and its sample is pinned to 0.0
        plain = KineticProblem.plain_time(SeriesSpec.struve(0.0), v=0.75, d=1.0)
        powered = KineticProblem.powered_time(SPEC, v=0.4, d=1.0)
        assert build_solution(plain, SolutionMode.CORRECTED).origin_value() == 0.0
        stated = build_solution(powered, SolutionMode.STATED)
        assert stated.terms[0].power < 0.0
        assert stated.origin_value() == 0.0


class TestHaubold:
    def test_oracle_value(self):
        assert haubold_solution(2.0, 0.5, 1.5) == pytest.approx(
            0.287341249533456247952971577514, rel=1e-12)

    def test_series_path_equals_direct(self):
        # the baseline as a one-term series reproduces the direct formula
        sol = haubold_series(1.0, 0.75)
        for t in (0.05, 0.5, 1.0, 3.0):
            direct = haubold_solution(1.0, 0.75, t)
            assert eval_solution(sol, t) == pytest.approx(direct, rel=1e-12)

    def test_exponential_limit(self):
        # v=1 relaxation is a pure exponential
        for t in (0.1, 1.0, 2.0):
            assert haubold_solution(3.0, 1.0, t) == pytest.approx(
                math.exp(-3.0 * t), rel=1e-12)

    def test_initial_value(self):
        assert haubold_solution(1.0, 0.5, 0.0, n0=4.0) == 4.0

    def test_series_identity_to_1e12(self):
        # summed definition vs the evaluator across a parameter sweep
        for c in (0.5, 1.0, 2.0):
            for v in (0.5, 0.75, 1.0):
                for t in (0.1, 0.9, 2.5):
                    z = -((c * t) ** v)
                    ref = sum(z ** n / math.gamma(v * n + 1.0)
                              for n in range(120))
                    assert haubold_solution(c, v, t) == pytest.approx(
                        ref, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            haubold_solution(0.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            haubold_solution(1.0, 0.5, -1.0)

    def test_overflowing_argument(self):
        # (c t)^v past the float64 range: refused, not a bare OverflowError
        with pytest.raises(DomainError):
            haubold_solution(1e200, 2.0, 1.0)


def displayed_plain_series(n0, l, v, d, t, spec_gammas, terms=40):
    """Literal transcription: (N0/2) sum (-1)^k G(2k+l+2)/gammas
    * (t/2)^{2k+l} E_{v,2k+l+1}(-d^v t^v)."""
    total = 0.0
    for k in range(terms):
        coeff = (n0 / 2.0) * (-1.0) ** k * math.gamma(2 * k + l + 2) \
            / spec_gammas(k)
        total += coeff * (t / 2.0) ** (2 * k + l) * mittag_leffler(
            v, 2 * k + l + 1, -(d ** v) * t ** v)
    return total


def displayed_powered_series(n0, l, v, d, relax, t, spec_gammas, terms=40):
    """Literal transcription: N0 (d^v/2)^{l+1} t^{lv+v-1}
    sum (-1)^k G((2k+l+1)v+1)/gammas * (d^v t^v / 2)^{2k}
    * E_{v,(2k+l+1)v}(-relax^v t^v)."""
    front = n0 * (d ** v / 2.0) ** (l + 1) * t ** (l * v + v - 1)
    total = 0.0
    for k in range(terms):
        coeff = (-1.0) ** k * math.gamma((2 * k + l + 1) * v + 1) \
            / spec_gammas(k)
        total += coeff * (d ** v * t ** v / 2.0) ** (2 * k) * mittag_leffler(
            v, (2 * k + l + 1) * v, -(relax ** v) * t ** v)
    return front * total


class TestDisplayedSeries:
    """Stated-convention output against hand-coded display transcriptions."""

    T_POINTS = (0.3, 0.8, 1.6)

    def test_classical_plain(self):
        l, v, d = 1.0, 0.75, 1.0
        p = KineticProblem.plain_time(SeriesSpec(1, 1, 1.5, l), v=v, d=d)
        sol = build_solution(p, SolutionMode.STATED)
        gammas = lambda k: math.gamma(k + l + 1.5) * math.gamma(k + 1.5)
        for t in self.T_POINTS:
            assert eval_solution(sol, t) == pytest.approx(
                displayed_plain_series(1.0, l, v, d, t, gammas), rel=1e-12)

    def test_classical_powered(self):
        l, v, d = 1.0, 0.75, 1.0
        p = KineticProblem.powered_time(SeriesSpec(1, 1, 1.5, l), v=v, d=d)
        sol = build_solution(p, SolutionMode.STATED)
        gammas = lambda k: math.gamma(k + 1.5) * math.gamma(k + l + 1.5)
        for t in self.T_POINTS:
            assert eval_solution(sol, t) == pytest.approx(
                displayed_powered_series(1.0, l, v, d, d, t, gammas),
                rel=1e-12)

    def test_classical_distinct_rate(self):
        l, v, d, relax = 1.0, 0.75, 1.0, 0.6
        p = KineticProblem.powered_time_distinct(
            SeriesSpec(1, 1, 1.5, l), v=v, d=d, relax=relax)
        sol = build_solution(p, SolutionMode.STATED)
        gammas = lambda k: math.gamma(k + 1.5) * math.gamma(k + l + 1.5)
        for t in self.T_POINTS:
            assert eval_solution(sol, t) == pytest.approx(
                displayed_powered_series(1.0, l, v, d, relax, t, gammas),
                rel=1e-12)

    def test_single_slope_plain(self):
        lam, l, v, d = 1.8, 0.5, 0.6, 1.2
        p = KineticProblem.plain_time(
            SeriesSpec(lam, 1.0, 1.5, l), v=v, d=d, n0=2.0)
        sol = build_solution(p, SolutionMode.STATED)
        gammas = lambda k: math.gamma(lam * k + l + 1.5) * math.gamma(k + 1.5)
        for t in self.T_POINTS:
            assert eval_solution(sol, t) == pytest.approx(
                displayed_plain_series(2.0, l, v, d, t, gammas), rel=1e-12)

    def test_scaled_offset_powered(self):
        lam, mu, l, v, d = 1.6, 2.0, 1.0, 0.75, 1.0
        spec = SeriesSpec(lam, 1.0, 1.5, l, sigma=l / mu + 1.5)
        p = KineticProblem.powered_time(spec, v=v, d=d)
        sol = build_solution(p, SolutionMode.STATED)
        gammas = lambda k: math.gamma(lam * k + l / mu + 1.5) \
            * math.gamma(k + 1.5)
        for t in self.T_POINTS:
            assert eval_solution(sol, t) == pytest.approx(
                displayed_powered_series(1.0, l, v, d, d, t, gammas),
                rel=1e-12)


class TestStructuralIdentities:
    def test_distinct_rate_family_degenerates_to_tied(self):
        # the distinct-rate series at relax == d is the tied-rate series,
        # term for term, in both conventions
        tied = KineticProblem.powered_time(SPEC, v=0.75, d=1.0)
        degenerate = KineticProblem(SPEC, Forcing.POWERED, 0.75, 1.0, 1.0,
                                    1.0)
        for mode in SolutionMode:
            a = build_solution(tied, mode, truncation_k=10)
            b = build_solution(degenerate, mode, truncation_k=10)
            assert a.terms == b.terms
            assert a.rate == b.rate

    @pytest.mark.parametrize("cid", range(1, 13))
    def test_corollary_matches_specialized_series(self, cid):
        # each specialized family must equal the general series built from
        # the same explicitly specialized spec
        template = corollary_params(cid)
        kwargs = dict(order=0.8, v=0.7, d=1.1, n0=1.3)
        if "lam" in template.free_parameters:
            kwargs["lam"] = 1.4
        if "alpha" in template.free_parameters:
            kwargs["alpha"] = 0.9
        if "mu" in template.free_parameters:
            kwargs["mu"] = 2.0
        problem = template.make_problem(**kwargs)
        direct = KineticProblem(
            template.make_spec(0.8, lam=kwargs.get("lam", 1.0),
                               alpha=kwargs.get("alpha", 1.0),
                               mu=kwargs.get("mu", 1.0)),
            template.forcing_argument, 0.7, 1.1, problem.relax, 1.3)
        for mode in SolutionMode:
            a = build_solution(problem, mode, truncation_k=8)
            b = build_solution(direct, mode, truncation_k=8)
            assert a.terms == b.terms
        ts = np.array([0.2, 0.9, 1.7])
        va = eval_solution_grid(build_solution(problem,
                                               SolutionMode.CORRECTED), ts)
        vb = eval_solution_grid(build_solution(direct,
                                               SolutionMode.CORRECTED), ts)
        assert np.allclose(va, vb, rtol=1e-12)


class TestCorollaryTemplates:
    def test_id_range(self):
        with pytest.raises(RangeError):
            corollary_params(0)
        with pytest.raises(RangeError):
            corollary_params(13)

    def test_forcing_pattern(self):
        for cid in range(1, 13):
            t = corollary_params(cid)
            position = (cid - 1) % 3
            assert t.forcing_argument is (
                Forcing.PLAIN if position == 0 else Forcing.POWERED)
            assert t.distinct_relax is (position == 2)

    def test_classical_family_spec(self):
        spec = corollary_params(2).make_spec(1.0)
        assert (spec.lam, spec.alpha, spec.mu) == (1.0, 1.0, 1.5)
        assert spec.sigma == pytest.approx(2.5)

    def test_scaled_offset_family_spec(self):
        spec = corollary_params(11).make_spec(1.0, lam=1.6, mu=2.0)
        assert spec.sigma == pytest.approx(1.0 / 2.0 + 1.5)

    def test_distinct_default_rate(self):
        p = corollary_params(3).make_problem(order=1.0, v=0.75, d=1.0)
        assert p.relax == pytest.approx(0.6)

    def test_tied_family_rejects_distinct_relax(self):
        with pytest.raises(DomainError):
            corollary_params(1).make_problem(order=1.0, v=0.75, d=1.0,
                                             relax=0.5)
