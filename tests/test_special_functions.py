"""Gamma, Mittag-Leffler, and Struve-type series behaviour.

Expected decimal literals were frozen from the extended-precision
helpers in tests/_oracles.py (30+ significant digits, independently
summed with mpmath).
"""

import math
import random
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frackin.special_functions as sf
import _oracles
from _oracles import mlf_laplace, mlf_series
from frackin import (
    ConvergenceError,
    DomainError,
    NonFiniteError,
    PoleError,
    SeriesSpec,
    gamma,
    generalized_struve,
    generalized_struve_grid,
    mittag_leffler,
    mittag_leffler_grid,
    reciprocal_gamma,
    struve_h,
    struve_h_with_derivatives,
    struve_l,
)


def _derivatives_mp(v, z):
    """H_v(z), H' = H_{v-1} - (v/z) H, and H'' from the Struve equation."""
    with mp.workdps(50):
        v, z = mp.mpf(v), mp.mpf(z)
        h = mp.struveh(v, z)
        dh = mp.struveh(v - 1, z) - v / z * h
        rhs = 4 * (z / 2) ** (v + 1) / (mp.sqrt(mp.pi) * mp.gamma(v + 0.5))
        ddh = (rhs - z * dh - (z * z - v * v) * h) / (z * z)
        return [float(h), float(dh), float(ddh)]


@pytest.fixture
def rgamma_calls(monkeypatch):
    """Every argument mpmath's reciprocal gamma is called with."""
    calls = []
    rgamma = mp.rgamma

    def counted(x):
        calls.append(x)
        return rgamma(x)

    monkeypatch.setattr(mp, "rgamma", counted)
    return calls


class TestGamma:
    def test_oracle_value(self):
        assert gamma(3.7) == pytest.approx(
            4.17065178379660316539360299862, rel=1e-15)

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_negative_argument_reflection(self):
        # Gamma(-1.5) = 4*sqrt(pi)/3
        assert gamma(-1.5) == pytest.approx(4 * math.sqrt(math.pi) / 3,
                                            rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_pole_raises(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    def test_near_pole_within_window_raises(self):
        with pytest.raises(PoleError):
            gamma(-3.0 + 5e-13)

    def test_near_pole_outside_window_is_finite(self):
        assert math.isfinite(gamma(-3.0 + 1e-9))

    @given(st.integers(min_value=1, max_value=100))
    def test_factorial_recurrence(self, n):
        assert gamma(n + 1) == pytest.approx(n * gamma(n), rel=1e-13)

    @given(st.floats(min_value=-170.0, max_value=170.0).filter(
        lambda x: abs(x - round(x)) > 1e-6 or round(x) >= 1))
    @settings(max_examples=200)
    def test_recurrence_everywhere(self, x):
        # Gamma(x+1) = x Gamma(x), on the spec's accuracy window
        left = gamma(x + 1.0)
        right = x * gamma(x)
        if math.isfinite(left) and math.isfinite(right) and right != 0.0:
            assert left == pytest.approx(right, rel=1e-12)

    def test_reciprocal_is_zero_at_poles(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-5.0) == 0.0

    def test_reciprocal_matches_inverse(self):
        assert reciprocal_gamma(3.7) == pytest.approx(1.0 / gamma(3.7),
                                                      rel=1e-15)

    def test_reciprocal_underflow_becomes_zero(self):
        # Gamma(200) overflows float64, so the reciprocal is a clean zero
        assert reciprocal_gamma(200.0) == 0.0

    def test_reciprocal_positive_is_exact(self):
        # the positive range takes a fast branch on unchanged arithmetic
        rng = random.Random(7)
        xs = list(np.geomspace(6e-309, 171.6, 400, endpoint=False))
        xs += [rng.uniform(0.0, 171.6) for _ in range(400)]
        for x in xs:
            assert reciprocal_gamma(x) == 1.0 / math.gamma(x), x
        # below about 5.6e-309 and from 171.6 on, Gamma overflows
        assert reciprocal_gamma(1e-310) == 0.0
        assert reciprocal_gamma(172.0) == 0.0

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, x):
        with pytest.raises(DomainError):
            gamma(x)
        with pytest.raises(DomainError):
            reciprocal_gamma(x)


class TestMittagLeffler:
    def test_oracle_value(self):
        assert mittag_leffler(0.75, 1.5, -3.2) == pytest.approx(
            0.244696369664737845775785508284, rel=1e-13)

    def test_exp_identity(self):
        for z in np.linspace(-10, 10, 50):
            assert mittag_leffler(1.0, 1.0, z) == pytest.approx(
                math.exp(z), rel=1e-10)

    def test_expm1_identity(self):
        for z in np.linspace(-10, 10, 50):
            if z == 0.0:
                continue
            assert mittag_leffler(1.0, 2.0, z) == pytest.approx(
                math.expm1(z) / z, rel=1e-10)

    def test_cos_identity(self):
        for z in np.linspace(0.1, 10, 50):
            assert mittag_leffler(2.0, 1.0, -z * z) == pytest.approx(
                math.cos(z), rel=1e-10, abs=1e-14)

    def test_sinc_identity(self):
        for z in np.linspace(0.1, 10, 50):
            assert mittag_leffler(2.0, 2.0, -z * z) == pytest.approx(
                math.sin(z) / z, rel=1e-10, abs=1e-14)

    def test_z_zero(self):
        assert mittag_leffler(0.7, 1.3, 0.0) == pytest.approx(
            reciprocal_gamma(1.3), rel=1e-15)

    def test_alpha_nonpositive_raises(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(-0.5, 1.0, 1.0)

    def test_range_limit_raises(self):
        with pytest.raises(DomainError):
            mittag_leffler(1.0, 1.0, 100.5)

    def test_overflow_raises(self):
        # E_{1/2,1}(30) = 1.5e391 lies past the float64 range, in every tier
        with pytest.raises(NonFiniteError):
            mittag_leffler(0.5, 1.0, 30.0)
        with pytest.raises(NonFiniteError):
            mittag_leffler_grid(0.5, [1.0], [1.0, 30.0])

    def test_deep_negative_cancellation(self):
        # exp(-99) ~ 1e-43: a raw float sum would lose every digit
        assert mittag_leffler(1.0, 1.0, -99.0) == pytest.approx(
            math.exp(-99.0), rel=1e-10)

    def test_nonpositive_beta_allowed(self):
        # E_{1,0}(z) = z e^z: the n=0 term vanishes through the gamma pole
        z = 0.7
        assert mittag_leffler(1.0, 0.0, z) == pytest.approx(
            z * math.exp(z), rel=1e-12)

    @given(st.floats(min_value=0.3, max_value=2.0),
           st.floats(min_value=0.5, max_value=3.0),
           st.floats(min_value=-5.0, max_value=3.0))
    @settings(max_examples=150, deadline=None)
    def test_recurrence_in_beta(self, alpha, beta, z):
        # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b)
        left = mittag_leffler(alpha, beta, z)
        right = z * mittag_leffler(alpha, alpha + beta, z) \
            + reciprocal_gamma(beta)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-12)


class TestMittagLefflerGrid:
    def test_matches_scalar(self):
        betas = np.array([0.75, 1.0, 2.5])
        zs = np.array([-30.0, -3.0, 0.0, 2.0, 50.0])
        grid = mittag_leffler_grid(0.75, betas, zs)
        assert grid.shape == (3, 5)
        for i, b in enumerate(betas):
            for j, z in enumerate(zs):
                assert grid[i, j] == pytest.approx(
                    mittag_leffler(0.75, float(b), float(z)),
                    rel=1e-12, abs=1e-300)

    def test_empty_inputs(self):
        out = mittag_leffler_grid(1.0, np.array([]), np.array([1.0]))
        assert out.shape == (0, 1)

    def test_range_limit_raises(self):
        with pytest.raises(DomainError):
            mittag_leffler_grid(1.0, np.array([1.0]), np.array([101.0]))


def _pole_amplitude(alpha, beta, z):
    """Size of the oscillating pole term of E_{alpha,beta}(z), alpha > 1.

    Near its real zeros E is a small difference of this term and the
    algebraic tail, so the error there is measured against it.
    """
    if alpha <= 1.0:
        return 0.0
    r = abs(z) ** (1.0 / alpha)
    return 2.0 / alpha * r ** (1.0 - beta) * math.exp(r * math.cos(math.pi / alpha))


def _sweep_draws(count=120, seed=20261018):
    rng = random.Random(seed)
    # (0.3, 1, -20) exhausts the mpmath series; E_{a,a} at large |z| is
    # about 1/z^2 while each contour term is about 1/z
    draws = [(0.3, 1.0, -20.0), (0.05, 0.05, -60.0), (0.5, 0.499, -100.0),
             (0.9, 0.9, -60.0)]
    while len(draws) < count:
        draws.append((round(2.0 * (1.0 - rng.random()), 4),
                      round(rng.uniform(0.5, 30.0), 4),
                      round(-100.0 * (1.0 - rng.random()), 4)))
    return draws


class TestMittagLefflerNegativeSweep:
    """alpha in (0, 2], beta in [0.5, 30], z in [-100, 0) against a
    Talbot inverse Laplace transform at 40 digits, a route shared with
    none of the library's three tiers."""

    def test_small_alpha_value(self):
        # the mpmath series alone exhausts its term budget here
        assert mittag_leffler(0.3, 1.0, -20.0) == pytest.approx(
            0.0374062262138844531, rel=1e-12)

    @pytest.mark.parametrize("alpha,beta,z", _sweep_draws())
    def test_against_laplace_inversion(self, alpha, beta, z):
        want = float(mlf_laplace(alpha, beta, z))
        got = mittag_leffler(alpha, beta, z)
        scale = max(abs(want), _pole_amplitude(alpha, beta, z))
        assert abs(got - want) <= 1e-10 * scale

    def test_grid_against_laplace_inversion(self):
        alpha = 0.75
        betas = np.array([0.5, 2.0, 11.0, 29.0])
        zs = np.array([-99.0, -42.5, -17.0, -3.0])
        grid = mittag_leffler_grid(alpha, betas, zs)
        for i, b in enumerate(betas):
            for j, z in enumerate(zs):
                want = float(mlf_laplace(alpha, float(b), float(z)))
                assert grid[i, j] == pytest.approx(want, rel=1e-10, abs=0.0)


class TestMittagLefflerTiers:
    """Which entries reach mpmath: only those whose contour estimate fails."""

    @pytest.fixture
    def mpmath_calls(self, monkeypatch):
        calls = []
        original = sf._ml_extended

        def counted(alpha, beta, z):
            calls.append((alpha, beta, z))
            return original(alpha, beta, z)

        monkeypatch.setattr(sf, "_ml_extended", counted)
        return calls

    @pytest.mark.parametrize("c,v,n", [(3.0, 0.5, 300), (2.2, 1.5, 600)])
    def test_haubold_grids(self, mpmath_calls, c, v, n):
        ts = np.linspace(0.01, 5.0, n)
        values = mittag_leffler_grid(v, [1.0], -((c * ts) ** v))[0]
        # the only escalations allowed are values near a zero of
        # E_{v,1}, where the estimate of a 1e-13 result reads above 1e-12
        near_zero = 1e-2 * np.max(np.abs(values))
        escalated = list(mpmath_calls)
        assert len(escalated) <= 1
        for _, _, z in escalated:
            assert abs(values[np.flatnonzero(-((c * ts) ** v) == z)[0]]) < near_zero

    def test_solve_grid_without_mpmath(self, mpmath_calls):
        from frackin import KineticProblem, SolutionMode, build_solution, eval_solution_grid

        problem = KineticProblem.plain_time(SeriesSpec.struve(1.0), v=1.5, d=2.0)
        sol = build_solution(problem, SolutionMode.CORRECTED, t_max=5.0)
        eval_solution_grid(sol, np.linspace(0.01, 5.0, 2000))
        assert mpmath_calls == []

    def test_single_entry_escalates(self, mpmath_calls):
        # e^-99 lies far below the contour's rounding level; (1 - e^-99)/99
        # is an ordinary contour entry, the rest are on the float64 path
        grid = mittag_leffler_grid(1.0, [1.0, 2.0], [-99.0, -3.0, 2.0])
        assert mpmath_calls == [(1.0, 1.0, -99.0)]
        assert grid[0, 0] == pytest.approx(math.exp(-99.0), rel=1e-10, abs=0.0)
        assert grid[1, 0] == pytest.approx(-math.expm1(-99.0) / 99.0, rel=1e-12, abs=0.0)
        assert grid[0, 1] == pytest.approx(math.exp(-3.0), rel=1e-12)
        assert grid[0, 2] == pytest.approx(math.exp(2.0), rel=1e-14)

    @pytest.mark.parametrize("alpha,beta,z", [
        (1.5, 133.0, -5.0), (1.5, 133.0, -15.770891926273373),
        (1.7, 133.0, -12.0), (2.0, 160.0, -60.0)])
    def test_large_beta_contour(self, alpha, beta, z):
        # Garrappa's parabolas read a passing estimate here for values
        # 1e100 times too large; the value is about 1/Gamma(beta)
        values, est = sf._ml_contour(alpha, [beta], [z])
        want = float(mlf_series(alpha, beta, z, terms=200))
        assert est[0] <= 1e-12 * abs(values[0])
        assert abs(values[0] - want) <= 1e-12 * abs(want)

    def test_grid_keeps_converged_float_entries(self, monkeypatch):
        # the float64 series of the beta = 133 row converges long before
        # 1/Gamma underflows at argument 171.6, so the grid keeps it as
        # the scalar path does, although the beta = 0.5 row is still
        # summing there and goes on to the contour
        seen = []
        contour = sf._ml_contour

        def spy(alpha, betas, zs):
            seen.extend(np.asarray(betas).tolist())
            return contour(alpha, betas, zs)

        monkeypatch.setattr(sf, "_ml_contour", spy)
        zs = [-60.0, -15.770891926273373]
        grid = mittag_leffler_grid(1.5, [0.5, 133.0], zs)
        assert 0.5 in seen and 133.0 not in seen
        for j, z in enumerate(zs):
            want = float(mlf_series(1.5, 133.0, z, terms=200))
            assert abs(grid[1, j] - want) <= 1e-13 * abs(want)

    def test_contour_serves_alpha_at_most_two(self):
        # for alpha > 2, s^alpha = z has roots at +-3 pi/alpha as well,
        # whose residues the contour does not add
        _, est = sf._ml_contour(4.0, [1.0, 1.0], [-24.35, -60.0])
        assert np.all(np.isinf(est))

    @pytest.mark.parametrize("x", [20.0, 24.0, 24.35, 24.4, 60.0])
    def test_alpha_four_near_zero(self, x):
        # E_{4,1}(-x) = cosh(a) cos(a) with a = x^(1/4)/sqrt(2), which
        # vanishes near x = 24.35
        with mp.workdps(30):
            a = mp.mpf(x) ** 0.25 / mp.sqrt(2)
            want, scale = float(mp.cosh(a) * mp.cos(a)), float(mp.cosh(a))
        assert abs(mittag_leffler(4.0, 1.0, -x) - want) <= 1e-12 * scale
        assert abs(mittag_leffler_grid(4.0, [1.0], [-x])[0, 0] - want) <= 1e-12 * scale


class TestOneEscalationPath:
    """A scalar call and a one-entry grid escalate through one shared path.

    Inside a larger grid the batched contour sums can differ in the last
    bit, so each grid here holds the one entry.
    """

    @pytest.fixture
    def mpmath_calls(self, monkeypatch):
        calls = []

        def counted(original):
            def call(*args):
                calls.append(args)
                return original(*args)
            return call

        for name in ("_ml_extended", "_struve_extended"):
            monkeypatch.setattr(sf, name, counted(getattr(sf, name)))
        return calls

    @pytest.mark.parametrize("alpha,beta,z,mpmath", [
        (1.0, 2.0, -99.0, False), (1.5, 0.5, -60.0, False), (1.0, 1.0, -99.0, True)])
    def test_mittag_leffler(self, mpmath_calls, alpha, beta, z, mpmath):
        assert not sf._series_float(z, ((alpha, beta),), deep=True)[1]
        scalar = mittag_leffler(alpha, beta, z)
        assert len(mpmath_calls) == mpmath
        assert mittag_leffler_grid(alpha, [beta], [z])[0, 0] == scalar
        assert len(mpmath_calls) == 2 * mpmath

    # H_{1/2}(20) takes the Poisson integral; at 6.3, near the double zero
    # at 2 pi, its estimate fails and mpmath serves
    @pytest.mark.parametrize("v,z,mpmath", [
        (0.5, 20.0, False), (0.5, 6.3, True), (-0.5, 5e-324, False)])
    def test_struve(self, mpmath_calls, v, z, mpmath):
        scalar = struve_h(v, z)
        assert len(mpmath_calls) == mpmath
        assert generalized_struve_grid(SeriesSpec.struve(v), [z])[0] == scalar
        assert len(mpmath_calls) == 2 * mpmath

    def test_contour_leaves_nonnegative_z_alone(self):
        betas, zs = [1.0, 1.0, 2.0, 0.5], [-3.0, 0.0, 2.0, -60.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, est = sf._ml_contour(0.75, betas, zs)
        assert np.all(np.isinf(est[1:3]))
        for j in (0, 3):
            assert est[j] <= 1e-12 * abs(values[j])
            want = float(mlf_laplace(0.75, betas[j], zs[j]))
            assert values[j] == pytest.approx(want, rel=1e-10, abs=0.0)


def _products_grids(count=6, seed=20261019):
    """Seeded multi-row grids: alpha in [0.2, 2] and 2-40 rows, with a
    generator of their own for the points."""
    grids = []
    for k in range(count):
        rng = np.random.default_rng(seed + k)
        alpha = float(rng.uniform(0.2, 2.0))
        betas = np.sort(rng.uniform(0.5, 40.0, int(rng.integers(2, 41))))
        grids.append(pytest.param(alpha, betas, rng, id=f"seed{seed + k}"))
    return grids


def _ml_series_bound(alpha, beta, z):
    """E_{alpha,beta}(z) at 40 digits, with the float64 series' summed
    rounding bound sum_n |t_n| (n + |alpha n + beta| + 4): the n roundings
    of z^n and the error of 1/Gamma make each term's own error."""
    with mp.workdps(40):
        a, b, x = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total = bound = mp.mpf(0)
        for n in range(sf.MAX_TERMS + 100):
            g = a * n + b
            term = x**n * mp.rgamma(g)
            total += term
            bound += abs(term) * (n + abs(g) + 4)
            if g > 0 and abs(term) <= mp.mpf(10) ** -40 * bound:
                break
        return float(total), float(bound)


def _struve_specs(count=4, seed=20261020):
    """Seeded generalized specs with two distinct slopes in [0.6, 2], with
    a generator of their own for the points."""
    specs = []
    for k in range(count):
        rng = np.random.default_rng(seed + k)
        lam, alpha = rng.uniform(0.6, 2.0, 2)
        spec = SeriesSpec(lam=lam, alpha=alpha, mu=rng.uniform(0.5, 3.0),
                          order=rng.uniform(-0.5, 2.0))
        specs.append(pytest.param(spec, rng, id=f"seed{seed + k}"))
    return specs


def _struve_series_bound(spec, x):
    """The raw Struve-type sum sum_k x^k / (Gamma(alpha k + mu)
    Gamma(lam k + sigma)) at 40 digits, with the float64 series' summed
    rounding bound sum_k |t_k| (k + |alpha k + mu| + |lam k + sigma| + 4)."""
    with mp.workdps(40):
        pairs = [(mp.mpf(spec.alpha), mp.mpf(spec.mu)), (mp.mpf(spec.lam), mp.mpf(spec.sigma))]
        x = mp.mpf(x)
        total = bound = mp.mpf(0)
        for k in range(sf.MAX_TERMS + 100):
            g = [a * k + b for a, b in pairs]
            term = x**k * mp.rgamma(g[0]) * mp.rgamma(g[1])
            total += term
            bound += abs(term) * (k + abs(g[0]) + abs(g[1]) + 4)
            if min(g) > 0 and abs(term) <= mp.mpf(10) ** -40 * bound:
                break
        return float(total), float(bound)


class TestMittagLefflerProducts:
    """`_series_products`, the float64 tier of every grid."""

    @pytest.mark.parametrize("alpha,betas,rng", _products_grids())
    def test_accepted_entries_against_mpmath(self, alpha, betas, rng):
        # two blocks of columns, deep ones among them
        zs = np.concatenate((rng.uniform(-100.0, 100.0, 600),
                             [-99.0, -10.5, -3.0, 0.0, 2.0]))
        values, accepted = sf._series_products(zs, ((alpha, betas),), zs < sf._DEEP)
        assert values.shape == accepted.shape == (betas.size, zs.size)
        entries = np.argwhere(accepted)
        assert entries.size
        for i, j in entries[rng.choice(len(entries), min(20, len(entries)), replace=False)]:
            want, bound = _ml_series_bound(alpha, betas[i], zs[j])
            tol = 1e-13 * abs(want) + sf._EPS * bound
            assert abs(values[i, j] - want) <= tol
            # the scalar path's term-by-term loop as the reference
            loop, loop_accepted = sf._series_float(
                zs[j], ((alpha, betas[i]),), deep=zs[j] < sf._DEEP)
            if loop_accepted:
                assert abs(values[i, j] - loop) <= 2.0 * tol
            if zs[j] < sf._DEEP:
                # below _DEEP the bound itself must pass, as in the loop
                assert sf._EPS * bound <= 1.01e-12 * abs(want)

    @pytest.mark.parametrize("alpha,betas,rng", _products_grids(count=3, seed=7))
    def test_grid_values_against_mpmath(self, alpha, betas, rng):
        # E_{alpha,beta}(z) grows like exp(z^(1/alpha)): keep it in range
        zs = rng.uniform(-100.0, min(100.0, 30.0 ** alpha), 520)
        grid = mittag_leffler_grid(alpha, betas, zs)
        _, accepted = sf._series_products(zs, ((alpha, betas),), zs < sf._DEEP)
        for pick in (np.argwhere(accepted), np.argwhere(~accepted)):
            for i, j in pick[rng.choice(len(pick), min(5, len(pick)), replace=False)]:
                beta, z = float(betas[i]), float(zs[j])
                if z < 0.0:
                    want = float(mlf_laplace(alpha, beta, z))
                else:
                    want = _ml_series_bound(alpha, beta, z)[0]
                scale = max(abs(want), _pole_amplitude(alpha, beta, z))
                assert abs(grid[i, j] - want) <= 1e-12 * scale

    def test_one_row_keeps_the_scalar_budget(self):
        # measured against the sum of |terms|, 402 of these entries would
        # cancel past the budget; against the largest partial sum, as the
        # scalar measures, none does
        zs = -np.linspace(0.01, 5.0, 4097) ** 0.75
        _, accepted = sf._series_products(zs, ((0.75, [1.0]),), zs < sf._DEEP)
        assert accepted.all()
        assert all(sf._series_float(z, ((0.75, 1.0),))[1] for z in zs[::64])

    def test_mixed_block_keeps_small_entries_on_float64(self):
        # z = -99 sets the block's term count, which -3 and 2 share
        zs = np.array([-99.0, -3.0, 2.0])
        values, accepted = sf._series_products(zs, ((1.0, np.array([1.0, 2.0])),), zs < sf._DEEP)
        # at -99 the terms cancel past the budget, and the contour serves
        assert accepted.tolist() == [[False, True, True], [False, True, True]]
        assert values[0, 1] == pytest.approx(math.exp(-3.0), rel=1e-14)
        assert values[0, 2] == pytest.approx(math.exp(2.0), rel=1e-14)
        assert values[1, 2] == pytest.approx(math.expm1(2.0) / 2.0, rel=1e-14)

    def test_row_past_gamma_overflow_is_rejected(self):
        # from n = 22 on, 1/Gamma(n + 150) underflows to 0 while the terms
        # 50^n / Gamma(n + 150) have shrunk by only about 1e-11: the zero
        # terms must not pass for a met tail
        zs = np.array([50.0, 1.0])
        values, accepted = sf._series_products(zs, ((1.0, np.array([1.0, 150.0])),), zs < sf._DEEP)
        assert accepted.tolist() == [[True, True], [False, True]]
        grid = mittag_leffler_grid(1.0, [1.0, 150.0], zs)
        want = _ml_series_bound(1.0, 150.0, 50.0)[0]
        assert grid[1, 0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec,rng", _struve_specs())
    def test_struve_entries_against_mpmath(self, spec, rng):
        # two blocks of columns of a one-row grid
        zs = rng.uniform(0.0, 15.0, 600)
        half = 0.5 * zs
        xs = -(half * half)
        gammas = ((spec.alpha, spec.mu), (spec.lam, spec.sigma))
        values, accepted = sf._series_products(xs, [(a, [b]) for a, b in gammas])
        assert values.shape == accepted.shape == (1, zs.size)
        entries = np.flatnonzero(accepted[0])
        assert entries.size
        for j in rng.choice(entries, min(20, entries.size), replace=False):
            want, bound = _struve_series_bound(spec, xs[j])
            assert abs(values[0, j] - want) <= 1e-13 * abs(want) + sf._EPS * bound
        # final values, from float64 and from the scalar path's tiers alike
        rejected = np.flatnonzero(~accepted[0])
        picks = np.concatenate([rng.choice(pick, min(4, pick.size), replace=False)
                                for pick in (entries, rejected)])
        grid = generalized_struve_grid(spec, zs[picks])
        for z, x, value in zip(zs[picks], xs[picks], grid):
            want = generalized_struve(spec, float(z))
            bound = _struve_series_bound(spec, x)[1] * (0.5 * z) ** (spec.order + 1.0)
            assert abs(value - want) <= 1e-13 * abs(want) + 2.0 * sf._EPS * bound

    # grids of several Mittag-Leffler rows keep their old ids
    @pytest.mark.parametrize("kind,size", [
        pytest.param(kind, size, id=str(size) if kind == "rows" else f"{kind}-{size}")
        for kind in ("rows", "row", "struve") for size in (1, 511, 512, 513)])
    def test_block_edges_match_scalar(self, kind, size):
        if kind == "struve":
            spec = SeriesSpec(lam=1.4, alpha=0.8, mu=2.0, order=1.0)
            zs = np.linspace(0.0, 12.0, size) if size > 1 else np.array([3.2])
            grid = generalized_struve_grid(spec, zs)[None, :]
            scalars = [lambda z: generalized_struve(spec, z)]
        else:
            betas = [0.5, 1.0, 2.5] if kind == "rows" else [1.5]
            zs = np.linspace(-30.0, 20.0, size) if size > 1 else np.array([-3.2])
            grid = mittag_leffler_grid(0.75, betas, zs)
            scalars = [lambda z, b=b: mittag_leffler(0.75, b, z) for b in betas]
        assert grid.shape == (len(scalars), size)
        for j in sorted({0, size // 2, size - 1}):
            for i, scalar in enumerate(scalars):
                want = scalar(float(zs[j]))
                assert grid[i, j] == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_empty_grids(self):
        assert mittag_leffler_grid(1.0, [1.0, 2.0], []).shape == (2, 0)
        assert mittag_leffler_grid(1.0, [], []).shape == (0, 0)


def classical_struve_reference(v: float, z: float, terms: int = 80) -> float:
    """Literal textbook series, summed directly with math.gamma."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * (z / 2.0) ** (2 * k + v + 1) / (
            math.gamma(k + 1.5) * math.gamma(k + v + 1.5))
    return total


class TestStruve:
    def test_h_oracle_values(self):
        assert struve_h(0.5, 1.0) == pytest.approx(
            0.36678569278448927635937115257, rel=1e-13)
        assert struve_h(0.0, 2.0) == pytest.approx(
            0.790858849508095892551667682483, rel=1e-13)

    def test_h_closed_form_half_order(self):
        # H_{1/2}(z) = sqrt(2/(pi z)) (1 - cos z)
        for z in (0.5, 1.0, 3.0, 10.0):
            assert struve_h(0.5, z) == pytest.approx(
                math.sqrt(2 / (math.pi * z)) * (1 - math.cos(z)), rel=1e-12)

    def test_l_oracle_values(self):
        assert struve_l(0.5, 1.0) == pytest.approx(
            0.433315653790102090625999622586, rel=1e-13)
        assert struve_l(0.0, 1.0) == pytest.approx(
            0.710243185937890888738526677812, rel=1e-13)

    def test_l_closed_form_half_order(self):
        # L_{1/2}(z) = sqrt(2/(pi z)) (cosh z - 1)
        for z in (0.5, 1.0, 3.0):
            assert struve_l(0.5, z) == pytest.approx(
                math.sqrt(2 / (math.pi * z)) * (math.cosh(z) - 1), rel=1e-12)

    def test_z_zero(self):
        assert struve_h(1.0, 0.0) == 0.0
        assert struve_l(0.5, 0.0) == 0.0

    def test_negative_z_raises(self):
        with pytest.raises(DomainError):
            struve_h(0.5, -1.0)

    def test_order_at_most_minus_one_raises(self):
        with pytest.raises(DomainError):
            struve_h(-1.0, 1.0)

    def test_l_overflow_is_flagged(self):
        # L_v grows like e^z: far past the float range it must not return inf
        with pytest.raises(NonFiniteError):
            struve_l(0.0, 800.0)

    def test_h_matches_reference_series(self):
        # the raw float reference is itself only good while terms stay
        # small, so this sweep stops at z=4; larger z is checked against
        # frozen extended-precision oracles below
        for v in (0.0, 0.5, 1.0, 2.5):
            for z in (0.3, 1.0, 4.0):
                assert struve_h(v, z) == pytest.approx(
                    classical_struve_reference(v, z), rel=1e-10, abs=1e-13)

    def test_h_large_z_cancellation(self):
        # raw terms peak near 1e4 (z=12) and 1e7 (z=20) while the values
        # are O(0.1): literals frozen from 80-digit independent sums
        cases = [
            (0.0, 12.0, -0.17253413511998871735),
            (0.5, 12.0, 0.0359650291473557939),
            (0.0, 20.0, 0.094393698081323450897),
            (2.5, 20.0, 9.0589936180795281108),
        ]
        for v, z, want in cases:
            assert struve_h(v, z) == pytest.approx(want, rel=1e-10)

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.01, max_value=15.0))
    @settings(max_examples=100)
    def test_l_bounds_h(self, v, z):
        # same series with all-positive terms dominates the alternating one
        assert struve_l(v, z) >= abs(struve_h(v, z)) - 1e-12


class TestGeneralizedStruve:
    def test_oracle_value(self):
        spec = SeriesSpec(lam=2.0, alpha=1.5, mu=1.0, order=0.5, sigma=2.0)
        assert generalized_struve(spec, 1.3) == pytest.approx(
            0.496417178009872812524854785416, rel=1e-13)

    def test_sigma_default(self):
        spec = SeriesSpec(lam=1.0, alpha=1.0, mu=1.5, order=0.7)
        assert spec.sigma == pytest.approx(0.7 + 1.5)

    def test_reduces_to_classical(self):
        for v in (0.0, 0.5, 1.0, 2.0):
            spec = SeriesSpec(lam=1.0, alpha=1.0, mu=1.5, order=v)
            for z in (0.2, 1.0, 3.0, 7.0, 15.0):
                assert generalized_struve(spec, z) == pytest.approx(
                    struve_h(v, z), rel=1e-12, abs=1e-15)

    def test_grid_matches_scalar(self):
        # the second spec decays slowly: from z = 5 on, its entries cancel
        # past the float64 budget and escalate to mpmath one by one (at
        # z = 15 one mpmath evaluation takes seconds, so the test stops
        # at 12)
        for spec, zs in (
            (SeriesSpec(lam=1.7, alpha=0.8, mu=1.2, order=0.3),
             np.array([0.0, 0.5, 2.0, 9.0, 12.0, 20.0])),
            (SeriesSpec(lam=0.31, alpha=0.43, mu=0.67, order=0.3),
             np.array([0.0, 0.5, 2.0, 5.0, 9.0, 12.0])),
        ):
            vals = generalized_struve_grid(spec, zs)
            for z, val in zip(zs, vals):
                assert val == pytest.approx(generalized_struve(spec, float(z)),
                                            rel=1e-12, abs=1e-300)

    def test_grid_escalates_entry_by_entry(self, monkeypatch):
        calls = []
        original = sf._struve_rescue

        def counted(gammas, order, zs, sign):
            calls.append(zs.tolist())
            return original(gammas, order, zs, sign)

        monkeypatch.setattr(sf, "_struve_rescue", counted)
        zs = np.array([1.0, 20.0])
        values = generalized_struve_grid(SeriesSpec.struve(0.5), zs)
        assert calls == [[20.0]]
        # H_{1/2}(z) = sqrt(2 / (pi z)) (1 - cos z)
        want = np.sqrt(2.0 / (np.pi * zs)) * (1.0 - np.cos(zs))
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)

    def test_grid_overflow_is_silent(self):
        # the powers of the z = 300 entry overflow before it escalates
        zs = np.array([1.0, 300.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = generalized_struve_grid(SeriesSpec.struve(0.5), zs)
        want = np.sqrt(2.0 / (np.pi * zs)) * (1.0 - np.cos(zs))
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kwargs", [
        dict(lam=0.0, alpha=1.0, mu=1.5, order=1.0),
        dict(lam=1.0, alpha=-1.0, mu=1.5, order=1.0),
        dict(lam=1.0, alpha=1.0, mu=1.5, order=-1.0),
    ])
    def test_invalid_spec_raises(self, kwargs):
        with pytest.raises(DomainError):
            SeriesSpec(**kwargs)

    def test_struve_classmethod(self):
        spec = SeriesSpec.struve(1.5)
        assert (spec.lam, spec.alpha, spec.mu) == (1.0, 1.0, 1.5)
        assert spec.sigma == pytest.approx(3.0)


class TestStruveVariants:
    """Each named special case against its literal hand-coded series."""

    Z_POINTS = (0.25, 0.8, 1.5, 3.0, 6.0)

    @staticmethod
    def _sum(coeff_fn, z, terms=60):
        total = 0.0
        for k in range(terms):
            total += (-1.0) ** k * (z / 2.0) ** coeff_fn(k)[1] \
                / coeff_fn(k)[0]
        return total

    def test_single_slope_variant(self):
        # H_l^lam: gammas Gamma(lam k + l + 3/2) Gamma(k + 3/2)
        lam, l = 1.8, 0.5
        spec = SeriesSpec(lam=lam, alpha=1.0, mu=1.5, order=l)
        for z in self.Z_POINTS:
            ref = self._sum(
                lambda k: (math.gamma(lam * k + l + 1.5)
                           * math.gamma(k + 1.5), 2 * k + l + 1), z)
            assert generalized_struve(spec, z) == pytest.approx(
                ref, rel=1e-12)

    def test_two_slope_variant(self):
        # H_{p,mu}^{lam,alpha}: gammas Gamma(alpha k + mu) Gamma(lam k + p + 3/2)
        lam, alpha, mu, l = 1.4, 0.9, 1.1, 0.5
        spec = SeriesSpec(lam=lam, alpha=alpha, mu=mu, order=l)
        for z in self.Z_POINTS:
            ref = self._sum(
                lambda k: (math.gamma(alpha * k + mu)
                           * math.gamma(lam * k + l + 1.5), 2 * k + l + 1), z)
            assert generalized_struve(spec, z) == pytest.approx(
                ref, rel=1e-12)

    def test_scaled_offset_variant(self):
        # H_{l,mu}^{lam}: gammas Gamma(lam k + l/mu + 3/2) Gamma(k + 3/2)
        lam, mu, l = 1.6, 2.0, 1.0
        spec = SeriesSpec(lam=lam, alpha=1.0, mu=1.5, order=l,
                          sigma=l / mu + 1.5)
        for z in self.Z_POINTS:
            ref = self._sum(
                lambda k: (math.gamma(lam * k + l / mu + 1.5)
                           * math.gamma(k + 1.5), 2 * k + l + 1), z)
            assert generalized_struve(spec, z) == pytest.approx(
                ref, rel=1e-12)


class TestStruveDerivatives:
    def test_value_matches_plain(self):
        for v in (0.0, 0.5, 1.0):
            for x in (0.3, 1.0, 4.0):
                y, _, _ = struve_h_with_derivatives(v, x)
                assert y == pytest.approx(struve_h(v, x), rel=1e-13)

    def test_derivative_by_finite_difference(self):
        v, x, h = 0.5, 1.7, 1e-6
        _, dy, _ = struve_h_with_derivatives(v, x)
        fd = (struve_h(v, x + h) - struve_h(v, x - h)) / (2 * h)
        assert dy == pytest.approx(fd, rel=1e-8)

    def test_ode_residual(self):
        # x^2 y'' + x y' + (x^2 - v^2) y = 4 (x/2)^(v+1) / (sqrt(pi) G(v+1/2))
        for v in (0.0, 0.5, 1.0):
            for x in np.linspace(0.1, 5.0, 25):
                y, dy, ddy = struve_h_with_derivatives(v, float(x))
                lhs = x * x * ddy + x * dy + (x * x - v * v) * y
                rhs = 4.0 * (x / 2.0) ** (v + 1.0) / (
                    math.sqrt(math.pi) * gamma(v + 0.5))
                assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(y))

    def test_requires_positive_x(self):
        with pytest.raises(DomainError):
            struve_h_with_derivatives(0.5, 0.0)

    @pytest.mark.parametrize("z", [16.9, 20.0, 25.0, 40.0])
    def test_served_past_fifteen(self, z):
        # the old loop was 1.9e-9 off at z = 16.9 and refused z >= 20
        for v in (0.0, 0.5, 1.0, 1.5):
            want = _derivatives_mp(v, z)
            size = max(abs(w) for w in want)
            for g, w in zip(struve_h_with_derivatives(v, z), want):
                assert abs(g - w) <= 1e-10 * size, (v, z, g, w)

    @pytest.mark.parametrize("z", [8.0, 12.0, 15.0, 20.0])
    def test_served_without_mpmath(self, z, monkeypatch):
        # S and A take the Poisson integral where float64 rejects them, and
        # B, no classical sum, follows from S by one index shift
        def refuse(*args):
            raise AssertionError(f"mpmath tier reached: {args!r}")

        monkeypatch.setattr(sf, "_struve_extended", refuse)
        for v in (-0.6, 0.0, 0.5, 1.3, 1.9):
            want = _derivatives_mp(v, z)
            size = max(abs(w) for w in want)
            for g, w in zip(struve_h_with_derivatives(v, z), want):
                assert abs(g - w) <= 1e-10 * size, (v, z, g, w)

    def test_sweep_against_mpmath(self):
        # the old loop was 1.9e-9 off at (0.72, 16.9), 8.5e-10 at
        # (1e-6, 15) and 8.3e-8 in H'' at (1e-9, 1e-9)
        vs = (-0.99, -0.6, 0.0, 1e-9, 1e-6, 0.3, 0.72, 1.0, 1.5, 1.999)
        zs = (1e-9, 1e-3, 0.5, 2.0, 8.0, 15.0, 16.9, 30.0)
        for v, z in [(v, z) for v in vs for z in zs]:
            want = _derivatives_mp(v, z)
            size = max(abs(w) for w in want)
            for g, w in zip(struve_h_with_derivatives(v, z), want):
                assert abs(g - w) <= 1e-10 * size, (v, z, g, w)

    def test_value_is_struve_h_bit_for_bit(self):
        # wherever the float64 tier serves S (at z = 12 mpmath does)
        for v in (-0.6, 0.0, 0.5, 1.3, 1.9):
            for z in (1e-6, 0.7, 3.0, 8.0):
                assert struve_h_with_derivatives(v, z)[0] == struve_h(v, z)

    def test_tiny_argument_takes_leading_terms(self):
        z = 1e-170
        for v in (0.5, 1.9):
            c = 2.0 ** (-v - 1) / (math.gamma(1.5) * math.gamma(v + 1.5))
            want = (c * z ** (v + 1), (v + 1) * c * z ** v,
                    v * (v + 1) * c * z ** (v - 1))
            got = struve_h_with_derivatives(v, z)
            # for v = 1.9, H and H' underflow; H'' is about 2.8e-154
            for g, w in list(zip(got, want))[(0 if v == 0.5 else 2):]:
                assert g == pytest.approx(w, rel=1e-12)
        with pytest.raises(NonFiniteError):
            struve_h_with_derivatives(-0.9, z)

    def test_smallest_subnormal(self):
        # z/2 rounds to 0.0; H underflows, H' and H'' come from the leading
        # terms (v+1)/2 c u^v and v(v+1)/4 c u^(v-1), c = 1/(G(3/2) G(v+3/2))
        z, v = 5e-324, 0.5
        with mp.workdps(50):
            u = mp.mpf(z) / 2
            c = 1 / (mp.gamma(1.5) * mp.gamma(v + 1.5))
            want = (float((v + 1) / 2 * c * u ** v),
                    float(v * (v + 1) / 4 * c * u ** (v - 1)))
        h, dh, ddh = struve_h_with_derivatives(v, z)
        assert h == 0.0 == struve_h(v, z)
        assert dh == pytest.approx(want[0], rel=1e-12)
        assert ddh == pytest.approx(want[1], rel=1e-12)

    def test_against_mpmath_at_fifteen(self):
        # H' = H_{v-1} - (v/z) H, and H'' from the Struve equation
        z = 15.0
        with mp.workdps(40):
            for v in (0.0, 0.5, 1.0, 1.5):
                h = mp.struveh(v, z)
                dh = mp.struveh(v - 1, z) - v / mp.mpf(z) * h
                rhs = 4 * (mp.mpf(z) / 2) ** (v + 1) / (
                    mp.sqrt(mp.pi) * mp.gamma(v + 0.5))
                ddh = (rhs - z * dh - (z * z - v * v) * h) / (z * z)
                want = [float(h), float(dh), float(ddh)]
                got = struve_h_with_derivatives(v, z)
                size = max(abs(w) for w in want)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-9 * size, (v, g, w)


def _struve_termwise(v, z, derivative):
    """d^derivative/dz^derivative of the H_v series, term by term, 60 digits.

    Each term (-1)^k u^p / (G(k+3/2) G(k+v+3/2)), u = z/2, p = 2k+v+1, is
    differentiated as a power of u, on the exact float z.
    """
    with mp.workdps(60):
        u, v, total = mp.mpf(z) / 2, mp.mpf(v), mp.mpf(0)
        for k in range(4):
            p = 2 * k + v + 1
            weight = mp.mpf(1)
            for j in range(derivative):
                weight *= (p - j) / 2
            total += (-1) ** k * weight * u ** (p - derivative) / (
                mp.gamma(k + 1.5) * mp.gamma(k + v + 1.5))
        return float(total)


class TestPoissonTier:
    """Tier 2 of the classical H_v: Poisson's integral on a tanh-sinh rule,
    for the entries float64 rejects, up to z = 40."""

    @staticmethod
    def _draws():
        rng = random.Random(20261021)
        draws = [(rng.uniform(-1.0, 2.0), rng.uniform(0.0, 40.0)) for _ in range(240)]
        # H_{1/2}(z) = sqrt(2 / (pi z)) (1 - cos z) has a double zero at 2 pi
        draws += [(0.5, 2.0 * math.pi + rng.uniform(-0.5, 0.5)) for _ in range(40)]
        return [(v, z) for v, z in draws if v > -1.0 and z > 0.0]

    def test_sweep_against_mpmath(self):
        accepted = escalated = 0
        for v, z in self._draws():
            # the rescue reads the order back from the gamma offset v + 3/2
            raw, est = sf._struve_poisson((v + 1.5) - 1.5, np.array([z]))
            with mp.workdps(40):
                want = mp.struveh(v, z) / (mp.mpf(z) / 2) ** (v + 1)
            served = est[0] <= 1e-12 * abs(raw[0])
            if served:
                accepted += 1
                assert abs(raw[0] - want) <= 1e-12 * abs(want), (v, z)
            half = 0.5 * z
            gammas = ((1.0, 1.5), (1.0, v + 1.5))
            if sf._series_float(-(half * half), gammas)[1]:
                continue
            escalated += 1
            value = struve_h(v, z)
            if served:
                assert value == sf._scaled(raw[0], v, z)
            else:
                assert value == sf._struve_extended(gammas, v, z, -1.0), (v, z)
        assert accepted >= 0.9 * len(self._draws())
        assert escalated >= 100

    def test_benchmark_escalations_leave_mpmath(self, rgamma_calls):
        # the direct struve_h calls that one round of point-evals (seed 1)
        # used to send to the mpmath series
        cases = [(1.6043, 16.9447), (0.3381, 16.5197), (1.3052, 19.1648),
                 (1.3449, 11.6362), (0.5655, 12.3986), (1.1529, 14.643)]
        values = [struve_h(v, z) for v, z in cases]
        assert rgamma_calls == []
        for (v, z), value in zip(cases, values):
            assert value == pytest.approx(float(mp.struveh(v, z)), rel=1e-12)

    @pytest.mark.parametrize("v", [0.5, 0.338, 1.7, -0.6])
    def test_grid_entry_is_the_scalar_call(self, v, monkeypatch):
        # every entry the grid's float64 pass rejects goes to one batched
        # rescue, and comes back bit for bit as the scalar call's value,
        # whatever else shares its batch (float64 entries come from the
        # grid's own kernel, and may differ in the last bits)
        mpmath_calls = []
        original = sf._struve_extended

        def counted(gammas, order, z, sign):
            mpmath_calls.append(z)
            return original(gammas, order, z, sign)

        monkeypatch.setattr(sf, "_struve_extended", counted)
        zs = np.linspace(0.1, 30.0, 400)
        grid = generalized_struve_grid(SeriesSpec.struve(v), zs)
        half = 0.5 * zs
        accepted = sf._series_products(-(half * half), [(1.0, [1.5]), (1.0, [v + 1.5])])[1]
        escalated = np.flatnonzero(~accepted[0])
        assert escalated.size > 100
        for j in escalated:
            assert grid[j] == struve_h(v, float(zs[j])), (v, zs[j])
        if v == 0.5:
            # the entries near 2 pi reach mpmath, from the grid and the scalar
            assert 0 < len(mpmath_calls) < escalated.size

    def test_table_is_built_on_first_use(self):
        script = ("import frackin.cli, frackin.special_functions as sf; "
                  "assert sf._poisson_nodes is None; "
                  "frackin.struve_h(0.5, 19.2); "
                  "assert sf._poisson_nodes is not None")
        subprocess.run([sys.executable, "-c", script], check=True)


class TestStruveOverflow:
    def test_argument_past_float64_range_is_refused_silently(self):
        # (z/2)^2 overflows: the float64 tier refuses the entry, and the
        # mpmath series cannot converge there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                generalized_struve_grid(SeriesSpec.struve(0.5), [1e200])


class TestStruveSubnormal:
    """z/2 below the normal range: powers of z/2 are taken from z itself.

    Expected values are tiny, so every comparison drops pytest.approx's
    default absolute tolerance of 1e-12.
    """

    def test_struve_h_negative_order(self):
        # halving z would round it to 0.0 or to one subnormal ulp
        for z in (5e-324, 1.5e-323):
            want = _struve_termwise(-0.5, z, 0)
            assert struve_h(-0.5, z) == pytest.approx(want, rel=1e-12, abs=0.0)
            grid = generalized_struve_grid(SeriesSpec.struve(-0.5), [0.0, z, 1.0])
            assert grid[1] == pytest.approx(want, rel=1e-12, abs=0.0)
            assert grid[2] == pytest.approx(float(_oracles.struve_series(-0.5, 1.0)),
                                            rel=1e-15, abs=0)
        assert struve_h(-0.5, 5e-324) == pytest.approx(1.7735049e-162, rel=1e-7, abs=0.0)
        assert struve_h(-0.5, 1.5e-323) == pytest.approx(3.0718006e-162, rel=1e-7, abs=0.0)

    def test_derivatives_at_subnormal_z(self):
        z = 1.5e-323
        h, dh, ddh = struve_h_with_derivatives(0.5, z)
        assert h == 0.0
        assert dh == pytest.approx(_struve_termwise(0.5, z, 1), rel=1e-12, abs=0.0)
        assert ddh == pytest.approx(_struve_termwise(0.5, z, 2), rel=1e-12, abs=0.0)
        assert dh == pytest.approx(2.3038504e-162, rel=1e-7, abs=0.0)
        assert ddh == pytest.approx(7.7717420e160, rel=1e-7, abs=0.0)

    def test_order_zero_needs_no_negative_power(self):
        # at v = 0 the v(v+1) term of H'' is exactly 0, leaving -u (S - A/2);
        # at z = 1e-310, H and H'' are subnormal and carry fewer digits
        for z, rel in ((1e-310, 1e-11), (1e-300, 1e-12)):
            got = struve_h_with_derivatives(0.0, z)
            want = [_struve_termwise(0.0, z, j) for j in range(3)]
            assert got[0] == pytest.approx(want[0], rel=rel, abs=0.0)
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)
            assert got[2] == pytest.approx(want[2], rel=rel, abs=0.0)
        got = struve_h_with_derivatives(0.0, 1e-310)
        assert got == pytest.approx((6.3661977e-311, 0.63661977, -4.2441318e-311),
                                    rel=1e-7, abs=0.0)

    def test_true_overflow_still_raises(self):
        # H'' is 8.85e314 at v = 0.02 and -1.8e484 at v = -0.5
        for v in (0.02, -0.5):
            with pytest.raises(NonFiniteError):
                struve_h_with_derivatives(v, 5e-324)


class TestConvergenceGuards:
    def test_mlf_cap_raises(self):
        # alpha tiny and z near the range edge needs more than the term cap
        with pytest.raises((ConvergenceError, DomainError)):
            mittag_leffler(0.01, 1.0, 99.0)


class TestFastRefusal:
    """Where no partial sum within the mpmath budget can meet the tail
    rule, because the terms still grow at its last term or have not yet
    fallen far enough below their peak, `_series_mp` refuses before it
    sums any."""

    @pytest.mark.parametrize("call", [
        lambda: struve_h(0.5, 1e6),
        lambda: generalized_struve(SeriesSpec.struve(0.5), 1e200),
        lambda: mittag_leffler(0.1, 1.0, 50.0),
        lambda: mittag_leffler(0.2, 1.0, 99.0),
        # the terms peak at n = 3565, and term 4999 is only e^-25.6 below
        lambda: mittag_leffler(0.1, 1.0, 1.8),
    ], ids=["struve-1e6", "struve-1e200", "mlf-0.1-50", "mlf-0.2-99",
            "mlf-0.1-1.8"])
    def test_growing_terms_are_refused_unsummed(self, call, rgamma_calls):
        with pytest.raises(ConvergenceError,
                           match="did not meet the tail criterion within 5000 terms"):
            call()
        assert rgamma_calls == []

    def test_decaying_terms_are_still_summed(self, rgamma_calls):
        # E_{1/2,1}(z) = exp(z^2) erfc(-z); at z = 26 the terms peak near
        # n = 1350 and the ratio bound at the budget's end reads 0.52
        z = 26.0
        want = mp.exp(mp.mpf(z) ** 2) * mp.erfc(-z)
        assert mittag_leffler(0.5, 1.0, z) == pytest.approx(float(want), rel=1e-12)
        assert len(rgamma_calls) > 1000

    @pytest.mark.parametrize("spec", [
        SeriesSpec(lam=1e303, alpha=1.0, mu=1.0, order=0.5),
        SeriesSpec(lam=1.0, alpha=1e303, mu=1.0, order=0.5),
    ], ids=["lam", "alpha"])
    def test_huge_slopes_are_summed(self, spec):
        # math.lgamma overflows past 2.5e305, so such a series is summed,
        # not judged; every term past the first is 0, leaving (z/2)^1.5
        assert generalized_struve(spec, 0.5) == pytest.approx(0.125, rel=1e-15)
        assert generalized_struve(spec, 50.0) == pytest.approx(125.0, rel=1e-15)


class TestNonFiniteArguments:
    def test_nan_z_raises(self):
        spec = SeriesSpec.struve(0.5)
        calls = [
            lambda: mittag_leffler(0.75, 1.0, math.nan),
            lambda: mittag_leffler_grid(0.75, [1.0], [0.5, math.nan]),
            lambda: struve_h(0.5, math.nan),
            lambda: struve_h(0.5, math.inf),
            lambda: generalized_struve_grid(spec, [1.0, math.nan]),
            lambda: generalized_struve_grid(spec, [1.0, math.inf]),
        ]
        for call in calls:
            with pytest.raises(DomainError):
                call()

    def test_nan_parameters_raise(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.75, math.nan, 0.5)
        with pytest.raises(DomainError):
            struve_h(math.nan, 1.0)
        for field in ("mu", "sigma"):
            params = dict(lam=1.0, alpha=1.0, mu=1.5, order=0.5)
            params[field] = math.nan
            with pytest.raises(DomainError):
                SeriesSpec(**params)
