"""Grid handling and Riemann-Liouville integral quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frackin import (
    DomainError,
    Grid,
    InsufficientGrid,
    NonFiniteError,
    gamma,
    rl_integral_grid,
    rl_integral_power,
    rl_profile,
)
from frackin.fractional_ops import _BLOCK, _convolved, _self_similar_tail


class TestGrid:
    def test_uniform(self):
        g = Grid.uniform(0.1, 1.0, 10)
        assert g.n == 10
        assert g.points[0] == pytest.approx(0.1)
        assert g.points[-1] == pytest.approx(1.0)

    def test_log(self):
        g = Grid.log(0.01, 1.0, 5)
        ratios = np.diff(np.log(g.array))
        assert np.allclose(ratios, ratios[0])

    def test_requires_two_points(self):
        with pytest.raises(DomainError):
            Grid((1.0,))

    @pytest.mark.parametrize("make", [Grid.uniform, Grid.log])
    @pytest.mark.parametrize("n", [-5, -1, 0, 1])
    def test_spaced_grid_requires_two_points(self, make, n):
        # numpy itself rejects a negative count with a bare ValueError
        with pytest.raises(DomainError, match=f"grid needs at least 2 points, got {n}$"):
            make(0.1, 1.0, n)

    def test_requires_positive_start(self):
        with pytest.raises(DomainError):
            Grid((0.0, 1.0))

    def test_requires_strictly_increasing(self):
        with pytest.raises(DomainError):
            Grid((0.5, 0.5, 1.0))

    @pytest.mark.parametrize("points,message", [
        ((0.5, 1.0, 1.0), "strictly increasing"),
        ((0.5, math.nan, 1.0), "strictly increasing"),
        ((math.nan, 0.5, 1.0), "strictly increasing"),
        ((0.5, 1.0, math.nan), "strictly increasing"),
        ((-0.5, 1.0), "must be positive, got -0.5"),
        ((0.5, 1.0, math.inf), "grid points must be finite"),
        ((0.5, math.inf, math.inf), "grid points must be finite"),
    ])
    def test_rejects_bad_points(self, points, message):
        with pytest.raises(DomainError, match=message):
            Grid(points)

    def test_infinite_end_cannot_reach_quadrature(self):
        # an infinite point once gave NaN from rl_profile, with only a warning
        with pytest.raises(DomainError, match="finite"):
            rl_profile(Grid((0.5, 1.0, math.inf)), np.ones(4), 0.5)
        with pytest.raises(DomainError, match="finite"):
            Grid.uniform(0.01, math.inf, 8)
        with pytest.raises(DomainError, match="finite"):
            Grid.log(0.01, math.inf, 8)

    def test_points_are_python_floats(self):
        g = Grid(np.array([0.25, 0.5, 2.0]))
        assert g.points == (0.25, 0.5, 2.0)
        assert all(type(p) is float for p in g.points)
        assert g == Grid((0.25, 0.5, 2.0))

    def test_refine_halves_spacing(self):
        g = Grid.uniform(0.2, 1.0, 5)
        f = g.refine()

        def widest(grid):
            # the implicit origin panel [0, t_1] counts
            return np.max(np.diff(np.concatenate(([0.0], grid.array))))

        assert f.n == 2 * g.n
        assert widest(f) == pytest.approx(widest(g) / 2)
        assert set(np.round(g.array, 12)).issubset(set(np.round(f.array, 12)))

    @pytest.mark.parametrize("grid", [
        Grid.uniform(0.01, 2.0, 300),
        Grid.log(0.01, 2.0, 300),
        Grid(tuple(2.0 * (np.arange(1, 65) / 64) ** 2)),
        Grid.uniform(0.01, 2.0, 150).refine(),
        Grid.log(0.01, 2.0, 150).refine(),
        Grid.uniform(0.1, 1.0, 5),
    ], ids=["uniform", "log", "graded", "uniform-refined", "log-refined", "n5"])
    def test_refine_keeps_every_point_at_odd_indices(self, grid):
        # verify reads the base grid's values as the refined grid's [1::2]
        fine = grid.refine()
        assert fine.n == 2 * grid.n
        assert np.array_equal(fine.array[1::2], grid.array)
        assert fine.array[0] == 0.5 * grid.array[0]

    def test_refined_log_grid_is_a_log_grid(self):
        g = Grid.log(0.01, 2.0, 300)
        fine = g.refine()
        head, geometric = _self_similar_tail(np.concatenate(([0.0], fine.array)))
        assert geometric and head <= 2
        ratio = g.array[-1] / g.array[-2]
        tail = fine.array[head:]
        assert np.allclose(tail[1:] / tail[:-1], math.sqrt(ratio), rtol=1e-13, atol=0)

    def test_geometric_midpoints_do_not_overflow(self):
        # an exact ratio of 2 is found geometric; sqrt(a b) would overflow
        g = Grid(1e155 * 2.0 ** np.arange(16))
        fine = g.refine()
        assert np.all(np.isfinite(fine.array))
        assert fine.array[-2] == pytest.approx(g.array[-2] * math.sqrt(2.0), rel=1e-15)

    def test_array_read_only(self):
        g = Grid.uniform(0.1, 1.0, 4)
        with pytest.raises(ValueError):
            g.array[0] = 7.0


class TestPowerRule:
    def test_oracle_value(self):
        assert rl_integral_power(0.5, 0.75, 1.0) == pytest.approx(
            0.78219285395753903810522837458, rel=1e-14)

    def test_reduces_to_ordinary_integral(self):
        # v=1 integrates: I(t^2) = t^3/3
        assert rl_integral_power(2.0, 1.0, 2.0) == pytest.approx(8.0 / 3.0,
                                                                 rel=1e-14)

    def test_closed_form_structure(self):
        a, v, t = 1.3, 0.6, 2.5
        expected = gamma(a + 1) / gamma(a + 1 + v) * t ** (a + v)
        assert rl_integral_power(a, v, t) == pytest.approx(expected,
                                                           rel=1e-14)

    def test_invalid_order_raises(self):
        with pytest.raises(DomainError):
            rl_integral_power(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            rl_integral_power(1.0, -0.5, 1.0)

    def test_infinite_time_raises(self):
        with pytest.raises(DomainError):
            rl_integral_power(1.0, 0.5, math.inf)

    def test_overflow_raises(self):
        # t^1.5 passes the float64 range
        with pytest.raises(NonFiniteError):
            rl_integral_power(1.0, 0.5, 1e300)

    def test_gamma_ratio_past_the_range(self):
        # Gamma(171.5) and Gamma(172.5) both overflow; their ratio is 1/171.5
        assert rl_integral_power(170.5, 1.0, 1.0) == pytest.approx(
            1.0 / 171.5, rel=1e-12, abs=0.0)

    def test_float_expression_kept_where_finite(self):
        for a, v, t in ((1.3, 0.6, 2.5), (150.0, 1.95, 0.02), (-0.5, 0.05, 1e-200)):
            assert rl_integral_power(a, v, t) == (
                math.gamma(a + 1.0) / math.gamma(a + 1.0 + v) * t ** (a + v))

    @given(st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.1, max_value=1.5),
           st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=100)
    def test_monotone_in_t(self, a, v, t):
        # the integrand is nonnegative, so the integral grows with t
        assert rl_integral_power(a, v, t + 0.5) > rl_integral_power(a, v, t)


def _power_samples(grid: Grid, a: float) -> np.ndarray:
    origin = 1.0 if a == 0 else 0.0
    return np.concatenate(([origin], grid.array ** a))


class TestGridQuadrature:
    def test_exact_on_constant_and_linear(self):
        # piecewise-linear data is reproduced exactly by the panel moments
        g = Grid.uniform(0.125, 2.0, 16)
        for a in (0.0, 1.0):
            for v in (0.25, 0.75, 1.0):
                got = rl_integral_grid(g, _power_samples(g, a), v, g.n - 1)
                want = rl_integral_power(a, v, 2.0)
                assert got == pytest.approx(want, rel=1e-13)

    def test_oracle_exp_integrand(self):
        g = Grid.uniform(1 / 2048, 1.0, 2048)
        samples = np.concatenate(([1.0], np.exp(g.array)))
        got = rl_integral_grid(g, samples, 0.75, g.n - 1)
        assert got == pytest.approx(2.01147427041297169714514913416,
                                    rel=1e-7)

    def test_profile_matches_pointwise(self):
        g = Grid.uniform(0.05, 1.0, 20)
        samples = _power_samples(g, 2.0)
        prof = rl_profile(g, samples, 0.5)
        for i in (0, 7, 19):
            assert prof[i] == pytest.approx(
                rl_integral_grid(g, samples, 0.5, i), rel=1e-14)

    def test_sample_shape_mismatch_raises(self):
        g = Grid.uniform(0.1, 1.0, 4)
        with pytest.raises(DomainError):
            rl_integral_grid(g, np.ones(4), 0.5, 3)

    def test_bad_index_raises(self):
        g = Grid.uniform(0.1, 1.0, 4)
        with pytest.raises(InsufficientGrid):
            rl_integral_grid(g, np.ones(5), 0.5, 4)

    def test_invalid_order_raises(self):
        g = Grid.uniform(0.1, 1.0, 4)
        with pytest.raises(DomainError):
            rl_integral_grid(g, np.ones(5), -0.1, 2)

    def test_linearity(self):
        g = Grid.uniform(0.1, 1.5, 24)
        f1 = _power_samples(g, 1.0)
        f2 = np.concatenate(([1.0], np.cos(g.array)))
        a, b = 2.5, -0.7
        combined = rl_integral_grid(g, a * f1 + b * f2, 0.6, 12)
        separate = a * rl_integral_grid(g, f1, 0.6, 12) \
            + b * rl_integral_grid(g, f2, 0.6, 12)
        assert combined == pytest.approx(separate, rel=1e-13)


class TestScaleInvariance:
    """The rule on the uniform grid of [t/n, t] is the unit rule times t^v.

    Both grids take the same samples, f at t times the unit grid's
    points, so only the kernel's scaling separates the two sums.
    """

    @pytest.mark.parametrize("f", [lambda t: t ** 2,
                                   lambda t: np.sqrt(t) + np.exp(-t)],
                             ids=["square", "root_plus_decay"])
    @pytest.mark.parametrize("n", [16, 2048])
    @pytest.mark.parametrize("v", [0.05, 0.7, 1.0, 1.95])
    @pytest.mark.parametrize("t", [1e-6, 0.37, 3.7, 171.6])
    def test_scaled_unit_rule(self, t, v, n, f):
        unit = Grid.uniform(1 / n, 1.0, n)
        samples = f(t * np.concatenate(([0.0], unit.array)))
        got = rl_integral_grid(Grid.uniform(t / n, t, n), samples, v, n - 1)
        want = t ** v * rl_integral_grid(unit, samples, v, n - 1)
        assert got == pytest.approx(want, rel=1e-10)


def _smooth_samples(grid: Grid) -> np.ndarray:
    return np.concatenate(([1.0], np.exp(-grid.array) + np.sqrt(grid.array)))


def _exact_rows(grid: Grid, samples: np.ndarray, v: float) -> np.ndarray:
    return np.array([rl_integral_grid(grid, samples, v, i)
                     for i in range(grid.n)])


def _tail(grid: Grid):
    return _self_similar_tail(np.concatenate(([0.0], grid.array)))


def _moved_point_grid() -> Grid:
    pts = np.linspace(0.01, 2.0, 64)
    pts[30] += 1e-9
    return Grid(pts)


class TestProfileRoutes:
    """rl_profile convolves self-similar tails and loops over other grids."""

    ORDERS = (0.05, 0.5, 1.0, 1.5, 2.0)

    # (grid, (head panels, geometric))
    TAIL_GRIDS = [
        (Grid.uniform(0.01, 2.0, 700), (1, False)),
        (Grid.uniform(0.01, 2.0, 350).refine(), (2, False)),
        (Grid.log(0.01, 2.0, 700), (1, True)),
        (Grid.log(0.01, 2.0, 350).refine(), (2, True)),
        (Grid.uniform(3.0 / 700, 3.0, 700), (0, False)),
        (Grid.log(1e-5, 5.0, 2048), (1, True)),
    ]

    @pytest.mark.parametrize("grid,expected", TAIL_GRIDS,
                             ids=["uniform", "uniform-refined", "log",
                                  "log-refined", "uniform-from-origin",
                                  "log-wide"])
    def test_tail_grids_match_exact_rows(self, grid, expected):
        assert _tail(grid) == expected
        samples = _smooth_samples(grid)
        for v in self.ORDERS:
            got = rl_profile(grid, samples, v)
            want = _exact_rows(grid, samples, v)
            rel = np.max(np.abs(got - want) / np.abs(want))
            assert rel <= 1e-12, f"v={v}: {rel:.2e}"

    @pytest.mark.parametrize("grid", [
        Grid.uniform(0.1, 1.0, 2),
        Grid.uniform(0.1, 1.0, 3),
        Grid.uniform(0.1, 1.0, 5),
        Grid(tuple(2.0 * (np.arange(1, 65) / 64) ** 2)),
        _moved_point_grid(),
    ], ids=["n2", "n3", "n5", "graded", "moved-point"])
    def test_other_grids_take_the_exact_loop(self, grid):
        assert _tail(grid) is None
        samples = _smooth_samples(grid)
        for v in self.ORDERS:
            got = rl_profile(grid, samples, v)
            assert np.array_equal(got, _exact_rows(grid, samples, v))


def _dropped_last(grid: Grid) -> Grid:
    return Grid(grid.points[:-1])


def _block_edge_grids():
    """Tails of _BLOCK - 1, _BLOCK and _BLOCK + 1 panels, or, on a
    refined log grid, of 2 _BLOCK - 4 to 2 _BLOCK + 1 panels."""
    out = []
    for m in (_BLOCK - 1, _BLOCK, _BLOCK + 1):
        out += [
            (f"uniform-{m}", Grid.uniform(0.01, 2.0, m + 1), (1, False)),
            (f"from-origin-{m}", Grid.uniform(2.0 / m, 2.0, m), (0, False)),
            (f"log-{m}", Grid.log(0.01, 2.0, m + 1), (1, True)),
            # 2m and 2m + 1 points, head 2: tails of 2m - 2 and 2m - 1 panels
            (f"log-refined-{m}", Grid.log(0.01, 2.0, m).refine(), (2, True)),
            (f"log-refined-even-{m}",
             _dropped_last(Grid.log(0.01, 2.0, m + 1).refine()), (2, True)),
        ]
    return out


class TestConvolved:
    """_convolved is numpy.convolve's first m entries, summed by blocks,
    for inputs and kernels of one length m."""

    @pytest.mark.parametrize("m", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 5], ids=lambda m: f"equal-{m}")
    def test_matches_numpy_convolve(self, m):
        rng = np.random.default_rng(m)
        xs = [rng.standard_normal(m) for _ in range(2)]
        ks = [rng.standard_normal(m) for _ in range(2)]
        got = _convolved(xs, ks)
        want = sum(np.convolve(x, k)[:m] for x, k in zip(xs, ks))
        bound = sum(np.convolve(np.abs(x), np.abs(k))[:m]
                    for x, k in zip(xs, ks))
        assert got.shape == (m,)
        assert np.all(np.abs(got - want) <= 1e-14 * bound)


class TestBlockedTails:
    """The tail sums cover only the entries they return, block by block."""

    ORDERS = (0.05, 0.5, 1.5, 2.0)

    @pytest.mark.parametrize("name,grid,expected", _block_edge_grids(),
                             ids=[c[0] for c in _block_edge_grids()])
    def test_block_edges_match_exact_rows(self, name, grid, expected):
        assert _tail(grid) == expected
        samples = _smooth_samples(grid)
        for v in self.ORDERS:
            got = rl_profile(grid, samples, v)
            want = _exact_rows(grid, samples, v)
            for phase in (0, 1):
                rel = np.max(np.abs(got[phase::2] - want[phase::2])
                             / np.abs(want[phase::2]))
                assert rel <= 1e-12, f"v={v}, phase {phase}: {rel:.2e}"

    @pytest.mark.parametrize("grid", [
        Grid.uniform(0.01, 2.0, 8192),
        Grid.log(0.01, 2.0, 4096).refine(),
        _dropped_last(Grid.log(0.01, 2.0, 4096).refine()),
    ], ids=["uniform", "log-refined", "log-refined-even"])
    def test_large_grids_match_exact_rows(self, grid):
        n = grid.n
        rows = np.unique(np.concatenate((
            np.arange(70), np.linspace(0, n - 1, 150).astype(int),
            np.arange(n - 70, n))))
        samples = _smooth_samples(grid)
        for v in (0.5, 1.5):
            got = rl_profile(grid, samples, v)
            want = np.array([rl_integral_grid(grid, samples, v, i)
                             for i in rows])
            rel = np.max(np.abs(got[rows] - want) / np.abs(want))
            assert rel <= 1e-12, f"v={v}: {rel:.2e}"


def _relative_error(a: float, v: float, n: int, graded: bool) -> float:
    T = 1.0
    if graded:
        pts = T * (np.arange(1, n + 1) / n) ** 2
        g = Grid(tuple(pts))
    else:
        g = Grid.uniform(T / n, T, n)
    got = rl_integral_grid(g, _power_samples(g, a), v, n - 1)
    want = rl_integral_power(a, v, T)
    return abs(got - want) / abs(want)


class TestConvergenceOrder:
    """Observed order across a 512 -> 4096 refinement.

    Sample powers 0 and 1 are piecewise linear and therefore exact; for
    a=0.5 the derivative blows up at the origin, so the order is measured
    on quadratically graded grids, which restore the smooth-case rate.
    """

    VS = (0.25, 0.5, 0.75, 1.0)

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_linear_powers_exact(self, a):
        for v in self.VS:
            assert _relative_error(a, v, 512, False) < 1e-13
            assert _relative_error(a, v, 4096, False) < 1e-13

    @pytest.mark.parametrize("a,graded", [(0.5, True), (2.0, False)])
    def test_order_at_least_1_9(self, a, graded):
        for v in self.VS:
            e_coarse = _relative_error(a, v, 512, graded)
            e_fine = _relative_error(a, v, 4096, graded)
            order = math.log(e_coarse / e_fine) / math.log(8.0)
            assert order >= 1.9, f"a={a} v={v}: order {order:.3f}"


class TestSemigroup:
    def test_composition(self):
        # I^{v1} I^{v2} = I^{v1+v2} on power samples, via nested quadrature
        g = Grid.uniform(2 / 2048, 2.0, 2048)
        for a in (1.0, 2.0):
            for v1, v2 in ((0.5, 0.75), (0.25, 0.5)):
                inner = rl_profile(g, _power_samples(g, a), v2)
                outer = rl_profile(g, np.concatenate(([0.0], inner)), v1)
                exact = np.array(
                    [rl_integral_power(a, v1 + v2, t) for t in g.points])
                rel = np.max(np.abs(outer - exact)) / np.max(np.abs(exact))
                assert rel <= 1e-4
