"""Numerical Sumudu transform and its operational rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frackin import (
    DomainError,
    Grid,
    NonFiniteError,
    check_rl_rule,
    gamma,
    rl_integral_grid,
    sumudu_numeric,
    sumudu_power,
)
from frackin.sumudu import _limit_at_zero, _sample


class TestPowerTransform:
    def test_closed_form(self):
        assert sumudu_power(2.0, 0.5) == pytest.approx(0.25 * gamma(3.0),
                                                       rel=1e-15)

    def test_unit_preservation(self):
        # the transform of 1 is 1 at every u
        for u in (0.1, 1.0, 5.0):
            assert sumudu_power(0.0, u) == pytest.approx(1.0, rel=1e-15)

    def test_invalid_exponent_raises(self):
        with pytest.raises(DomainError):
            sumudu_power(-1.0, 1.0)

    def test_invalid_u_raises(self):
        with pytest.raises(DomainError):
            sumudu_power(1.0, 0.0)

    def test_infinite_u_raises(self):
        with pytest.raises(DomainError):
            sumudu_power(2.0, math.inf)

    @pytest.mark.parametrize("a,u", [(2.0, 1e200), (200.0, 1.0)])
    def test_overflow_raises(self, a, u):
        # u^a in the first case, Gamma(a+1) in the second
        with pytest.raises(NonFiniteError):
            sumudu_power(a, u)


class TestNumericTransform:
    U_SET = (0.25, 0.8, 1.5)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.5, 5.0])
    def test_power_rule(self, a):
        for u in self.U_SET:
            point = sumudu_numeric(lambda t: t ** a, u)
            want = sumudu_power(a, u)
            assert abs(point.value - want) / abs(want) <= 1e-8

    def test_node_count_recorded(self):
        point = sumudu_numeric(lambda t: t, 1.0, node_count=96)
        assert point.node_count == 96
        assert point.u == 1.0

    def test_exp_decay(self):
        # S[e^{-t}](u) = 1/(1+u)
        for u in (0.25, 1.0, 1.5):
            point = sumudu_numeric(lambda t: np.exp(-t), u)
            assert point.value == pytest.approx(1 / (1 + u), rel=1e-9)

    def test_cosine(self):
        # S[cos(w t)](u) = 1/(1+(w u)^2)
        w = 1.5
        for u in (0.25, 0.8):
            point = sumudu_numeric(lambda t: np.cos(w * t), u)
            assert point.value == pytest.approx(1 / (1 + (w * u) ** 2),
                                                rel=1e-8)

    def test_scalar_only_callable(self):
        point = sumudu_numeric(lambda t: math.sqrt(t), 1.0)
        assert point.value == pytest.approx(gamma(1.5), rel=1e-10)

    def test_more_nodes_reach_higher_frequency(self):
        # 64 nodes are not promised on fast oscillations; 256 are plenty
        w, u = 6.0, 1.0
        want = 1 / (1 + (w * u) ** 2)
        fine = sumudu_numeric(lambda t: np.cos(w * t), u, node_count=256)
        assert fine.value == pytest.approx(want, rel=1e-9)

    def test_invalid_u_raises(self):
        with pytest.raises(DomainError):
            sumudu_numeric(lambda t: t, -1.0)

    def test_too_few_nodes_raises(self):
        with pytest.raises(DomainError):
            sumudu_numeric(lambda t: t, 1.0, node_count=4)

    def test_array_error_propagates_after_one_call(self):
        calls = []

        def broken_on_arrays(t):
            calls.append(t)
            if isinstance(t, np.ndarray):
                raise RuntimeError("broken on arrays")
            return t

        with pytest.raises(RuntimeError, match="broken on arrays"):
            sumudu_numeric(broken_on_arrays, 1.0)
        assert len(calls) == 1

    def test_nonfinite_sample_raises(self):
        with pytest.raises(NonFiniteError):
            sumudu_numeric(lambda t: math.inf if t > 1.0 else t, 1.0)

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, u, a):
        f = lambda t: t ** a + 2.0 * t
        got = sumudu_numeric(f, u).value
        want = sumudu_numeric(lambda t: t ** a, u).value \
            + 2.0 * sumudu_numeric(lambda t: t, u).value
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


class TestRLRule:
    """The transform turns the order-v integral into multiplication by u^v."""

    def test_power_family(self):
        for a in (0.0, 1.0, 2.0):
            f = lambda t, a=a: t ** a
            for v in (0.5, 0.75, 1.0):
                for u in (0.5, 1.0):
                    assert check_rl_rule(f, v, u) <= 1e-5

    def test_invalid_v_raises(self):
        with pytest.raises(DomainError):
            check_rl_rule(lambda t: t, 0.0, 1.0)

    def test_invalid_u_raises(self):
        with pytest.raises(DomainError):
            check_rl_rule(lambda t: t, 0.5, 3.0)

    def test_singular_origin_sample_is_zero(self):
        # t^-1/2 diverges at the origin: its sample there is pinned to 0.0,
        # the convention of verify, not probed as f(1e-300) = 1e150, which
        # made the defect 1.2e146
        assert _limit_at_zero(lambda t: t ** -0.5) == 0.0
        with np.errstate(divide="ignore"):
            assert _limit_at_zero(lambda t: np.float64(t) ** -0.5) == 0.0
        assert check_rl_rule(lambda t: t ** -0.5, 0.5, 1.0) < 0.05

    def test_removable_singularity_uses_its_limit(self):
        # sin(t)/t raises at the origin; probed just right of it, it shows
        # its limit 1, where pinning the sample to 0.0 read 1.2e-4
        sinc = lambda t: math.sin(t) / t
        assert _limit_at_zero(sinc) == 1.0
        assert check_rl_rule(sinc, 0.5, 1.0) <= 1e-8

    def test_finite_origin_value_is_used(self):
        assert _limit_at_zero(lambda t: 1.0 + t) == 1.0
        assert _limit_at_zero(math.cos) == 1.0
        assert check_rl_rule(math.cos, 0.5, 1.0) <= 1e-5


def _per_target_rl_rule(f, v: float, u: float) -> float:
    """check_rl_rule's defect with a fresh 2048-point grid per time."""
    n = 2048

    def rl_of_f(times):
        out = []
        for t_end in times:
            grid = Grid.uniform(t_end / n, float(t_end), n)
            origin = _limit_at_zero(f, grid.points[0])
            samples = np.concatenate(([origin], _sample(f, grid.array)))
            out.append(rl_integral_grid(grid, samples, v, n - 1))
        return np.array(out)

    left = sumudu_numeric(rl_of_f, u).value
    return abs(left - u ** v * sumudu_numeric(f, u).value)


class TestRLRuleAgainstPerTargetGrids:
    """One unit rule scaled by t^v gives the per-time grids' defect."""

    def _check(self, f, v, u):
        scale = abs(u ** v * sumudu_numeric(f, u).value)
        with np.errstate(divide="ignore", invalid="ignore"):
            got = check_rl_rule(f, v, u)
            want = _per_target_rl_rule(f, v, u)
        assert abs(got - want) <= 1e-10 * scale

    @pytest.mark.parametrize("f", [lambda t: t ** 0.0, lambda t: t, lambda t: t ** 2,
                                   lambda t: np.sin(t) / t, lambda t: t ** -0.5],
                             ids=["one", "t", "square", "sinc", "inverse_root"])
    def test_vectorised(self, f):
        for v in (0.3, 1.0, 2.0):
            for u in (0.2, 1.0, 2.0):
                self._check(f, v, u)

    def test_scalar_only(self):
        # math.cos refuses arrays, so every sample is one call
        self._check(math.cos, 0.7, 1.3)
