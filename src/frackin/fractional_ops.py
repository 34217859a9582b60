"""Riemann-Liouville fractional integration of order v > 0.

Two routes are provided.  `rl_integral_power` is the closed form on
monomials.  `rl_integral_grid` integrates arbitrary sampled functions by
product quadrature: the function is replaced by its piecewise-linear
interpolant between samples (including the origin) and the weakly
singular kernel (t-s)^(v-1) is integrated exactly against that
interpolant on every panel.  The kernel's endpoint singularity at s=t is
therefore handled without mesh grading, and the quadrature weights do not
depend on the samples, so the operator is linear in them.

`rl_profile` evaluates that quadrature at every grid point.  On grids
whose panels, after a head of at most three, repeat by a constant step
(`Grid.uniform` and its `refine()`) or a constant ratio (`Grid.log` and
its `refine()`), the weights depend only on the offset between target
and panel, so the sum is one causal convolution per grid, with O(n)
powers: a plain direct sum, block by block, that forms each entry only
from the panels before it.  Graded, hand-built and very small grids
take an exact O(n^2)-power loop, row by row as `rl_integral_grid`
computes one point.  Both routes give the same numbers to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, InsufficientGrid, NonFiniteError
from .special_functions import _gamma_product, gamma

__all__ = ["Grid", "rl_integral_power", "rl_integral_grid", "rl_profile"]


@dataclass(frozen=True)
class Grid:
    """Strictly increasing evaluation times t_1 < ... < t_n, all positive.

    The origin is not stored: every quadrature that consumes the grid
    supplies an extra sample at s=0, and the panel [0, t_1] is always part
    of the integration range.
    """

    points: tuple[float, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.array(self.points, dtype=float)
        pts = tuple(arr.tolist())
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise DomainError(f"grid needs at least 2 points, got {len(pts)}")
        if pts[0] <= 0.0:
            raise DomainError(f"grid points must be positive, got {pts[0]!r}")
        if np.isinf(arr).any():
            raise DomainError("grid points must be finite")
        # NaN compares false, so it fails here too
        if not np.all(arr[1:] > arr[:-1]):
            raise DomainError("grid points must be strictly increasing")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @classmethod
    def uniform(cls, t_min: float, t_max: float, n: int) -> "Grid":
        return cls(np.linspace(t_min, t_max, _point_count("uniform", t_min, t_max, n)))

    @classmethod
    def log(cls, t_min: float, t_max: float, n: int) -> "Grid":
        return cls(np.geomspace(t_min, t_max, _point_count("log", t_min, t_max, n)))

    @property
    def n(self) -> int:
        return len(self.points)

    def refine(self) -> "Grid":
        """Twice the points: a midpoint in every panel, the origin panel
        [0, t_1] included, and every point of this grid, bit for bit, at
        the odd indices.

        A constant-ratio tail (`_self_similar_tail`, as on `Grid.log`) gets
        geometric midpoints a sqrt(b/a) and so keeps a constant ratio;
        every other panel gets its arithmetic midpoint.  Verification uses
        it to separate quadrature error (which shrinks) from structural
        error (which does not).
        """
        nodes = np.concatenate(([0.0], self.array))
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        head, geometric = _self_similar_tail(nodes) or (0, False)
        if geometric:
            # a > 0, as the origin never joins a ratio tail; sqrt(a b) can overflow
            a = nodes[head:-1]
            mids[head:] = a * np.sqrt(nodes[head + 1 :] / a)
        return Grid(np.stack((mids, self.array), axis=1).ravel())


def _point_count(kind: str, t_min: float, t_max: float, n: int) -> int:
    """int(n), once the span and size of a `kind` grid are checked."""
    if math.isinf(t_min) or math.isinf(t_max):
        raise DomainError("grid points must be finite")
    if not (0.0 < t_min < t_max):
        raise DomainError(
            f"{kind} grid needs 0 < t_min < t_max, got [{t_min!r}, {t_max!r}]"
        )
    n = int(n)
    if n < 2:
        # numpy would reject a negative count with a bare ValueError
        raise DomainError(f"grid needs at least 2 points, got {n}")
    return n


def rl_integral_power(a: float, v: float, t: float) -> float:
    """Closed form of the order-v integral of s^a at time t:
    Gamma(a+1)/Gamma(a+1+v) * t^(a+v).  Past the float64 range:
    NonFiniteError."""
    a = float(a)
    v = float(v)
    t = float(t)
    if not a > -1.0:
        raise DomainError(f"rl_integral_power requires a > -1, got {a!r}")
    if not v > 0.0:
        raise DomainError(f"rl_integral_power requires v > 0, got {v!r}")
    if not 0.0 < t < math.inf:
        raise DomainError(f"rl_integral_power requires finite t > 0, got {t!r}")
    # the gammas can leave the float64 range while their ratio does not
    value = _gamma_product(lambda: gamma(a + 1.0) / gamma(a + 1.0 + v) * t ** (a + v),
                           1.0, (a + v) * math.log(t), (a + 1.0,), (a + 1.0 + v,))
    if not math.isfinite(value):
        raise NonFiniteError(
            f"rl_integral_power at a={a!r}, v={v!r}, t={t!r} overflows float64"
        )
    return value


def _moments(tau: np.ndarray, v: float):
    """Exact kernel moments of (t-s)^(v-1) against 1 and (s - s_j) per panel.

    `tau` holds t - s at the panel ends and decreases along the last axis.
    The two moments reduce to differences of tau^v / v and
    tau^(v+1) / (v+1).
    """
    tau_v = tau ** v
    tau_v1 = tau ** (v + 1.0)
    m0 = (tau_v[..., :-1] - tau_v[..., 1:]) / v
    m1 = tau[..., :-1] * m0 - (tau_v1[..., :-1] - tau_v1[..., 1:]) / (v + 1.0)
    return m0, m1


def _panel_moments(t, nodes: np.ndarray, v: float):
    """Moments of every panel between `nodes` at time t; panels beyond t
    get zero moments.  A column of times gives one row per time."""
    return _moments(np.maximum(t - nodes, 0.0), v)


def _rl_row(nodes: np.ndarray, f: np.ndarray, slopes: np.ndarray, v: float):
    """Quadrature sum at t = nodes[-1] over every panel of `nodes`.

    `f` and `slopes` hold each panel's left-end sample and the slope of
    the interpolant on it along the last axis, one row per function.  The
    result is not yet divided by Gamma(v).  This is the exact O(i) row
    that both public entry points and `sumudu.check_rl_rule` share.
    """
    m0, m1 = _panel_moments(nodes[-1], nodes, v)
    return f @ m0 + slopes @ m1


def _checked_samples(grid: Grid, samples, v: float, caller: str):
    """The samples as a float array and v as a float, both validated."""
    v = float(v)
    if not v > 0.0:
        raise DomainError(f"{caller} requires v > 0, got {v!r}")
    f = np.asarray(samples, dtype=float)
    if f.shape != (grid.n + 1,):
        raise DomainError(
            f"samples must cover the origin plus all {grid.n} grid points, "
            f"got shape {f.shape}"
        )
    return f, v


def rl_integral_grid(grid: Grid, samples, v: float, t_index: int) -> float:
    """Order-v Riemann-Liouville integral at grid point t_index.

    `samples` holds function values at [0, t_1, ..., t_n] (origin first,
    one more entry than the grid).  The integrand between consecutive
    samples is the linear interpolant; the kernel is integrated exactly
    against it panel by panel, which gives second-order convergence in
    max spacing for smooth integrands.  Costs O(t_index).
    """
    f, v = _checked_samples(grid, samples, v, "rl_integral_grid")
    t_index = int(t_index)
    if not 0 <= t_index < grid.n:
        raise InsufficientGrid(
            f"t_index {t_index} outside grid of {grid.n} points"
        )
    nodes = np.concatenate(([0.0], grid.array[: t_index + 1]))
    slopes = np.diff(f[: t_index + 2]) / np.diff(nodes)
    return float(_rl_row(nodes, f[: t_index + 1], slopes, v)) / gamma(v)


# A tail may follow at most this many irregular head panels.
_MAX_HEAD = 3
# Tolerance of the self-similarity test, in units in the last place.
_TAIL_ULPS = 64
# Below this many points the exact loop is as fast as convolving.
_MIN_CONVOLVED = 9
# Width of the blocks a tail convolution is summed in.
_BLOCK = 64


def _self_similar_tail(nodes: np.ndarray):
    """Find a tail on which one map sends each node to the next.

    The map is a constant step, s_{k+1} = s_k + h, or a constant ratio,
    s_{k+1} = r s_k, for every node k >= head, within _TAIL_ULPS units in
    the last place.  Returns (head, geometric) for the first fit with
    head <= _MAX_HEAD, or None.
    """
    if nodes.size - 1 < _MIN_CONVOLVED:
        return None
    later, earlier = nodes[1:], nodes[:-1]
    for geometric in (False, True):
        if geometric:
            ratio = nodes[-1] / nodes[-2]
            miss = np.abs(later - ratio * earlier) > _TAIL_ULPS * np.spacing(later)
        else:
            step = nodes[-1] - nodes[-2]
            miss = np.abs(later - earlier - step) > _TAIL_ULPS * np.spacing(nodes[-1])
        bad = np.flatnonzero(miss)
        head = int(bad[-1]) + 1 if bad.size else 0
        if head <= _MAX_HEAD:
            return head, geometric
    return None


def _convolved(inputs, kernels) -> np.ndarray:
    """First m entries of the sum over pairs of numpy.convolve(x, k), all
    of length m.

    The sums are direct, over blocks of _BLOCK entries.  Input block J
    meets output block I only through the kernel's Toeplitz block at
    offset (I - J) _BLOCK, so each offset is one matrix product over the
    blocks it reaches, added straight into the output; entries past m
    are formed only to fill the last block.  Each entry stays a plain
    sum of products.  On random signed inputs it is within 1e-14 of
    numpy.convolve's, relative to the same sum over |x| and |k|, and
    within 1e-15 of the largest entry of an 80-bit sum.
    """
    b = _BLOCK
    m = inputs[0].size
    nb = -(-m // b)
    size = nb * b
    xs, hankels = [], []
    for x, k in zip(inputs, kernels):
        xp = np.zeros(size)
        xp[:m] = x
        # each block of x reversed, so block D's Toeplitz matrix is a
        # Hankel one: b rows of a sliding window over the kernel
        xs.append(xp.reshape(nb, b)[:, ::-1])
        kp = np.zeros(size + b - 1)
        kp[b - 1 : b - 1 + m] = k
        hankels.append(sliding_window_view(kp, b))
    x = np.concatenate(xs, axis=1)
    out = np.zeros((nb, b))
    for d in range(nb):
        # output block I gets input block I - d through the offset-d block
        h = np.concatenate([w[d * b : (d + 1) * b] for w in hankels], axis=1)
        out[d:] += x[: nb - d] @ h.T
    return out.ravel()[:m]


def _tail_kernels(tau: np.ndarray, v: float):
    """Weights of the samples and of their differences by panel distance.

    `tau` holds the decreasing offsets of a row's panel ends (zero last,
    so the last panel is the nearest); the first moment is taken per
    unit panel width.  Entry k of each kernel belongs to the panel k
    places before the target's own.
    """
    m0, m1 = _moments(tau, v)
    w1 = m1 / (tau[:-1] - tau[1:])
    return m0[::-1], w1[::-1]


def rl_profile(grid: Grid, samples, v: float) -> np.ndarray:
    """rl_integral_grid at every grid index, as one array.

    Same quadrature as the scalar entry point.  When the panels after a
    head of at most three form a self-similar tail (a constant step, as
    in `Grid.uniform` and its `refine()`, or a constant ratio, as in
    `Grid.log` and its `refine()`), the weight of tail panel j at target
    i depends only on i - j, scaled by (t_i / t_n)^v on a ratio tail.
    The tail sum is then one causal convolution of the samples and of
    their differences over every tail panel with one sequence of exact
    moments, summed directly by blocks (`_convolved`).  The head panels
    are one block for all targets: O(n^2) multiply-adds but only O(n)
    powers.  Other grids, and grids under nine points, take the exact
    per-target loop, with O(n^2) powers.  The two routes agree to
    rounding: on 2048-point uniform and log grids and their `refine()`s
    they differ by under 1e-14 of the largest entry.
    """
    f, v = _checked_samples(grid, samples, v, "rl_profile")
    nodes = np.concatenate(([0.0], grid.array))
    n = grid.n
    df = np.diff(f)
    tail = _self_similar_tail(nodes)
    if tail is None:
        slopes = df / np.diff(nodes)
        rows = [_rl_row(nodes[: i + 2], f[: i + 1], slopes[: i + 1], v)
                for i in range(n)]
        return np.array(rows) / gamma(v)
    head, geometric = tail
    out = np.zeros(n)
    if head:
        m0, m1 = _panel_moments(nodes[1:, None], nodes[: head + 1], v)
        out += m0 @ f[:head] + m1 @ (df[:head] / np.diff(nodes[: head + 1]))
    if geometric:
        # the last target's row sees every offset
        tau = nodes[n] - nodes[head:]
    else:
        # offsets from the tail's first node: the smallest numbers, so
        # the short offsets the early targets lean on are resolved best
        tau = np.concatenate(([0.0], nodes[head + 1 :] - nodes[head]))[::-1]
    k0, k1 = _tail_kernels(tau, v)
    tail_sum = _convolved((f[head:n], df[head:n]), (k0, k1))
    if geometric:
        tail_sum *= (nodes[head + 1 :] / nodes[n]) ** v
    out[head:] += tail_sum
    return out / gamma(v)
