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
and panel, so the sum is a causal convolution with O(n) powers.  It is
summed directly, block by block, for the entries it returns and nothing
more: each target sums only the panels before it, and on a `refine()`d
log grid each of the two phases sums only for its own targets.  Graded,
hand-built and very small grids take an exact O(n^2)-power loop, row by
row as `rl_integral_grid` computes one point.  Both routes give the same
numbers to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, InsufficientGrid, NonFiniteError
from .special_functions import gamma

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
        if math.isinf(t_min) or math.isinf(t_max):
            raise DomainError("grid points must be finite")
        if not (0.0 < t_min < t_max):
            raise DomainError(
                f"uniform grid needs 0 < t_min < t_max, got [{t_min!r}, {t_max!r}]"
            )
        return cls(np.linspace(t_min, t_max, int(n)))

    @classmethod
    def log(cls, t_min: float, t_max: float, n: int) -> "Grid":
        if math.isinf(t_min) or math.isinf(t_max):
            raise DomainError("grid points must be finite")
        if not (0.0 < t_min < t_max):
            raise DomainError(
                f"log grid needs 0 < t_min < t_max, got [{t_min!r}, {t_max!r}]"
            )
        return cls(np.geomspace(t_min, t_max, int(n)))

    @property
    def n(self) -> int:
        return len(self.points)

    def refine(self) -> "Grid":
        """New grid with every panel midpoint inserted, origin panel included.

        Halves every panel; used by verification to separate quadrature
        error (which shrinks) from structural error (which does not).
        """
        arr = self.array
        mids = 0.5 * (arr[:-1] + arr[1:])
        first = 0.5 * arr[0]
        return Grid(np.sort(np.concatenate(([first], arr, mids))))


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
    try:
        value = gamma(a + 1.0) / gamma(a + 1.0 + v) * t ** (a + v)
    except OverflowError:
        value = math.inf
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
    """Find a tail on which one map sends each node p places on.

    The map is a constant step, s_{k+1} = s_k + h, or a constant ratio,
    s_{k+p} = r s_k with p = 1 or 2 (`refine()` puts arithmetic midpoints
    into a geometric grid), for every node k >= head, within _TAIL_ULPS
    units in the last place.  Returns (head, p, geometric) for the first
    fit with head <= _MAX_HEAD, or None.
    """
    if nodes.size - 1 < _MIN_CONVOLVED:
        return None
    for p, geometric in ((1, False), (1, True), (2, True)):
        later, earlier = nodes[p:], nodes[:-p]
        if geometric:
            ratio = nodes[-1] / nodes[-1 - p]
            miss = np.abs(later - ratio * earlier) > _TAIL_ULPS * np.spacing(later)
        else:
            step = nodes[-1] - nodes[-2]
            miss = np.abs(later - earlier - step) > _TAIL_ULPS * np.spacing(nodes[-1])
        bad = np.flatnonzero(miss)
        head = int(bad[-1]) + 1 if bad.size else 0
        if head <= _MAX_HEAD:
            return head, p, geometric
    return None


def _convolved(inputs, kernels, m: int) -> np.ndarray:
    """First m entries of the sum over pairs of numpy.convolve(x, k).

    The sums are direct, over blocks of _BLOCK entries.  Input block J
    meets output block I only through the kernel's Toeplitz block at
    offset (I - J) _BLOCK, so each offset is one matrix product over the
    blocks it reaches; entries past m are formed only to fill the last
    block.  Each entry stays a plain sum of products.  The offsets' parts
    are added with compensation; against an 80-bit sum the result is off
    by under 1e-15 of the largest entry, as numpy.convolve's is.
    """
    b = _BLOCK
    nb = -(-m // b)
    size = nb * b
    xs, hankels = [], []
    for x, k in zip(inputs, kernels):
        xp = np.zeros(size)
        xp[: min(m, x.size)] = x[:m]
        # each block of x reversed, so block D's Toeplitz matrix is a
        # Hankel one: b rows of a sliding window over the kernel
        xs.append(xp.reshape(nb, b)[:, ::-1])
        kp = np.zeros(size + b - 1)
        kp[b - 1 : b - 1 + min(m, k.size)] = k[:m]
        hankels.append(sliding_window_view(kp, b))
    x = np.concatenate(xs, axis=1)
    out = np.zeros((nb, b))
    comp = np.zeros((nb, b))
    for d in range(nb):
        # output block I gets input block I - d through the offset-d block
        h = np.concatenate([w[d * b : (d + 1) * b] for w in hankels], axis=1)
        y = x[: nb - d] @ h.T - comp[d:]
        s = out[d:] + y
        comp[d:] = (s - out[d:]) - y
        out[d:] = s
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
    in `Grid.uniform` and its `refine()`, or a constant ratio over p = 1
    or 2 nodes, as in `Grid.log` and its `refine()`), the weight of tail
    panel j at target i depends only on i - j and on i mod p, scaled by
    (t_i / t_ref)^v on a ratio tail.  The tail sum is then, per phase,
    a causal convolution of the samples and of their differences with
    one sequence of exact moments, summed directly by blocks for the
    phase's own targets only (`_convolved`); on a p = 2 tail the panels
    split by even and odd index into two sums of half the length.  The
    head panels are one block for all targets: O(n^2) multiply-adds but
    only O(n) powers.  Other grids, and grids under nine points, take the
    exact per-target loop, with O(n^2) powers.  The two routes agree to
    rounding, within 1e-12 relative per entry.
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
    head, p, geometric = tail
    out = np.zeros(n)
    if head:
        m0, m1 = _panel_moments(nodes[1:, None], nodes[: head + 1], v)
        out += m0 @ f[:head] + m1 @ (df[:head] / np.diff(nodes[: head + 1]))
    for phase in range(p):
        # targets first, first + p, ..., ref; ref is the last of them
        ref = n - 1 - (n - 1 - phase) % p
        first = head + (phase - head) % p
        if geometric:
            # the row of the phase's last target sees every offset
            tau = nodes[ref + 1] - nodes[head : ref + 2]
        else:
            # offsets from the tail's first node: the smallest numbers, so
            # the short offsets the early targets lean on are resolved best
            tau = np.concatenate(([0.0], nodes[head + 1 :] - nodes[head]))[::-1]
        k0, k1 = _tail_kernels(tau, v)
        # split the panels by index mod p: tail panel e + p u meets target
        # first + p q at kernel entry lag + p (q - u), so each part is a
        # sum of 1/p the length over every p-th kernel entry; a negative
        # lag reads k[lag + p::p] one target later, hence the pad
        inputs, kernels = [], []
        for e in range(p):
            lag = first - head - e
            pad = [0.0] * (lag < 0)
            for x, k in ((f[head:n], k0), (df[head:n], k1)):
                inputs.append(np.concatenate((pad, x[e::p])))
                kernels.append(k[lag % p :: p])
        tail_sum = _convolved(inputs, kernels, len(range(first, n, p)))
        if geometric:
            tail_sum *= (nodes[first + 1 :: p] / nodes[ref + 1]) ** v
        out[first::p] += tail_sum
    return out / gamma(v)
