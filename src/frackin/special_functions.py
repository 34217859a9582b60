"""Gamma, Mittag-Leffler, and Struve-family series for real arguments.

Both families are power series in one argument with reciprocal-gamma
coefficients, E_{a,b}(z) = sum_n z^n / Gamma(a n + b) and
H(z) = (z/2)^(l+1) sum_k (-(z/2)^2)^k / (Gamma(alpha k + mu) Gamma(lam k + sigma)),
and one engine sums both.  Its three kernels, `_series_float`,
`_series_products` and `_series_mp`, are the module's only summations.
Each value comes from the first tier whose own a-posteriori estimate
vouches for it:

1. The float64 series, judged by `_float_accepted`, which rejects
   alternating sums that cancel past what float64 carries.  It stops
   once a term drops below 1e-16 of the sum's size (after at least 6
   terms, within 500).  `_series_float` sums one argument term by term,
   measuring the size as the largest partial sum.  No sum here carries
   a correction for the rounding of its additions: each term's own
   rounding, from its power and reciprocal gammas, outweighs it.
   `_series_products` sums every grid, of either family: one
   coefficient table times a matrix of powers per block of points, with
   as many terms as the block's largest argument needs, judging each
   tail against the sum of |terms|.  A grid of one row (every Struve
   grid, a single Mittag-Leffler term) measures its cancellation
   against the largest partial sum, as the scalar does; a grid of
   several rows against the sum of |terms|, which bounds every partial
   sum, so its budget is never looser.
2. A float64 integral with its own error estimate, batched over every
   entry tier 1 rejected, for two cases:
   - Mittag-Leffler for z < 0 and alpha <= 2: a trapezoid rule on a
     parabolic inverse-Laplace contour (`_ml_contour`);
   - the classical H_nu (sign -1, gammas ((1, 3/2), (1, nu + 3/2))) for
     z <= 40: a tanh-sinh rule on Poisson's integral (`_struve_poisson`),
     on the raw sum, so that it serves any prefactor order.
3. The mpmath series, `_series_mp`, at a precision chosen from the
   observed cancellation; `_ml_extended` and `_struve_extended` are the
   two families' entries.  It raises ConvergenceError where the sum does
   not converge (before summing, where `_tail_past_budget` finds its tail
   past the term budget) and NonFiniteError where the value leaves
   float64 range.

Grids decide the tier entry by entry, and a rejected entry goes on to
the next tier alone.  Only tier 1 has scalar and grid kernels, as a
length-1 grid costs 10-40 times as much as `_series_float`.  Past it
each family has one escalation path that its scalar and grid entry
points share, `_ml_rescue` and `_struve_rescue`, and a grid sends all
of its rejected entries there in one call.  mpmath runs only where
tier 1 rejects and tier 2 does not apply or fails its estimate: for
Mittag-Leffler chiefly at z >= 0, at alpha > 2, and for values far below
the contour's rounding level such as E_{1,1}(-99) = e^-99; for Struve
for the generalized and modified series, past z = 40, and near a zero
of H_nu, where no per-entry relative test can pass.

Terms whose gamma argument lands on a non-positive integer use the
reciprocal gamma, which is entire and exactly 0 there, so those terms
vanish instead of erroring.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import ConvergenceError, DomainError, NonFiniteError, PoleError

MAX_TERMS = 500
# the arbitrary-precision fallbacks afford a larger term budget: slowly
# converging cases (small Mittag-Leffler alpha, large Struve argument)
# are exactly what they exist for
MAX_TERMS_EXTENDED = 5000
_MIN_TERMS = 5
_TAIL = 1e-16
# recompute in extended precision once the largest partial sum exceeds the
# result by this factor (float64 keeps ~13 digits through a 1e3 ratio)
_CANCEL_LIMIT = 1e3
ML_RANGE = 100.0
# below this argument the float64 Mittag-Leffler series must also pass its
# rounding bound; past _GAMMA_OVERFLOW, and below _GAMMA_TINY where Gamma
# overflows, 1/Gamma underflows to zero
_DEEP = -10.0
_GAMMA_OVERFLOW = 171.6
_GAMMA_TINY = 1.0 / sys.float_info.max
# below this, z/2 is subnormal and has lost digits: see _half_power
_NORMAL_MIN = sys.float_info.min
# largest relative error estimate a float64 result below _DEEP, a contour
# result or a Poisson-integral result is accepted with
_CONTOUR_TOL = 1e-12
_EPS = sys.float_info.epsilon
_LOG_EPS = math.log(_EPS)

__all__ = [
    "SeriesSpec",
    "gamma",
    "reciprocal_gamma",
    "mittag_leffler",
    "mittag_leffler_grid",
    "struve_h",
    "struve_l",
    "struve_h_with_derivatives",
    "generalized_struve",
    "generalized_struve_grid",
    "MAX_TERMS",
    "ML_RANGE",
]


def gamma(x: float) -> float:
    """Gamma function for real x.

    Delegates to the C library's Lanczos-type rational approximation with
    reflection for negative arguments; relative error is below 1e-13 on
    [-170, 170] away from poles.  Arguments within 1e-12 of a non-positive
    integer raise PoleError.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x!r}")
    nearest = round(x)
    if nearest <= 0 and abs(x - nearest) <= 1e-12:
        raise PoleError(f"gamma pole at non-positive integer, x={x!r}")
    return math.gamma(x)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), entire in x: exactly 0.0 at non-positive integers."""
    x = float(x)
    if _GAMMA_TINY < x < _GAMMA_OVERFLOW:
        # the common case first, on the same arithmetic as below
        return 1.0 / math.gamma(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x!r}")
    if x == round(x) and x <= 0.0:
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        # gamma beyond float range, its reciprocal underflows
        return 0.0
    if g == 0.0:
        # gamma underflowed (deep negative non-integer x)
        return math.copysign(math.inf, g)
    return 1.0 / g


def _gamma_product(plain, scale: float, log_power: float, tops=(), bottoms=()) -> float:
    """scale * e^log_power * prod Gamma(tops) / prod Gamma(bottoms).

    `plain()` is the caller's float64 expression of the product, and its
    value stands wherever it is finite and nonzero.  Where a factor
    overflows, or underflows to 0, while the product need not, the
    product is taken from signed log-gammas instead; its relative error
    is then about eps times the summed size of the logs.  A bottom at a
    pole gives 0.0.  Returns +-inf only where the value itself exceeds
    the float64 range.
    """
    try:
        value = plain()
    except OverflowError:
        value = math.inf
    if value != 0.0 and math.isfinite(value):
        return value
    if scale == 0.0 or any(x <= 0.0 and x == round(x) for x in bottoms):
        return 0.0
    log_abs = (log_power + math.log(abs(scale))
               + sum(map(math.lgamma, tops)) - sum(map(math.lgamma, bottoms)))
    # Gamma is negative on (-1, 0), (-3, -2), ...
    flips = sum(x < 0.0 and math.floor(x) % 2 == 1 for x in (*tops, *bottoms))
    sign = math.copysign(1.0, scale) * (-1.0) ** flips
    try:
        return sign * math.exp(log_abs)
    except OverflowError:
        return sign * math.inf


@dataclass(frozen=True)
class SeriesSpec:
    """Parameters of the four-parameter Struve-type series.

    The series is sum_k (-1)^k (z/2)^(2k+order+1) /
    (Gamma(alpha*k + mu) * Gamma(lam*k + sigma)).
    With lam=alpha=1, mu=3/2, sigma=order+3/2 it is the classical Struve
    series of order `order`.  `sigma` defaults to order + 3/2 but is kept
    independent because one published variant shifts the offset to
    order/mu + 3/2 while leaving the exponent pattern alone.
    """

    lam: float
    alpha: float
    mu: float
    order: float
    sigma: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        for name in ("lam", "alpha", "mu", "order"):
            object.__setattr__(self, name, float(getattr(self, name)))
        sigma = self.order + 1.5 if self.sigma is None else float(self.sigma)
        object.__setattr__(self, "sigma", sigma)
        finite = (self.lam, self.alpha, self.mu, self.order, sigma)
        if not all(map(math.isfinite, finite)):
            raise DomainError(f"series parameters must be finite, got {self!r}")
        if not (self.lam > 0.0):
            raise DomainError(f"series slope lam must be positive, got {self.lam!r}")
        if not (self.alpha > 0.0):
            raise DomainError(f"series slope alpha must be positive, got {self.alpha!r}")
        if not (self.order > -1.0):
            raise DomainError(f"series order must exceed -1, got {self.order!r}")

    @classmethod
    def struve(cls, order: float) -> "SeriesSpec":
        """Spec that reproduces the classical Struve series H_order."""
        return cls(lam=1.0, alpha=1.0, mu=1.5, order=order)


# ---------------------------------------------------------------------------
# The series engine: sum_n x^n prod_j 1/Gamma(a_j n + b_j) in three tiers


def _float_accepted(value, max_mag, converged, rounding):
    """Tier 1's acceptance rule, for one entry or entrywise for arrays.

    The float64 series vouches for its value when it met the tail rule
    within the cancellation budget and, where `rounding` is given (0 for
    entries that need no bound), within its summed rounding bound too.
    """
    size = abs(value)
    accepted = converged & (max_mag <= _CANCEL_LIMIT * size)
    if rounding is None:
        return accepted
    return accepted & (_EPS * rounding <= _CONTOUR_TOL * size)


def _series_float(x: float, gammas, deep: bool = False):
    """sum_n x^n prod_j 1/Gamma(a_j n + b_j) in float64, for one x.

    `gammas` holds one or two pairs (a_j, b_j) with a_j > 0.  With `deep`
    (Mittag-Leffler below _DEEP, where the terms grow far past the result
    before they decay) the sum also carries its rounding bound.  Returns
    (value, accepted).
    """
    (a, b), (a2, b2) = gammas[0], gammas[-1]
    two = len(gammas) == 2
    total = max_mag = rounding = 0.0
    xn = 1.0
    converged = False
    for n in range(MAX_TERMS):
        # lo and hi: the smaller and the larger gamma argument of the term
        g = lo = hi = a * n + b
        if two:
            g2 = a2 * n + b2
            if g2 < g:
                lo = g2
            else:
                hi = g2
        if hi > _GAMMA_OVERFLOW and max_mag > 0.0:
            # 1/Gamma underflows to 0 from here on, which would end the
            # sum whether or not its terms have decayed
            break
        term = xn * reciprocal_gamma(g)
        if two:
            term *= reciprocal_gamma(g2)
        if not math.isfinite(term):
            break
        total += term
        if deep:
            rounding += abs(term) * (n + abs(g) + 4.0)
        mag = abs(total)
        if mag > max_mag:
            max_mag = mag
        if n >= _MIN_TERMS and lo > 0.0 and abs(term) <= _TAIL * max_mag:
            converged = True
            break
        xn *= x
    return total, _float_accepted(total, max_mag, converged, rounding if deep else None)


def _series_terms(coeff, lo, hi, xs: np.ndarray):
    """How many terms of the table `coeff` the tail rule needs at each |x|
    in `xs`, and whether the table is long enough to tell.

    `lo` and `hi` hold each term's smaller and larger gamma argument.
    Each row's term must be at most _TAIL of its running sum of |terms|,
    once its gamma arguments are positive; a row whose 1/Gamma has
    underflowed (hi past _GAMMA_OVERFLOW) no longer counts.  The count
    stops short of powers past float64 range.
    """
    m = coeff.shape[1]
    powers = np.empty((xs.size, m))
    powers[:, 0], powers[:, 1:] = 1.0, xs[:, None]
    np.cumprod(powers, axis=1, out=powers)
    finite = np.isfinite(powers)
    cap = np.where(finite[:, -1], m, np.argmin(finite, axis=1))
    # (points, rows, terms); entries past a point's cap never count
    term = np.abs(coeff) * powers[:, None, :]
    met = (term <= _TAIL * np.cumsum(term, axis=2)) & (lo > 0.0)
    met |= hi > _GAMMA_OVERFLOW
    met[..., :_MIN_TERMS] = False
    met = met.all(axis=1) & (np.arange(m) < cap[:, None])
    hit = met.any(axis=1)
    return (np.where(hit, np.argmax(met, axis=1) + 1, cap),
            hit | (cap < m) | (m >= MAX_TERMS))


# columns per block of `_series_products`; each block sums as many terms
# as its own largest |x| needs
_BLOCK = 512


@np.errstate(over="ignore", invalid="ignore")
def _series_products(xs: np.ndarray, gammas, deep=None):
    """Tier 1 for a grid: `_series_float` for every row and every x in `xs`.

    `gammas` holds one or two pairs (a_j, offsets_j), each offsets_j an
    array over the rows, and `deep` marks the columns that also carry a
    rounding bound.  The table C[r, n] = prod_j 1/Gamma(a_j n +
    offsets_j[r]) is built once.  Each block of _BLOCK columns takes the
    prefix of C its largest |x| needs, with the powers V[n, j] = xs[j]^n:
    the values are C @ V, the sums of |terms| |C| @ |V|, and the rounding
    bound one more product.  An entry has converged when its row's last
    term before 1/Gamma underflows is at most _TAIL of its sum of |terms|.
    `_float_accepted`'s budget measures the cancellation

    - in a grid of several rows against the sum of |terms|, which bounds
      every partial sum, so it is never looser than the scalar's;
    - in a grid of one row against the largest partial sum, as
      `_series_float` does, formed by one cumsum over the columns whose
      sum of |terms| exceeds the budget; the sum of |terms| alone would
      send many more of them to the next tier.

    Powers past the float64 range pass silently.  Returns (values,
    accepted) as (rows, len(xs)) arrays.
    """
    # with one pair, the second gamma argument repeats the first
    (a, b), (a2, b2) = gammas[0], gammas[-1]
    b, b2 = np.asarray(b, dtype=float), np.asarray(b2, dtype=float)
    rows = np.arange(b.size)
    starts = np.arange(0, xs.size, _BLOCK)
    maxima = np.maximum.reduceat(np.abs(xs), starts)
    coeff = np.empty((b.size, 0))
    rgamma = np.frompyfunc(reciprocal_gamma, 1, 1)
    decided = False
    while not decided:
        # 32 more terms until the largest |x| decides the tail rule
        n = np.arange(min(coeff.shape[1] + 32, MAX_TERMS))
        g, g2 = a * n + b[:, None], a2 * n + b2[:, None]
        more = rgamma(g[:, coeff.shape[1]:]).astype(float)
        if len(gammas) == 2:
            more *= rgamma(g2[:, coeff.shape[1]:]).astype(float)
        coeff = np.hstack((coeff, more))
        lo, hi = np.minimum(g, g2), np.maximum(g, g2)
        decided = _series_terms(coeff, lo, hi, maxima.max(keepdims=True))[1][0]
    # a row's live terms end where its 1/Gamma underflows
    dead = hi > _GAMMA_OVERFLOW
    live = np.where(dead.any(axis=1), np.argmax(dead, axis=1), g.shape[1])
    weight = np.abs(coeff) * (np.arange(g.shape[1]) + np.abs(g) + 4.0)
    values, mag = np.zeros((2, b.size, xs.size))
    rounding = np.zeros_like(values) if deep is not None and deep.any() else None
    converged = np.zeros(values.shape, dtype=bool)
    # each block's term count, scanning as many blocks at a time as keep
    # the scan near 2^16 entries
    step = max(1, (1 << 16) // coeff.size)
    counts = np.concatenate([_series_terms(coeff, lo, hi, maxima[i:i + step])[0]
                             for i in range(0, starts.size, step)])
    # each row's last live term in each block, where its tail is judged
    lasts = np.minimum(counts[:, None], live) - 1
    judged = (lasts >= _MIN_TERMS) & (lo[rows, lasts] > 0.0)
    for start, n, last, started in zip(starts, counts, lasts, judged):
        x = xs[start:start + _BLOCK]
        cols = slice(start, start + x.size)
        # V: row k holds x^k of every point, each `_series_float`'s xn
        powers = np.empty((n, x.size))
        powers[0] = 1.0
        for k in range(1, n):
            np.multiply(powers[k - 1], x, out=powers[k])
        if b.size > 1:
            # BLAS's summation order follows V's memory layout; this one
            # keeps a solution series' terms as they have been measured
            powers = np.asfortranarray(powers)
        size = np.abs(powers)
        values[:, cols] = coeff[:, :n] @ powers
        mag[:, cols] = total = np.abs(coeff[:, :n]) @ size
        if rounding is not None and deep[cols].any():
            rounding[:, cols] = np.where(deep[cols], weight[:, :n] @ size, 0.0)
        term = coeff[rows, last][:, None] * powers[last]
        converged[:, cols] = started[:, None] & (np.abs(term) <= _TAIL * total)
        if b.size == 1:
            # the largest partial sum, where the sum of |terms| exceeds
            # the budget
            wide = np.flatnonzero(~(total[0] <= _CANCEL_LIMIT * np.abs(values[0, cols])))
            if wide.size:
                partial = np.cumsum(coeff[0, :n, None] * powers[:, wide], axis=0)
                mag[0, start + wide] = np.max(np.abs(partial), axis=0)
    return values, _float_accepted(values, mag, converged & np.isfinite(values), rounding)


def _tail_past_budget(x, gammas, dps: int) -> bool:
    """Whether no partial sum within the budget can meet the tail rule at
    `dps` digits, so that `_series_mp` may refuse before it sums.

    With every a_j >= 0 and b_j > 0, log Gamma is convex along each
    argument a_j n + b_j, so log|term n+1 / term n| falls as n grows: the
    terms rise to one peak n* and then fall.  n* is found by bisection on
    the sign of that log-ratio.  With K = MAX_TERMS_EXTENDED, the rule
    cannot be met where |term K-1| > 10^-dps K |term n*|:

    - before the peak, each term is the largest so far;
    - after the peak, every term is at least |term K-1|;
    - every partial sum is at most K |term n*|.

    Terms still growing at the end of the budget give n* = K-1.  The test
    compares logs, with a margin of 1 (a factor e) for their rounding,
    because 10^-dps underflows past 308 digits.  It judges only gamma
    arguments up to 1e6: lgamma's rounding grows with its value, so past
    that it could move the peak by more than the margin (and past 2.5e305
    it overflows), and such a series is summed instead.
    """
    k = MAX_TERMS_EXTENDED
    if x == 0 or not all(a >= 0.0 and b > 0.0 and a * k + b <= 1e6 for a, b in gammas):
        return False
    log_x = float(mpmath.log(abs(x)))

    def log_term(n):
        return n * log_x - sum(math.lgamma(a * n + b) for a, b in gammas)

    # the first n whose successor is no larger, else k - 1
    peak, last = 0, k - 1
    while peak < last:
        mid = (peak + last) // 2
        if log_term(mid + 1) <= log_term(mid):
            last = mid
        else:
            peak = mid + 1
    return (log_term(k - 1) - log_term(peak) - math.log(k)
            > 1.0 - dps * math.log(10.0))


def _series_mp(setup, gammas, label: str) -> float:
    """sum_n x^n prod_j 1/Gamma(a_j n + b_j), times a prefactor, in mpmath.

    `setup()` returns (x, prefactor) built at the working precision.  The
    precision starts at 30 digits and grows with the cancellation the sum
    shows until its rounding floor sits about 13 digits below the value.
    Raises ConvergenceError where the sum does not converge, before
    summing any term where `_tail_past_budget` finds the tail rule at the
    working precision past the term budget, and NonFiniteError where the
    value leaves the float64 range; `label` names the series in those
    messages.
    """
    exhausted = (f"{label} did not meet the tail criterion within "
                 f"{MAX_TERMS_EXTENDED} terms")
    dps = 30
    for _ in range(8):
        with mpmath.workdps(dps):
            x, prefactor = setup()
            if _tail_past_budget(x, gammas, dps):
                raise ConvergenceError(exhausted)
            pairs = [(mpmath.mpf(a), mpmath.mpf(b)) for a, b in gammas]
            tail = mpmath.mpf(10) ** (-dps)
            total = max_mag = mpmath.mpf(0)
            xn = mpmath.mpf(1)
            for n in range(MAX_TERMS_EXTENDED):
                term = xn
                for a, b in pairs:
                    term *= mpmath.rgamma(a * n + b)
                total += term
                mag = abs(total)
                if mag > max_mag:
                    max_mag = mag
                if (n >= _MIN_TERMS and all(a * n + b > 0 for a, b in pairs)
                        and abs(term) <= tail * max_mag):
                    break
                xn *= x
            else:
                raise ConvergenceError(exhausted)
            # precision is adequate once the accumulated rounding floor sits
            # at least ~13 digits below the result
            if max_mag == 0 or abs(total) > mpmath.mpf(10) ** (13 - dps) * max_mag:
                value = float(total * prefactor)
                if not math.isfinite(value):
                    raise NonFiniteError(f"{label} exceeds the float64 range")
                return value
            deficit = mpmath.log10(max_mag / abs(total)) if abs(total) > 0 else dps
            dps = int(dps + max(10, float(deficit) + 15))
    raise ConvergenceError(
        f"{label} could not reach target precision in the extended branch"
    )


# ---------------------------------------------------------------------------
# Mittag-Leffler


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) = sum_n z^n / Gamma(alpha*n + beta) for real z.

    Supported for alpha > 0 and |z| <= 100; relative accuracy 1e-10 or
    better across that range.  The value comes from the first of three
    tiers that can vouch for it:

    1. the float64 series, when it converges within the float64
       cancellation budget (and, below z = -10, within its own rounding
       bound of 1e-12);
    2. for z < 0 and alpha <= 2, the parabolic-contour integral of
       `_ml_contour`, when its a-posteriori error estimate is within
       1e-12 of the value;
    3. the mpmath series at a precision adapted to the cancellation.

    mpmath therefore runs only outside the float64 budget where the
    contour does not serve (positive z, or alpha > 2) or its estimate
    fails, such as for values far below the contour's rounding level
    (E_{1,1}(-99) = e^-99).  A value beyond the float64 range, such as
    E_{1/2,1}(30) = 1.5e391, raises NonFiniteError.
    """
    alpha = float(alpha)
    beta = float(beta)
    z = float(z)
    if not alpha > 0.0:
        raise DomainError(
            f"Mittag-Leffler E_{{alpha,beta}} requires alpha > 0, got {alpha!r}")
    if not abs(z) <= ML_RANGE:
        raise DomainError(
            f"Mittag-Leffler E_{{alpha,beta}}(z) supports |z| <= {ML_RANGE:g}, got z={z!r}"
        )
    value, accepted = _series_float(z, ((alpha, beta),), deep=z < _DEEP)
    if accepted:
        return value
    return float(_ml_rescue(alpha, np.array([beta]), np.array([z]))[0])


def _ml_rescue(alpha: float, betas: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Both entry points' tiers 2 and 3, for entries float64 rejected.

    The contour serves each entry (betas[i], zs[i]) its estimate vouches
    for; every other entry goes to mpmath alone.
    """
    values, est = _ml_contour(alpha, betas, zs)
    for i in np.flatnonzero(~(est <= _CONTOUR_TOL * np.abs(values))):
        values[i] = _ml_extended(alpha, float(betas[i]), float(zs[i]))
    return values


def _ml_extended(alpha: float, beta: float, z: float) -> float:
    """Mittag-Leffler's entry into the mpmath tier; every escalation ends here."""
    return _series_mp(lambda: (mpmath.mpf(z), 1), ((alpha, beta),),
                      f"E_{{{alpha!r},{beta!r}}}({z!r})")


# Contour integral for z < 0 (Garrappa, SIAM J. Numer. Anal. 53, 2015;
# Weideman & Trefethen, Math. Comp. 76, 2007).  E_{alpha,beta}(z) is the
# inverse Laplace transform of s^(alpha-beta) / (s^alpha - z) at t = 1,
# integrated by the trapezoid rule on the parabola s = mu (1 + iu)^2,
# which crosses the real axis at mu and encloses the branch cut.  A
# point s lies left of that parabola when phi(s) = (Re s + |s|)/2 < mu.
# For 1 < alpha <= 2 the poles s* = |z|^(1/alpha) e^(+-i pi/alpha) add
# their residues when they lie right of it.  For alpha > 2, s^alpha = z
# has further roots with |arg s| < pi (at +-3 pi/alpha, ...) whose
# residues no rule here adds, so the contour serves 0 < alpha <= 2 only.
_CONTOUR_MAX_ALPHA = 2.0
# Garrappa's parabolas budget for the poles but not for the origin once
# beta - alpha is large: there the trapezoid sums at h and h/2 can agree
# on a value 1e100 times too large (E_{1.5,133}(-5)).  Measured against
# mpmath, his rules' accepted results are right up to beta - alpha = 25
# and wrong from about 130, with every entry between rejected; past this
# cap the saddle rule serves alone.
_GARRAPPA_MAX_SHIFT = 30.0


def _region_between(p: float, phi_pole: float, log_tol: float):
    """Garrappa's (mu, h, N) for a parabola between the origin and the poles."""
    fac = 1.01
    f_max = math.exp(log_tol - _LOG_EPS)
    sq_pole = min(math.sqrt(phi_pole), 2.0 * math.sqrt(log_tol - _LOG_EPS))
    if p < 1e-14:
        f_bar = fac + fac / f_max * (f_max - fac)
        lo = 0.0
        hi = 2.0 * sq_pole / (2.0 + 1.0 / f_bar)
    else:
        log_f_min = math.log(fac) + (1.0 - max(p, 1.0)) * math.log(sq_pole)
        if log_f_min >= math.log(f_max):
            return None
        f_min = max(math.exp(log_f_min), 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / p)
        fq = 1.0 / f_bar
        w = -phi_pole / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        lo = fp * sq_pole / den
        hi = (2.0 + w - (1.0 + w) * fp) * sq_pole / den
    log_tol -= math.log(f_bar)
    w = -hi * hi / log_tol
    mu = (((1.0 + w) * lo + hi) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (hi - lo) / ((1.0 + w) * lo + hi)
    return mu, h, math.ceil(math.sqrt(1.0 - log_tol / mu) / h)


def _region_beyond(phi: float, p: float, log_tol: float):
    """Garrappa's (mu, h, N) for a parabola right of every singularity."""
    sq_phi = math.sqrt(phi)
    phi_bar = phi * 1.01 if phi > 0.0 else 0.01
    sq_bar = math.sqrt(phi_bar)
    for _ in range(100):
        ratio = log_tol / phi_bar
        n = math.ceil(phi_bar / math.pi * (1.0 - 1.5 * ratio + math.sqrt(1.0 - 2.0 * ratio)))
        a = math.pi * n / phi_bar
        sq_mu = sq_bar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        if p < 1e-14 or 0.0 < -p * math.log((sq_bar - sq_phi) / sq_mu) < math.log(10.0):
            break
        sq_bar = 5.0 ** (-1.0 / p) * sq_mu + sq_phi
        phi_bar = sq_bar * sq_bar
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    # keep e^mu, the size of the largest node, within the rounding budget
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * math.sqrt(mu)
        if (q + sq_phi) ** 2 >= threshold:
            return None
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = (q + sq_phi) / math.sqrt(-_LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return mu, h, n


def _pole_phi(alpha: float, z: float) -> float:
    if alpha <= 1.0:
        return 0.0
    return abs(z) ** (1.0 / alpha) * (1.0 + math.cos(math.pi / alpha)) / 2.0


def _garrappa_rule(alpha: float, beta: float, z: float):
    """(mu, h, N, poles right of the parabola) with the fewest nodes."""
    if beta - alpha > _GARRAPPA_MAX_SHIFT:
        return None
    phi_pole = _pole_phi(alpha, z)
    p = max(0.0, 2.0 * (beta - alpha - 1.0))
    log_tol = math.log(1e-15)
    for _ in range(8):
        found = []
        if phi_pole > 1e-15:
            between = _region_between(p, phi_pole, log_tol)
            if between is not None:
                found.append(between + (True,))
            if phi_pole < log_tol - _LOG_EPS:
                beyond = _region_beyond(phi_pole, 1.0, log_tol)
                if beyond is not None:
                    found.append(beyond + (False,))
        else:
            beyond = _region_beyond(0.0, p, log_tol)
            if beyond is not None:
                found.append(beyond + (False,))
        if found and min(f[2] for f in found) <= 200:
            return min(found, key=lambda f: f[2])
        log_tol += math.log(10.0)
    return None


def _saddle_rule(alpha: float, beta: float, z: float):
    """(mu, h, N, poles) for a parabola through the saddle of e^s s^(alpha-beta).

    For large beta the value is near 1/Gamma(beta), far below the
    integrand on any parabola near the origin; through the saddle at
    mu = beta - alpha the largest node is the size of the value.  h keeps
    the discretisation error e^(-2 pi y/h) below e^-40 of the saddle on a
    strip of half-width y short of the origin and of the poles, where
    the integrand grows by at most e^(b (y^2 - 2y - 2 log(1-y))).
    """
    b = beta - alpha
    if b < 1.0:
        return None
    phi_pole = _pole_phi(alpha, z)
    q = math.sqrt(phi_pole / b)
    reach = 1.0 - q if q < 1.0 else min(1.0, q - 1.0)
    if reach < 0.05:
        return None
    y = np.linspace(0.02, 0.95, 48) * reach
    growth = b * (y * y - 2.0 * y - 2.0 * np.log1p(-y))
    h = float(np.max(2.0 * math.pi * y / (40.0 + growth)))
    return b, h, math.ceil(math.sqrt(40.0 / b) / h), phi_pole > b


def _parabola_sums(alpha, betas, zs, mu, h, n, poles):
    """Trapezoid sums on each entry's parabola, steps h and h/2.

    Returns the finer sum plus residues, and its error estimate: the gap
    to the coarser sum plus a rounding bound of eps times every term's
    magnitude, weighted by the size of its exponent.
    """
    j = np.arange(2 * int(n.max()) + 1)
    live = j[None, :] <= 2 * n[:, None]
    weight = np.ones(j.size)
    weight[0] = 0.5
    u = 0.5 * h[:, None] * j
    s = mu[:, None] * (1.0 + 1j * u) ** 2
    log_s = np.log(s)
    shift = (alpha - betas)[:, None]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        f = np.exp(s + shift * log_s) / (np.exp(alpha * log_s) - zs[:, None])
        f = np.where(live, f * 2.0 * mu[:, None] * (1j - u), 0.0)
    # conjugate symmetry: the nodes at -u contribute the mirror image
    fine = 0.5 * h / math.pi * np.sum(weight * f.imag, axis=1)
    coarse = h / math.pi * np.sum(weight[::2] * f.imag[:, ::2], axis=1)
    size = np.abs(f) * (1.0 + np.abs(s) + np.abs(shift) * np.abs(log_s))
    rounding = 0.5 * h / math.pi * np.sum(weight * size, axis=1)
    gap = np.abs(fine - coarse)
    if poles.any():
        log_pole = np.log(-zs[poles]) / alpha + 1j * math.pi / alpha
        pole = np.exp(log_pole)
        shift = 1.0 - betas[poles]
        residue = 2.0 / alpha * np.exp(shift * log_pole + pole)
        fine[poles] += residue.real
        rounding[poles] += np.abs(residue) * (
            1.0 + np.abs(pole) + np.abs(shift) * np.abs(log_pole)
        )
    return fine, gap + _EPS * rounding


def _relative(values, est):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(values != 0.0, est / np.abs(values), np.inf)


def _ml_contour(alpha: float, betas, zs):
    """E_{alpha, betas[i]}(zs[i]) where zs[i] < 0, with error estimates.

    Each entry takes Garrappa's optimal parabola first and, if that fails
    its estimate, the saddle parabola.  An entry both fail is retried one
    step down, E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z: for b near
    a the value is a small difference of the contour's terms, while one
    step down the part that cancels is the exactly known 1/Gamma(b-a).
    Returns (values, estimates); an entry is trustworthy where its
    estimate is at most _CONTOUR_TOL of its value, and its estimate is
    inf where no rule applied: at z >= 0, and everywhere if alpha > 2.
    """
    betas = np.asarray(betas, dtype=float)
    zs = np.asarray(zs, dtype=float)
    if alpha > _CONTOUR_MAX_ALPHA:
        return np.zeros(betas.size), np.full(betas.size, np.inf)
    values, est = _contour_rules(alpha, betas, zs)
    todo = np.flatnonzero((zs < 0.0) & ~(_relative(values, est) <= _CONTOUR_TOL))
    if todo.size:
        lower, lower_est = _contour_rules(alpha, betas[todo] - alpha, zs[todo])
        rg = np.array([reciprocal_gamma(b) for b in betas[todo] - alpha])
        v = (lower - rg) / zs[todo]
        e = (lower_est + _EPS * (np.abs(lower) + np.abs(rg))) / np.abs(zs[todo])
        better = _relative(v, e) < _relative(values[todo], est[todo])
        values[todo[better]] = v[better]
        est[todo[better]] = e[better]
    return values, est


def _contour_rules(alpha: float, betas: np.ndarray, zs: np.ndarray):
    """_ml_contour without the step down."""
    values = np.zeros(betas.size)
    est = np.full(betas.size, np.inf)
    rel = np.full(betas.size, np.inf)
    todo = np.flatnonzero(zs < 0.0)
    for rule in (_garrappa_rule, _saddle_rule):
        found = [(i, rule(alpha, betas[i], zs[i])) for i in todo]
        found = [(i, prm) for i, prm in found if prm is not None]
        if not found:
            continue
        idx = np.array([i for i, _ in found])
        mu, h, n, poles = (np.array(c) for c in zip(*(prm for _, prm in found)))
        # largest N first, so each batch's first entry sets its width;
        # the node arrays hold about 2^13 complex entries at a time
        order = np.argsort(-n, kind="stable")
        start = 0
        while start < order.size:
            stop = start + max(1, (1 << 13) // (2 * int(n[order[start]]) + 1))
            part = order[start:stop]
            v, e = _parabola_sums(alpha, betas[idx[part]], zs[idx[part]],
                                  mu[part], h[part], n[part], poles[part])
            r = _relative(v, e)
            better = r < rel[idx[part]]
            for target, source in ((values, v), (est, e), (rel, r)):
                target[idx[part[better]]] = source[better]
            start = stop
        todo = todo[~(rel[todo] <= _CONTOUR_TOL)]
        if not todo.size:
            break
    return values, est


def mittag_leffler_grid(alpha: float, betas, zs) -> np.ndarray:
    """E_{alpha, betas[i]}(zs[j]) as a (len(betas), len(zs)) array.

    Vectorized companion of mittag_leffler with the same three tiers,
    decided entry by entry.  Tier 1 sums the whole grid with the blocked
    products of `_series_products`, whose budget measures the cancellation
    of one row against its largest partial sum, as the scalar does, and
    of several rows against the sum of |terms|, never looser.  Each entry
    tier 1 rejects goes to the scalar path's `_ml_rescue`, with one
    batched contour call for all of them.  |z| past ML_RANGE raises
    DomainError naming the largest.
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise DomainError(
            f"Mittag-Leffler E_{{alpha,beta}} requires alpha > 0, got {alpha!r}")
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    if zs.size and not np.max(np.abs(zs)) <= ML_RANGE:
        z = float(zs[np.argmax(np.abs(zs))])
        raise DomainError(
            f"Mittag-Leffler E_{{alpha,beta}}(z) supports |z| <= {ML_RANGE:g}, got z={z!r}"
        )
    if betas.size == 0 or zs.size == 0:
        return np.zeros((betas.size, zs.size))
    total, accepted = _series_products(zs, ((alpha, betas),), zs < _DEEP)
    rows, cols = np.nonzero(~accepted)
    if rows.size:
        total[rows, cols] = _ml_rescue(alpha, betas[rows], zs[cols])
    return total


# ---------------------------------------------------------------------------
# Struve family


def generalized_struve(spec: SeriesSpec, z: float) -> float:
    """Four-parameter Struve-type series at real z >= 0.

    Computes (z/2)^(order+1) * sum_k (-1)^k (z/2)^(2k) /
    (Gamma(alpha*k+mu) * Gamma(lam*k+sigma)).
    """
    if not isinstance(spec, SeriesSpec):
        raise DomainError("generalized_struve expects a SeriesSpec")
    z = float(z)
    if z < 0.0:
        raise DomainError(f"the Struve-type series requires z >= 0, got {z!r}")
    gammas = ((spec.alpha, spec.mu), (spec.lam, spec.sigma))
    return _struve_series(gammas, spec.order, z, -1.0)


def struve_h(v: float, z: float) -> float:
    """Struve function H_v(z) for real v > -1 and z >= 0."""
    return _classical_struve("struve_h", v, z, -1.0)


def struve_l(v: float, z: float) -> float:
    """Modified Struve function L_v(z): the H_v series with positive terms.

    The value grows like e^z, so large z raises NonFiniteError once terms
    leave the float64 range.
    """
    return _classical_struve("struve_l", v, z, 1.0)


def _classical_struve(name: str, v: float, z: float, sign: float) -> float:
    v = float(v)
    z = float(z)
    if not v > -1.0:
        raise DomainError(f"{name} requires v > -1, got {v!r}")
    if z < 0.0:
        raise DomainError(f"{name} requires z >= 0, got {z!r}")
    return _struve_series(((1.0, 1.5), (1.0, v + 1.5)), v, z, sign)


def _half_power(z: float, p: float) -> float:
    """(z/2)^p for z > 0; past the float64 range it raises OverflowError.

    Where z/2 falls below the normal range, halving z would round it to a
    few significant bits (or to 0.0), so the power is taken from z itself.
    """
    half = 0.5 * z
    if half >= _NORMAL_MIN:
        return half ** p
    return z ** p * 0.5 ** p


def _scaled(total: float, order: float, z: float) -> float:
    """(z/2)^(order+1) times a raw sum at z > 0, or NonFiniteError."""
    try:
        prefactor = _half_power(z, order + 1.0)
    except OverflowError:
        prefactor = math.inf
    value = prefactor * total
    if not math.isfinite(value):
        raise NonFiniteError(
            f"Struve-type series value at z={z!r} exceeds the float64 range"
        )
    return value


def _struve_series(gammas, order: float, z: float, sign: float) -> float:
    """Struve-type series, gammas ((alpha, mu), (lam, sigma)); sign -1 for H, +1 for L.

    A value the float64 series rejects (overflow, cancellation, or slow
    decay past its term cap) goes to `_struve_rescue`, the path every
    rejected grid entry takes too.
    """
    if z == 0.0:
        # order > -1 makes the prefactor vanish
        return 0.0
    if not z < math.inf:
        raise DomainError(f"Struve-type series requires a finite z, got {z!r}")
    half = 0.5 * z
    total, accepted = _series_float(sign * (half * half), gammas)
    if not accepted:
        return float(_struve_rescue(gammas, order, np.array([z]), sign)[0])
    return _scaled(total, order, z)


def _struve_rescue(gammas, order: float, zs: np.ndarray, sign: float) -> np.ndarray:
    """Both entry points' tiers past float64, for the z > 0 it rejected.

    Where the series is a classical H_nu, gammas ((1, 3/2), (1, nu + 3/2))
    with nu > -1 and sign -1, the Poisson integral of `_struve_poisson`
    serves each z up to _POISSON_MAX_Z whose estimate is within
    _CONTOUR_TOL of its value; every other entry goes to mpmath alone.
    """
    (alpha, mu), (lam, sigma) = gammas
    raw = np.zeros(zs.size)
    served = np.zeros(zs.size, dtype=bool)
    if sign < 0.0 and alpha == lam == 1.0 and mu == 1.5 and sigma > 0.5:
        near = np.flatnonzero(zs <= _POISSON_MAX_Z)
        if near.size:
            raw[near], est = _struve_poisson(sigma - 1.5, zs[near])
            served[near] = _relative(raw[near], est) <= _CONTOUR_TOL
    return np.array([_scaled(raw[i], order, z) if served[i]
                     else _struve_extended(gammas, order, z, sign)
                     for i, z in enumerate(zs.tolist())])


def _struve_extended(gammas, order: float, z: float, sign: float) -> float:
    """The Struve family's entry into the mpmath tier."""

    def setup():
        half = mpmath.mpf(z) / 2
        return sign * half * half, half ** (mpmath.mpf(order) + 1)

    return _series_mp(setup, gammas, f"Struve-type series at z={z!r}")


# Tier 2 of the classical H_nu: Poisson's integral (DLMF 11.5.1) with
# sin z subtracted, so that it holds for every nu > -1:
#   H_nu(z) = (z/2)^nu [sin z / Gamma(nu+1) + 2 / (sqrt(pi) Gamma(nu+1/2))
#             * int_0^(pi/2) sin^(2nu)(t) g(t) dt],
#   g(t) = -2 cos(z cos^2(t/2)) sin(z sin^2(t/2)) = sin(z cos t) - sin z,
# as int_0^(pi/2) sin^(2nu)(t) dt = sqrt(pi) Gamma(nu+1/2) / (2 Gamma(nu+1)).
# The integrand vanishes like t^(2nu+2) at t = 0.  The tanh-sinh
# trapezoid rule (Takahasi & Mori, Publ. RIMS 9, 1974) on
# t = (pi/2) / (1 + e^(-pi sinh s)) takes it at steps h and 2h; at
# |s| = 3.5 the nodes lie within 1e-22 of the ends.  Past _POISSON_MAX_Z,
# where a seeded sweep against 40-digit mpmath stops, z is left to
# mpmath: the rounding bound grows with z, and it rejects 6 % of the
# entries on 35 < z <= 40 (1.5 % on 10 < z <= 20, nu in (-1, 2]).
_POISSON_MAX_Z = 40.0
_POISSON_STEP = 1.0 / 64.0
_POISSON_HALF_WIDTH = 3.5
# rows w, sin t, sin^2(t/2) and cos^2(t/2) of the nodes, built on first use
_poisson_nodes = None


def _poisson_table() -> np.ndarray:
    """The rule's weights and node values, each rounded once from 30
    digits, so that the phases z sin^2(t/2) and z cos^2(t/2) carry no
    error of the rule's own."""
    global _poisson_nodes
    if _poisson_nodes is None:
        k = round(_POISSON_HALF_WIDTH / _POISSON_STEP)
        rows = []
        with mpmath.workdps(30):
            pi = +mpmath.pi
            for j in range(-k, k + 1):
                # e^s, and e^(-2 g) with g = (pi/2) sinh s
                es = mpmath.exp(j * _POISSON_STEP)
                e = mpmath.exp(pi * (1 / es - es) / 2)
                cos_half, sin_half = mpmath.cos_sin(pi / (4 * (1 + e)))
                weight = _POISSON_STEP * pi * pi * (es + 1 / es) * e / (4 * (1 + e) ** 2)
                rows.append((weight, 2 * sin_half * cos_half, sin_half ** 2, cos_half ** 2))
        _poisson_nodes = np.array(rows, dtype=float).T
        _poisson_nodes.flags.writeable = False
    return _poisson_nodes


def _struve_poisson(nu: float, zs: np.ndarray):
    """H_nu(z) / (z/2)^(nu+1) at each z > 0 in `zs`, with error estimates.

    Returns (values, estimates).  The estimate is the gap between the
    trapezoid sums at h and 2h plus a rounding bound: at each node,
    (8 + 2|nu|) eps times its term, and the errors eps a and eps b of the
    phases a = z cos^2(t/2) and b = z sin^2(t/2), carried through g.  Each
    entry's arithmetic is its own, whatever shares its batch.
    """
    weight, sin_t, lo, hi = _poisson_table()
    power = weight * sin_t ** (2.0 * nu)
    fine, coarse, rounding = np.empty((3, zs.size))
    # about 2^13 node values at a time, as the contour takes them
    step = max(1, (1 << 13) // power.size)
    for start in range(0, zs.size, step):
        z = zs[start:start + step, None]
        a, b = z * hi, z * lo
        sin_b = np.sin(b)
        term = power * (-2.0 * np.cos(a) * sin_b)
        part = slice(start, start + z.shape[0])
        fine[part] = np.sum(term, axis=1)
        coarse[part] = 2.0 * np.sum(term[:, ::2], axis=1)
        rounding[part] = np.sum((8.0 + 2.0 * abs(nu)) * np.abs(term)
                                + 2.0 * power * (a * np.abs(sin_b) + b), axis=1)
    first = np.sin(zs) * reciprocal_gamma(nu + 1.0)
    scale = 2.0 / math.sqrt(math.pi) * reciprocal_gamma(nu + 0.5)
    est = abs(scale) * (np.abs(fine - coarse) + _EPS * rounding) + 4.0 * _EPS * np.abs(first)
    return 2.0 / zs * (first + scale * fine), 2.0 / zs * est


def generalized_struve_grid(spec: SeriesSpec, zs) -> np.ndarray:
    """generalized_struve evaluated over an array of points z >= 0.

    Tier 1 sums the whole array as a one-row grid of `_series_products`,
    in x = -(z/2)^2 with the product of both reciprocal gammas as its
    coefficients.  The entries it cannot vouch for (among them those
    whose x overflows) go to the scalar path's `_struve_rescue` in one
    batched call, so each escalates as the same scalar call does; each
    entry whose z/2 is subnormal takes the scalar path whole.
    """
    if not isinstance(spec, SeriesSpec):
        raise DomainError("generalized_struve_grid expects a SeriesSpec")
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    if zs.size == 0:
        return np.zeros(0)
    if not (np.min(zs) >= 0.0 and np.max(zs) < math.inf):
        raise DomainError("generalized_struve_grid requires finite z >= 0")
    half = 0.5 * zs
    gammas = ((spec.alpha, spec.mu), (spec.lam, spec.sigma))
    # rejected entries are replaced below, among them those whose square
    # overflows; the finite check comes last
    with np.errstate(over="ignore", invalid="ignore"):
        total, accepted = _series_products(-(half * half), [(a, [b]) for a, b in gammas])
        value = np.where(zs > 0.0, half ** (spec.order + 1.0), 0.0) * total[0]
    rejected = np.flatnonzero(~accepted[0])
    if rejected.size:
        value[rejected] = _struve_rescue(gammas, spec.order, zs[rejected], -1.0)
    # entries whose z/2 is subnormal have lost digits
    for j in np.flatnonzero(accepted[0] & (zs > 0.0) & (half < _NORMAL_MIN)):
        value[j] = _struve_series(gammas, spec.order, float(zs[j]), -1.0)
    if not np.all(np.isfinite(value)):
        raise NonFiniteError("Struve-type series value exceeds the float64 range")
    return value


def struve_h_with_derivatives(v: float, z: float) -> tuple[float, float, float]:
    """H_v(z) together with its first two derivatives in z.

    With u = z/2 and w = -u^2, three raw sums of the series engine,
    S = sum_k w^k / (Gamma(k+3/2) Gamma(k+v+3/2)), A (S with Gamma(k+v+5/2))
    and B (A with Gamma(k+5/2)), give H = u^(v+1) S,
    H' = u^v [(v+1) S/2 - u^2 (A - B/2)] and
    H'' = u^(v-1) [v(v+1) S/4 - u^2 (S - (A + v B)/2)]: the weights
    (2k+v+1) and (2k+v+1)(2k+v) of the differentiated terms split into
    shifts of the gammas.  Nothing cancels near z = 0 or v = 0, where the
    exact factor v(v+1) makes H'' vanish.  S and A are the raw sums of
    H_v and H_(v+1) and take `struve_h`'s tiers, so H is `struve_h(v, z)`
    bit for bit wherever float64 or the Poisson integral serves S.  B is
    not a classical sum: where its float64 series rejects, it is taken
    from S = c - u^2 B, one index shift apart, with c = 1/(Gamma(3/2)
    Gamma(v+3/2)), wherever c - S does not cancel (|c - S| >= c/2), and
    from mpmath elsewhere.  Past z = 40 S and A take mpmath, and a call
    costs about two `struve_h` calls (seconds from z = 1000).  Past the
    float64 range: NonFiniteError.
    """
    v = float(v)
    z = float(z)
    if not v > -1.0:
        raise DomainError(f"struve_h_with_derivatives requires v > -1, got {v!r}")
    if not z > 0.0:
        raise DomainError(f"struve_h_with_derivatives requires z > 0, got {z!r}")
    s, a = (_struve_series(((1.0, 1.5), (1.0, v + sigma)), -1.0, z, -1.0)
            for sigma in (1.5, 2.5))
    u = 0.5 * z
    u2 = u * u
    b_gammas = ((1.0, 2.5), (1.0, v + 2.5))
    b, accepted = _series_float(-u2, b_gammas)
    if not accepted:
        # one index shift apart, S = c - u^2 B with c = 1/(G(3/2) G(v+3/2))
        c = reciprocal_gamma(1.5) * reciprocal_gamma(v + 1.5)
        if 0.0 < 0.5 * c <= abs(c - s):
            b = (c - s) / u2
        else:
            b = _struve_extended(b_gammas, -1.0, z, -1.0)
    try:
        values = (_half_power(z, v + 1.0) * s,
                  _half_power(z, v) * ((v + 1.0) * s / 2.0 - u2 * (a - b / 2.0)),
                  # at v = 0 the first term is exactly 0, and u^-1 would
                  # overflow for z below about 1e-308
                  -u * (s - a / 2.0) if v == 0.0 else
                  _half_power(z, v - 1.0) * (v * (v + 1.0) * s / 4.0
                                             - u2 * (s - (a + v * b) / 2.0)))
    except OverflowError:
        # a power of u past the float64 range
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise NonFiniteError(f"Struve derivatives at z={z!r} exceed the float64 range")
    return values
