"""Independent references for the benchmark's output checks.

Nothing here imports frackin.  The references are closed forms, scipy's
Struve functions, and mpmath series sums.  Every mpmath reference starts
from the exact float inputs (`mpmath.mpf` of a Python float is exact) and
raises its working precision until the digits lost to cancellation are
covered with at least `_GUARD` to spare: the series below cancel by up to
1e8, so a decimal reading of the inputs, or a fixed 15-digit working
precision, would move the reference in its 8th digit.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import special as sps

_GUARD = 25          # decimal digits kept beyond the cancellation
_START_DPS = 30
_MAX_TERMS = 20000


def _with_precision(summation):
    """Run summation() -> (total, largest term) at rising precision.

    The sum is accepted once the working precision exceeds the digits lost
    to cancellation, log10(largest term / |total|), by _GUARD.
    """
    dps = _START_DPS
    for _ in range(8):
        with mp.workdps(dps):
            total, peak = summation()
            if peak == 0 or total == 0:
                lost = 0 if peak == 0 else dps
            else:
                lost = max(0.0, float(mp.log10(peak / abs(total))))
            if dps - lost >= _GUARD:
                return total
        dps = int(lost) + _GUARD + 10
    raise ArithmeticError("reference series did not reach its precision target")


def _series(term_at, settled):
    """Sum term_at(n) for n = 0, 1, ... until settled(n, term, peak)."""
    total = mp.mpf(0)
    peak = mp.mpf(0)
    for n in range(_MAX_TERMS):
        term = term_at(n)
        total += term
        if abs(term) > peak:
            peak = abs(term)
        if settled(n, term, peak):
            return total, peak
    raise ArithmeticError("reference series did not converge")


def _tiny(term, peak) -> bool:
    return abs(term) <= mp.eps * peak * mp.mpf(10) ** -5


# ---------------------------------------------------------------------------
# Mittag-Leffler


def _ml_sum(alpha: float, beta: float, x_of):
    """sum_n x^n / Gamma(alpha n + beta) with x = x_of() at working precision."""
    def summation():
        a, b, x = mp.mpf(alpha), mp.mpf(beta), x_of()
        # the terms peak near n = |x|^(1/alpha) / alpha and then decay
        # geometrically, so the stopping test waits until past that peak
        past_peak = 2.0 * abs(float(x)) ** (1.0 / alpha) / alpha + 10.0
        return _series(lambda n: x ** n * mp.rgamma(a * n + b),
                       lambda n, t, p: n > past_peak and _tiny(t, p))

    return float(_with_precision(summation))


def ml_series(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) = sum_n z^n / Gamma(alpha n + beta), mpmath sum."""
    return _ml_sum(alpha, beta, lambda: mp.mpf(z))


def ml_closed_form(alpha: float, beta: float, z: float):
    """E_{1,1} = exp, E_{2,1}(-x^2) = cos x, E_{1/2,1}(z) = e^{z^2} erfc(-z).

    Returns None when (alpha, beta, z) has no closed form here.
    """
    with mp.workdps(_START_DPS):
        x = mp.mpf(z)
        if alpha == 1.0 and beta == 1.0:
            return float(mp.exp(x))
        if alpha == 2.0 and beta == 1.0 and z <= 0.0:
            return float(mp.cos(mp.sqrt(-x)))
        if alpha == 0.5 and beta == 1.0:
            return float(mp.exp(x * x) * mp.erfc(-x))
    return None


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Closed form where one exists, the mpmath series otherwise."""
    value = ml_closed_form(alpha, beta, z)
    return ml_series(alpha, beta, z) if value is None else value


# ---------------------------------------------------------------------------
# Struve family


def struve_h(v: float, z: float) -> float:
    """H_v(z): closed form at v = 1/2, scipy.special.struve otherwise."""
    if v == 0.5:
        with mp.workdps(_START_DPS):
            x = mp.mpf(z)
            return float(mp.sqrt(2 / (mp.pi * x)) * (1 - mp.cos(x)))
    return float(sps.struve(v, z))


def struve_l(v: float, z: float) -> float:
    """L_v(z): closed form at v = 1/2, scipy.special.modstruve otherwise."""
    if v == 0.5:
        with mp.workdps(_START_DPS):
            x = mp.mpf(z)
            return float(mp.sqrt(2 / (mp.pi * x)) * (mp.cosh(x) - 1))
    return float(sps.modstruve(v, z))


def struve_h_with_derivatives(v: float, z: float) -> tuple[float, float, float]:
    """H_v, H_v' and H_v'' from mpmath's struveh, a recurrence and the ODE.

    H_v' = H_{v-1} - (v/z) H_v, and the Struve equation
    z^2 H'' + z H' + (z^2 - v^2) H = 4 (z/2)^(v+1) / (sqrt(pi) Gamma(v+1/2))
    gives H''.
    """
    with mp.workdps(_START_DPS + 10):
        vv, x = mp.mpf(v), mp.mpf(z)
        h = mp.struveh(vv, x)
        h1 = mp.struveh(vv - 1, x) - vv / x * h
        rhs = 4 * (x / 2) ** (vv + 1) * mp.rgamma(vv + mp.mpf(1) / 2) / mp.sqrt(mp.pi)
        h2 = (rhs - x * h1 - (x * x - vv * vv) * h) / (x * x)
        return float(h), float(h1), float(h2)


def generalized_struve(lam, alpha, mu, sigma, order, z) -> float:
    """sum_k (-1)^k (z/2)^(2k+order+1) / (Gamma(alpha k+mu) Gamma(lam k+sigma))."""
    if z == 0.0:
        return 0.0

    def summation():
        half = mp.mpf(z) / 2
        p = mp.mpf(order) + 1
        la, al, m, s = (mp.mpf(lam), mp.mpf(alpha), mp.mpf(mu), mp.mpf(sigma))
        return _series(
            lambda k: (-1) ** k * half ** (2 * k + p)
            * mp.rgamma(al * k + m) * mp.rgamma(la * k + s),
            lambda k, t, pk: k > 2 * float(half) + 10 and _tiny(t, pk))

    return float(_with_precision(summation))


def forcing_grid(spec: dict, zs: np.ndarray) -> np.ndarray:
    """The Struve-type series at many small arguments, in float64.

    Coefficients come from scipy's reciprocal gamma.  For the verify grids
    (z below about 6) the terms fall off fast and cancel by less than 1e2,
    so the sum is good to about 1e-14 relative.
    """
    k = np.arange(80)
    coeff = ((-1.0) ** k * sps.rgamma(spec["alpha"] * k + spec["mu"])
             * sps.rgamma(spec["lam"] * k + spec["sigma"]))
    half = 0.5 * np.asarray(zs, dtype=float)
    powers = half[None, :] ** (2 * k[:, None] + spec["order"] + 1.0)
    return coeff @ powers


# ---------------------------------------------------------------------------
# Sumudu transform and fractional integral


def sumudu_power(a: float, u: float) -> float:
    """S[t^a](u) = u^a Gamma(a+1)."""
    with mp.workdps(_START_DPS):
        return float(mp.mpf(u) ** mp.mpf(a) * mp.gamma(mp.mpf(a) + 1))


def rl_power(a: float, v: float, t):
    """I^v s^a at t: Gamma(a+1)/Gamma(a+1+v) t^(a+v) (numpy, for integrands)."""
    return math.gamma(a + 1.0) / math.gamma(a + 1.0 + v) * np.asarray(t) ** (a + v)


def sumudu_rl_power(a: float, v: float, u: float) -> float:
    """S[I^v t^a](u) = Gamma(a+1)/Gamma(a+1+v) * Gamma(a+v+1) u^(a+v)."""
    with mp.workdps(_START_DPS):
        aa, vv = mp.mpf(a), mp.mpf(v)
        return float(mp.gamma(aa + 1) * mp.rgamma(aa + 1 + vv)
                     * mp.gamma(aa + vv + 1) * mp.mpf(u) ** (aa + vv))


def sumudu_struve_h(v: float, u: float) -> float:
    """S[H_v](u) for u < 1, termwise: the power rule on the Struve series."""
    def summation():
        vv, half = mp.mpf(v), mp.mpf(u) / 2
        return _series(
            lambda k: (-1) ** k * mp.gamma(2 * k + vv + 2) * half ** (2 * k + vv + 1)
            * mp.rgamma(k + mp.mpf(3) / 2) * mp.rgamma(k + vv + mp.mpf(3) / 2),
            lambda k, t, p: k > 10 and _tiny(t, p))

    return float(_with_precision(summation))


# ---------------------------------------------------------------------------
# Kinetic equation


def neumann_solution(problem: dict, t: float) -> float:
    """Solution of N - N0 f = -relax^v I^v N at t by the Neumann series.

    f = sum_k c_k t^(p_k) is the forcing's power expansion; each sweep maps
    t^p -> -relax^v Gamma(p+1)/Gamma(p+1+v) t^(p+v), so
    N(t) = N0 sum_k c_k Gamma(p_k+1) t^(p_k) sum_j (-x)^j / Gamma(p_k+1+j v)
    with x = (relax t)^v.  No Mittag-Leffler function is evaluated.
    """
    spec = problem["spec"]

    def summation():
        v = mp.mpf(problem["v"])
        tt = mp.mpf(t)
        x = (mp.mpf(problem["relax"]) * tt) ** v
        lam, alpha = mp.mpf(spec["lam"]), mp.mpf(spec["alpha"])
        mu, sigma, order = mp.mpf(spec["mu"]), mp.mpf(spec["sigma"]), mp.mpf(spec["order"])
        if problem["forcing"] == "plain":
            scale, slope = mp.mpf(1) / 2, mp.mpf(1)
        else:
            scale, slope = mp.mpf(problem["d"]) ** v / 2, v
        inner_peak = 2.0 * float(x) ** (1.0 / float(v)) / float(v) + 10.0
        peak_all = mp.mpf(0)

        def outer(k):
            nonlocal peak_all
            m = 2 * k + order + 1
            c = (-1) ** k * scale ** m * mp.rgamma(alpha * k + mu) * mp.rgamma(lam * k + sigma)
            p = slope * m
            lead = c * mp.gamma(p + 1) * tt ** p
            inner, peak = _series(lambda j: (-x) ** j * mp.rgamma(p + 1 + j * v),
                                  lambda j, term, pk: j > inner_peak and _tiny(term, pk))
            peak_all = max(peak_all, abs(lead) * peak)
            return lead * inner

        total, peak = _series(outer, lambda k, term, pk: k > 10 and _tiny(term, pk))
        return mp.mpf(problem["n0"]) * total, abs(mp.mpf(problem["n0"])) * max(peak, peak_all)

    return float(_with_precision(summation))


def relaxation(c: float, v: float, n0: float, t: float) -> float:
    """Constant-forcing baseline N0 E_{v,1}(-(c t)^v), from the exact inputs.

    Closed forms at v = 1 (exp), 1/2 (e^{ct} erfc(sqrt(ct))) and 2 (cos);
    the mpmath series elsewhere.
    """
    with mp.workdps(_START_DPS):
        ct = mp.mpf(c) * mp.mpf(t)
        if v == 1.0:
            return float(mp.mpf(n0) * mp.exp(-ct))
        if v == 0.5:
            return float(mp.mpf(n0) * mp.exp(ct) * mp.erfc(mp.sqrt(ct)))
        if v == 2.0:
            return float(mp.mpf(n0) * mp.cos(ct))
    value = _ml_sum(v, 1.0, lambda: -((mp.mpf(c) * mp.mpf(t)) ** mp.mpf(v)))
    return n0 * value
