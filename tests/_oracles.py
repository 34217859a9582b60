"""Extended-precision oracles used to freeze expected values.

Everything here is deliberately independent of the package under test:
plain mpmath series summation, closed forms, and adaptive quadrature.
The frozen literals in the test modules were produced by these helpers;
rerunning them (see the __main__ block) regenerates the same numbers.
"""

from __future__ import annotations

import mpmath as mp


def mp_gamma(x, dps=50):
    with mp.workdps(dps):
        return mp.gamma(x)


def mlf_series(alpha, beta, z, terms=10_000, dps=60):
    """Brute-force Mittag-Leffler sum with rgamma handling gamma poles."""
    with mp.workdps(dps):
        a, b, x = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        s = mp.mpf(0)
        for n in range(terms):
            s += x**n * mp.rgamma(a * n + b)
        return s


def mlf_laplace(alpha, beta, z, dps=40):
    """E_{alpha,beta}(z) as the inverse Laplace transform of
    s^(alpha-beta) / (s^alpha - z) at t = 1 (Talbot contour), independent
    of any series summation."""
    with mp.workdps(dps):
        a, b, x = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        return mp.invertlaplace(lambda s: s ** (a - b) / (s**a - x), 1, method="talbot")


def struve_series(v, z, terms=200, dps=60, signed=True):
    """Struve-type series: (z/2)^{v+1} sum_k s^k (z/2)^{2k} / (G(k+3/2)G(k+v+3/2))."""
    with mp.workdps(dps):
        vv, zz = mp.mpf(v), mp.mpf(z)
        half = zz / 2
        s = mp.mpf(0)
        for k in range(terms):
            term = half ** (2 * k) * mp.rgamma(k + mp.mpf(3) / 2) * mp.rgamma(k + vv + mp.mpf(3) / 2)
            s += (-1) ** k * term if signed else term
        return half ** (vv + 1) * s


def generalized_struve_series(lam, alpha, mu, order, sigma, z, terms=300, dps=60):
    """Four-parameter series sum_k (-1)^k (z/2)^{2k+order+1} / (G(alpha k+mu) G(lam k+sigma))."""
    with mp.workdps(dps):
        half = mp.mpf(z) / 2
        p = mp.mpf(order)
        s = mp.mpf(0)
        for k in range(terms):
            s += (
                (-1) ** k
                * half ** (2 * k + p + 1)
                * mp.rgamma(mp.mpf(alpha) * k + mp.mpf(mu))
                * mp.rgamma(mp.mpf(lam) * k + mp.mpf(sigma))
            )
        return s


def rl_integral_quad(f, v, t, dps=40):
    """(1/G(v)) int_0^t (t-s)^{v-1} f(s) ds by adaptive quadrature."""
    with mp.workdps(dps):
        vv, tt = mp.mpf(v), mp.mpf(t)
        val = mp.quad(lambda s: (tt - s) ** (vv - 1) * f(s), [0, tt])
        return val / mp.gamma(vv)


def neumann_kinetic_solution(forcing_powers, v, relax, t, n0=1.0, sweeps=60, dps=50):
    """Solve N - n0*f = -relax^v D^{-v} N term-wise on a power expansion of f.

    forcing_powers: list of (coefficient, exponent) pairs describing f(t).
    Each Neumann sweep maps t^p -> relax^v * G(p+1)/G(p+1+v) * t^{p+v}; the
    solution is the alternating sum of sweeps applied to n0*f. Completely
    independent of any Mittag-Leffler evaluation.
    """
    with mp.workdps(dps):
        vv = mp.mpf(v)
        rv = mp.mpf(relax) ** vv
        tt = mp.mpf(t)
        total = mp.mpf(0)
        for c, p in forcing_powers:
            coeff = mp.mpf(n0) * c
            power = mp.mpf(p)
            for _ in range(sweeps):
                total += coeff * tt**power
                coeff = -coeff * rv * mp.gamma(power + 1) * mp.rgamma(power + 1 + vv)
                power = power + vv
        return total


def struve_forcing_powers(lam, alpha, mu, order, sigma, terms=30, dps=50):
    """Power expansion (coeff, exponent) of the Struve-type series in its argument."""
    with mp.workdps(dps):
        out = []
        p = mp.mpf(order)
        for k in range(terms):
            c = (
                (-1) ** k
                * mp.mpf(2) ** -(2 * k + p + 1)
                * mp.rgamma(mp.mpf(alpha) * k + mp.mpf(mu))
                * mp.rgamma(mp.mpf(lam) * k + mp.mpf(sigma))
            )
            out.append((c, 2 * k + p + 1))
        return out


if __name__ == "__main__":
    mp.mp.dps = 30

    print("gamma(3.7)       =", mp_gamma("3.7"))
    print("mlf(0.75,1.5,-3.2) =", mlf_series("0.75", "1.5", "-3.2"))
    print("mlf(0.3,1,-20)   =", mlf_laplace("0.3", 1, -20))
    print("struve_h(0.5,1)  =", struve_series("0.5", 1))
    print("   closed form   =", mp.sqrt(2 / (mp.pi * 1)) * (1 - mp.cos(1)))
    print("struve_h(0,2)    =", struve_series(0, 2))
    print("struve_l(0.5,1)  =", struve_series("0.5", 1, signed=False))
    print("   closed form   =", mp.sqrt(2 / mp.pi) * (mp.cosh(1) - 1))
    print("struve_l(0,1)    =", struve_series(0, 1, signed=False))
    print("gen_struve(2,1.5,1,0.5,2 @1.3) =", generalized_struve_series(2, "1.5", 1, "0.5", 2, "1.3"))
    print("rl e^s v=0.75 t=1 =", rl_integral_quad(mp.exp, "0.75", 1))
    print("rl power a=0.5 v=0.75 t=1 =", mp_gamma("1.5") / mp_gamma("2.25"))
    print("haubold c=2 v=0.5 t=1.5 =", mlf_series("0.5", 1, -mp.sqrt(2) * mp.sqrt("1.5")))

    powers = struve_forcing_powers(1, 1, "1.5", 1, "2.5")
    print("th1 corrected t=0.8 =", neumann_kinetic_solution(powers, "0.75", 1, "0.8"))
