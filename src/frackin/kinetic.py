"""Closed-form series solutions of fractional kinetic equations.

The equation is N(t) - N0*f(t) = -relax^v * I^v N(t), with I^v the
order-v Riemann-Liouville integral and f a Struve-type series forcing,
taken either in plain time, f(t) = H(t), or in powered time,
f(t) = H(d^v t^v).  Transforming term by term with the power rule
S[t^w](u) = u^w Gamma(w+1), expanding 1/(1 + (relax u)^v) geometrically,
and inverting produces one Mittag-Leffler term per forcing power.

Two inversion conventions for the final step are in circulation, and they
disagree by a unit shift.  Inverting u^w back through the same power rule
used forward gives a contribution proportional to
t^w E_{v, w+1}(-(relax t)^v) per forcing power w; the CORRECTED mode
implements that.  The STATED mode keeps the alternative convention
u^w -> t^(w-1)/Gamma(w), which lowers both the time power and the
Mittag-Leffler second index by one.  Both modes are built verbatim and
the verify module decides numerically which one satisfies the equation;
nothing here presumes a winner.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, RangeError
from .special_functions import (
    SeriesSpec,
    _gamma_product,
    gamma,
    generalized_struve_grid,
    mittag_leffler,
    mittag_leffler_grid,
    reciprocal_gamma,
)

__all__ = [
    "Forcing",
    "SolutionMode",
    "KineticProblem",
    "SolutionTerm",
    "SolutionSeries",
    "CorollaryTemplate",
    "build_solution",
    "eval_solution",
    "eval_solution_grid",
    "haubold_solution",
    "haubold_series",
    "corollary_params",
    "MAX_SOLUTION_TERMS",
]

MAX_SOLUTION_TERMS = 200
_EVAL_TAIL = 1e-14
_EPS = float(np.finfo(float).eps)
# largest rounding bound, eps times the largest magnitude summed, accepted
# against the largest value the sum certifies
_EVAL_CANCEL = 1e-10


class Forcing(enum.Enum):
    """Which argument the Struve-type forcing series receives."""

    PLAIN = "plain"        # f(t) = H(t)
    POWERED = "powered"    # f(t) = H(d^v t^v)


class SolutionMode(enum.Enum):
    """Inversion convention used for the solution series (see module doc)."""

    STATED = "stated"
    CORRECTED = "corrected"


@dataclass(frozen=True)
class KineticProblem:
    """One fractional kinetic equation instance.

    `d` scales the forcing argument in powered time (and doubles as the
    relaxation rate in the families where the two coincide); `relax` is
    the rate in front of the memory integral.  The two are independent
    fields so that the distinct-rate family is expressible.
    """

    forcing_spec: SeriesSpec
    forcing_argument: Forcing
    v: float
    d: float
    relax: float
    n0: float

    def __post_init__(self) -> None:
        if not isinstance(self.forcing_spec, SeriesSpec):
            raise DomainError("forcing_spec must be a SeriesSpec")
        if not isinstance(self.forcing_argument, Forcing):
            raise DomainError("forcing_argument must be a Forcing value")
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "relax", float(self.relax))
        object.__setattr__(self, "n0", float(self.n0))
        if not 0.0 < self.v <= 2.0:
            raise DomainError(f"fractional order v must lie in (0, 2], got {self.v!r}")
        if not self.d > 0.0:
            raise DomainError(f"rate d must be positive, got {self.d!r}")
        if not self.relax > 0.0:
            raise DomainError(f"relaxation rate must be positive, got {self.relax!r}")
        if not all(map(math.isfinite, (self.d, self.relax, self.n0))):
            raise DomainError(
                f"d, relax and n0 must be finite, got {self.d!r}, {self.relax!r}, "
                f"{self.n0!r}"
            )

    @classmethod
    def plain_time(
        cls, spec: SeriesSpec, *, v: float, d: float, n0: float = 1.0
    ) -> "KineticProblem":
        """Family 1: forcing H(t), relaxation rate equal to d."""
        return cls(spec, Forcing.PLAIN, v, d, d, n0)

    @classmethod
    def powered_time(
        cls, spec: SeriesSpec, *, v: float, d: float, n0: float = 1.0
    ) -> "KineticProblem":
        """Family 2: forcing H(d^v t^v), relaxation rate equal to d."""
        return cls(spec, Forcing.POWERED, v, d, d, n0)

    @classmethod
    def powered_time_distinct(
        cls, spec: SeriesSpec, *, v: float, d: float, relax: float, n0: float = 1.0
    ) -> "KineticProblem":
        """Family 3: forcing H(d^v t^v) with a relaxation rate distinct from d."""
        if float(relax) == float(d):
            raise DomainError(
                "the distinct-rate family requires relax != d; equal rates are "
                "the tied powered-time family"
            )
        return cls(spec, Forcing.POWERED, v, d, relax, n0)

    def forcing(self, ts: np.ndarray) -> np.ndarray:
        """N0*f at an array of times: f(t) = H(t) or H(d^v t^v)."""
        if self.forcing_argument is Forcing.PLAIN:
            zs = ts
        else:
            # past the float64 range the Struve grid refuses the argument
            with np.errstate(over="ignore"):
                zs = (self.d * ts) ** self.v
        return self.n0 * generalized_struve_grid(self.forcing_spec, zs)


@dataclass(frozen=True)
class SolutionTerm:
    """One series term: coeff * t^power * E_{v, ml_beta}(-(rate*t)^v)."""

    coeff: float
    power: float
    ml_beta: float


@dataclass(frozen=True)
class SolutionSeries:
    """Truncated solution series together with its evaluation recipe.

    The value at time t is
    sum_k coeff_k * t^power_k * E_{ml_alpha, ml_beta_k}(-(rate*t)^ml_alpha),
    over k = 0 .. truncation_k, the index of the last term.
    """

    terms: tuple[SolutionTerm, ...]
    ml_alpha: float
    rate: float
    mode: SolutionMode

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "ml_alpha", float(self.ml_alpha))
        object.__setattr__(self, "rate", float(self.rate))
        powers = [t.power for t in self.terms]
        if any(b <= a for a, b in zip(powers, powers[1:])):
            raise DomainError("term powers must be strictly increasing")
        if not isinstance(self.mode, SolutionMode):
            raise DomainError("mode must be a SolutionMode value")

    @property
    def truncation_k(self) -> int:
        """Index of the last term: one less than the number of terms."""
        return len(self.terms) - 1

    def origin_value(self) -> float:
        """Limit of the series at t -> 0+, used as the quadrature origin sample.

        Positive powers vanish, zero powers contribute coeff / Gamma(beta).
        A negative power diverges; the origin sample is then pinned to 0.0,
        a convention whose first-panel quadrature error vanishes under grid
        refinement because the integrand stays integrable.
        """
        value = 0.0
        for term in self.terms:
            if term.power == 0.0:
                value += term.coeff * reciprocal_gamma(term.ml_beta)
        return value


def _term_parameters(
    problem: KineticProblem, mode: SolutionMode, k: int
) -> SolutionTerm:
    """Coefficient, time power, and Mittag-Leffler index of term k."""
    spec = problem.forcing_spec
    l = spec.order
    v = problem.v
    bottoms = (spec.alpha * k + spec.mu, spec.lam * k + spec.sigma)
    pair = reciprocal_gamma(bottoms[0]) * reciprocal_gamma(bottoms[1])
    sign = -1.0 if k % 2 else 1.0
    if problem.forcing_argument is Forcing.PLAIN:
        # the prefactor (rate^v / 2)^(2k+l+1) is 0.5^(2k+l+1) here
        rate = 1.0
        top = 2.0 * k + l + 2.0
        power = 2.0 * k + l
        beta = 2.0 * k + l + 1.0
    else:
        rate = problem.d
        w = (2.0 * k + l + 1.0) * v
        top = w + 1.0
        power = w - 1.0
        beta = w
    exponent = 2.0 * k + l + 1.0
    # Gamma(top) overflows from k = 85 of plain time on, while the
    # reciprocal gammas bring the coefficient back into range
    coeff = _gamma_product(
        lambda: problem.n0 * sign * gamma(top) * pair * (rate ** v / 2.0) ** exponent,
        problem.n0 * sign, exponent * (v * math.log(rate) - math.log(2.0)),
        (top,), bottoms)
    if not math.isfinite(coeff):
        raise ConvergenceError(
            f"solution coefficient at k={k} exceeds the float64 range"
        )
    if mode is SolutionMode.CORRECTED:
        power += 1.0
        beta += 1.0
    return SolutionTerm(coeff=coeff, power=power, ml_beta=beta)


def build_solution(
    problem: KineticProblem,
    mode: SolutionMode,
    truncation_k: int | None = None,
    t_max: float = 5.0,
) -> SolutionSeries:
    """Materialize the solution series for one mode.

    With truncation_k given, exactly that many terms plus one are built.
    Otherwise terms are added until the term at t_max is at most 1e-14 of
    the largest partial sum, the tail rule `eval_solution_grid` certifies
    each point with (a homogeneous problem, n0 = 0, stops at k = 1), or
    until the first term whose value at t_max is not finite, a sum no
    later term can certify and `eval_solution_grid` refuses by name; the
    200-term cap raises ConvergenceError.
    """
    if not isinstance(problem, KineticProblem):
        raise DomainError("build_solution expects a KineticProblem")
    if not isinstance(mode, SolutionMode):
        raise DomainError("mode must be a SolutionMode value")
    if truncation_k is not None:
        truncation_k = int(truncation_k)
        if truncation_k < 0:
            raise DomainError(f"truncation_k must be >= 0, got {truncation_k}")
        if truncation_k > MAX_SOLUTION_TERMS:
            raise ConvergenceError(
                f"truncation_k {truncation_k} exceeds the "
                f"{MAX_SOLUTION_TERMS}-term cap"
            )
        terms = tuple(
            _term_parameters(problem, mode, k) for k in range(truncation_k + 1)
        )
        return SolutionSeries(terms, problem.v, problem.relax, mode)
    t_max = float(t_max)
    if not t_max > 0.0:
        raise DomainError(f"t_max must be positive, got {t_max!r}")
    x = _ml_argument(problem.relax, t_max, problem.v)
    terms: list[SolutionTerm] = []
    total = sum_max = 0.0
    for k in range(MAX_SOLUTION_TERMS + 1):
        term = _term_parameters(problem, mode, k)
        terms.append(term)
        try:
            value = term.coeff * t_max ** term.power * mittag_leffler(
                problem.v, term.ml_beta, x
            )
        except OverflowError:
            value = math.inf
        total += value
        sum_max = max(abs(total), sum_max)
        if not math.isfinite(value) or (k >= 1 and (problem.n0 == 0.0 or (
                term.coeff != 0.0 and abs(value) <= _EVAL_TAIL * sum_max))):
            return SolutionSeries(tuple(terms), problem.v, problem.relax, mode)
    raise ConvergenceError(
        f"solution series did not meet the tail criterion at t_max={t_max!r} "
        f"within the {MAX_SOLUTION_TERMS}-term cap"
    )


def _ml_argument(rate: float, t: float, v: float) -> float:
    """-(rate t)^v, the Mittag-Leffler argument at time t, as a Python
    float; DomainError where it leaves the float64 range."""
    try:
        return -((rate * t) ** v)
    except OverflowError:
        raise DomainError(
            f"-(rate*t)^v overflows float64 at rate={rate!r}, t={t!r}, v={v!r}"
        ) from None


def eval_solution_grid(sol: SolutionSeries, ts) -> np.ndarray:
    """Evaluate the series on an array of positive times.

    Each point is summed in ascending k and truncated adaptively, at the
    first term below 1e-14 of the largest partial sum.  ConvergenceError
    is raised where the result cannot be certified, naming the first
    cause that applies: a sum past the float64 range; eps times the
    largest term summed at a point above 1e-10 of the largest value on
    the grid (the terms cancel past what float64 carries); or a
    multi-term series that runs out of terms before a point meets the
    tail rule (the built truncation cannot certify its tail there; a
    single-term series is a closed form and is taken as exact).
    """
    if not isinstance(sol, SolutionSeries):
        raise DomainError("eval_solution_grid expects a SolutionSeries")
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size == 0:
        return np.zeros(0)
    if np.min(ts) <= 0.0:
        raise DomainError("evaluation times must be positive")
    return _certified(sol, ts, *_series_sums(sol, ts))


@np.errstate(over="ignore", invalid="ignore")
def _series_sums(sol: SolutionSeries, ts: np.ndarray):
    """eval_solution_grid's sums before certification.

    Returns (total, largest term summed, whether the tail rule was met),
    each per point.  Each point is summed on its own, to its own tail, so
    a subset of `ts` that keeps the largest time, as a grid's `refine()`
    keeps all of the grid, gets the sums of a call on that subset alone
    up to the rounding of the Mittag-Leffler grid, whose float64 sums
    share their term count within each block of points.  Terms past the
    float64 range leave their point's total non-finite for `_certified`
    to name, with no numpy warning.
    """
    coeffs = np.array([t.coeff for t in sol.terms])
    powers = np.array([t.power for t in sol.terms])
    betas = np.array([t.ml_beta for t in sol.terms])
    # past the float64 range the Mittag-Leffler grid refuses the argument
    x = -((sol.rate * ts) ** sol.ml_alpha)
    ml = mittag_leffler_grid(sol.ml_alpha, betas, x)
    term_matrix = coeffs[:, None] * (ts[None, :] ** powers[:, None]) * ml
    total, sum_max, largest = np.zeros((3, ts.size))
    done = np.zeros(ts.size, dtype=bool)
    for k in range(len(sol.terms)):
        # a point past its own tail takes no more terms: those of a longer
        # build than it needs may be 0 * inf
        term = np.where(done, 0.0, term_matrix[k])
        size = np.abs(term)
        np.maximum(largest, size, out=largest)
        total += term
        np.maximum(sum_max, np.abs(total), out=sum_max)
        if k >= 1 and coeffs[k] != 0.0:
            done |= size <= _EVAL_TAIL * sum_max
    return total, largest, done | (sum_max == 0.0) | (len(sol.terms) == 1)


def _certified(sol, ts, total, largest, adequate) -> np.ndarray:
    """`total` once eval_solution_grid's checks pass on the grid `ts`.

    The checks run from the cause no truncation can mend to the one a
    longer series can: a sum past the float64 range, then terms that
    cancel past what float64 carries, then a tail the truncation cannot
    certify.
    """
    finite = np.isfinite(total)
    if not np.all(finite):
        raise ConvergenceError(
            f"series terms leave the float64 range at "
            f"t={float(ts[np.argmin(finite)])!r}: no truncation can certify "
            "the sum there"
        )
    scale = float(np.max(np.abs(total)))
    lost = _EPS * largest > _EVAL_CANCEL * scale
    if np.any(lost):
        i = int(np.argmax(lost))
        raise ConvergenceError(
            f"series terms up to {largest[i]:.3g} cancel at t={float(ts[i])!r} "
            f"against values of at most {scale:.3g}: float64 cannot certify "
            "the sum there"
        )
    if not np.all(adequate):
        worst = float(ts[np.argmax(~adequate)])
        raise ConvergenceError(
            f"series truncation (k={sol.truncation_k}) cannot certify its "
            f"tail at t={worst!r}; rebuild with a larger truncation or t_max"
        )
    return total


def eval_solution(sol: SolutionSeries, t: float) -> float:
    """Series value at a single positive time (grid path of length one)."""
    t = float(t)
    if not t > 0.0:
        raise DomainError(f"eval_solution requires t > 0, got {t!r}")
    return float(eval_solution_grid(sol, np.array([t]))[0])


def haubold_solution(c: float, v: float, t: float, n0: float = 1.0) -> float:
    """Pure-relaxation baseline N0 * E_{v,1}(-(c t)^v) with constant forcing,
    on the domain of `haubold_series`."""
    series = haubold_series(c, v, n0)
    t = float(t)
    if t < 0.0:
        raise DomainError(f"the relaxation baseline requires t >= 0, got {t!r}")
    if t == 0.0:
        return float(n0)
    return float(n0) * mittag_leffler(series.ml_alpha, 1.0,
                                      _ml_argument(series.rate, t, series.ml_alpha))


def haubold_series(c: float, v: float, n0: float = 1.0) -> SolutionSeries:
    """The baseline solution as a single-term SolutionSeries."""
    c = float(c)
    v = float(v)
    if not math.isfinite(n0):
        raise DomainError(f"the relaxation baseline requires a finite n0, got {n0!r}")
    if not c > 0.0:
        raise DomainError(f"the relaxation baseline requires c > 0, got {c!r}")
    if not 0.0 < v <= 2.0:
        raise DomainError(f"the relaxation baseline requires v in (0, 2], got {v!r}")
    term = SolutionTerm(coeff=float(n0), power=0.0, ml_beta=1.0)
    return SolutionSeries((term,), v, c, SolutionMode.CORRECTED)


@dataclass(frozen=True)
class CorollaryTemplate:
    """Recipe for one of the twelve specialized problem families.

    `make_problem` fills in the numeric free parameters and returns the
    fully specified KineticProblem whose build_solution output reproduces
    the corresponding specialized series term for term.
    """

    cid: int
    forcing_argument: Forcing
    distinct_relax: bool
    free_parameters: tuple[str, ...]

    def make_spec(
        self,
        order: float,
        lam: float = 1.0,
        alpha: float = 1.0,
        mu: float = 1.0,
    ) -> SeriesSpec:
        family = (self.cid - 1) // 3
        if family == 0:
            return SeriesSpec(lam=1.0, alpha=1.0, mu=1.5, order=order)
        if family == 1:
            return SeriesSpec(lam=lam, alpha=1.0, mu=1.5, order=order)
        if family == 2:
            return SeriesSpec(lam=lam, alpha=alpha, mu=1.5, order=order)
        mu = float(mu)
        if mu == 0.0:
            raise DomainError("the scaled-offset family requires mu != 0")
        return SeriesSpec(
            lam=lam, alpha=1.0, mu=1.5, order=order, sigma=float(order) / mu + 1.5
        )

    def make_problem(
        self,
        *,
        order: float = 1.0,
        v: float = 0.75,
        d: float = 1.0,
        n0: float = 1.0,
        relax: float | None = None,
        lam: float = 1.0,
        alpha: float = 1.0,
        mu: float = 1.0,
    ) -> KineticProblem:
        spec = self.make_spec(order, lam=lam, alpha=alpha, mu=mu)
        if self.distinct_relax and relax is None:
            relax = 0.6 * float(d)
        return _family_problem(self.cid, spec, self.forcing_argument,
                               self.distinct_relax, v=v, d=d, relax=relax, n0=n0)


def _family_problem(family: int, spec: SeriesSpec, forcing: Forcing,
                    distinct: bool, *, v: float, d: float, relax: float | None,
                    n0: float) -> KineticProblem:
    """The problem of a family by its forcing and whether its relaxation
    rate is distinct from d; a tied family refuses a distinct `relax`."""
    if distinct:
        return KineticProblem.powered_time_distinct(
            spec, v=v, d=d, relax=relax, n0=n0
        )
    if relax is not None and float(relax) != float(d):
        raise DomainError(
            f"family {family} ties the relaxation rate to d; got a distinct relax"
        )
    if forcing is Forcing.PLAIN:
        return KineticProblem.plain_time(spec, v=v, d=d, n0=n0)
    return KineticProblem.powered_time(spec, v=v, d=d, n0=n0)


def corollary_params(cid: int) -> CorollaryTemplate:
    """Template for specialized family `cid` in 1..12.

    Ids group in threes: within each group the first is plain-time
    forcing, the second powered-time, the third powered-time with a
    distinct relaxation rate.  Groups 1-4 fix the series spec to the
    classical Struve form, a free first slope, free both slopes, and a
    free slope with scaled offset (sigma = order/mu + 3/2), respectively.
    """
    cid = int(cid)
    if not 1 <= cid <= 12:
        raise RangeError(f"corollary id must be in 1..12, got {cid}")
    position = (cid - 1) % 3
    family = (cid - 1) // 3
    free: tuple[str, ...] = ("order", "v", "d", "n0")
    if family == 1:
        free += ("lam",)
    elif family == 2:
        free += ("lam", "alpha")
    elif family == 3:
        free += ("lam", "mu")
    if position == 2:
        free += ("relax",)
    return CorollaryTemplate(
        cid=cid,
        forcing_argument=Forcing.PLAIN if position == 0 else Forcing.POWERED,
        distinct_relax=position == 2,
        free_parameters=free,
    )
