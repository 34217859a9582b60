"""The benchmark's three workloads, generated from a seed.

A workload is one round: a fixed list of operations that a run repeats
whole.  Parameters are drawn by stratified sampling (one draw per equal
slice of each range, in shuffled order), so every seed gives a round of
the same make-up and nearly the same total work; the seed moves the
inputs, not the mix.  README.md lists each workload's make-up and why.

Each operation carries what its check needs: the problem in the terms of
the paper (series spec, forcing kind, rates, order), written out here
from the documented families rather than read back from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("verify-sweep", "relaxation-tables", "point-evals")

# verify-sweep: the grid of the ERRATA instances, (0.01, 2] at n = 2048
VERIFY_N = 2048
VERIFY_TOL = 1e-4
# fractional orders for which the corrected mode passes at VERIFY_TOL on that
# grid; below 0.6 the powered-time forcing's t^v origin behaviour lifts the
# corrected residual past the tolerance
V_RANGE = {"plain": (0.2, 1.95), "powered": (0.6, 1.95)}


@dataclass
class Op:
    """One operation: a whole CLI call (argv) or one library call (fn, args)."""

    kind: str
    rows: int
    argv: list[str] | None = None
    fn: str | None = None
    args: tuple = ()
    check: dict = field(default_factory=dict)


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws from [lo, hi), one in each of k equal slices, shuffled."""
    slots = list(range(k))
    rng.shuffle(slots)
    return [lo + (hi - lo) * (s + rng.random()) / k for s in slots]


def _r(x: float, digits: int = 4) -> float:
    return round(x, digits)


def _arg(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Problems (theorem families and the twelve corollaries)


def _spec(order, lam=1.0, alpha=1.0, mu=1.5, sigma=None) -> dict:
    return {"lam": lam, "alpha": alpha, "mu": mu, "order": order,
            "sigma": order + 1.5 if sigma is None else sigma}


def problem(source: str, ident: int, p: dict, command: str) -> tuple[list[str], dict]:
    """CLI flags and reference description of one kinetic problem.

    `p` holds order, v, d, n0, and where the family takes them relax, lam,
    alpha (the second gamma slope) and mu.  Theorem 1 forces with H(t),
    theorems 2 and 3 with H(d^v t^v), theorem 3 at its own relaxation rate.
    Corollary ids run in groups of three (plain, powered, powered with a
    distinct rate) over four series specs: classical Struve, free lambda,
    free lambda and alpha, and free lambda with sigma = order/mu + 3/2.
    """
    flags = ["--l", _arg(p["order"]), "--d", _arg(p["d"]), "--v", _arg(p["v"]),
             "--n0", _arg(p["n0"])]
    if source == "theorem":
        flags = ["--theorem", str(ident), "--lambda", _arg(p["lam"]),
                 "--alpha-p", _arg(p["alpha"])] + flags
        spec = _spec(p["order"], lam=p["lam"], alpha=p["alpha"])
        position = {1: 0, 2: 1, 3: 2}[ident]
    else:
        flags = ["--corollary" if command == "verify" else "--id", str(ident)] + flags
        group, position = divmod(ident - 1, 3)
        if group == 0:
            spec = _spec(p["order"])
        elif group == 1:
            spec = _spec(p["order"], lam=p["lam"])
            flags += ["--lambda", _arg(p["lam"])]
        elif group == 2:
            spec = _spec(p["order"], lam=p["lam"], alpha=p["alpha"])
            flags += ["--lambda", _arg(p["lam"]), "--alpha-p", _arg(p["alpha"])]
        else:
            spec = _spec(p["order"], lam=p["lam"], sigma=p["order"] / p["mu"] + 1.5)
            flags += ["--lambda", _arg(p["lam"]), "--mu", _arg(p["mu"])]
    relax = p["d"]
    if position == 2:
        relax = p["relax"]
        flags += ["--relax", _arg(relax)]
    ref = {"spec": spec, "forcing": "plain" if position == 0 else "powered",
           "d": p["d"], "relax": relax, "v": p["v"], "n0": p["n0"]}
    return flags, ref


PROBLEMS = [("theorem", i) for i in (1, 2, 3)] + [("corollary", i) for i in range(1, 13)]


def _is_plain(source: str, ident: int) -> bool:
    return (ident == 1) if source == "theorem" else (ident - 1) % 3 == 0


# ---------------------------------------------------------------------------
# Instance pools
#
# Kinetic problems come from fixed pools drawn once from their own stream,
# and a run's seed picks among them.  Continuous draws cannot be used: on
# about 1 in 200 seed-drawn tables and 1 in 50 verify problems (powered-time
# forcing, mostly v > 1.2) the program stops with "series truncation cannot
# certify its tail", the build/evaluate tail-rule mismatch recorded as a
# FOUND line in CHANGES.md.  The pool entries that hit it (verify on either
# spacing, tables at any length in N_LADDER) are listed in *_EXCLUDED and
# never drawn; once the fault is mended those lists can go.


def _candidates(name: str, k: int, v_range: tuple[float, float]) -> list[dict]:
    """k parameter sets for problem(), stratified in every coordinate."""
    rng = random.Random(f"pool:{name}")
    cols = {
        "v": _strata(rng, *v_range, k),
        "order": _strata(rng, 0.5, 1.5, k),
        "d": _strata(rng, 0.8, 1.2, k),
        "relax_ratio": _strata(rng, 0.5, 0.8, k),
        "n0": _strata(rng, 0.5, 2.0, k),
        "lam": _strata(rng, 0.8, 1.6, k),
        "alpha": _strata(rng, 0.8, 1.6, k),
        "mu": _strata(rng, 0.8, 1.6, k),
        # tables only: t_max, and x = (relax t_max)^v, the most negative
        # Mittag-Leffler argument, kept on the float64 path
        "tmax": _strata(rng, 1.0, 5.0, k),
        "x": _strata(rng, 0.5, 3.0, k),
    }
    return [{key: _r(col[i], 3 if key == "tmax" else 4) for key, col in cols.items()}
            for i in range(k)]


def _allowed(pool: list[dict], excluded, key) -> list[int]:
    return [i for i in range(len(pool)) if (key, i) not in excluded]


# ---------------------------------------------------------------------------
# verify-sweep

VERIFY_POOL = {prob: _candidates(f"verify:{prob[0]}{prob[1]}", 4,
                                 V_RANGE["plain" if _is_plain(*prob) else "powered"])
               for prob in PROBLEMS}
VERIFY_EXCLUDED = {(("corollary", 6), 2), (("corollary", 12), 1)}


def verify_sweep(rng: random.Random) -> list[Op]:
    """16 verify calls: the 15 problems plus one theorem, 5 on a log grid."""
    picks = [(prob, rng.choice(_allowed(VERIFY_POOL[prob], VERIFY_EXCLUDED, prob)))
             for prob in PROBLEMS]
    extra = ("theorem", rng.choice((1, 2, 3)))
    used = dict(picks)[extra]
    picks.append((extra, rng.choice([i for i in _allowed(VERIFY_POOL[extra],
                                                         VERIFY_EXCLUDED, extra)
                                     if i != used])))
    k = len(picks)
    spacing = ["log"] * 5 + ["uniform"] * (k - 5)
    fmt = ["json", "csv"] * (k // 2)
    rng.shuffle(spacing)
    rng.shuffle(fmt)
    ops = []
    for ((source, ident), index), sp, fm in zip(picks, spacing, fmt):
        p = dict(VERIFY_POOL[(source, ident)][index])
        p["relax"] = _r(p["d"] * p["relax_ratio"])
        flags, ref = problem(source, ident, p, "verify")
        argv = (["verify"] + flags
                + ["--tmin", "0.01", "--tmax", "2.0", "--n", str(VERIFY_N),
                   "--tol", _arg(VERIFY_TOL), "--spacing", sp, "--format", fm])
        if fm == "csv":
            # csv carries no summary, so the exit status carries the verdict
            argv += ["--expect", "corrected"]
        ops.append(Op("verify", VERIFY_N, argv=argv,
                      check={"problem": ref, "tol": VERIFY_TOL, "format": fm,
                             "spacing": sp, "n": VERIFY_N, "tmin": 0.01, "tmax": 2.0}))
    return ops


# ---------------------------------------------------------------------------
# relaxation-tables

# float64-path slots per round, and the pool each draws from
TABLE_SLOTS = {("theorem", 1): 4, ("theorem", 2): 4, ("theorem", 3): 3,
               **{("corollary", i): 1 for i in range(1, 13)}}
TABLE_POOL = {prob: _candidates(f"tables:{prob[0]}{prob[1]}", count + 2, (0.6, 1.4))
              for prob, count in TABLE_SLOTS.items()}
TABLE_EXCLUDED = {(("corollary", 3), 1)}
HAUBOLD_SLOTS = 11
# table lengths, dealt evenly over the float64 slots
N_LADDER = tuple(range(200, 2001, 200))

# the fallback minority: inputs whose Mittag-Leffler entries leave the
# float64 path, through (relax t_max)^v > 10 or a small v; each costs
# 0.2-0.8 s today, against about 6 ms for the float64 majority.  The
# kinetic ones are fixed inputs (see Instance pools); the seed moves the
# haubold rates by FALLBACK_JITTER.
FALLBACK = (
    ("haubold", {"c": 3.0, "v": 0.5, "tmax": 5.0, "n": 300}),
    ("haubold", {"c": 2.2, "v": 1.5, "tmax": 5.0, "n": 600}),
    ("haubold", {"c": 3.0, "v": 0.5, "tmax": 5.0, "n": 300}),
    ("solve", {"theorem": 1, "d": 1.0, "v": 1.5, "tmax": 5.0, "n": 400}),
    ("corollary", {"id": 2, "d": 1.0, "v": 1.5, "tmax": 5.0, "n": 200}),
    ("solve", {"theorem": 3, "d": 0.5, "relax": 2.5, "v": 1.25, "tmax": 4.0, "n": 160}),
)
FALLBACK_JITTER = 0.01


def _table_op(command, flags, ref, n, tmax, fmt):
    argv = [command] + flags + ["--tmin", "0.01", "--tmax", _arg(tmax), "--n", str(n),
                                "--format", fmt]
    return Op(command, n, argv=argv,
              check={"problem": ref, "n": n, "tmin": 0.01, "tmax": tmax, "format": fmt})


def _haubold_op(c, v, n0, n, tmax, fmt):
    flags = ["--c", _arg(c), "--v", _arg(v), "--n0", _arg(n0)]
    return _table_op("haubold", flags, {"haubold": {"c": c, "v": v, "n0": n0}}, n, tmax, fmt)


def kinetic_table(source: str, ident: int, p: dict, n: int, fmt: str) -> Op:
    """A solve or corollary table for pool entry p; relax from x and t_max."""
    p = dict(p)
    relax = _r(p["x"] ** (1.0 / p["v"]) / p["tmax"])
    distinct = ident == 3 if source == "theorem" else ident % 3 == 0
    if distinct:
        p["relax"], p["d"] = relax, _r(relax / p["relax_ratio"])
    else:
        p["d"] = relax
    command = "solve" if source == "theorem" else "corollary"
    flags, ref = problem(source, ident, p, command)
    return _table_op(command, flags, ref, n, p["tmax"], fmt)


def relaxation_tables(rng: random.Random) -> list[Op]:
    """40 tables: 34 on the float64 path, 6 in the mpmath fallback."""
    k = sum(TABLE_SLOTS.values()) + HAUBOLD_SLOTS
    ns = [N_LADDER[j * len(N_LADDER) // k] for j in range(k)]
    fmts = ["csv", "json"] * (k // 2)
    rng.shuffle(ns)
    rng.shuffle(fmts)
    ops = []
    for prob, count in TABLE_SLOTS.items():
        for index in rng.sample(_allowed(TABLE_POOL[prob], TABLE_EXCLUDED, prob), count):
            ops.append(kinetic_table(*prob, TABLE_POOL[prob][index], ns.pop(), fmts.pop()))
    tmaxs = _strata(rng, 1.0, 5.0, HAUBOLD_SLOTS)
    xs = _strata(rng, 0.5, 3.0, HAUBOLD_SLOTS)
    vs = _strata(rng, 0.6, 1.4, HAUBOLD_SLOTS)
    n0s = _strata(rng, 0.5, 2.0, HAUBOLD_SLOTS)
    for j in range(HAUBOLD_SLOTS):
        v, x, tmax = vs[j], xs[j], _r(tmaxs[j], 3)
        # two slots at v = 1 and one at v = 2, checked against exp and cos;
        # x <= 2 keeps c t below pi/2, clear of the first zero of cos
        if j < 2:
            v = 1.0
        elif j == 2:
            v, x = 2.0, min(x, 2.0)
        ops.append(_haubold_op(_r(x ** (1.0 / v) / tmax), _r(v), _r(n0s[j]), ns.pop(),
                               tmax, fmts.pop()))
    for j, (command, base) in enumerate(FALLBACK):
        fmt = "csv" if j % 2 else "json"
        if command == "haubold":
            c = _r(base["c"] * (1.0 + FALLBACK_JITTER * (2.0 * rng.random() - 1.0)))
            ops.append(_haubold_op(c, base["v"], 1.0, base["n"], base["tmax"], fmt))
            continue
        p = {"v": base["v"], "order": 1.0, "n0": 1.0, "lam": 1.0, "alpha": 1.0,
             "mu": 1.5, "d": base["d"], "relax": base.get("relax")}
        source, ident = (("theorem", base["theorem"]) if "theorem" in base
                         else ("corollary", base["id"]))
        flags, ref = problem(source, ident, p, command)
        ops.append(_table_op(command, flags, ref, base["n"], base["tmax"], fmt))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# point-evals


def point_evals(rng: random.Random) -> list[Op]:
    """89 scalar operations: CLI point evaluations and direct library calls."""
    ops: list[Op] = []
    # eval-mlf: (alpha, beta) pairs with closed forms, and a general one; the
    # z ranges keep every point on the float64 path (small alpha cancels)
    pairs = [((1.0, 1.0), -5.0), ((2.0, 1.0), -6.0), ((0.5, 1.0), -2.5), (None, -5.0)]
    for (pair, lo), count in zip(pairs, (24, 32, 40, 48)):
        alpha, beta = pair or (_r(rng.uniform(0.8, 1.6)), _r(rng.uniform(0.8, 2.5)))
        zs = [_r(z) for z in _strata(rng, lo, 2.0, count)]
        ops.append(Op("eval-mlf", count,
                      argv=["eval-mlf", "--alpha", _arg(alpha), "--beta", _arg(beta),
                            "--z"] + [_arg(z) for z in zs],
                      check={"alpha": alpha, "beta": beta, "z": zs}))
    # eval-struve: the classical series (scipy) and generalized ones (mpmath)
    for j, count in enumerate((24, 32, 40, 48)):
        order = 0.5 if j == 0 else _r(rng.uniform(0.0, 2.0))
        spec = _spec(order)
        flags = ["--l", _arg(order)]
        if j >= 2:
            spec = _spec(order, lam=_r(rng.uniform(0.8, 1.8)), alpha=_r(rng.uniform(0.8, 1.8)),
                         mu=_r(rng.uniform(1.0, 2.0)))
            flags += ["--lambda", _arg(spec["lam"]), "--alpha-p", _arg(spec["alpha"]),
                      "--mu", _arg(spec["mu"])]
        # the generalized series cancel faster as z grows: smaller z keeps
        # them, like the classical ones, on the float64 path
        zs = [_r(z) for z in _strata(rng, 0.05, 8.0 if j < 2 else 5.0, count)]
        ops.append(Op("eval-struve", count,
                      argv=["eval-struve"] + flags + ["--z"] + [_arg(z) for z in zs],
                      check={"spec": spec, "classical": j < 2, "z": zs}))
    # direct Mittag-Leffler calls, 6 of 30 below -10 where mpmath takes over;
    # alpha >= 0.8 there keeps each of those near a millisecond (the mpmath
    # cost climbs steeply as alpha falls)
    for alpha, beta, z in zip(_strata(rng, 0.6, 1.9, 24) + _strata(rng, 0.8, 1.2, 6),
                              _strata(rng, 0.5, 3.0, 30),
                              _strata(rng, -5.0, 3.0, 24) + _strata(rng, -20.0, -10.5, 6)):
        args = (_r(alpha), _r(beta), _r(z))
        ops.append(Op("mittag_leffler", 1, fn="mittag_leffler", args=args))
    for name in ("struve_h", "struve_l", "struve_h_with_derivatives"):
        # the derivative series has no extended-precision rescue, so it stays
        # where its cancellation is small (its docstring's desk scale)
        hi = {"struve_h": 20.0, "struve_l": 12.0, "struve_h_with_derivatives": 8.0}[name]
        for v, z in zip(_strata(rng, 0.0, 2.0, 12), _strata(rng, 0.1, hi, 12)):
            ops.append(Op(name, 1, fn=name, args=(_r(v), _r(z))))
    # Sumudu transforms: t^a, the closed-form I^v t^a, and H_v(t)
    for a, u in zip(_strata(rng, 0.0, 4.0, 4), _strata(rng, 0.2, 2.0, 4)):
        ops.append(Op("sumudu_numeric", 1, fn="sumudu_numeric",
                      args=("power", _r(a), _r(u))))
    for a, v, u in zip(_strata(rng, 0.0, 2.0, 4), _strata(rng, 0.3, 1.8, 4),
                       _strata(rng, 0.2, 2.0, 4)):
        ops.append(Op("sumudu_numeric", 1, fn="sumudu_numeric",
                      args=("rl_power", _r(a), _r(v), _r(u))))
    # u <= 0.15 keeps the quadrature nodes' Struve arguments (up to 86 u)
    # mostly on the float64 path
    for v, u in zip(_strata(rng, 0.0, 2.0, 4), _strata(rng, 0.05, 0.15, 4)):
        ops.append(Op("sumudu_numeric", 1, fn="sumudu_numeric",
                      args=("struve_h", _r(v), _r(u))))
    # the operational rule, 64 one-target quadratures on 2048 points each
    for a, v, u in zip((0.0, 1.0, 2.0), _strata(rng, 0.5, 1.0, 3), _strata(rng, 0.5, 1.0, 3)):
        ops.append(Op("check_rl_rule", 1, fn="check_rl_rule", args=(a, _r(v), _r(u))))
    rng.shuffle(ops)
    return ops


GENERATORS = {"verify-sweep": verify_sweep, "relaxation-tables": relaxation_tables,
              "point-evals": point_evals}


def generate(workload: str, seed: int) -> list[Op]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
