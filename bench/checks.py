"""Output checks of the benchmark, against the references in refs.py.

Each check takes an operation and what the operation returned, and returns
a list of problems (empty when the output is right).  The checks run
outside the timed region, on the first round's outputs; later rounds are
compared with the first byte for byte.  Tolerances and their grounds are
listed in README.md.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np

import refs

# relative tolerance on returned values: ten times the library's documented
# 1e-10 for Mittag-Leffler values, and ten times below a change in the
# 8th significant digit (at least 1e-8 relative)
VALUE_REL = 1e-9
# absolute floor, as a share of the largest value in the same output, for
# entries near a zero of the function
VALUE_FLOOR = 1e-12
# the forcing scale in verify's summary is a maximum of plain series values
SCALE_REL = 1e-9
# a second-order rule divides the residual by 4 under one refinement; the
# origin panel makes it about 3.3-4 on the verify grids, a first-order
# rule would give 2
SECOND_ORDER_SHRINK = 0.35
# adjudicate's noise floor and its "does not shrink" ratio
NOISE_FLOOR = 1e-12
STALL = 0.9
# grid points agree with their formula to rounding (numpy's linspace and
# geomspace round differently from the formula in the last bits)
GRID_REL = 1e-12
# criterion 05 of the acceptance gate
RL_RULE_DEFECT = 1e-5
TABLE_SAMPLES = 3


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= VALUE_REL * abs(want) + VALUE_FLOOR * scale


def _value_problems(label, got, want) -> list[str]:
    scale = max(abs(w) for w in want)
    return [f"{label} {i}: got {g!r}, reference {w!r}"
            for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w, scale)]


def parse_table(fmt: str, text: str):
    """(header, rows, summary, meta) of a CLI table in csv or json."""
    if fmt == "json":
        payload = json.loads(text)
        return (payload["meta"]["columns"], payload["rows"], payload["summary"],
                payload["meta"])
    lines = text.splitlines()
    return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]], None, None


def _grid_problems(ts: list[float], c: dict, spacing: str) -> list[str]:
    """The t column against the grid's formula: tmin + i h, or tmin r^i."""
    if len(ts) != c["n"]:
        return [f"{len(ts)} rows, expected {c['n']}"]
    i = np.arange(c["n"]) / (c["n"] - 1)
    if spacing == "uniform":
        want = c["tmin"] + (c["tmax"] - c["tmin"]) * i
    else:
        want = c["tmin"] * (c["tmax"] / c["tmin"]) ** i
    worst = float(np.max(np.abs(np.asarray(ts) - want) / want))
    if worst > GRID_REL:
        return [f"t column is off the {spacing} grid by {worst:.1e} relative"]
    return []


def _forcing_scale(problem: dict, ts) -> float:
    ts = np.asarray(ts, dtype=float)
    zs = ts if problem["forcing"] == "plain" else (problem["d"] * ts) ** problem["v"]
    return float(np.max(np.abs(problem["n0"] * refs.forcing_grid(problem["spec"], zs))))


# ---------------------------------------------------------------------------
# verify


def check_verify(op, output) -> list[str]:
    rc, text, err = output
    c = op.check
    if rc != 0:
        return [f"exit status {rc}: {err.strip()}"]
    header, rows, summary, meta = parse_table(c["format"], text)
    if header != ["t", "residual_stated", "residual_corrected"]:
        return [f"unexpected columns {header}"]
    ts = [r[0] for r in rows]
    out = _grid_problems(ts, c, c["spacing"])
    scale = _forcing_scale(c["problem"], ts)
    tol = c["tol"] * scale
    stated = max(abs(r[1]) for r in rows)
    corrected = max(abs(r[2]) for r in rows)
    if corrected > tol:
        out.append(f"corrected residual {corrected:.3e} exceeds tol*scale {tol:.3e}")
    if summary is None:
        # csv: the exit status under --expect corrected says corrected passed;
        # a stated residual above the tolerance says stated did not
        if stated <= tol:
            out.append(f"stated residual {stated:.3e} is within tolerance {tol:.3e}")
        return out
    p, ref = meta["params"], c["problem"]
    want = dict(ref["spec"], v=ref["v"], d=ref["d"], relax=ref["relax"], n0=ref["n0"])
    for key, value in want.items():
        if not math.isclose(p[key], value, rel_tol=1e-15):
            out.append(f"meta {key} = {p[key]!r}, expected {value!r}")
    if not abs(summary["scale"] - scale) <= SCALE_REL * scale:
        out.append(f"scale {summary['scale']!r}, reference {scale!r}")
    if summary["passing"] != ["corrected"] or summary["adjudication"] != "corrected_passes":
        out.append(f"verdict {summary['adjudication']} passing {summary['passing']}")
    cs, ss = summary["corrected"], summary["stated"]
    if cs["max_abs"] != corrected or ss["max_abs"] != stated:
        out.append("summary maxima disagree with the residual columns")
    if (cs["max_abs"] > NOISE_FLOOR * max(scale, 1.0)
            and cs["max_abs_refined"] > SECOND_ORDER_SHRINK * cs["max_abs"]):
        out.append(f"corrected residual shrinks only {cs['max_abs'] / cs['max_abs_refined']:.2f}x"
                   " under refinement")
    if ss["max_abs_refined"] <= STALL * ss["max_abs"]:
        out.append("stated residual shrinks under refinement")
    return out


# ---------------------------------------------------------------------------
# tables


def table_reference(c: dict, t: float) -> float:
    if "haubold" in c["problem"]:
        h = c["problem"]["haubold"]
        return refs.relaxation(h["c"], h["v"], h["n0"], t)
    return refs.neumann_solution(c["problem"], t)


def sample_rows(op) -> list[int]:
    """The last row and TABLE_SAMPLES - 1 others, fixed by the op's inputs."""
    n = op.check["n"]
    rng = random.Random(" ".join(op.argv))
    return [n - 1] + rng.sample(range(n - 1), TABLE_SAMPLES - 1)


def check_table(op, output) -> list[str]:
    rc, text, err = output
    c = op.check
    if rc != 0:
        return [f"exit status {rc}: {err.strip()}"]
    header, rows, summary, _ = parse_table(c["format"], text)
    if header != ["t", "value"]:
        return [f"unexpected columns {header}"]
    out = _grid_problems([r[0] for r in rows], c, "uniform")
    if out:
        return out
    if summary is not None and summary.get("mode", "corrected") != "corrected":
        out.append(f"mode {summary['mode']}")
    picked = sample_rows(op)
    want = [table_reference(c, rows[i][0]) for i in picked]
    return out + _value_problems("row", [rows[i][1] for i in picked], want)


# ---------------------------------------------------------------------------
# point evaluations


def check_points(op, output) -> list[str]:
    rc, text, err = output
    c = op.check
    if rc != 0:
        return [f"exit status {rc}: {err.strip()}"]
    _, rows, _, _ = parse_table("csv", text)
    if [r[0] for r in rows] != c["z"]:
        return ["z column differs from the inputs"]
    if op.kind == "eval-mlf":
        want = [refs.mittag_leffler(c["alpha"], c["beta"], z) for z in c["z"]]
    elif c["classical"]:
        want = [refs.struve_h(c["spec"]["order"], z) for z in c["z"]]
    else:
        s = c["spec"]
        want = [refs.generalized_struve(s["lam"], s["alpha"], s["mu"], s["sigma"],
                                        s["order"], z) for z in c["z"]]
    return _value_problems("point", [r[1] for r in rows], want)


def sumudu_reference(args) -> float:
    kind = args[0]
    if kind == "power":
        return refs.sumudu_power(args[1], args[2])
    if kind == "rl_power":
        return refs.sumudu_rl_power(args[1], args[2], args[3])
    return refs.sumudu_struve_h(args[1], args[2])


def check_direct(op, value) -> list[str]:
    if op.kind == "check_rl_rule":
        return [] if value <= RL_RULE_DEFECT else [f"defect {value:.3e} > {RL_RULE_DEFECT}"]
    if op.kind == "sumudu_numeric":
        got, want = [value.value], [sumudu_reference(op.args)]
    elif op.kind == "struve_h_with_derivatives":
        got, want = list(value), list(refs.struve_h_with_derivatives(*op.args))
    else:
        got, want = [value], [getattr(refs, op.kind)(*op.args)]
    return _value_problems(f"{op.kind}{op.args}", got, want)


def check(op, output) -> list[str]:
    if op.kind == "verify":
        return check_verify(op, output)
    if op.kind in ("solve", "corollary", "haubold"):
        return check_table(op, output)
    if op.kind in ("eval-mlf", "eval-struve"):
        return check_points(op, output)
    return check_direct(op, output)
