"""Show that every output check rejects wrong answers.

Usage, from the root of a source checkout:

    python3 bench/selftest.py

For operations of each kind (seed 1), the script runs the operation, makes
sure its check accepts the real output, and then feeds the check two wrong
answers where they apply:

- the output with one checked value moved by one unit in its 8th
  significant digit;
- the stated-mode output: `solve`/`corollary` rerun with `--mode stated`,
  and `verify` output with the two conventions' columns and summaries
  swapped.

It prints one line per case and exits 1 if any wrong answer is accepted.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import frackin.cli  # noqa: E402,F401
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def nudge(x: float) -> float:
    """x plus one unit in its 8th significant digit."""
    return x + math.copysign(10.0 ** (math.floor(math.log10(abs(x))) - 7), x)


def dump(fmt: str, header, rows, payload=None) -> str:
    if fmt == "json":
        payload = dict(payload, rows=rows)
        return json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n"
    return "\n".join([",".join(header)] + [",".join(repr(float(x)) for x in r)
                                           for r in rows]) + "\n"


def table_parts(op, text):
    fmt = op.check.get("format", "csv")
    payload = json.loads(text) if fmt == "json" else None
    header, rows, _, _ = checks.parse_table(fmt, text)
    return fmt, header, [list(r) for r in rows], payload


def perturbed(op, output):
    """The output with one checked value nudged, or None."""
    if op.argv is None:
        if op.kind == "check_rl_rule":
            return checks.RL_RULE_DEFECT * (1.0 + 1e-7)
        if op.kind == "sumudu_numeric":
            return type(output)(output.u, nudge(output.value), output.node_count)
        if op.kind == "struve_h_with_derivatives":
            return (output[0], nudge(output[1]), output[2])
        return nudge(output)
    rc, text, err = output
    fmt, header, rows, payload = table_parts(op, text)
    if op.kind == "verify":
        if fmt == "json":
            payload["summary"]["scale"] = nudge(payload["summary"]["scale"])
        else:
            rows[len(rows) // 2][0] = nudge(rows[len(rows) // 2][0])
    elif op.kind in ("eval-mlf", "eval-struve"):
        rows[len(rows) // 2][1] = nudge(rows[len(rows) // 2][1])
    else:
        i = checks.sample_rows(op)[1]
        rows[i][1] = nudge(rows[i][1])
    return rc, dump(fmt, header, rows, payload), err


def stated(op, output):
    """The stated convention's output for the same inputs, or None."""
    if op.kind in ("solve", "corollary"):
        return run.run_cli(op.argv + ["--mode", "stated"])
    if op.kind != "verify":
        return None
    rc, text, err = output
    fmt, header, rows, payload = table_parts(op, text)
    rows = [[t, c, s] for t, s, c in rows]
    if fmt == "json":
        summary = payload["summary"]
        summary["stated"], summary["corrected"] = summary["corrected"], summary["stated"]
        summary["passing"], summary["adjudication"] = ["stated"], "stated_passes"
    return rc, dump(fmt, header, rows, payload), err


def representatives():
    """Operations of every kind and output format, from seed 1."""
    picked, seen = [], set()
    for workload in workloads.WORKLOADS:
        for op in workloads.generate(workload, 1):
            key = (op.kind, op.check.get("format"), op.check.get("spacing"))
            if key not in seen:
                seen.add(key)
                picked.append(op)
    return picked


def main() -> int:
    bad = 0
    for op in representatives():
        output = run.make_call(op)()
        label = f"{op.kind:26s} {op.check.get('format', ''):4s}"
        problems = checks.check(op, output)
        print(f"{label} real output      {'accepted' if not problems else 'REJECTED'}")
        bad += bool(problems)
        for name, wrong in (("8th-digit nudge", perturbed(op, output)),
                            ("stated mode", stated(op, output))):
            if wrong is None:
                continue
            rejected = bool(checks.check(op, wrong))
            print(f"{label} {name:16s} {'rejected' if rejected else 'ACCEPTED'}")
            bad += not rejected
    print("all wrong answers rejected" if not bad else f"{bad} cases failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
