"""Closed-loop benchmark of frackin: one process, one thread, whole rounds.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

Each operation starts when the previous one returns.  CLI operations call
`frackin.cli.main` in-process; scalar operations call the library's public
functions.  A run repeats its workload's round (see workloads.py) until
`--seconds` have been measured and the tail percentile has ten samples
beyond it, checks the first round's outputs against independent
references (checks.py), and prints one JSON object as its last line:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
A copy of the result, with the machine and package versions, goes to
.bench_out/ in the checkout; a traced run writes its spans there too.
"""

from __future__ import annotations

import os

# one thread: BLAS pools stay single, and the verify thread pool stays off
os.environ.pop("FRACKIN_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# tail percentile per workload, and the samples it needs for ten beyond it
TAIL = {"verify-sweep": 75, "relaxation-tables": 95, "point-evals": 99}
# a run stops measuring here even if the tail is short of samples
MAX_MEASURE_S = 120.0
SETUP_STARTS = 7
SETUP_CODE = (
    "import frackin, frackin.cli\n"
    "frackin.cli.main(['eval-mlf', '--alpha', '0.75', '--beta', '1', '--z', '-1.5'])\n"
    "print('ready', flush=True)\n"
)


def min_samples(percentile: int) -> int:
    return math.ceil(10 * 100 / (100 - percentile))


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    return sorted_values[math.ceil(percentile / 100 * len(sorted_values)) - 1]


# ---------------------------------------------------------------------------
# operations


def run_cli(argv: list[str]):
    """frackin.cli.main in-process; returns (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sys.modules["frackin.cli"].main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def make_call(op):
    """A no-argument callable for op that looks the entry point up when called,
    so that a traced run reaches the wrapped functions."""
    import frackin
    import frackin.cli  # noqa: F401  (run_cli looks it up in sys.modules)
    import refs

    if op.argv is not None:
        return lambda: run_cli(op.argv)
    if op.fn == "check_rl_rule":
        a, v, u = op.args
        return lambda: frackin.check_rl_rule(lambda t: t ** a, v, u)
    if op.fn != "sumudu_numeric":
        return lambda: getattr(frackin, op.fn)(*op.args)
    kind = op.args[0]
    if kind == "power":
        a, u = op.args[1:]
        return lambda: frackin.sumudu_numeric(lambda t: t ** a, u)
    if kind == "rl_power":
        a, v, u = op.args[1:]
        return lambda: frackin.sumudu_numeric(lambda t: refs.rl_power(a, v, t), u)
    v, u = op.args[1:]
    spec = frackin.SeriesSpec.struve(v)
    return lambda: frackin.sumudu_numeric(
        lambda t: frackin.generalized_struve_grid(spec, t), u)


class Rounds:
    """Durations, rows and failures of whole rounds of one op list."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.calls = [make_call(op) for op in ops]
        self.durations: list[float] = []
        self.rows = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: list[object] = [None] * len(ops)
        self.changed = 0
        self.rounds = 0

    def run_round(self, wrap=None) -> None:
        for i, (op, call) in enumerate(zip(self.ops, self.calls)):
            started = time.perf_counter()
            try:
                result = wrap(i, call) if wrap else call()
            except Exception as exc:  # one failed operation must not end the run
                self.durations.append(time.perf_counter() - started)
                self.failed += 1
                self.errors.append(f"{op.kind} {op.argv or op.args}: {exc!r}")
                continue
            self.durations.append(time.perf_counter() - started)
            if op.argv is not None and result[0] != 0:
                self.failed += 1
                self.errors.append(f"{' '.join(op.argv)}: exit {result[0]} {result[2].strip()}")
                continue
            self.rows += op.rows
            if self.rounds == 0:
                self.first[i] = result
            elif result != self.first[i]:
                self.changed += 1
        self.rounds += 1

    @property
    def attempted(self) -> int:
        return len(self.durations)


def warm_up(ops) -> None:
    """One untimed call of each kind, so lazy imports and caches are filled."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                make_call(op)()
            except Exception:  # the timed rounds count and report it
                pass


def measure(rounds: Rounds, seconds: float, need: int, wrap=None) -> None:
    """Run whole rounds until `seconds` passed and `need` samples exist."""
    started = time.perf_counter()
    while True:
        rounds.run_round(wrap)
        elapsed = time.perf_counter() - started
        if (elapsed >= seconds and rounds.attempted >= need) or elapsed >= MAX_MEASURE_S:
            return


# ---------------------------------------------------------------------------
# set-up time


def setup_times(starts: int) -> list[float]:
    """Seconds from a fresh interpreter start to the end of a first eval-mlf."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(starts + 1):
        started = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            ready = None
            for line in proc.stdout:
                if line.strip() == "ready":
                    ready = time.perf_counter() - started
            err = proc.stderr.read()
            proc.wait()
        if ready is None or proc.returncode != 0:
            raise RuntimeError(f"set-up start failed: exit {proc.returncode}: {err.strip()}")
        times.append(ready)
    # the first start also compiles the byte code; it is not counted
    return times[1:]


# ---------------------------------------------------------------------------
# checks


def check_outputs(rounds: Rounds) -> list[str]:
    import checks

    problems = []
    for op, result in zip(rounds.ops, rounds.first):
        if result is None:
            continue
        problems += [f"{op.kind}: {p}" for p in checks.check(op, result)]
    if rounds.changed:
        problems.append(f"{rounds.changed} outputs differ from the first round's")
    return problems


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "scipy": scipy.__version__, "seed": seed,
            "frackin_threads": os.environ.get("FRACKIN_THREADS")}


# ---------------------------------------------------------------------------
# runs


def end_to_end(workload: str, rounds: Rounds, setup: list[float]) -> dict:
    ordered = sorted(rounds.durations)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "call_p50_s": {"value": statistics.median(ordered), "unit": "s"},
        "call_tail_s": {"value": nearest_rank(ordered, TAIL[workload]), "unit": "s"},
        "rows_per_s": {"value": rounds.rows / sum(rounds.durations), "unit": "rows/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def untraced_run(workload, ops, seconds):
    setup = setup_times(SETUP_STARTS)
    warm_up(ops)
    rounds = Rounds(ops)
    measure(rounds, seconds, min_samples(TAIL[workload]))
    metrics = end_to_end(workload, rounds, setup)
    detail = {"setup_s": setup, "rounds": rounds.rounds,
              "tail_percentile": TAIL[workload], "samples": rounds.attempted}
    return rounds, metrics, detail


def traced_run(workload, ops, seconds, spans_path):
    """Untraced rounds, then as many traced rounds; per-layer metrics."""
    import trace

    warm_up(ops)
    plain = Rounds(ops)
    measure(plain, seconds / 2, 1)
    tracer = trace.Tracer()
    traced = Rounds(ops)
    tracer.install()
    try:
        while traced.rounds < plain.rounds:
            traced.run_round(tracer.run_op)
    finally:
        tracer.uninstall()
    metrics, missing = trace.layer_metrics(tracer, workload)
    overhead = sum(traced.durations) / sum(plain.durations) - 1.0
    metrics["trace.overhead_share"] = (overhead, "ratio")
    metrics["trace.missing_spans"] = (len(missing), "count")
    tracer.write(spans_path)
    detail = {"rounds": plain.rounds, "missing_spans": missing, "spans": len(tracer.spans),
              "spans_file": os.path.relpath(spans_path, ROOT)}
    # failures of both phases count, and tracing must not change an output
    plain.failed += traced.failed
    plain.errors += traced.errors
    plain.durations += traced.durations
    plain.changed += traced.changed + sum(a != b for a, b in zip(plain.first, traced.first))
    return plain, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "frackin", "__init__.py")):
        print(f"bench: no frackin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import frackin
    import frackin.cli  # noqa: F401  (run_cli looks it up in sys.modules)

    if not os.path.abspath(frackin.__file__).startswith(SRC + os.sep):
        print(f"bench: imported frackin from {frackin.__file__}, not {SRC}", file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        rounds, metrics, detail = traced_run(args.workload, ops, args.seconds,
                                             stem + "-spans.json")
    else:
        rounds, metrics, detail = untraced_run(args.workload, ops, args.seconds)
    problems = check_outputs(rounds)
    env = environment(args.seed)
    result = {"correct": not problems, "attempted": rounds.attempted,
              "failed": rounds.failed, "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "environment": env, "detail": detail,
                   "check_problems": problems, "errors": rounds.errors[:20], **result},
                  fh, indent=1)
    for line in problems[:20] + rounds.errors[:20]:
        print(f"bench: {line}", file=sys.stderr)
    if args.trace and detail["missing_spans"]:
        print(f"bench: expected spans never fired: {detail['missing_spans']}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
