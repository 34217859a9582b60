"""Time the baseline cases that are in no workload, once each.

Usage, from the root of a source checkout (about two minutes):

    python3 bench/reference_cases.py

These are the slow cases of the project's baseline table: verify at
n = 8192, a solve table deep in the Mittag-Leffler fallback, a verify
whose series sit in that fallback, and adjudicate with FRACKIN_THREADS at
2 and 4 (set for that case only).  Each CLI case runs in-process through
frackin.cli.main, timed with the benchmark's clock; the figures are quoted
in README.md.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
os.environ.pop("FRACKIN_THREADS", None)

import frackin  # noqa: E402
import frackin.cli  # noqa: E402,F401
import run  # noqa: E402

CLI_CASES = (
    "verify --theorem 1 --v 0.75 --n 8192",
    "solve --theorem 1 --l 1 --d 2 --v 1.5 --tmax 5 --n 2000",
    "verify --theorem 2 --l 0.5 --v 1.5 --tmax 5",
)


def adjudicate_seconds(threads: str | None) -> float:
    problem = frackin.KineticProblem.plain_time(frackin.SeriesSpec.struve(1.0), v=0.75, d=1.0)
    grid = frackin.Grid.uniform(0.01, 2.0, 2048)
    if threads is not None:
        os.environ["FRACKIN_THREADS"] = threads
    try:
        started = time.perf_counter()
        frackin.adjudicate(problem, grid)
        return time.perf_counter() - started
    finally:
        os.environ.pop("FRACKIN_THREADS", None)


def main() -> int:
    for case in CLI_CASES:
        started = time.perf_counter()
        rc, _, err = run.run_cli(case.split())
        seconds = time.perf_counter() - started
        print(f"{seconds:8.2f} s  exit {rc}  frackin {case}  {err.strip()[:80]}", flush=True)
    for threads in (None, "2", "4"):
        label = "unset" if threads is None else threads
        print(f"{adjudicate_seconds(threads):8.2f} s  adjudicate n=2048, FRACKIN_THREADS={label}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
