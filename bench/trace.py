"""Spans around the calls into frackin's public functions, from outside.

`Tracer.install()` replaces each traced function under every name its
callers look it up by: the attribute of the defining module, the `frackin`
package re-export, and the `from .x import f` copies in sibling modules.
`Grid`'s constructor, `uniform`, `log` and `refine` are patched on the
class.  Each call records a span (name, start, end, parent, operation id,
and a few counts) in memory; `uninstall()` restores the originals.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# span name -> (defining module, public function names)
TRACED = {
    "cli": ("frackin.cli", ("main",)),
    "verify.adjudicate": ("frackin.verify", ("adjudicate",)),
    "verify.residual": ("frackin.verify", ("residual",)),
    "kinetic.build_solution": ("frackin.kinetic", ("build_solution",)),
    "kinetic.eval_solution_grid": ("frackin.kinetic", ("eval_solution_grid",)),
    "special_functions.mittag_leffler": ("frackin.special_functions",
                                         ("mittag_leffler",)),
    "special_functions.mittag_leffler_grid": ("frackin.special_functions",
                                              ("mittag_leffler_grid",)),
    "special_functions.generalized_struve_grid": ("frackin.special_functions",
                                                  ("generalized_struve_grid",)),
    "special_functions.scalar_struve": ("frackin.special_functions",
                                        ("generalized_struve", "struve_h", "struve_l",
                                         "struve_h_with_derivatives")),
    "fractional_ops.rl_profile": ("frackin.fractional_ops", ("rl_profile",)),
    "fractional_ops.rl_integral_grid": ("frackin.fractional_ops", ("rl_integral_grid",)),
    "sumudu.sumudu_numeric": ("frackin.sumudu", ("sumudu_numeric",)),
    "sumudu.check_rl_rule": ("frackin.sumudu", ("check_rl_rule",)),
}
GRID = "fractional_ops.grid"
GRID_METHODS = ("__init__", "refine")
GRID_CLASSMETHODS = ("uniform", "log")
ROOT = "op"

# the layers each workload must reach; a traced run lists any that never fired
EXPECTED = {
    "verify-sweep": ("cli", "verify.adjudicate", "verify.residual",
                     "kinetic.build_solution", "kinetic.eval_solution_grid",
                     "special_functions.mittag_leffler",
                     "special_functions.mittag_leffler_grid",
                     "special_functions.generalized_struve_grid",
                     "fractional_ops.rl_profile", GRID),
    "relaxation-tables": ("cli", "kinetic.build_solution",
                          "kinetic.eval_solution_grid",
                          "special_functions.mittag_leffler",
                          "special_functions.mittag_leffler_grid", GRID),
    "point-evals": ("cli", "special_functions.mittag_leffler",
                    "special_functions.scalar_struve",
                    "special_functions.generalized_struve_grid",
                    "sumudu.sumudu_numeric", "sumudu.check_rl_rule",
                    "fractional_ops.rl_integral_grid", GRID),
}


def _count(name, args, result):
    """Work counted at the span: grid entries, points, series terms."""
    if name == "special_functions.mittag_leffler_grid":
        return int(np.size(args[1]) * np.size(args[2]))
    if name == "special_functions.generalized_struve_grid":
        return int(np.size(args[1]))
    if name == "fractional_ops.rl_profile":
        return args[0].n
    if name == "kinetic.build_solution":
        return result.truncation_k + 1
    return 0


class Tracer:
    """Span recorder; one per traced run, single-threaded by design."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, op id, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = count
        self._stack.pop()

    def run_op(self, op_id: int, call):
        """Run one benchmark operation under a root span."""
        self._op = op_id
        index = self._open(ROOT)
        try:
            return call()
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, _count(name, args, result) if result is not None else 0)
        return traced

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # vars() keeps a classmethod object as it is, for restoring
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from frackin.fractional_ops import Grid

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "frackin" or n.startswith("frackin.")]
        for name, (module_name, functions) in TRACED.items():
            for fn_name in functions:
                original = getattr(sys.modules[module_name], fn_name)
                wrapped = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, wrapped)
        for attr in GRID_METHODS:
            self._set(Grid, attr, self._wrap(GRID, Grid.__dict__[attr]))
        for attr in GRID_CLASSMETHODS:
            self._set(Grid, attr, classmethod(self._wrap(GRID, Grid.__dict__[attr].__func__)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "count"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, workload: str) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, and the expected spans that never fired."""
    spans = tracer.spans
    own = tracer.self_times()
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    ml_by_caller = {"grid": 0, "build_solution": 0, "direct": 0}
    struve_fallback = 0
    for span, t_own in zip(spans, own):
        name = span[0]
        self_s[name] = self_s.get(name, 0.0) + t_own
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + span[5]
        parent = spans[span[3]][0] if span[3] >= 0 else None
        if name == "special_functions.mittag_leffler":
            if parent == "special_functions.mittag_leffler_grid":
                ml_by_caller["grid"] += 1
            elif parent == "kinetic.build_solution":
                ml_by_caller["build_solution"] += 1
            else:
                ml_by_caller["direct"] += 1
        elif (name == "special_functions.scalar_struve"
              and parent == "special_functions.generalized_struve_grid"):
            struve_fallback += 1

    def share_on_float(grid_name: str, fallback: int) -> float:
        entries = counts.get(grid_name, 0)
        return (entries - fallback) / entries if entries else 0.0

    op_time = sum(self_s.values())
    profile_s = self_s.get("fractional_ops.rl_profile", 0.0)
    ml_calls = "special_functions.mittag_leffler.calls"
    metrics = {f"{name}.self_s": (self_s.get(name, 0.0), "s")
               for name in list(TRACED) + [GRID]}
    metrics.update({
        "fractional_ops.rl_profile.points_per_s": (
            counts.get("fractional_ops.rl_profile", 0) / profile_s if profile_s else 0.0,
            "points/s"),
        ml_calls: (calls.get("special_functions.mittag_leffler", 0), "count"),
        ml_calls + "_from_grid": (ml_by_caller["grid"], "count"),
        ml_calls + "_from_build_solution": (ml_by_caller["build_solution"], "count"),
        ml_calls + "_direct": (ml_by_caller["direct"], "count"),
        "special_functions.ml_grid_float_share": (
            share_on_float("special_functions.mittag_leffler_grid", ml_by_caller["grid"]),
            "ratio"),
        "special_functions.struve_grid_float_share": (
            share_on_float("special_functions.generalized_struve_grid", struve_fallback),
            "ratio"),
        "kinetic.series_terms": (counts.get("kinetic.build_solution", 0), "count"),
        "trace.layer_share": (1.0 - self_s.get(ROOT, 0.0) / op_time if op_time else 0.0,
                              "ratio"),
    })
    missing = [name for name in EXPECTED[workload] if name not in calls]
    return metrics, missing
