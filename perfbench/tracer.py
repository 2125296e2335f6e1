"""Per-layer tracing from outside the package.

`Tracer.install` replaces each traced public function with a timing
wrapper in every `sensorsched` module that holds a reference to it (for
example `mare.solve_mare` and `optimizer.solve_mare`), so calls are seen
whichever namespace they are looked up in. A name that no longer exists is
reported as absent, and the metrics read from it are zero.

Spans stay in memory until `write` dumps them at the end of the run. The
hottest leaf, `g_q`, is only counted and timed in aggregate: a chain-critical
solve calls it about 170 000 times.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module defining the function, function name, keep every span)
PROBES = [
    ("model.load_scenario", "cli", "load_scenario", True),
    ("mare.g_q", "mare", "g_q", False),
    ("mare.solve_mare", "mare", "solve_mare", True),
    ("mare.critical_probability", "mare", "critical_probability", True),
    ("optimizer.solve_distribution", "optimizer", "solve_distribution", True),
    ("distributed.solve_distributed", "distributed", "solve_distributed", True),
    ("simulate.monte_carlo", "simulate", "monte_carlo_expected_cost", True),
    ("simulate.sliding_window", "simulate", "sliding_window_schedule", True),
    ("simulate.evaluate_schedule", "simulate", "evaluate_schedule", True),
    ("schedule.csma", "schedule", "simulate_csma_schedule", True),
    ("schedule.minconsec", "schedule", "build_min_consecutive_schedule", True),
    ("cli.main", "cli", "main", True),
]


class Tracer:
    """Spans, call counts, inclusive and self time per traced name, calls
    of one name made inside another, and the arguments and results of kept
    calls, which the per-layer counters are read from."""

    def __init__(self):
        self.enabled = False
        self.absent: list[str] = []
        self.signatures: dict[str, inspect.Signature] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._stack: list[list] = []  # [id, name, child time]
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new session: clear aggregates, keep recorded spans."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.within: dict[tuple[str, str], int] = defaultdict(int)
        self.results: dict[str, list] = defaultdict(list)

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "sensorsched" or name.startswith("sensorsched.")]
        for span, module, attr, keep in PROBES:
            original = getattr(sys.modules.get(f"sensorsched.{module}"), attr, None)
            if original is None:
                self.absent.append(span)
                continue
            self.signatures[span] = inspect.signature(original)
            wrapper = self._wrap(span, original, keep)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def _wrap(self, span: str, fn, keep: bool):
        if not keep:
            return self._wrap_leaf(span, fn)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            for outer in {f[1] for f in self._stack}:
                self.within[outer, span] += 1
            frame = [span_id, span, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._account(span, end - start, frame[2])
                self.spans.append((span_id, parent, span, start, end))
            self.results[span].append((args, kwargs, result))
            return result

        return traced

    def _wrap_leaf(self, span: str, fn):
        """Aggregate-only wrapper for a hot function that calls no other
        traced function: no span, no results, as little work as possible."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._account(span, time.perf_counter() - start, 0.0)

        return traced

    def _account(self, span: str, duration: float, child_s: float) -> None:
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[span] += 1
        self.total_s[span] += duration
        self.self_s[span] += duration - child_s

    def arguments(self, span: str) -> list[tuple[dict, object]]:
        """(bound arguments by parameter name, result) of each kept call."""
        sig = self.signatures.get(span)
        return [(sig.bind(*a, **k).arguments, r) for a, k, r in self.results[span]]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "absent": self.absent,
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }) + "\n")
