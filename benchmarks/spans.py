"""In-memory span tracing of groversim's layers, installed from outside.

Each traced function is replaced, for the duration of a traced
operation, at every module attribute where ``cli``, ``analytic``,
``distributions`` and ``core`` look it up.  A span records name, start,
end, parent span and operation id; spans stay in memory and are reduced
to per-layer metrics when the run ends.
"""

from __future__ import annotations

import math
import os
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

# the layers' public functions, by home module
TRACED = {
    "distributions": ("generate", "ingest"),
    "core": ("run", "summary_stats", "success_probability", "save_state", "load_state"),
    "analytic": ("solve", "solve_summary", "reconstruct", "success_probability_analytic",
                 "optimal_time", "optimal_time_numeric"),
}
# functions whose tracemalloc peak is recorded in a memory pass
MEMORY = ("analytic.solve", "core.save_state", "distributions.ingest")
COMPUTED_BYTES_PER_AMP_STEP = 48  # read, read and write one complex128 per step


def _counts(name: str, args: tuple) -> dict[str, float]:
    """Work counters recorded at the boundary of ``name``."""
    if name == "core.run":
        return {"amp_steps": args[0].config.n * int(args[1])}
    if name == "analytic.optimal_time_numeric":
        return {"scan_steps": math.ceil(2 * math.pi / args[0].omega) + 1}
    if name == "core.save_state":
        return {"bytes": os.path.getsize(args[1])}
    if name == "core.load_state":
        return {"bytes": os.path.getsize(args[0])}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for none
    op: int


class Tracer:
    """Spans and counters of one run; ``memory`` records tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.memory = memory
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            track = self.memory and name in MEMORY and not tracemalloc.is_tracing()
            if track:
                tracemalloc.start()
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                if track:
                    peak = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
            for key, value in _counts(name, args).items():
                self.counters[f"{name}.{key}"] += value
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict[str, Any]) -> Iterator[None]:
        """Swap in traced wrappers wherever the four modules look them up."""
        saved = []
        for home, names in TRACED.items():
            for name in names:
                fn = getattr(modules[home], name, None)
                if fn is None:
                    continue
                traced = self.wrap(f"{home}.{name}", fn)
                for module in modules.values():
                    if getattr(module, name, None) is fn:
                        saved.append((module, name, fn))
                        setattr(module, name, traced)
        try:
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer, passes: int, memory: Optional[Tracer] = None) -> dict[str, float]:
    """Per-layer metrics per deck pass; rates are ratios over the whole run."""
    calls: Counter = Counter(s.name for s in tracer.spans)
    self_s: Counter = Counter()
    for s, t in zip(tracer.spans, self_times(tracer.spans)):
        self_s[s.name] += t
    out: dict[str, float] = {}
    for home, names in TRACED.items():
        for name in names:
            key = f"{home}.{name}"
            out[f"{key}.calls"] = calls[key] / passes
            out[f"{key}.self_ms"] = self_s[key] * 1e3 / passes
    out["cli.self_ms"] = self_s["cli"] * 1e3 / passes
    c = tracer.counters
    amp_steps, run_s = c["core.run.amp_steps"], self_s["core.run"]
    out["core.run.amp_steps"] = amp_steps / passes
    out["core.run.ns_per_amp_step"] = run_s * 1e9 / amp_steps if amp_steps else 0.0
    out["core.run.computed_gb_per_s"] = (
        amp_steps * COMPUTED_BYTES_PER_AMP_STEP / run_s / 1e9 if run_s else 0.0)
    out["analytic.optimal_time_numeric.scan_steps"] = (
        c["analytic.optimal_time_numeric.scan_steps"] / passes)
    out["core.save_state.bytes"] = c["core.save_state.bytes"] / passes
    for key in ("core.save_state", "core.load_state"):
        seconds = self_s[key]
        out[f"{key}.mb_per_s"] = c[f"{key}.bytes"] / 1e6 / seconds if seconds else 0.0
    peaks = memory.peaks if memory is not None else {}
    for key in MEMORY:
        out[f"{key}.peak_mb"] = peaks.get(key, 0.0)
    return out
