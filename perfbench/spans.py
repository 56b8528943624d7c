"""In-process span tracer that wraps rdledm's public functions in place.

Every public function of the traced modules is replaced, at each module
name where it is called (``rdledm.solver.svt`` as well as
``rdledm.operators.svt``), by a wrapper that records one span per call.
A span is named after the module that defines the function, so a call
through any alias lands in the same row. For each name the tracer keeps
the call count, every inclusive duration, and the self time (inclusive
time minus the time of child spans).

The program itself is not changed: wrappers are installed on module
attributes and removed again on exit.
"""

from __future__ import annotations

import types
from collections import defaultdict
from time import perf_counter

import numpy as np

TRACED_MODULES = (
    "sequence", "operators", "sampling", "phantom",
    "solver", "metrics", "experiment", "cli",
)

# Time spent by the tracer checking SVT outputs; kept as its own row so
# the self times of all rows still add up to the wall time of the roots.
SVT_CHECK = "perfbench.svt_output_check"


class LayerStats:
    __slots__ = ("calls", "self_time", "durations", "nonzero")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.durations: list[float] = []
        self.nonzero = 0


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self, package):
        self._package = package
        self._saved: list[tuple[types.ModuleType, str, object]] = []
        # One child-time accumulator per open span; index 0 is "no span".
        self._stack = [0.0]
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)

    def take(self) -> dict[str, LayerStats]:
        """Return the rows recorded so far and start empty ones."""
        stats, self.stats = self.stats, defaultdict(LayerStats)
        return stats

    def _record(self, name: str, start: float, end: float) -> LayerStats:
        child = self._stack.pop()
        duration = end - start
        self._stack[-1] += duration
        rec = self.stats[name]
        rec.calls += 1
        rec.self_time += duration - child
        rec.durations.append(duration)
        return rec

    def _wrap(self, fn, name: str):
        stack = self._stack
        record = self._record
        # One row per mask pattern: the radial spoke search costs far more
        # than the cartesian and random2d draws.
        by_pattern = name == "sampling.make_mask"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if by_pattern:
                    pattern = args[0] if args else kwargs.get("pattern")
                    record(f"{name}.{pattern}", start, end)
                else:
                    record(name, start, end)

        return wrapper

    def _wrap_svt(self, fn):
        # Counts the calls whose output is not identically zero.
        stack = self._stack
        record = self._record

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                record("operators.svt", start, perf_counter())
                raise
            rec = record("operators.svt", start, perf_counter())
            stack.append(0.0)
            check_start = perf_counter()
            rec.nonzero += bool(np.any(out))
            record(SVT_CHECK, check_start, perf_counter())
            return out

        return wrapper

    def __enter__(self):
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = getattr(self._package, short)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith(self._package.__name__ + "."):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.split('.', 1)[1]}.{value.__name__}"
                    if name == "operators.svt":
                        wrappers[id(value)] = self._wrap_svt(value)
                    else:
                        wrappers[id(value)] = self._wrap(value, name)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        return False
