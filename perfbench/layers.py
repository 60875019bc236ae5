"""Per-layer self-time accounting by wrapping entry points at class level.

:class:`LayerClock` replaces each listed callable on its class with a
timing wrapper for the duration of a ``with clock.installed():`` block
and puts the original object back on exit, so code outside the block --
in particular every untraced measurement -- runs the unwrapped methods.
Nothing in ``src/`` is edited: the wrappers are installed from here,
before any ``SimulatedSystem`` is built, which matters because several
components capture bound methods at construction time.

Each wrapper keeps per-thread accumulators.  A layer's *self* time is
its span minus the spans of wrapped callees it covers; every call of a
layer adds its full span to its caller's child total.  Whole spans
(start, end) are kept only for the point boundary
(``SimulatedSystem.run``), never per call.  For the result-cache lookup
the wrapper also counts the calls that returned a result (the hits).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: (layer, module, class, attribute).  One layer may cover several
#: entry points; the layer names are the per-layer metric prefixes.
ENTRY_POINTS: tuple[tuple[str, str, str, str], ...] = (
    ("exec.runner", "repro.exec.runner", "SweepRunner", "run"),
    ("exec.result_cache.get", "repro.exec.cache", "ResultCache", "get"),
    ("exec.result_cache.put", "repro.exec.cache", "ResultCache", "put"),
    ("sim.build", "repro.sim.system", "SimulatedSystem", "__init__"),
    ("sim.run", "repro.sim.system", "SimulatedSystem", "run"),
    ("events.residual", "repro.sim.events", "Engine", "run"),
    ("events.schedule", "repro.sim.events", "Engine", "schedule_at"),
    ("cache.read", "repro.sim.cache", "BufferCache", "read"),
    ("cache.write", "repro.sim.cache", "BufferCache", "write"),
    ("procmodel", "repro.sim.procmodel", "TraceProcess", "on_cpu_available"),
    ("sched", "repro.sim.scheduler", "RoundRobinScheduler", "add"),
    ("sched", "repro.sim.scheduler", "RoundRobinScheduler", "unblock"),
    ("sched", "repro.sim.scheduler", "RoundRobinScheduler", "_run_slice"),
    ("sched", "repro.sim.scheduler", "RoundRobinScheduler", "_slice_done"),
    ("device.submit", "repro.sim.recovery", "RecoveringDevice", "submit"),
    ("device.attempt", "repro.sim.recovery", "RecoveringDevice", "_attempt"),
    ("device.service_time", "repro.sim.devices", "DiskModel", "service_time"),
    ("metrics", "repro.sim.metrics", "Metrics", "record_busy"),
    ("metrics", "repro.sim.metrics", "Metrics", "record_busy_point"),
    ("metrics", "repro.sim.metrics", "Metrics", "record_disk_transfer"),
    ("metrics", "repro.sim.metrics", "Metrics", "record_demand"),
    ("workloads.generate", "repro.workloads.base", "ApplicationModel", "generate"),
    ("trace.decode", "repro.trace.decode", "TraceDecoder", "decode_array"),
    ("trace.file_digest", "repro.exec.runner", "TraceFileSpec", "_digest"),
)

#: Layers whose every call is also kept as a whole span.
SPAN_LAYERS = frozenset({"sim.run"})
#: Layers whose calls that return something other than None are counted.
RETURN_LAYERS = frozenset({"exec.result_cache.get"})


def layer_names() -> list[str]:
    """Distinct layer names in declaration order."""
    return list(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))


class _ThreadState:
    """One thread's accumulators; ``stack[0]`` totals top-level spans."""

    __slots__ = ("stack", "self_ns", "calls", "returned", "spans")

    def __init__(self, n_layers: int) -> None:
        self.stack = [0]
        self.self_ns = [0] * n_layers
        self.calls = [0] * n_layers
        self.returned = [0] * n_layers
        self.spans: list[tuple[int, int]] = []


@dataclass(frozen=True)
class LayerTotals:
    """Merged accumulators of every thread, in seconds and counts."""

    self_s: dict[str, float]
    calls: dict[str, int]
    #: calls that returned something other than None (RETURN_LAYERS only)
    returned: dict[str, int]
    #: summed duration of outermost wrapped calls (no double counting)
    covered_s: float
    #: whole spans of the point boundary, (start_s, end_s) on perf_counter
    spans: list[tuple[float, float]]


class LayerClock:
    """Self-time accumulators for the layers in :data:`ENTRY_POINTS`."""

    def __init__(self) -> None:
        self.names = layer_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _new_state(self) -> _ThreadState:
        state = _ThreadState(len(self.names))
        with self._lock:
            self._states.append(state)
        self._local.state = state
        return state

    def reset(self) -> None:
        """Drop everything accumulated so far (all threads)."""
        with self._lock:
            self._states = []
        self._local = threading.local()

    def _wrap(self, layer: str, fn):
        idx = self._index[layer]
        keep_span = layer in SPAN_LAYERS
        clock = time.perf_counter_ns
        owner = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            state = getattr(owner._local, "state", None) or owner._new_state()
            stack = state.stack
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                state.self_ns[idx] += dt - stack.pop()
                state.calls[idx] += 1
                stack[-1] += dt
                if keep_span:
                    state.spans.append((t0, t0 + dt))

        if layer not in RETURN_LAYERS:
            return timed

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = timed(*args, **kwargs)
            if out is not None:
                owner._local.state.returned[idx] += 1
            return out

        return counted

    @contextmanager
    def installed(self):
        """Wrap every entry point; restore the original attributes on exit."""
        saved: list[tuple[type, str, object]] = []
        try:
            for layer, module, cls_name, attr in ENTRY_POINTS:
                cls = getattr(importlib.import_module(module), cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(layer, original.__func__))
                else:
                    wrapped = self._wrap(layer, original)
                saved.append((cls, attr, original))
                setattr(cls, attr, wrapped)
            yield self
        finally:
            for cls, attr, original in reversed(saved):
                setattr(cls, attr, original)

    def totals(self) -> LayerTotals:
        with self._lock:
            states = list(self._states)
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        returned = [0] * len(self.names)
        covered = 0
        spans: list[tuple[float, float]] = []
        for st in states:
            covered += st.stack[0]
            for i in range(len(self.names)):
                self_ns[i] += st.self_ns[i]
                calls[i] += st.calls[i]
                returned[i] += st.returned[i]
            spans.extend((a / 1e9, b / 1e9) for a, b in st.spans)
        return LayerTotals(
            self_s={n: self_ns[i] / 1e9 for i, n in enumerate(self.names)},
            calls={n: calls[i] for i, n in enumerate(self.names)},
            returned={n: returned[i] for i, n in enumerate(self.names)},
            covered_s=covered / 1e9,
            spans=sorted(spans),
        )


def original_attributes() -> dict[tuple[str, str, str], object]:
    """The current class attributes of every entry point (for tests)."""
    out = {}
    for _layer, module, cls_name, attr in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        out[(module, cls_name, attr)] = cls.__dict__[attr]
    return out
