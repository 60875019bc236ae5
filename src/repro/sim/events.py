"""Discrete-event engine.

A minimal calendar: callbacks scheduled at absolute times, executed in
nondecreasing time order with FIFO tie-breaking (a monotonically
increasing sequence number).  Everything in the simulator -- quantum
expiry, disk completion, flusher progress -- is one of these events.

Clock contract
--------------
``run(until=t)`` always leaves ``now == t`` (unless an event callback
raised), even when the calendar drained early or the next event lies
beyond ``t``.  Callers that interleave ``run(until=...)`` with
``schedule(delay, ...)`` therefore compute delays from a fresh clock; an
earlier version left ``now`` stuck at the last executed event, silently
shifting every subsequently scheduled event backwards.

Event times are floats.  Chains of ``schedule(self.now + delay)``
accumulate floating-point error relative to the trace's 10 microsecond
integer tick base -- after millions of events the accumulated time can
drift past an exact ``until`` boundary and drop the event that should
land on it.  Passing ``tick_s`` snaps every scheduled time to the
nearest multiple of the tick, which resets the error at every event
instead of letting it accumulate (grid multiples are fixed points of the
snap, so times never move backwards).

Allocation discipline
---------------------
The calendar runs millions of events per simulation, so the per-event
cost is kept to one preallocated tuple: callbacks take their arguments
through ``schedule(delay, fn, *args)`` instead of capturing them in a
closure (callers previously allocated a fresh lambda per event, which
dominated the scheduler's profile).  The heap entry is ``(when, seq,
fn, args)``; ``seq`` is unique, so ``fn``/``args`` never take part in
heap comparisons.  There is no cancellation: components that may
retract work (delayed flushes of a deleted file) check a flag of their
own when the event fires.

The heap-depth peak is tracked only when an enabled registry is wired
in; with the default null registry ``schedule_at`` calls no instrument.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable

from repro.obs.registry import get_registry
from repro.util.errors import SimulationError


class Engine:
    """Event calendar and simulated clock."""

    def __init__(self, *, tick_s: float | None = None, obs=None) -> None:
        if tick_s is not None and tick_s <= 0:
            raise SimulationError(f"tick_s must be positive, got {tick_s}")
        self.now: float = 0.0
        self.tick_s = tick_s
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._events_run = 0
        reg = obs if obs is not None else get_registry()
        self._c_events = reg.counter("sim.engine.events_run")
        self._c_advanced = reg.counter("sim.engine.time_advanced_s")
        self._g_heap = reg.gauge("sim.engine.heap_depth") if reg.enabled else None

    def schedule_at(self, when: float, fn: Callable[..., None], *args) -> int:
        """Run ``fn(*args)`` at absolute time ``when`` (>= now).

        Returns the event's sequence number (its FIFO tie-breaker).
        """
        if self.tick_s is not None:
            when = round(when / self.tick_s) * self.tick_s
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event at {when} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heappush(heap, (when, seq, fn, args))
        if self._g_heap is not None:
            self._g_heap.set_max(len(heap))
        return seq

    def schedule(self, delay: float, fn: Callable[..., None], *args) -> int:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time.

        Returns the event's sequence number.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, fn, *args)

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def events_run(self) -> int:
        return self._events_run

    def run(
        self,
        *,
        max_events: int | None = None,
        until: float | None = None,
        advance_clock: bool = True,
    ) -> None:
        """Drain the calendar.

        Stops when empty, after ``max_events`` (a runaway guard), or when
        the next event lies beyond ``until``.  On a normal return with
        ``until`` given, the clock is advanced to ``until`` even if no
        event landed there (see the module docstring's clock contract).
        ``advance_clock=False`` suppresses that final jump: segmented
        callers (the crash/degrade cuts in ``SimulatedSystem.run``) probe
        whether the simulation drained *before* the cut without moving
        ``now`` past the last real event.
        """
        t0 = self.now
        e0 = n = self._events_run
        budget = max_events if max_events is not None else math.inf
        horizon = until if until is not None else math.inf
        heap = self._heap
        try:
            while heap:
                if n >= budget:
                    raise SimulationError(f"event budget exhausted after {n} events")
                when, _, fn, args = heap[0]
                if when > horizon:
                    break
                heappop(heap)
                if when < self.now:
                    raise SimulationError("event queue went backwards")
                self.now = when
                n += 1
                fn(*args)
            if until is not None and advance_clock and self.now < until:
                self.now = until
        finally:
            self._events_run = n
            self._c_events.inc(n - e0)
            self._c_advanced.add(self.now - t0)
