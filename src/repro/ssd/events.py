"""A small discrete-event simulation (DES) engine.

The flash subsystem is modeled as resources (channel buses, dies) that are
busy for known durations.  The engine is deliberately minimal: a simulator
that drains callbacks from the shared :class:`~repro.sim.kernel.EventKernel`,
and a :class:`Resource` that serializes work.  Events are plain callbacks;
there is no coroutine magic so the control flow stays debuggable.

Determinism: every callback is one event kind, so the kernel's
``(time, kind, seq)`` order fires events scheduled for the same timestamp
in insertion order, and a simulation is reproducible run-to-run.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

from ..errors import SimulationError
from ..sim.kernel import EventKernel

EventCallback = Callable[[], None]

#: The single event kind: callbacks tie-break purely by push order.
_KIND_CALLBACK = 0


class Simulator:
    """Drives an :class:`~repro.sim.kernel.EventKernel` of callbacks and
    owns the simulation clock."""

    def __init__(self) -> None:
        self.kernel = EventKernel("events")
        self.now = 0.0
        self._events_processed = 0

    def schedule(self, delay: float, callback: EventCallback) -> None:
        """Run ``callback`` ``delay`` seconds from the current time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.kernel.push(self.now + delay, _KIND_CALLBACK, callback)

    def schedule_at(self, time: float, callback: EventCallback) -> None:
        """Run ``callback`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        self.kernel.push(time, _KIND_CALLBACK, callback)

    def run(self, until: Optional[float] = None, max_events: int = 100_000_000) -> float:
        """Drain the queue; returns the final simulation time.

        ``until`` stops the clock at a given time even if events remain;
        ``max_events`` guards against runaway event loops.
        """
        for time, _kind, _seq, callback in self.kernel.drain(until):
            if time < self.now:
                raise SimulationError(f"time went backwards: {time} < {self.now}")
            self.now = time
            callback()
            self._events_processed += 1
            if self._events_processed > max_events:
                raise SimulationError(f"exceeded {max_events} events; likely a loop")
        if until is not None and len(self.kernel):
            self.now = until
        return self.now

    @property
    def events_processed(self) -> int:
        return self._events_processed


class Resource:
    """A serially-reusable resource (a bus, a die) with FIFO acquisition.

    ``acquire(duration)`` reserves the resource for ``duration`` seconds
    starting at the earliest time it is free, and returns the ``(start, end)``
    interval.  This reservation style (rather than callback-based handoff)
    keeps flash-command scheduling simple: callers compute their own timeline
    from the returned interval.
    """

    def __init__(self, name: str = "resource") -> None:
        self.name = name
        self.free_at = 0.0
        self.busy_time = 0.0
        self.acquisitions = 0

    def acquire(self, now: float, duration: float) -> Tuple[float, float]:
        """Reserve the resource for ``duration`` seconds at or after ``now``."""
        if duration < 0:
            raise SimulationError(f"negative duration {duration} on {self.name}")
        start = max(now, self.free_at)
        end = start + duration
        self.free_at = end
        self.busy_time += duration
        self.acquisitions += 1
        return start, end

    def block_until(self, time: float) -> None:
        """Make the resource unavailable before ``time`` (an outage window).

        Unlike :meth:`acquire`, the blocked interval accrues no busy time:
        the resource is *down*, not working.  A ``time`` in the past is a
        no-op, so repeated blocking with the same window is idempotent.
        """
        if not math.isfinite(time):
            raise SimulationError(f"cannot block {self.name} until non-finite {time}")
        if time > self.free_at:
            self.free_at = time

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` this resource spent busy (0 when idle)."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def reset(self) -> None:
        self.free_at = 0.0
        self.busy_time = 0.0
        self.acquisitions = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Resource({self.name!r}, free_at={self.free_at:.6g})"
