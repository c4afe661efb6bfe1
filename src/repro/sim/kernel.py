"""The discrete-event kernel every event loop in the package runs on.

The flash simulator (:mod:`repro.ssd.events`), the serving driver and the
fleet engine each pop events from one :class:`EventKernel`, which owns the
total order on events, keyed ``(time, kind, seq)``: increasing sim time;
at equal times, increasing ``kind`` (each loop numbers its kinds in the
tie-break order it needs); at equal ``(time, kind)``, push order, because
``seq`` is a counter the kernel assigns at push.  A push at a non-finite or
negative time raises :class:`~repro.errors.SimulationError`.  Every pop is
shown to the installed sim-sanitizer (:mod:`repro.sim.simsan`) and ticks the
loop's digest recorder when one is set.  Domain hooks (tracer, metrics,
causal collector) stay at the loops' own call sites.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Iterator, List, Optional, Tuple

from ..errors import SimulationError
from .simsan import get_sanitizer

if TYPE_CHECKING:  # the flash layer imports the kernel; keep obs lazy
    from ..obs.digest import DigestRecorder, Snapshot

#: One heap entry: ``(time, kind, seq, payload)``.
Event = Tuple[float, int, int, Any]

_INF = float("inf")


class EventKernel:
    """A ``(time, kind, seq)`` event heap with checked pushes and pops.

    ``track`` names the loop to the sim-sanitizer.  ``recorder`` is ticked
    once per pop with the popped kind; ``snapshot`` supplies the rest of the
    digested state and runs only on the recorder's capturing ticks.
    """

    __slots__ = ("track", "seq", "_heap", "_recorder", "_snapshot")

    def __init__(
        self,
        track: str,
        recorder: Optional[DigestRecorder] = None,
        snapshot: Optional[Snapshot] = None,
    ) -> None:
        self.track = track
        self.seq = 0  # the seq the next push receives (= pushes so far)
        self._heap: List[Event] = []
        self._recorder = recorder
        self._snapshot = snapshot

    def push(self, time: float, kind: int, payload: Any = None) -> None:
        """Schedule ``payload`` as a ``kind`` event at sim ``time``."""
        if not 0.0 <= time < _INF:  # also false for NaN
            what = "non-finite" if not math.isfinite(time) else "negative"
            raise SimulationError(f"cannot schedule event at {what} time {time}")
        heappush(self._heap, (time, kind, self.seq, payload))
        self.seq += 1

    def drain(self, until: Optional[float] = None) -> Iterator[Event]:
        """Pop events in key order until the heap is empty.

        Handlers may push while the iteration runs.  With ``until`` set, the
        iteration stops at the first event later than ``until``, leaving it
        queued.
        """
        heap = self._heap
        track = self.track
        recorder = self._recorder
        snapshot = self._snapshot
        sanitizer = get_sanitizer()
        while heap:
            if until is not None and heap[0][0] > until:
                return
            event = heappop(heap)
            if sanitizer.enabled:
                sanitizer.observe_pop(track, event[0], key=event[:3])
            if recorder is not None:
                recorder.tick(event[0], snapshot, kind=event[1])
            yield event

    def peek_time(self) -> Optional[float]:
        """Sim time of the next event, or None when the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)
