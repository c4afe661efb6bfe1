"""Request lifecycle types for the serving layer.

A query enters the serving layer as a :class:`Request` (arrive), is either
admitted or shed (:class:`ShedRequest` with a machine-readable reason), waits
in a tenant queue, rides a batch to a replica, and leaves as a
:class:`CompletedRequest` carrying its full timeline.  :class:`ServingReport`
aggregates one run over per-request numpy columns: goodput, shed rate,
latency percentiles against the SLO, and the degradation levels the ladder
visited — the quantities the ``repro serve`` CLI prints and
``benchmarks/test_serving_slo.py`` tracks.  :func:`check_arrivals` is the
arrival-stream check both simulators run before replaying a stream.

All timestamps are *simulated* seconds (the same clock the ECSSD timing
models emit); the serving layer never reads wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..errors import WorkloadError

#: Shed reasons recorded on :class:`ShedRequest` (machine-readable).
SHED_TOKEN_BUCKET = "token_bucket"
SHED_QUEUE_DEPTH = "queue_depth"


def check_arrivals(arrivals: Sequence[float]) -> np.ndarray:
    """``arrivals`` as a float64 array, or a one-line :class:`WorkloadError`.

    A replayable arrival stream is 1-D, non-empty, finite, non-negative and
    non-decreasing; the message names the first index that is not.
    :class:`~repro.serve.driver.ServingSimulator` and the fleet simulator
    call this before they push any event.
    """
    times = np.asarray(arrivals, dtype=np.float64)
    if times.ndim != 1:
        raise WorkloadError(
            f"arrival times must be a 1-D array, got shape {times.shape}"
        )
    if times.size == 0:
        raise WorkloadError("no arrivals to serve")
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        index = int(bad[0])
        raise WorkloadError(
            f"arrival times must be finite: arrival {index} is {times[index]}"
        )
    bad = np.flatnonzero(times < 0)
    if bad.size:
        index = int(bad[0])
        raise WorkloadError(
            f"arrival times must be non-negative: arrival {index} is "
            f"{times[index]}"
        )
    bad = np.flatnonzero(np.diff(times) < 0)
    if bad.size:
        index = int(bad[0]) + 1
        raise WorkloadError(
            f"arrival times must be non-decreasing: arrival {index} "
            f"({times[index]}) precedes arrival {index - 1} "
            f"({times[index - 1]})"
        )
    return times


@dataclass(frozen=True)
class Request:
    """One query's identity and timing contract.

    ``deadline`` is absolute (``arrival + slo``); ``priority`` orders queue
    service (higher first) without affecting admission.
    """

    request_id: int
    arrival: float
    deadline: float
    tenant: str = "default"
    priority: int = 0

    def __post_init__(self) -> None:
        if self.deadline < self.arrival:
            raise WorkloadError(
                f"request {self.request_id}: deadline {self.deadline} precedes "
                f"arrival {self.arrival}"
            )

    @property
    def slo(self) -> float:
        """The latency budget this request arrived with."""
        return self.deadline - self.arrival


@dataclass(frozen=True)
class ShedRequest:
    """A request refused at admission, with the controller's reason."""

    request: Request
    reason: str
    shed_time: float


@dataclass(frozen=True)
class CompletedRequest:
    """A served request's full timeline through the layer."""

    request: Request
    dispatch_time: float  # when its batch closed and left the queue
    completion: float
    degrade_level: int  # ladder level its batch executed at
    replica: int

    @property
    def latency(self) -> float:
        return self.completion - self.request.arrival

    @property
    def queue_wait(self) -> float:
        return self.dispatch_time - self.request.arrival

    @property
    def within_deadline(self) -> bool:
        return self.completion <= self.request.deadline


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch: size, window, fidelity level, placement."""

    start: float
    end: float
    size: int
    degrade_level: int
    replica: int


class ServingReport:
    """Aggregate outcome of one serving run.

    Completed requests are held as numpy columns in ``(completion,
    request_id)`` order: arrival, deadline, dispatch time, completion,
    latency (``completion - arrival``, computed once), degrade level and
    replica.  Every aggregate reads those columns.  :attr:`completed` is a
    list view of :class:`CompletedRequest` records, built on first access
    from the columns and the :class:`Request` objects (kept in the order
    they were given, with the sorting permutation).

    The driver builds a report with :meth:`from_batches` (each completed
    request's row in ``batches``); ``ServingReport(slo, arrived,
    completed=[...], shed=[...], batches=[...])`` converts ready-made records
    into the same columns.  The conservation invariant (``admitted + shed ==
    arrived``) is checked by the driver before the report is returned; the
    report re-exposes the counts so tests and the bench can assert it
    independently.  Two reports are equal when their ``slo``, ``arrived``,
    ``completed``, ``shed`` and ``batches`` are.
    """

    def __init__(
        self,
        slo: float,
        arrived: int,
        completed: Sequence[CompletedRequest] = (),
        shed: Sequence[ShedRequest] = (),
        batches: Sequence[BatchRecord] = (),
    ) -> None:
        self._init(
            slo,
            arrived,
            shed,
            batches,
            [c.request for c in completed],
            np.fromiter((c.dispatch_time for c in completed), np.float64),
            np.fromiter((c.completion for c in completed), np.float64),
            np.fromiter((c.degrade_level for c in completed), np.int64),
            np.fromiter((c.replica for c in completed), np.int64),
        )

    @classmethod
    def from_batches(
        cls,
        slo: float,
        arrived: int,
        requests: List[Request],
        rows: np.ndarray,
        shed: List[ShedRequest],
        batches: List[BatchRecord],
    ) -> "ServingReport":
        """A report whose ``requests[i]`` rode batch ``batches[rows[i]]``."""
        report = cls.__new__(cls)
        report._init(
            slo,
            arrived,
            shed,
            batches,
            requests,
            np.fromiter((b.start for b in batches), np.float64)[rows],
            np.fromiter((b.end for b in batches), np.float64)[rows],
            np.fromiter((b.degrade_level for b in batches), np.int64)[rows],
            np.fromiter((b.replica for b in batches), np.int64)[rows],
        )
        return report

    def _init(
        self,
        slo: float,
        arrived: int,
        shed: Sequence[ShedRequest],
        batches: Sequence[BatchRecord],
        requests: List[Request],
        dispatch: np.ndarray,
        completion: np.ndarray,
        level: np.ndarray,
        replica: np.ndarray,
    ) -> None:
        self.slo = slo
        self.arrived = arrived
        self.shed: List[ShedRequest] = list(shed)
        self.batches: List[BatchRecord] = list(batches)
        request_id = np.fromiter(
            map(attrgetter("request_id"), requests), np.int64
        )
        order = np.lexsort((request_id, completion))
        self._requests = requests
        self._order = order
        self._arrival = np.fromiter(
            map(attrgetter("arrival"), requests), np.float64
        )[order]
        self._deadline = np.fromiter(
            map(attrgetter("deadline"), requests), np.float64
        )[order]
        self._dispatch = dispatch[order]
        self._completion = completion[order]
        self._level = level[order]
        self._replica = replica[order]
        self._latency = self._completion - self._arrival
        self._good = int(np.count_nonzero(self._completion <= self._deadline))
        self._completed: Optional[List[CompletedRequest]] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServingReport):
            return NotImplemented
        return (
            self.slo == other.slo
            and self.arrived == other.arrived
            and self.completed == other.completed
            and self.shed == other.shed
            and self.batches == other.batches
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, compared by value

    def __repr__(self) -> str:
        return (
            f"ServingReport(slo={self.slo!r}, arrived={self.arrived}, "
            f"completed={self._latency.size}, shed={len(self.shed)}, "
            f"batches={len(self.batches)})"
        )

    @property
    def completed(self) -> List[CompletedRequest]:
        """Served requests in ``(completion, request_id)`` order."""
        if self._completed is None:
            requests = self._requests
            self._completed = [
                CompletedRequest(
                    request=requests[index],
                    dispatch_time=dispatch,
                    completion=completion,
                    degrade_level=level,
                    replica=replica,
                )
                for index, dispatch, completion, level, replica in zip(
                    self._order.tolist(),
                    self._dispatch.tolist(),
                    self._completion.tolist(),
                    self._level.tolist(),
                    self._replica.tolist(),
                )
            ]
        return self._completed

    @property
    def admitted(self) -> int:
        return self.arrived - len(self.shed)

    @property
    def shed_count(self) -> int:
        return len(self.shed)

    @property
    def shed_rate(self) -> float:
        return len(self.shed) / self.arrived if self.arrived else 0.0

    def shed_by_reason(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.shed:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return counts

    @property
    def max_degrade_level(self) -> int:
        return max((b.degrade_level for b in self.batches), default=0)

    def latencies(self) -> np.ndarray:
        """Per-admitted-request latency samples, in completion order."""
        return self._latency.copy()

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` (0-100) over admitted requests."""
        if not self._latency.size:
            raise WorkloadError(
                "serving report has no completed requests; "
                "percentiles are undefined (everything was shed?)"
            )
        if not 0.0 <= q <= 100.0:
            raise WorkloadError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self._latency, q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    @property
    def makespan(self) -> float:
        """First arrival to last completion, in simulated seconds."""
        if not self._latency.size:
            return 0.0
        return float(self._completion.max()) - float(self._arrival.min())

    @property
    def goodput(self) -> float:
        """Requests completed *within their deadline* per simulated second."""
        span = self.makespan
        if span <= 0.0:
            return 0.0
        return self._good / span

    @property
    def slo_attainment(self) -> float:
        """Fraction of admitted requests that met their deadline."""
        if not self._latency.size:
            return 0.0
        return self._good / int(self._latency.size)

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.size for b in self.batches]))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (the ``repro serve --out`` payload)."""
        completed = int(self._latency.size)
        return {
            "slo_s": self.slo,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "shed": self.shed_count,
            "shed_rate": self.shed_rate,
            "shed_by_reason": self.shed_by_reason(),
            "completed": completed,
            "goodput_qps": self.goodput,
            "slo_attainment": self.slo_attainment,
            "p50_s": self.p50 if completed else None,
            "p95_s": self.p95 if completed else None,
            "p99_s": self.p99 if completed else None,
            "p999_s": self.p999 if completed else None,
            "batches": len(self.batches),
            "mean_batch_size": self.mean_batch_size,
            "max_degrade_level": self.max_degrade_level,
        }

