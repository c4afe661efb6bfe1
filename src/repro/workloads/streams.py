"""Query arrival streams: load generation for latency-under-load studies.

The batching analyzer needs arrival processes, not just batch sizes.  This
module generates deterministic (seeded) arrival-time sequences:

* **Poisson** — memoryless arrivals at a target rate (the classic open-loop
  load model);
* **bursty** — a two-state modulated Poisson process (quiet/burst), the
  shape real recommendation/search traffic has;
* **closed-loop** — a fixed client population that issues the next query
  when the previous one completes.

:func:`simulate_batched_service` replays a stream against a fixed batch
policy and per-batch service time, producing per-query latency samples —
the distribution behind the batching bench's mean numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import WorkloadError


def poisson_arrivals(rate: float, num_queries: int, seed: int = 0) -> np.ndarray:
    """Arrival timestamps of a Poisson process at ``rate`` queries/s."""
    if not (np.isfinite(rate) and rate > 0):
        raise WorkloadError(f"rate must be positive and finite, got {rate}")
    if num_queries <= 0:
        raise WorkloadError("num_queries must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=num_queries)
    return np.cumsum(gaps)


def bursty_arrivals(
    base_rate: float,
    burst_rate: float,
    num_queries: int,
    burst_fraction: float = 0.2,
    mean_phase_queries: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Two-state modulated Poisson arrivals (quiet <-> burst phases).

    ``burst_fraction`` of queries arrive during bursts at ``burst_rate``;
    the rest at ``base_rate``.  Phase lengths are geometric around
    ``mean_phase_queries``.
    """
    if not (np.isfinite(base_rate) and np.isfinite(burst_rate)):
        raise WorkloadError(
            f"rates must be finite, got base {base_rate}, burst {burst_rate}"
        )
    if base_rate <= 0 or burst_rate <= base_rate:
        raise WorkloadError("need burst_rate > base_rate > 0")
    if num_queries <= 0:
        raise WorkloadError("num_queries must be positive")
    if not (0.0 < burst_fraction < 1.0):
        raise WorkloadError("burst_fraction must be in (0, 1)")
    if mean_phase_queries <= 0:
        raise WorkloadError("mean_phase_queries must be positive")
    rng = np.random.default_rng(seed)
    gaps = np.empty(num_queries)
    produced = 0
    in_burst = False
    while produced < num_queries:
        phase_len = 1 + rng.geometric(1.0 / mean_phase_queries)
        if in_burst:
            phase_len = max(1, int(phase_len * burst_fraction / (1 - burst_fraction)))
        count = min(phase_len, num_queries - produced)
        rate = burst_rate if in_burst else base_rate
        gaps[produced : produced + count] = rng.exponential(1.0 / rate, size=count)
        produced += count
        in_burst = not in_burst
    return np.cumsum(gaps)


@dataclass(frozen=True)
class LatencySample:
    """One query's journey through the batched server."""

    arrival: float
    batch_start: float
    completion: float

    @property
    def latency(self) -> float:
        return self.completion - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.batch_start - self.arrival


@dataclass
class ServiceReport:
    """Latency statistics of one replay."""

    samples: List[LatencySample]

    def latencies(self) -> np.ndarray:
        return np.array([s.latency for s in self.samples])

    @property
    def mean_latency(self) -> float:
        if not self.samples:
            raise WorkloadError(
                "service report is empty; mean latency is undefined"
            )
        return float(self.latencies().mean())

    def percentile(self, q: float) -> float:
        if not self.samples:
            raise WorkloadError(
                "service report is empty; latency percentiles are undefined"
            )
        if not 0.0 <= q <= 100.0:
            raise WorkloadError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.latencies(), q))

    @property
    def throughput(self) -> float:
        if not self.samples:
            return 0.0
        span = max(s.completion for s in self.samples) - self.samples[0].arrival
        return len(self.samples) / span if span > 0 else float("inf")


def simulate_batched_service(
    arrivals: Sequence[float],
    batch_size: int,
    batch_time: float,
    max_wait: float = float("inf"),
) -> ServiceReport:
    """Replay arrivals through a batch-and-serve loop.

    The server collects up to ``batch_size`` queries (or dispatches a
    partial batch once the oldest waiter has waited ``max_wait``), then
    serves the batch in ``batch_time`` (one server; batches serialize).
    """
    if batch_size <= 0:
        raise WorkloadError("batch_size must be positive")
    if batch_time <= 0:
        raise WorkloadError("batch_time must be positive")
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if arrivals.size == 0:
        raise WorkloadError("no arrivals to serve")
    samples: List[LatencySample] = []
    server_free = 0.0
    index = 0
    n = len(arrivals)
    while index < n:
        head = arrivals[index]
        # The batch closes when full, when max_wait expires for the head
        # query, or when the backlog empties.
        last = min(index + batch_size, n)
        members = list(range(index, last))
        close_time = max(head + (0 if len(members) == batch_size else 0), head)
        if len(members) == batch_size:
            close_time = arrivals[members[-1]]
        else:
            close_time = min(head + max_wait, arrivals[members[-1]])
            close_time = max(close_time, arrivals[members[-1]])
            if max_wait != float("inf"):
                # Partial dispatch: only queries arrived by the deadline ride.
                deadline = head + max_wait
                members = [i for i in members if arrivals[i] <= deadline]
                close_time = min(deadline, arrivals[members[-1]])
                close_time = max(close_time, arrivals[members[-1]])
        start = max(close_time, server_free)
        completion = start + batch_time
        server_free = completion
        for i in members:
            samples.append(
                LatencySample(
                    arrival=float(arrivals[i]),
                    batch_start=start,
                    completion=completion,
                )
            )
        index = members[-1] + 1
    return ServiceReport(samples=samples)
