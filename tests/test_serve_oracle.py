"""Generated-input differential tests for the serve driver and its report.

:class:`ServingReport` keeps completed requests as numpy columns and builds
its :class:`CompletedRequest` list lazily.  The oracle here is the record-list
report it replaced, copied verbatim as :class:`ReferenceReport`: fed the
generated run's ``completed``/``shed``/``batches`` records, it must give the
same ``to_dict()`` and bit-identical ``latencies()``.  Hypothesis draws the
stack shape (shards, replicas, pipeline depth, token bucket, eager dispatch)
and arrival streams built from bursts, runs of equal timestamps, long idle
tails and 1-3 tenants with mixed priorities.

The queue oracle checks :meth:`RequestQueue.pop_batch` against the same
number of sequential :meth:`RequestQueue.pop` calls.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.errors import WorkloadError
from repro.obs.causal import CausalCollector, installed
from repro.serve import (
    AffineServiceModel,
    BatchRecord,
    CompletedRequest,
    Request,
    RequestQueue,
    Router,
    ServingConfig,
    ShedRequest,
    build_replicas,
    build_serving_stack,
)

SERVICE = AffineServiceModel(
    base=2e-4, per_query=1e-4, knee=8, candidate_fraction=0.7
)
TENANTS = ("alpha", "beta", "gamma")


# -- oracle: the record-list report, verbatim --------------------------------
@dataclass
class ReferenceReport:
    """Aggregate outcome of one serving run.

    The conservation invariant (``admitted + shed == arrived``) is checked by
    the driver before the report is returned; the report re-exposes the
    counts so tests and the bench can assert it independently.
    """

    slo: float
    arrived: int
    completed: List[CompletedRequest] = field(default_factory=list)
    shed: List[ShedRequest] = field(default_factory=list)
    batches: List[BatchRecord] = field(default_factory=list)

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
        return np.array([c.latency for c in self.completed], dtype=np.float64)

    def percentile(self, q: float) -> float:
        """Latency percentile ``q`` (0-100) over admitted requests."""
        if not self.completed:
            raise WorkloadError(
                "serving report has no completed requests; "
                "percentiles are undefined (everything was shed?)"
            )
        if not 0.0 <= q <= 100.0:
            raise WorkloadError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.latencies(), q))

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
        if not self.completed:
            return 0.0
        start = min(c.request.arrival for c in self.completed)
        end = max(c.completion for c in self.completed)
        return end - start

    @property
    def goodput(self) -> float:
        """Requests completed *within their deadline* per simulated second."""
        span = self.makespan
        if span <= 0.0:
            return 0.0
        good = sum(1 for c in self.completed if c.within_deadline)
        return good / span

    @property
    def slo_attainment(self) -> float:
        """Fraction of admitted requests that met their deadline."""
        if not self.completed:
            return 0.0
        good = sum(1 for c in self.completed if c.within_deadline)
        return good / len(self.completed)

    @property
    def mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.size for b in self.batches]))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (the ``repro serve --out`` payload)."""
        has_completions = bool(self.completed)
        return {
            "slo_s": self.slo,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "shed": self.shed_count,
            "shed_rate": self.shed_rate,
            "shed_by_reason": self.shed_by_reason(),
            "completed": len(self.completed),
            "goodput_qps": self.goodput,
            "slo_attainment": self.slo_attainment,
            "p50_s": self.p50 if has_completions else None,
            "p95_s": self.p95 if has_completions else None,
            "p99_s": self.p99 if has_completions else None,
            "p999_s": self.p999 if has_completions else None,
            "batches": len(self.batches),
            "mean_batch_size": self.mean_batch_size,
            "max_degrade_level": self.max_degrade_level,
        }


# -- strategies ----------------------------------------------------------------
@st.composite
def serving_configs(draw) -> ServingConfig:
    return ServingConfig(
        slo=draw(st.sampled_from([0.005, 0.01, 0.02])),
        shards=draw(st.integers(1, 3)),
        replicas=draw(st.integers(1, 3)),
        pipeline_depth=draw(st.integers(1, 2)),
        token_rate=draw(st.one_of(st.none(), st.floats(100.0, 5_000.0))),
        eager_when_idle=draw(st.booleans()),
    )


#: One stream segment: (shape, arrivals, gap seconds).
SEGMENTS = st.tuples(
    st.sampled_from(["burst", "equal", "steady", "idle"]),
    st.integers(1, 150),
    st.floats(1e-5, 2e-3),
)


@st.composite
def arrival_streams(draw):
    """(times, tenants, priorities): bursts, equal runs, idle tails."""
    times: List[float] = []
    now = draw(st.sampled_from([0.0, 0.25]))
    for shape, count, gap in draw(st.lists(SEGMENTS, min_size=1, max_size=6)):
        if shape == "idle":
            now += 0.05 + 200 * gap  # a long quiet stretch, then one arrival
            count = 1
        if shape in ("burst", "equal"):
            count *= 4  # deep enough to overrun admission and the bucket
        for _ in range(count):
            times.append(now)
            if shape == "burst":
                now += gap / 50.0
            elif shape == "steady":
                now += gap
            # "equal": every arrival of the run lands on one timestamp
        now += gap
    if draw(st.booleans()):
        times.append(now + 1.0)  # a lone straggler after a long idle tail
    n = len(times)
    tenant_count = draw(st.integers(1, 3))
    tenants = draw(
        st.lists(st.sampled_from(TENANTS[:tenant_count]), min_size=n, max_size=n)
    )
    priorities = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return times, tenants, priorities


def _run(config, stream):
    times, tenants, priorities = stream
    simulator = build_serving_stack(SERVICE, config)
    return simulator, simulator.run(times, tenants=tenants, priorities=priorities)


def _assert_matches_oracle(report) -> None:
    reference = ReferenceReport(
        slo=report.slo,
        arrived=report.arrived,
        completed=report.completed,
        shed=report.shed,
        batches=report.batches,
    )
    assert report.to_dict() == reference.to_dict()
    got, want = report.latencies(), reference.latencies()
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    keys = [(c.completion, c.request.request_id) for c in report.completed]
    assert keys == sorted(keys)


# -- differential and invariant tests -------------------------------------------
@settings(max_examples=60, deadline=None)
@given(config=serving_configs(), stream=arrival_streams())
def test_report_matches_record_list_oracle(config, stream):
    _, report = _run(config, stream)
    _assert_matches_oracle(report)

    # Conservation, and every request id leaves exactly once.
    assert report.admitted + report.shed_count == report.arrived
    ids = [c.request.request_id for c in report.completed]
    ids += [s.request.request_id for s in report.shed]
    assert sorted(ids) == list(range(len(stream[0])))

    # Each completed record carries its batch's window, level and replica,
    # and each batch is accounted for by exactly `size` records.
    per_batch = Counter(
        (c.dispatch_time, c.completion, c.degrade_level, c.replica)
        for c in report.completed
    )
    expected = Counter()
    for b in report.batches:
        expected[(b.start, b.end, b.degrade_level, b.replica)] += b.size
    assert per_batch == expected

    # Tenant, priority and deadline ride along unchanged.
    times, tenants, priorities = stream
    for c in report.completed:
        rid = c.request.request_id
        assert c.request.arrival == times[rid]
        assert c.request.tenant == tenants[rid]
        assert c.request.priority == priorities[rid]
        assert c.request.deadline == times[rid] + config.slo


@settings(max_examples=25, deadline=None)
@given(config=serving_configs(), stream=arrival_streams())
def test_rerun_on_one_instance_is_identical(config, stream):
    times, tenants, priorities = stream
    simulator, first = _run(config, stream)
    second = simulator.run(times, tenants=tenants, priorities=priorities)
    assert second.to_dict() == first.to_dict()
    assert second.latencies().tobytes() == first.latencies().tobytes()
    assert second.completed == first.completed
    assert second.shed == first.shed
    assert second.batches == first.batches
    assert second == first


@settings(max_examples=25, deadline=None)
@given(config=serving_configs(), stream=arrival_streams())
def test_observed_run_equals_plain_run(config, stream):
    _, plain = _run(config, stream)
    collector = CausalCollector(seed=0)
    with obs.configure(install=True) as session, installed(collector):
        _, observed = _run(config, stream)
        latency = session.registry.get("serve_request_latency_seconds")
        observed_count = (
            sum(state.count for _, state in latency.states())
            if latency is not None
            else 0
        )
    assert observed.to_dict() == plain.to_dict()
    assert observed.latencies().tobytes() == plain.latencies().tobytes()
    assert observed_count == len(plain.completed)
    by_id = {c.request.request_id: c for c in plain.completed}
    traces = collector.traces()
    assert len(traces) == len(by_id)
    for trace in traces:
        record = by_id[trace.request_id]
        assert trace.completion == record.completion
        assert trace.level == record.degrade_level


def test_records_constructor_uses_the_same_columns():
    """``ServingReport(completed=[...])`` sorts records like the driver."""
    from repro.serve import ServingReport

    records = [
        CompletedRequest(
            request=Request(request_id=rid, arrival=0.0, deadline=0.01),
            dispatch_time=0.0,
            completion=completion,
            degrade_level=0,
            replica=0,
        )
        for rid, completion in [
            (3, 0.004), (1, 0.002), (4, 0.01), (2, 0.004), (0, 0.02)
        ]
    ]
    report = ServingReport(slo=0.01, arrived=5, completed=records)
    assert [c.request.request_id for c in report.completed] == [1, 2, 3, 4, 0]
    assert report.latencies().tolist() == [0.002, 0.004, 0.004, 0.01, 0.02]
    # Completing exactly at the deadline counts as within it.
    assert report.slo_attainment == 0.8
    assert report.to_dict() == ReferenceReport(
        slo=0.01, arrived=5, completed=records
    ).to_dict()


def test_reports_compare_by_value():
    from repro.serve import ServingReport

    record = CompletedRequest(
        request=Request(request_id=0, arrival=0.0, deadline=0.01),
        dispatch_time=0.001,
        completion=0.002,
        degrade_level=0,
        replica=0,
    )
    batch = BatchRecord(start=0.001, end=0.002, size=1, degrade_level=0, replica=0)
    report = ServingReport(slo=0.01, arrived=1, completed=[record], batches=[batch])
    same = ServingReport.from_batches(
        slo=0.01,
        arrived=1,
        requests=[record.request],
        rows=np.zeros(1, dtype=np.int64),
        shed=[],
        batches=[batch],
    )
    assert report == same
    assert report != ServingReport(slo=0.01, arrived=1, batches=[batch])
    assert report != ServingReport(
        slo=0.02, arrived=1, completed=[record], batches=[batch]
    )
    assert repr(report) == (
        "ServingReport(slo=0.01, arrived=1, completed=1, shed=0, batches=1)"
    )


# -- queue oracle ----------------------------------------------------------------
QUEUED = st.lists(
    st.tuples(st.sampled_from(TENANTS), st.integers(0, 2), st.integers(0, 5)),
    min_size=0,
    max_size=60,
)


def _filled(entries) -> RequestQueue:
    queue = RequestQueue()
    for rid, (tenant, priority, tick) in enumerate(entries):
        arrival = tick * 1e-3  # few distinct ticks: many arrival ties
        queue.push(
            Request(
                request_id=rid,
                arrival=arrival,
                deadline=arrival + 0.01,
                tenant=tenant,
                priority=priority,
            )
        )
    return queue


@settings(max_examples=150, deadline=None)
@given(entries=QUEUED, limits=st.lists(st.integers(1, 20), min_size=1, max_size=6))
def test_pop_batch_equals_sequential_pops(entries, limits):
    batched, sequential = _filled(entries), _filled(entries)
    for limit in limits:
        got = batched.pop_batch(limit)
        want: List[Request] = []
        while sequential.depth and len(want) < limit:
            want.append(sequential.pop())
        assert got == want
        assert batched.depth == sequential.depth
        peeked: Optional[Request] = batched.peek()
        assert peeked == sequential.peek()


def test_pop_batch_single_tenant_is_fifo():
    queue = _filled([("alpha", 2 - i % 3, i) for i in range(10)])
    assert [r.request_id for r in queue.pop_batch(4)] == [0, 1, 2, 3]
    assert queue.depth == 6
    assert [r.request_id for r in queue.pop_batch(99)] == [4, 5, 6, 7, 8, 9]
    assert queue.depth == 0
    assert queue.pop_batch(3) == []


# -- router oracle -----------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    replicas=st.integers(1, 4),
    depth=st.integers(1, 3),
    ops=st.lists(st.tuples(st.booleans(), st.integers(1, 9)), max_size=40),
)
def test_router_counts_match_scans(replicas, depth, ops):
    """The O(1) counts equal the scans they replace after every step."""
    router = Router(build_replicas(replicas, [1.0]), SERVICE, pipeline_depth=depth)
    held: List[tuple] = []
    for acquire, size in ops:
        if acquire and router.has_capacity():
            replica = router.route()
            router.acquire(replica, size)
            held.append((replica, size))
        elif held:
            replica, size = held.pop(size % len(held))
            router.release(replica, size)
        states = router.replicas
        assert router.inflight_requests == sum(
            r.outstanding_requests for r in states
        )
        assert router.has_capacity() == any(
            r.outstanding_batches < depth for r in states
        )
        assert router.idle_replicas == sum(
            1 for r in states if r.outstanding_batches == 0
        )
