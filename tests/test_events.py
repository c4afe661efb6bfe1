"""Tests for the event kernel (repro.sim.kernel) and the flash DES engine
(repro.ssd.events) that runs on it."""

import pytest

from repro.errors import SimulationError
from repro.sim import EventKernel
from repro.ssd.events import Resource, Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventKernel("test")
        order = []
        q.push(2.0, 0, lambda: order.append("b"))
        q.push(1.0, 0, lambda: order.append("a"))
        q.push(3.0, 0, lambda: order.append("c"))
        for _time, _kind, _seq, cb in q.drain():
            cb()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        q = EventKernel("test")
        order = []
        for name in "abc":
            q.push(1.0, 0, lambda n=name: order.append(n))
        for event in q.drain():
            event[3]()
        assert order == ["a", "b", "c"]

    def test_peek_time(self):
        q = EventKernel("test")
        assert q.peek_time() is None
        q.push(5.0, 0, lambda: None)
        assert q.peek_time() == 5.0

    def test_rejects_negative_time(self):
        with pytest.raises(SimulationError):
            EventKernel("test").push(-1.0, 0, lambda: None)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_time(self, bad):
        with pytest.raises(SimulationError, match="non-finite"):
            EventKernel("test").push(bad, 0, lambda: None)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_simulator_rejects_non_finite_schedule(self, bad):
        # NaN slips past the `delay < 0` guard (every comparison with NaN is
        # False); the queue-level finiteness check must still catch it.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)

    def test_len(self):
        q = EventKernel("test")
        q.push(1.0, 0, lambda: None)
        q.push(2.0, 0, lambda: None)
        assert len(q) == 2


class TestSimulator:
    def test_clock_advances(self):
        sim = Simulator()
        sim.schedule(1.5, lambda: None)
        assert sim.run() == 1.5
        assert sim.now == 1.5

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 2.0]

    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_rejects_scheduling_in_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_max_events_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestResource:
    def test_immediate_acquire(self):
        r = Resource()
        assert r.acquire(0.0, 2.0) == (0.0, 2.0)

    def test_serializes_back_to_back(self):
        r = Resource()
        r.acquire(0.0, 2.0)
        start, end = r.acquire(1.0, 3.0)
        assert start == 2.0
        assert end == 5.0

    def test_idle_gap_respected(self):
        r = Resource()
        r.acquire(0.0, 1.0)
        start, end = r.acquire(10.0, 1.0)
        assert start == 10.0
        assert end == 11.0

    def test_busy_time_accumulates(self):
        r = Resource()
        r.acquire(0.0, 2.0)
        r.acquire(0.0, 3.0)
        assert r.busy_time == 5.0
        assert r.acquisitions == 2

    def test_utilization(self):
        r = Resource()
        r.acquire(0.0, 2.0)
        assert r.utilization(4.0) == pytest.approx(0.5)
        assert r.utilization(0.0) == 0.0
        # Clamped at 1 even if elapsed under-measures.
        assert r.utilization(1.0) == 1.0

    def test_zero_duration_allowed(self):
        r = Resource()
        start, end = r.acquire(1.0, 0.0)
        assert start == end == 1.0

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Resource().acquire(0.0, -1.0)

    def test_reset(self):
        r = Resource()
        r.acquire(0.0, 5.0)
        r.reset()
        assert r.free_at == 0.0
        assert r.busy_time == 0.0
        assert r.acquisitions == 0
