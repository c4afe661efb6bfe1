"""The deterministic fleet event loop: service nodes over data nodes.

:class:`ClusterSimulator` replays one seeded arrival stream through a whole
fleet::

    arrive -> pick service node -> cache? -> admit / shed -> deadline batch
           -> per-shard tasks to replica data nodes -> slots / FIFO / steal
           -> results return -> cross-shard top-k merge -> complete

on one :class:`~repro.sim.kernel.EventKernel` (which fixes the tie-break
order) with seven event kinds: fault-plan edges first (a node must change
state before work lands on it), then autoscaler evaluations, task
completions, merges, cache hits, batch deadlines, and finally arrivals.

Failover protocol: a node crash cancels its running and queued tasks; each
is **redispatched** to a surviving reachable replica (new transfer, new
execution) or **parked** when no replica is routable, then **unparked** by
the next recovery edge.  Every decision lands on the failover timeline in
event order — the determinism tests compare that timeline byte-for-byte
across runs.

Work stealing: a data node that drains its queue pulls a queued task for a
shard it replicates from the most-backlogged node, paying the re-transfer.
``ClusterConfig.steal_policy`` picks the end of the victim's queue
(``newest`` by default, ``oldest``, or ``none`` to disable) — a sweep axis
for the :mod:`repro.ablate` fleet-policy campaign.  Background crawlers and
brownout windows multiply execution time at task start (when they are
knowable), never retroactively.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError, WorkloadError
from ..faults.plan import (
    EDGE_NODE_DOWN,
    EDGE_NODE_UP,
    EDGE_PARTITION_HEAL,
    EDGE_PARTITION_START,
    ClusterFaultConfig,
    ClusterFaultPlan,
)
from ..obs import CLUSTER_TRACK, get_registry, get_tracer
from ..obs.causal import get_collector
from ..obs.digest import DigestRecorder
from ..serve.admission import AdmissionConfig, AdmissionController
from ..serve.degrade import DegradationLadder
from ..serve.node import ServiceNodeCore
from ..serve.request import Request
from ..serve.router import MERGE_ENTRY_BYTES
from ..serve.scheduler import AffineServiceModel, DeadlineBatcher
from ..sim.kernel import EventKernel
from .autoscale import Autoscaler
from .cache import HotLabelCache, zipf_keys
from .crawlers import CrawlerSchedule
from .nodes import BatchState, DataNode, FleetCounters, ServiceNode, ShardTask
from .placement import Placement, place_replicas
from .report import (
    ClusterReport,
    FailoverEvent,
    build_latency_array,
    shard_outage_seconds,
)
from .topology import REQUEST_BYTES, ClusterConfig

logger = logging.getLogger(__name__)

# Event kinds, in tie-break order at equal timestamps.
_KIND_EDGE = 0
_KIND_SCALE = 1
_KIND_TASK = 2
_KIND_MERGE = 3
_KIND_CACHE = 4
_KIND_DEADLINE = 5
_KIND_ARRIVAL = 6


class ClusterSimulator:
    """Drives the whole fleet over one arrival stream (see module docstring)."""

    def __init__(
        self,
        service: AffineServiceModel,
        config: ClusterConfig,
        placement: Placement,
        fault_plan: ClusterFaultPlan,
        crawlers: CrawlerSchedule,
        seed: int = 0,
        digest_recorder: Optional[DigestRecorder] = None,
    ) -> None:
        if len(placement.assignments) != config.shards:
            raise ConfigurationError(
                f"placement covers {len(placement.assignments)} shards, "
                f"config says {config.shards}"
            )
        self.service = service
        self.config = config
        self.placement = placement
        self.fault_plan = fault_plan
        self.crawlers = crawlers
        self.seed = seed
        self.digest_recorder = digest_recorder

        worst = self.worst_task_time(service.knee)
        merge = self.merge_time(service.knee, 1.0)
        worst_batch = worst + merge
        self.close_margin = worst_batch * config.close_margin_factor
        if self.close_margin >= config.slo:
            raise ConfigurationError(
                f"SLO {config.slo:.6f}s cannot fit one knee batch "
                f"({worst_batch:.6f}s through the slowest shard); add data "
                f"nodes, shrink the knee, or relax the SLO"
            )
        drain_parallelism = max(
            1, config.total_slots // (config.shards * config.service_nodes)
        )
        self.admission = AdmissionConfig.for_slo(
            slo=config.slo,
            worst_batch_time=worst_batch,
            knee=service.knee,
            replicas=drain_parallelism,
            safety=config.safety,
        )
        self.pressure_fallback = max(
            1, service.knee * max(1, config.total_slots // config.shards) * 4
        )

    # -- cost model -----------------------------------------------------------
    def shard_exec_time(
        self, shard: int, size: int, candidate_scale: float = 1.0
    ) -> float:
        """On-node execution cost of one shard task (no slowdowns)."""
        return self.service.batch_time(
            size,
            candidate_scale=candidate_scale * self.placement.hot_degrees[shard],
            work_fraction=1.0 / self.config.shards,
        )

    def merge_time(self, size: int, top_k_scale: float) -> float:
        """§7.1 cross-shard top-k merge cost at the service node."""
        effective_k = max(1, int(round(self.config.top_k * top_k_scale)))
        merge_bytes = size * effective_k * MERGE_ENTRY_BYTES * self.config.shards
        return merge_bytes / self.config.interconnect.bandwidth

    def result_bytes(self, size: int, top_k_scale: float) -> int:
        effective_k = max(1, int(round(self.config.top_k * top_k_scale)))
        return size * effective_k * MERGE_ENTRY_BYTES

    def worst_task_time(self, size: int) -> float:
        """Upper bound on one shard task: transfers + hottest-shard exec."""
        link = self.config.interconnect
        out = link.transfer_time(size * REQUEST_BYTES, cross_rack=True)
        back = link.transfer_time(self.result_bytes(size, 1.0), cross_rack=True)
        exec_worst = max(
            self.shard_exec_time(shard, size)
            for shard in range(self.config.shards)
        )
        return out + exec_worst * self.crawlers.mean_overhead() + back

    # -- the event loop -------------------------------------------------------
    def run(
        self,
        arrivals: Sequence[float],
        keys: Optional[np.ndarray] = None,
    ) -> ClusterReport:
        """Replay ``arrivals`` (sorted timestamps, seconds) to completion.

        ``keys`` optionally supplies each request's cache label-group key;
        by default they are drawn from the seeded Zipf stream
        (:func:`~repro.cluster.cache.zipf_keys`).  Every call replays on
        fresh nodes, caches and autoscaler, so a reused simulator reproduces
        its first report.  Raises :class:`~repro.errors.SimulationError`
        when conservation breaks or work is left behind.
        """
        times = np.asarray(arrivals, dtype=np.float64)
        if times.size == 0:
            raise WorkloadError("no arrivals to serve")
        if np.any(np.diff(times) < 0):
            raise WorkloadError("arrival times must be non-decreasing")
        if keys is None:
            keys = zipf_keys(
                int(times.size),
                self.config.cache_groups,
                self.config.cache_skew,
                self.seed,
            )
        if keys.shape[0] != times.size:
            raise WorkloadError("cache keys must align with arrivals")
        return _FleetRun(self, times, keys).replay()


class _FleetRun:
    """The mutable state of one fleet replay, and its event handlers.

    Built fresh by every :meth:`ClusterSimulator.run` call.  Each event kind
    has one handler method, called with the event's sim time and payload.
    """

    # The handlers run once per event: slots keep their attribute access
    # as fast as the closure variables of a single-function loop.
    __slots__ = (
        "sim", "config", "times", "keys", "sns", "dns", "autoscaler", "latencies",
        "counters", "shed_by_reason", "timeline", "owner", "live", "batches",
        "parked", "parked_since", "severed", "active_count", "peak_active",
        "alive_slots", "running_tasks", "parked_time", "last_completion",
        "next_task_id", "next_batch_id", "kernel", "edges", "registry", "tracer",
        "collector",
    )

    def __init__(
        self, sim: ClusterSimulator, times: np.ndarray, keys: np.ndarray
    ) -> None:
        config = sim.config
        self.sim = sim
        self.config = config
        self.times = times
        self.keys = keys

        self.sns: List[ServiceNode] = []
        for index in range(config.service_nodes):
            core = ServiceNodeCore(
                AdmissionController(sim.admission),
                DeadlineBatcher(sim.service, close_margin=sim.close_margin),
                DegradationLadder(),
            )
            cache = HotLabelCache(config.cache_capacity, config.cache_ttl)
            self.sns.append(
                ServiceNode(index, config.service_rack(index), core, cache)
            )
        self.dns: List[DataNode] = [
            DataNode(index, config.node_rack(index), config.slots_per_node)
            for index in range(config.data_nodes)
        ]
        self.autoscaler = Autoscaler(
            slo=config.slo,
            min_nodes=config.autoscale_min,
            max_nodes=config.service_nodes,
        )

        self.latencies = build_latency_array(int(times.size))
        self.counters = FleetCounters()
        self.shed_by_reason: Dict[str, int] = {}
        self.timeline: List[FailoverEvent] = []
        self.owner: Dict[int, int] = {}  # queued request id -> service node
        self.live: Dict[int, ShardTask] = {}  # started task id -> task
        self.batches: Dict[int, BatchState] = {}
        self.parked: List[ShardTask] = []
        self.parked_since: Dict[int, float] = {}
        self.severed: Set[Tuple[int, int]] = set()
        self.active_count = len(self.sns)
        self.peak_active = self.active_count
        self.alive_slots = sum(dn.slots for dn in self.dns)
        self.running_tasks = 0
        self.parked_time = 0.0
        self.last_completion = float(times[0])
        self.next_task_id = 0
        self.next_batch_id = 0

        self.kernel = EventKernel("cluster", sim.digest_recorder, self.snapshot)
        # Fault-plan state edges (crash + partition; brownouts are queried
        # point-in-time at task start instead).
        self.edges: List[tuple] = [
            edge
            for edge in sim.fault_plan.edges()
            if edge[1]
            in (EDGE_NODE_UP, EDGE_NODE_DOWN, EDGE_PARTITION_HEAL, EDGE_PARTITION_START)
        ]
        for index, edge in enumerate(self.edges):
            self.kernel.push(float(edge[0]), _KIND_EDGE, index)
        # Autoscaler evaluations, one per interval across the arrival span.
        if config.autoscale and len(self.sns) > 1:
            evaluations = int(float(times[-1]) / config.autoscale_interval)
            for step in range(1, evaluations + 1):
                self.kernel.push(step * config.autoscale_interval, _KIND_SCALE, 0)
        # Arrivals enter the heap one at a time (they are sorted), keeping
        # the heap at working-set size rather than run size.
        self.kernel.push(float(times[0]), _KIND_ARRIVAL, 0)

        self.registry = get_registry()
        self.tracer = get_tracer()
        self.collector = get_collector()

    def snapshot(self) -> Dict[str, object]:
        """The counters the digest recorder hashes."""
        counters = self.counters
        return {
            "completed": counters.completed,
            "shed": counters.shed,
            "cache_hits": counters.cache_hits,
            "tasks_done": counters.tasks_done,
            "steals": counters.steals,
            "running": self.running_tasks,
            "parked": len(self.parked),
            "batches": counters.batches,
            "active": self.active_count,
            "seq": self.kernel.seq,
        }

    def replay(self) -> ClusterReport:
        """Drain the kernel, check conservation, and build the report."""
        # Indexed by event kind: the _KIND_* constants are 0..6 in order.
        handlers: Tuple[Callable[[float, int], None], ...] = (
            self.on_edge,
            self.on_scale,
            self.on_task_done,
            self.on_merge,
            self.on_cache_hit,
            self.on_deadline,
            self.on_arrival,
        )
        for now, kind, _seq, payload in self.kernel.drain():
            handlers[kind](now, payload)
        return self.report()

    # -- placement and failover -----------------------------------------------
    def reachable(self, rack_a: int, rack_b: int) -> bool:
        severed = self.severed
        if rack_a == rack_b or not severed:
            return True
        pair = (rack_a, rack_b) if rack_a <= rack_b else (rack_b, rack_a)
        return pair not in severed

    def start_on(self, node: DataNode, task: ShardTask, now: float) -> None:
        start = now if now > task.ready_at else task.ready_at
        slow = self.sim.fault_plan.slowdown(
            node.index, start
        ) * self.sim.crawlers.slowdown(node.index, start)
        end = start + task.exec_time * slow
        task.started_at = start
        if self.collector.enabled:
            self.collector.on_task_start(task.task_id, start, end, task.exec_time)
        node.start(task, end)
        self.live[task.task_id] = task
        self.running_tasks += 1
        self.kernel.push(end, _KIND_TASK, task.task_id)

    def ship(self, task: ShardTask, node: DataNode, now: float) -> None:
        """Send ``task``'s request bytes from its service node to ``node``."""
        cross = self.sns[task.service_node].rack != node.rack
        task.ready_at = now + self.config.interconnect.transfer_time(task.bytes_out, cross)
        task.node = node.index
        if self.collector.enabled:
            self.collector.on_task_route(
                task.task_id,
                task.batch_id,
                task.shard,
                task.exec_time,
                now,
                task.ready_at,
                task.node,
            )

    def log_failover(
        self, now: float, action: str, task: ShardTask, from_node: int, to_node: int
    ) -> None:
        self.timeline.append(
            FailoverEvent(
                time=now,
                action=action,
                shard=task.shard,
                task_id=task.task_id,
                from_node=from_node,
                to_node=to_node,
            )
        )

    def best_replica(self, task: ShardTask) -> Optional[DataNode]:
        """Least-loaded live replica reachable from the task's service node."""
        sn_rack = self.sns[task.service_node].rack
        best_node: Optional[DataNode] = None
        best_key = (0, 0)
        for node_index in self.sim.placement.nodes_for(task.shard):
            node = self.dns[node_index]
            if not node.alive or not self.reachable(sn_rack, node.rack):
                continue
            key = (node.outstanding, node.index)
            if best_node is None or key < best_key:
                best_key = key
                best_node = node
        return best_node

    def route_task(self, task: ShardTask, now: float) -> bool:
        """Place ``task`` on a replica; False when parked."""
        collector = self.collector
        best_node = self.best_replica(task)
        if best_node is None:
            self.parked.append(task)
            self.parked_since[task.task_id] = now
            self.counters.parked += 1
            self.log_failover(now, "park", task, task.node, -1)
            if collector.enabled:
                collector.on_task_park(task.task_id, task.batch_id, task.shard)
            return False
        self.ship(task, best_node, now)
        if best_node.has_free_slot() and not best_node.pending:
            self.start_on(best_node, task, task.ready_at)
        else:
            best_node.pending.append(task)
        return True

    def try_steal(self, node: DataNode, now: float) -> None:
        """Pull one queued task for a shard ``node`` replicates.

        ``config.steal_policy`` picks which end of the victim's FIFO to
        scan: ``newest`` (tail first — the victim keeps its oldest,
        soonest-to-run work), ``oldest`` (head first — FIFO fairness at
        the cost of re-shipping the request that waited longest), or
        ``none`` (stealing disabled; idle slots stay idle).
        """
        steal_policy = self.config.steal_policy
        if steal_policy == "none":
            return
        if not node.alive or not node.has_free_slot() or node.pending:
            return
        my_shards = set(self.sim.placement.shards_on(node.index))
        if not my_shards:
            return
        victims = sorted(
            (v for v in self.dns if v is not node and v.pending),
            key=lambda v: (-len(v.pending), v.index),
        )
        for victim in victims:
            if steal_policy == "newest":
                positions = range(len(victim.pending) - 1, -1, -1)
            else:
                positions = range(len(victim.pending))
            for position in positions:
                task = victim.pending[position]
                if task.shard not in my_shards:
                    continue
                if not self.reachable(self.sns[task.service_node].rack, node.rack):
                    continue
                del victim.pending[position]
                task.stolen = True
                node.steals += 1
                self.counters.steals += 1
                self.ship(task, node, now)
                if self.collector.enabled:
                    self.collector.on_task_steal(task.task_id)
                self.start_on(node, task, task.ready_at)
                return

    def failover_task(self, task: ShardTask, now: float, from_node: int) -> None:
        task.node = from_node
        if self.route_task(task, now):
            if self.collector.enabled:
                self.collector.on_task_redispatch(task.task_id)
            self.counters.redispatches += 1
            self.log_failover(now, "redispatch", task, from_node, task.node)
            if self.registry.enabled:
                self.registry.counter(
                    "cluster_failovers_total",
                    "tasks redispatched or parked after a fault",
                ).inc(action="redispatch")

    def retry_parked(self, now: float) -> None:
        still_parked: List[ShardTask] = []
        for task in sorted(self.parked, key=lambda t: t.task_id):
            if self.best_replica(task) is None:
                still_parked.append(task)
                continue
            from_node = task.node
            task.node = -1
            self.route_task(task, now)
            self.parked_time += now - self.parked_since.pop(task.task_id)
            self.log_failover(now, "unpark", task, from_node, task.node)
        self.parked[:] = still_parked

    # -- the request plane ----------------------------------------------------
    def dispatch(self, sn: ServiceNode, now: float) -> None:
        sim = self.sim
        config = self.config
        pressure = sn.core.pressure(sn.outstanding_requests, sim.pressure_fallback)
        level = sn.core.dispatch_level(pressure)
        batch = sn.core.form_batch()
        if not batch:
            raise SimulationError("dispatch from an empty queue")
        size = len(batch)
        for request in batch:
            self.owner.pop(request.request_id, None)
        sn.outstanding_requests += size
        candidate_scale = sn.core.ladder.candidate_scale
        top_k_scale = sn.core.ladder.top_k_scale
        batch_id = self.next_batch_id
        state = BatchState(
            batch_id=batch_id,
            service_node=sn.index,
            size=size,
            request_ids=tuple(r.request_id for r in batch),
            level=level,
            dispatch_time=now,
            remaining=config.shards,
        )
        state.merge_cost = sim.merge_time(size, top_k_scale)
        self.batches[batch_id] = state
        if self.collector.enabled:
            self.collector.on_dispatch(
                batch_id,
                sn.index,
                now,
                level,
                state.request_ids,
                tuple(float(self.times[r]) for r in state.request_ids),
            )
        self.counters.batches += 1
        if self.registry.enabled:
            self.registry.counter(
                "cluster_batches_total", "batches dispatched by the fleet"
            ).inc(service_node=sn.index, level=level)
        bytes_back = sim.result_bytes(size, top_k_scale)
        for shard in range(config.shards):
            task = ShardTask(
                task_id=self.next_task_id,
                batch_id=batch_id,
                shard=shard,
                size=size,
                service_node=sn.index,
                exec_time=sim.shard_exec_time(shard, size, candidate_scale),
                bytes_out=size * REQUEST_BYTES,
                bytes_back=bytes_back,
            )
            self.next_task_id += 1
            self.route_task(task, now)
        self.next_batch_id += 1

    def drain(self, sn: ServiceNode, now: float) -> None:
        eager_when_idle = self.config.eager_when_idle
        while sn.core.depth > 0:
            must = sn.core.should_close(now)
            eager = eager_when_idle and self.running_tasks < self.alive_slots
            if not (must or eager):
                break
            self.dispatch(sn, now)

    def pick_service_node(self) -> ServiceNode:
        best: Optional[ServiceNode] = None
        best_key = (0, 0)
        for sn in self.sns:
            if not sn.active:
                continue
            key = (sn.core.pending(sn.outstanding_requests), sn.index)
            if best is None or key < best_key:
                best_key = key
                best = sn
        if best is None:
            raise SimulationError("no active service node to route to")
        return best

    def complete(self, request_id: int, now: float) -> None:
        """Record a finished request's latency for the report and autoscaler."""
        latency = now - float(self.times[request_id])
        self.latencies[request_id] = latency
        self.autoscaler.observe(now, latency > self.config.slo)
        self.counters.completed += 1
        if now > self.last_completion:
            self.last_completion = now

    # -- event handlers, one per kind -----------------------------------------
    def on_task_done(self, now: float, task_id: int) -> None:
        task = self.live.pop(task_id, None)
        if task is None:
            return  # cancelled by a crash edge
        node = self.dns[task.node]
        node.finish(task.task_id, now - task.started_at)
        self.running_tasks -= 1
        self.counters.tasks_done += 1
        if node.pending:
            while node.has_free_slot() and node.pending:
                self.start_on(node, node.pending.popleft(), now)
        else:
            self.try_steal(node, now)
        state = self.batches[task.batch_id]
        sn_rack = self.sns[state.service_node].rack
        cross = node.rack != sn_rack
        result_at = now + self.config.interconnect.transfer_time(task.bytes_back, cross)
        if self.collector.enabled:
            self.collector.on_task_finish(task.task_id, now, result_at)
        if result_at > state.last_result_at:
            state.last_result_at = result_at
        state.remaining -= 1
        if state.remaining == 0:
            merge_end = state.last_result_at + state.merge_cost
            self.kernel.push(merge_end, _KIND_MERGE, state.batch_id)

    def on_merge(self, now: float, batch_id: int) -> None:
        state = self.batches.pop(batch_id)
        sn = self.sns[state.service_node]
        sn.outstanding_requests -= state.size
        for rid in state.request_ids:
            self.complete(rid, now)
            sn.cache.insert(int(self.keys[rid]), now)
        if self.tracer.enabled:
            self.tracer.add_span(
                f"batch{state.batch_id}",
                state.dispatch_time,
                now,
                track=CLUSTER_TRACK,
                attrs={
                    "size": state.size,
                    "level": state.level,
                    "service_node": state.service_node,
                },
            )
        if self.collector.enabled:
            self.collector.on_merge(state.batch_id, now)
        self.drain(sn, now)

    def on_cache_hit(self, now: float, request_id: int) -> None:
        self.counters.cache_hits += 1
        if self.collector.enabled:
            self.collector.on_cache_hit(request_id, float(self.times[request_id]), now)
        self.complete(request_id, now)

    def on_deadline(self, now: float, request_id: int) -> None:
        sn_index = self.owner.get(request_id)
        if sn_index is not None:
            sn = self.sns[sn_index]
            if sn.core.is_waiting(request_id):
                self.drain(sn, now)

    def on_arrival(self, now: float, request_id: int) -> None:
        config = self.config
        arrival_time = float(self.times[request_id])
        sn = self.pick_service_node()
        if sn.cache.lookup(int(self.keys[request_id]), now):
            self.kernel.push(now + config.cache_hit_time, _KIND_CACHE, request_id)
        else:
            request = Request(
                request_id=request_id,
                arrival=arrival_time,
                deadline=arrival_time + config.slo,
            )
            reason = sn.core.offer(request, sn.outstanding_requests, now)
            if self.registry.enabled:
                self.registry.counter(
                    "cluster_requests_total",
                    "requests offered to the fleet",
                ).inc(outcome="shed" if reason else "admitted")
            if reason is not None:
                self.counters.shed += 1
                self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
                if self.collector.enabled:
                    self.collector.on_shed(reason)
                self.autoscaler.observe(now, True)
            else:
                self.owner[request_id] = sn.index
                self.kernel.push(sn.core.close_time(request), _KIND_DEADLINE, request_id)
                self.drain(sn, now)
        if request_id + 1 < len(self.times):
            self.kernel.push(
                float(self.times[request_id + 1]), _KIND_ARRIVAL, request_id + 1
            )

    def on_edge(self, now: float, index: int) -> None:
        _edge_time, edge_kind, edge_payload = self.edges[index]
        if edge_kind == EDGE_NODE_DOWN:
            down = self.dns[int(edge_payload)]
            if down.alive:
                down.alive = False
                self.alive_slots -= down.slots
                lost: List[ShardTask] = []
                for task_id in sorted(down.running):
                    task = down.running[task_id]
                    self.live.pop(task_id, None)
                    self.running_tasks -= 1
                    if task.started_at < now:
                        down.busy_time += now - task.started_at
                    lost.append(task)
                down.running.clear()
                lost.extend(down.pending)
                down.pending.clear()
                for task in lost:
                    self.failover_task(task, now, down.index)
        elif edge_kind == EDGE_NODE_UP:
            up = self.dns[int(edge_payload)]
            # Another crash window may still cover this instant (overlapping
            # windows share one node); stay down and let that window's own
            # up-edge revive the node.
            if not up.alive and self.sim.fault_plan.node_alive(up.index, now):
                up.alive = True
                self.alive_slots += up.slots
                self.retry_parked(now)
                self.try_steal(up, now)
        elif edge_kind == EDGE_PARTITION_START:
            self.severed.add((edge_payload[0], edge_payload[1]))
        elif edge_kind == EDGE_PARTITION_HEAL:
            pair = (edge_payload[0], edge_payload[1])
            # Another window on the same rack pair may still cover this
            # instant; its own heal edge lifts the severance.
            if self.sim.fault_plan.reachable(pair[0], pair[1], now):
                self.severed.discard(pair)
                self.retry_parked(now)

    def on_scale(self, now: float, _payload: int) -> None:
        target = self.autoscaler.decide(now, self.active_count)
        if target > self.active_count:
            for sn in self.sns:
                if not sn.active:
                    sn.active = True
                    break
            self.active_count += 1
            self.counters.scale_ups += 1
        elif target < self.active_count:
            for sn in reversed(self.sns):
                if sn.active:
                    sn.active = False
                    break
            self.active_count -= 1
            self.counters.scale_downs += 1
        self.peak_active = max(self.peak_active, self.active_count)

    # -- end of run -----------------------------------------------------------
    def report(self) -> ClusterReport:
        config = self.config
        counters = self.counters
        num_requests = len(self.times)
        for sn in self.sns:
            sn.core.verify_drained()
            sn.core.admission.verify_conservation()
            if sn.outstanding_requests != 0:
                raise SimulationError(
                    f"service node {sn.index} ended with "
                    f"{sn.outstanding_requests} requests unmerged"
                )
        if self.live or self.batches or self.parked:
            raise SimulationError(
                f"cluster run ended with work left behind: {len(self.live)} "
                f"tasks running, {len(self.batches)} batches open, "
                f"{len(self.parked)} parked"
            )
        if counters.completed + counters.shed != num_requests:
            raise SimulationError(
                f"fleet conservation violated: {counters.completed} completed "
                f"+ {counters.shed} shed != {num_requests} arrived"
            )
        makespan = self.last_completion - float(self.times[0])
        recorder = self.sim.digest_recorder
        if recorder is not None:
            recorder.capture(self.last_completion, kind=-1, **self.snapshot())
        report = ClusterReport(
            config={
                "data_nodes": config.data_nodes,
                "service_nodes": config.service_nodes,
                "shards": config.shards,
                "replicas": config.replicas,
                "racks": config.racks,
                "slots_per_node": config.slots_per_node,
                "seed": self.sim.seed,
            },
            slo=config.slo,
            arrived=num_requests,
            completed=counters.completed,
            shed=counters.shed,
            cache_hits=counters.cache_hits,
            latencies=self.latencies,
            tasks_done=counters.tasks_done,
            steals=counters.steals,
            redispatches=counters.redispatches,
            parked_events=counters.parked,
            parked_time=self.parked_time,
            batches=counters.batches,
            scale_ups=counters.scale_ups,
            scale_downs=counters.scale_downs,
            peak_active_service_nodes=self.peak_active,
            node_busy=[dn.busy_time for dn in self.dns],
            makespan=makespan,
            failover_timeline=self.timeline,
            shard_outages=shard_outage_seconds(self.sim.fault_plan, self.sim.placement),
            shed_by_reason=self.shed_by_reason,
        )
        logger.info(
            "fleet served %d/%d requests (%.1f%% shed, %.1f%% cached) across "
            "%d batches / %d tasks; %d steals, %d redispatches",
            counters.completed,
            num_requests,
            100.0 * report.shed_rate,
            100.0 * report.cache_hit_rate,
            counters.batches,
            counters.tasks_done,
            counters.steals,
            counters.redispatches,
        )
        return report


def build_cluster(
    service: AffineServiceModel,
    config: ClusterConfig,
    seed: int = 0,
    fault_config: Optional[ClusterFaultConfig] = None,
    hot_degrees: Optional[Sequence[float]] = None,
    digest_recorder: Optional[DigestRecorder] = None,
) -> ClusterSimulator:
    """Assemble placement, fault plan, crawlers, and nodes into one fleet."""
    degrees = (
        list(hot_degrees) if hot_degrees is not None else [1.0] * config.shards
    )
    placement = place_replicas(config, degrees)
    plan = ClusterFaultPlan.build(
        fault_config if fault_config is not None else ClusterFaultConfig.disabled(),
        nodes=config.data_nodes,
        racks=config.racks,
    )
    crawlers = CrawlerSchedule(seed, enabled=config.crawlers_enabled)
    return ClusterSimulator(
        service=service,
        config=config,
        placement=placement,
        fault_plan=plan,
        crawlers=crawlers,
        seed=seed,
        digest_recorder=digest_recorder,
    )


def cluster_saturating_rate(
    service: AffineServiceModel, config: ClusterConfig
) -> float:
    """Offered load (queries/s) at which the fleet's task slots saturate.

    Each knee-sized batch occupies ``shards`` slots for one worst-case task
    time; ``total_slots`` slots drain in parallel.  The bench's 1x point.
    """
    placement = place_replicas(config, [1.0] * config.shards)
    crawlers = CrawlerSchedule(0, enabled=config.crawlers_enabled)
    plan = ClusterFaultPlan.build(
        ClusterFaultConfig.disabled(), nodes=config.data_nodes, racks=config.racks
    )
    probe = ClusterSimulator(
        service=service,
        config=config,
        placement=placement,
        fault_plan=plan,
        crawlers=crawlers,
    )
    worst = probe.worst_task_time(service.knee)
    return config.total_slots * service.knee / (config.shards * worst)
