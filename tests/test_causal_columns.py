"""Differential tests of the columnar causal collector on generated hook streams.

Hypothesis generates interleaved streams of batch lifecycles (1-4 shard
tasks each, with park, steal, redispatch and slowed tasks), cache hits,
serve completions, sheds and ECC events.  Each stream is checked three ways:

* every rebuilt :class:`RequestTrace` matches the generated timestamps, the
  critical-task choice and the fault-class precedence;
* ``report().to_dict()`` equals a brute-force oracle computed here from
  ``traces()`` — ``np.percentile`` per stage, a full sort for the slowest
  K, and a scalar Algorithm-R reservoir — bit for bit;
* the collector's one vectorized reservoir draw equals sequential scalar
  ``integers(0, i + 1)`` draws, so a numpy upgrade that changes either
  stream fails here instead of silently moving the exemplars.
"""

import math
import random
from typing import Dict, List

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.obs.causal import (
    _EXEMPLAR_SALT,
    _QUANTILES,
    FAULT_CLASSES,
    STAGES,
    CausalCollector,
)

# A dyadic grid makes sums exact, so equal latencies (tie-breaks) are common;
# the float branch exercises rounding inside the conservation tolerance.
DURATION = st.one_of(
    st.sampled_from([0.0, 0.0078125, 0.015625, 0.03125, 0.0625]),
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
)
TASK = st.fixed_dictionaries({
    "failover": DURATION,
    "fanout": DURATION,
    "slot_wait": DURATION,
    "exec_time": DURATION,
    "slow": st.sampled_from([1.0, 1.0, 1.5, 3.0]),
    "result": DURATION,
    "parked": st.booleans(),
    "stolen": st.booleans(),
    "redispatched": st.booleans(),
})
BATCH = st.fixed_dictionaries({
    "waits": st.lists(DURATION, min_size=1, max_size=4),
    # Copies of one task tie on result time: the smaller task id must win.
    "tasks": st.one_of(
        st.lists(TASK, min_size=1, max_size=4),
        TASK.flatmap(lambda task: st.lists(st.just(task), min_size=2, max_size=4)),
    ),
    "merge": DURATION,
    "level": st.integers(0, 3),
})
CACHE = st.fixed_dictionaries({"latency": DURATION})
SERVE = st.fixed_dictionaries({
    "wait": DURATION, "service": DURATION, "level": st.integers(0, 3)
})
EVENT = st.one_of(
    st.tuples(st.just("batch"), BATCH),
    st.tuples(st.just("cache"), CACHE),
    st.tuples(st.just("serve"), SERVE),
    st.tuples(st.just("shed"), st.sampled_from(["queue_depth", "token_bucket"])),
    st.tuples(st.just("ecc"), st.sampled_from(["fast", "slow"])),
)


def build_stream(events, origin: float, rng: random.Random):
    """Hook calls for ``events``, randomly interleaved, plus the expectation.

    Returns ``(calls, expected)``: ``calls`` are ``(hook, args)`` pairs in
    the order to replay them; ``expected`` maps request id to its kind,
    boundary timestamps and (for batches) critical task and fault class.
    """
    request_ids = list(range(sum(
        len(spec["waits"]) if kind == "batch" else kind in ("cache", "serve")
        for kind, spec in events
    )))
    rng.shuffle(request_ids)  # completion order != id order: ties matter
    next_id = iter(request_ids)
    queues: List[List[tuple]] = []
    expected: Dict[int, dict] = {}
    task_id = 0
    for batch_id, (kind, spec) in enumerate(events):
        start = origin + 0.25 * batch_id
        if kind == "cache":
            rid = next(next_id)
            completion = start + spec["latency"]
            queues.append([("on_cache_hit", (rid, start, completion))])
            expected[rid] = {"kind": "cache", "times": [start, completion]}
        elif kind == "serve":
            rid = next(next_id)
            dispatch = start + spec["wait"]
            completion = dispatch + spec["service"]
            queues.append([(
                "on_serve_complete",
                (rid, start, dispatch, completion, spec["level"]),
            )])
            expected[rid] = {
                "kind": "serve", "times": [start, dispatch, completion],
                "level": spec["level"],
            }
        elif kind == "shed":
            queues.append([("on_shed", (spec,))])
        elif kind == "ecc":
            queues.append([("on_ecc", (spec, 1e-6, 2))])
        else:
            waits = spec["waits"]
            dispatch = start + max(waits)
            rids = [next(next_id) for _ in waits]
            arrivals = [dispatch - wait for wait in waits]
            calls = [(
                "on_dispatch",
                (batch_id, batch_id % 3, dispatch, spec["level"], rids, arrivals),
            )]
            tasks = []
            for shard, task in enumerate(spec["tasks"]):
                route = dispatch + task["failover"]
                ready = route + task["fanout"]
                begin = ready + task["slot_wait"]
                end = begin + task["exec_time"] * task["slow"]
                result = end + task["result"]
                node = (shard + batch_id) % 8
                if task["parked"]:
                    calls.append(("on_task_park", (task_id, batch_id, shard)))
                # A stolen or redispatched task is first routed elsewhere.
                if task["stolen"] or task["redispatched"]:
                    calls.append((
                        "on_task_route",
                        (task_id, batch_id, shard, 1.0, dispatch, dispatch, 99),
                    ))
                if task["stolen"]:
                    calls.append(("on_task_steal", (task_id,)))
                if task["redispatched"]:
                    calls.append(("on_task_redispatch", (task_id,)))
                calls += [
                    ("on_task_route", (task_id, batch_id, shard,
                                       task["exec_time"], route, ready, node)),
                    ("on_task_start", (task_id, begin, end, task["exec_time"])),
                    ("on_task_finish", (task_id, end, result)),
                ]
                tasks.append((result, -task_id, task, shard, node, task_id,
                              [route, ready, begin, begin + task["exec_time"],
                               end, result]))
                task_id += 1
            result, _, task, shard, node, critical_id, times = max(
                tasks, key=lambda entry: entry[:2]
            )
            completion = result + spec["merge"]
            calls.append(("on_merge", (batch_id, completion)))
            queues.append(calls)
            if task["parked"]:
                fault = "parked"
            elif task["redispatched"]:
                fault = "redispatched"
            elif task["stolen"]:
                fault = "stolen"
            elif (times[4] - times[2]) - task["exec_time"] > 1e-9:
                fault = "slowed"
            else:
                fault = "clean"
            for rid, arrival in zip(rids, arrivals):
                expected[rid] = {
                    "kind": "batch",
                    "times": [arrival, dispatch, *times, completion],
                    "fault_class": fault,
                    "ids": (batch_id, batch_id % 3, shard, critical_id, node,
                            spec["level"]),
                }
    calls = []
    while queues:
        queue = queues[rng.randrange(len(queues))]
        calls.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return calls, expected


def replay(calls, **kwargs) -> CausalCollector:
    collector = CausalCollector(**kwargs)
    for hook, args in calls:
        getattr(collector, hook)(*args)
    return collector


def quantile_block(values) -> Dict[str, float]:
    values = np.asarray(values, dtype=np.float64)
    block = {label: float(np.percentile(values, q)) for label, q in _QUANTILES}
    block["mean_s"] = float(values.mean())
    block["max_s"] = float(values.max())
    return block


def oracle(collector: CausalCollector) -> Dict[str, object]:
    """The report, brute force, from the collector's rebuilt traces."""
    traces = collector.traces()
    ecc = {
        "tiers": dict(sorted(collector.ecc_tiers.items())),
        "retries": collector.ecc_retries,
        "extra_latency_s": collector.ecc_extra_latency,
    }
    head = {
        "completed": len(traces),
        "cache_hits": sum(trace.kind == "cache" for trace in traces),
        "seed": collector.seed,
        "shed": dict(sorted(collector.shed_by_reason.items())),
        "ecc": ecc,
    }
    if not traces:
        return {**head, "latency": {}, "stages": {}, "tail": {},
                "fault_classes": {},
                "exemplars": {"slowest": [], "sampled": []}}
    latencies = np.asarray([trace.latency for trace in traces])
    samples = {
        name: np.asarray([trace.stage_map().get(name, 0.0) for trace in traces])
        for name in STAGES
    }
    total = float(latencies.sum())
    stages = {}
    for name in STAGES:
        block = quantile_block(samples[name])
        block["total_s"] = float(samples[name].sum())
        block["share"] = block["total_s"] / total if total > 0.0 else 0.0
        stages[name] = block
    threshold = float(np.percentile(latencies, 99.0))
    mask = latencies >= threshold
    tail_total = float(latencies[mask].sum())
    tail_stages = {}
    for name in STAGES:
        stage_tail = float(samples[name][mask].sum())
        tail_stages[name] = {
            "total_s": stage_tail,
            "share": stage_tail / tail_total if tail_total > 0.0 else 0.0,
        }
    classes = np.asarray([trace.fault_class for trace in traces])
    fault_classes = {}
    for name in FAULT_CLASSES:
        class_mask = classes == name
        if class_mask.any():
            block = quantile_block(latencies[class_mask])
            block["count"] = float(class_mask.sum())
            block["share"] = int(class_mask.sum()) / len(traces)
            block["tail_count"] = float((class_mask & mask).sum())
            fault_classes[name] = block
    slowest = sorted(traces, key=lambda t: (-t.latency, t.request_id))
    slowest = slowest[: collector.slowest_k]
    rng = np.random.default_rng((collector.seed, _EXEMPLAR_SALT))
    reservoir = []
    for index, trace in enumerate(traces):  # Algorithm R, one draw per offer
        if len(reservoir) < collector.sample_size:
            reservoir.append((index, trace))
        else:
            slot = int(rng.integers(0, index + 1))
            if slot < collector.sample_size:
                reservoir[slot] = (index, trace)
    slow_ids = {trace.request_id for trace in slowest}
    sampled = [trace for _, trace in sorted(reservoir, key=lambda e: e[0])
               if trace.request_id not in slow_ids]
    return {
        **head,
        "latency": quantile_block(latencies),
        "stages": stages,
        "tail": {"threshold_s": threshold, "count": int(mask.sum()),
                 "stages": tail_stages},
        "fault_classes": fault_classes,
        "exemplars": {"slowest": [t.to_dict() for t in slowest],
                      "sampled": [t.to_dict() for t in sampled]},
    }


@st.composite
def streams(draw):
    events = draw(st.lists(EVENT, min_size=0, max_size=12))
    origin = draw(st.sampled_from([0.0, 1.5, 1234.5678]))
    calls, expected = build_stream(events, origin, draw(st.randoms()))
    # Sample size below, equal to, and above the completed count.
    size = max(0, len(expected) + draw(st.sampled_from([-3, -1, 0, 1, 5])))
    return calls, expected, size


class TestColumnarCollector:
    @given(streams(), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_report_matches_brute_force_oracle(self, stream, slowest_k, seed):
        calls, expected, sample_size = stream
        collector = replay(
            calls, slowest_k=slowest_k, sample_size=sample_size, seed=seed
        )
        assert collector.completed == len(expected)
        assert collector.report().to_dict() == oracle(collector)

    @given(streams())
    @settings(max_examples=150, deadline=None)
    def test_traces_match_the_generated_stream(self, stream):
        calls, expected, _ = stream
        collector = replay(calls)
        traces = collector.traces()
        assert sorted(trace.request_id for trace in traces) == sorted(expected)
        for trace in traces:
            want = expected[trace.request_id]
            assert trace.kind == want["kind"]
            assert [value for _, value in trace.boundaries] == want["times"]
            assert [value for _, value in trace.stages] == [
                b - a for a, b in zip(want["times"], want["times"][1:])
            ]
            total = math.fsum(value for _, value in trace.stages)
            assert total == trace.latency or math.isclose(
                total, trace.latency, rel_tol=1e-9, abs_tol=1e-12
            )
            if want["kind"] == "batch":
                assert trace.fault_class == want["fault_class"]
                assert (trace.batch_id, trace.service_node, trace.shard,
                        trace.task_id, trace.data_node,
                        trace.level) == want["ids"]
            else:
                assert trace.fault_class == "clean"
                assert trace.level == want.get("level", 0)
            assert collector.trace(trace.request_id) == trace
        assert collector.trace(len(expected)) is None

    @given(
        st.integers(0, 2**63 - 1),
        st.integers(1, 64),
        st.integers(0, 4000),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_reservoir_draws_equal_scalar_draws(
        self, seed, sample_size, extra
    ):
        offered = sample_size + extra
        rng = np.random.default_rng((seed, _EXEMPLAR_SALT))
        scalar = [int(rng.integers(0, i + 1)) for i in range(sample_size, offered)]
        rng = np.random.default_rng((seed, _EXEMPLAR_SALT))
        vector = rng.integers(0, np.arange(sample_size + 1, offered + 1))
        assert vector.tolist() == scalar
