"""Outside-in per-layer tracing: wrap the simulator's public boundaries.

:class:`LayerTracer` replaces each function or method named in
:data:`LAYERS` with a wrapper that counts calls and sums host seconds, then
puts the originals back.  Nothing under ``src/`` changes.  Boundaries that
run once per simulated request record a count and a summed duration, never
one span per call, so memory stays flat however many requests a run
replays.

A layer's self time is its host time minus the host time of the wrapped
layers it called; ``self_s`` is reported only for the layers in
:data:`COMPOSITE`, which call other wrapped layers (for a leaf it equals
``host_s``).
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Tuple

#: (metric prefix, module, attribute path).  Attribute paths with a dot are
#: methods, patched on the class; plain names are module functions, patched
#: in every loaded ``repro`` module that imported them by name.
LAYERS: List[Tuple[str, str, str]] = [
    ("workloads.tile_trace", "repro.workloads.traces", "CandidateTraceGenerator.tile_trace"),
    ("workloads.poisson_arrivals", "repro.workloads.streams", "poisson_arrivals"),
    ("layout.build_placement", "repro.layout.placement", "build_placement"),
    ("layout.fine_tune", "repro.layout.learned", "HotnessPredictor.fine_tune"),
    ("core.run_trace", "repro.core.ecssd", "ECSSDevice.run_trace"),
    ("core.pipeline.simulate", "repro.core.pipeline", "TilePipelineModel.simulate"),
    ("core.pipeline.tile_timing", "repro.core.pipeline", "TilePipelineModel.tile_timing"),
    ("baselines.time_for_queries", "repro.baselines.common", "ArchitectureModel.time_for_queries"),
    ("core.batching.sweep", "repro.core.batching", "BatchingAnalyzer.sweep"),
    ("core.event_backend.time_tile", "repro.core.event_backend", "EventBackedTiming.time_tile"),
    ("core.event_backend.deploy_tile", "repro.core.event_backend", "EventBackedTiming.deploy_tile"),
    ("ssd.ftl.write", "repro.ssd.ftl", "FlashTranslationLayer.write"),
    ("ssd.fetch_pages", "repro.ssd.device", "SSDDevice.fetch_pages"),
    ("ssd.controller.submit", "repro.ssd.controller", "FlashController.submit"),
    ("serve.driver.run", "repro.serve.driver", "ServingSimulator.run"),
    ("serve.node.pending", "repro.serve.node", "ServiceNodeCore.pending"),
    ("serve.node.offer", "repro.serve.node", "ServiceNodeCore.offer"),
    ("serve.node.should_close", "repro.serve.node", "ServiceNodeCore.should_close"),
    ("serve.node.form_batch", "repro.serve.node", "ServiceNodeCore.form_batch"),
    ("serve.node.pressure", "repro.serve.node", "ServiceNodeCore.pressure"),
    ("cluster.engine.run", "repro.cluster.engine", "ClusterSimulator.run"),
    ("cluster.cache.lookup", "repro.cluster.cache", "HotLabelCache.lookup"),
    ("cluster.cache.insert", "repro.cluster.cache", "HotLabelCache.insert"),
    ("cluster.autoscale.observe", "repro.cluster.autoscale", "Autoscaler.observe"),
    ("cluster.autoscale.decide", "repro.cluster.autoscale", "Autoscaler.decide"),
    ("cluster.nodes.start", "repro.cluster.nodes", "DataNode.start"),
    ("cluster.nodes.finish", "repro.cluster.nodes", "DataNode.finish"),
    ("cluster.nodes.has_free_slot", "repro.cluster.nodes", "DataNode.has_free_slot"),
    ("faults.plan.slowdown", "repro.faults.plan", "ClusterFaultPlan.slowdown"),
] + [
    (f"obs.causal.{hook}", "repro.obs.causal", f"CausalCollector.{hook}")
    for hook in (
        "on_dispatch", "on_task_route", "on_task_park", "on_task_steal",
        "on_task_redispatch", "on_task_start", "on_task_finish", "on_merge",
        "on_cache_hit", "on_shed", "report",
    )
]

#: Layers that call other wrapped layers, so their self time differs from
#: their host time.  ``bench.execute`` is the root: one whole repetition.
COMPOSITE = (
    "bench.execute",
    "core.run_trace",
    "core.batching.sweep",
    "core.event_backend.time_tile",
    "core.event_backend.deploy_tile",
    "ssd.fetch_pages",
    "serve.driver.run",
    "cluster.engine.run",
    "cluster.nodes.start",
)

#: Work counts read from a layer's result.
_AMOUNTS: Dict[str, Tuple[str, Callable]] = {
    "ssd.fetch_pages": ("pages", lambda result: result.total_pages),
    "ssd.controller.submit": ("commands", lambda result: result.commands),
}


def _tile_trace_key(args, kwargs) -> tuple:
    """Everything a ``tile_trace`` result depends on, as a hashable key."""
    gen, rest = args[0], args[1:]
    return (gen.hotness, gen.candidate_ratio, gen.query_noise, rest,
            tuple(sorted(kwargs.items())))


class LayerTracer:
    """Per-layer call counts and host seconds from patched boundaries."""

    def __init__(self) -> None:
        # name -> [calls, host_s, self_s, amount]
        self.stats: Dict[str, List[float]] = {}
        self.tile_trace_keys: set = set()
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        """Patch every layer in :data:`LAYERS` (imports their modules)."""
        for name, module_name, path in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "repro" and vars(mod).get(path) is original:
                        self._patch(mod, path, wrapper)

    def uninstall(self) -> None:
        """Put every patched original back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.stats.clear()
        self.tile_trace_keys.clear()

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats, stack = self.stats, self._stack
        clock = time.perf_counter
        amount = _AMOUNTS.get(name, (None, None))[1]
        keys = self.tile_trace_keys if name == "workloads.tile_trace" else None

        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(_tile_trace_key(args, kwargs))
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = stats.get(name)
                if row is None:
                    row = stats[name] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - inner
            if amount is not None:
                row[3] += amount(result)
            return result

        return wrapper

    def timed(self, name: str, fn: Callable):
        """Run ``fn()`` as the span ``name`` (used for ``bench.execute``)."""
        return self._wrap(name, fn)()

    def snapshot(self) -> "Snapshot":
        """A copy of the counters so far (see :func:`metrics`)."""
        return ({k: list(v) for k, v in self.stats.items()}, set(self.tile_trace_keys))


Snapshot = Tuple[Dict[str, List[float]], set]


def combine(a: Snapshot, b: Snapshot) -> Snapshot:
    """Counters of two phases taken together (e.g. set-up plus one run)."""
    stats = {k: list(v) for k, v in a[0].items()}
    for name, row in b[0].items():
        acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
        for i, value in enumerate(row):
            acc[i] += value
    return stats, a[1] | b[1]


def metrics(snapshot: Snapshot) -> Dict[str, float]:
    """Flat ``<layer>.{calls,host_s,self_s,<amount>}`` values, zeros for the
    layers a run never entered, plus ``workloads.tile_trace.unique_ratio``:
    distinct argument keys over calls (its base is ``.calls``)."""
    stats, keys = snapshot
    out: Dict[str, float] = {}
    for name in ["bench.execute"] + [name for name, _, _ in LAYERS]:
        calls, host, self_s, amount = stats.get(name, (0, 0.0, 0.0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.host_s"] = host
        if name in COMPOSITE:
            out[f"{name}.self_s"] = self_s
        if name in _AMOUNTS:
            out[f"{name}.{_AMOUNTS[name][0]}"] = amount
    calls = stats.get("workloads.tile_trace", (0,))[0]
    out["workloads.tile_trace.unique_ratio"] = len(keys) / calls if calls else 0.0
    return out
