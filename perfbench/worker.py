"""One benchmark process: set a workload up, run it, print one JSON line.

``run.py`` starts this script in a fresh interpreter per measurement, one at
a time, with ``src`` on ``PYTHONPATH``.  Modes:

``probe``
    Set up once and report ``setup_s``: the CPU seconds the fresh process
    has used by the time the workload is ready, interpreter start included.
``measure``
    Set up (reporting ``setup_s``), run one warm-up repetition and report
    the peak RSS so far, then time at least five repetitions, and more
    while they fit in ``--seconds``, recording each one's CPU and wall
    seconds.  Tracing is off.
``traced``
    Set up, time untraced repetitions for half of ``--seconds``, then set up
    again and run traced repetitions for the other half with every layer in
    :data:`layers.LAYERS` wrapped, and report the per-layer counters of the
    traced set-up plus one traced repetition.
``selftest``
    Show that the repetition check rejects a reused cluster fleet.

Every repetition is checked: it fails if it raises, breaks a workload
invariant, or gives a ``sim_digest`` other than the first repetition's.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

import layers
import workloads

#: Timed repetitions behind every ``cpu_s`` median, however long each takes.
MIN_TIMED_REPS = 5


def host_ref_s() -> float:
    """Host seconds for a fixed pure-Python loop (best of three).

    Not a metric: printed beside the results so readers can compare hosts.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - start)
    return best


class Repetitions:
    """Runs and checks repetitions; the first digest is the reference."""

    def __init__(self, prepared: workloads.Prepared) -> None:
        self.prepared = prepared
        self.digest: Optional[str] = None
        self.attribution: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.cpus: List[float] = []
        self.failures: List[str] = []
        self.outputs: Optional[Dict[str, object]] = None

    def check(self, outputs: Dict[str, object]) -> List[str]:
        """Invariant failures plus a digest mismatch against the reference."""
        bad = list(self.prepared.check(outputs))
        digest = workloads.sim_digest(outputs)
        attribution = outputs.get("_attribution")
        if self.digest is None:
            self.digest, self.attribution = digest, attribution
        elif digest != self.digest:
            bad.append(f"sim_digest {digest} differs from {self.digest}")
        elif attribution != self.attribution:
            bad.append(f"attribution digest {attribution} differs from {self.attribution}")
        return bad

    def run(self, execute) -> float:
        """One checked repetition; returns its wall seconds and records its
        CPU seconds in ``cpus``."""
        self.attempted += 1
        # Every repetition starts from a collected heap, so one repetition's
        # garbage does not bill its collection to the next.
        gc.collect()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            outputs = execute()
        except Exception:  # a failed repetition is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            self.failures.append("repetition raised")
            return time.perf_counter() - start
        self.cpus.append(time.process_time() - cpu_start)
        wall = time.perf_counter() - start
        bad = self.check(outputs)
        self.failed += bool(bad)
        self.failures.extend(bad)
        self.outputs = outputs
        return wall

    def for_seconds(self, execute, seconds: float, at_least: int = 1) -> List[float]:
        """``at_least`` repetitions, then more while the next one, as long
        as the last, still fits in ``seconds``."""
        walls: List[float] = []
        start = time.perf_counter()
        while len(walls) < at_least or time.perf_counter() - start + walls[-1] <= seconds:
            walls.append(self.run(execute))
        return walls

    def result(self) -> Dict[str, object]:
        out = self.outputs or {}
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "sim_digest": self.digest,
            "sim_requests": out.get("arrived", 0),
            "paper_rel_error": (
                workloads.paper_rel_error(out) if "fig8" in out else None
            ),
            "attribution_digest": self.attribution,
        }


def _setup(args) -> workloads.Prepared:
    return workloads.WORKLOADS[args.workload](args.seed)


def probe(args) -> Dict[str, object]:
    _setup(args)
    return {"setup_s": time.process_time()}


def measure(args) -> Dict[str, object]:
    prepared = _setup(args)
    setup_s = time.process_time()
    reps = Repetitions(prepared)
    reps.run(prepared.execute)  # warm-up: lazy imports, allocator growth
    # Peak RSS of a fresh interpreter that has set up and run once; the
    # timed repetitions below do not count towards it.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reps.cpus.clear()
    walls = reps.for_seconds(prepared.execute, args.seconds, at_least=MIN_TIMED_REPS)
    return {"setup_s": setup_s, "peak_rss_mb": rss_kib / 1024.0, "walls": walls,
            "cpus": reps.cpus,
            "host_ref_s": host_ref_s(), "phases": prepared.phases, **reps.result()}


def traced(args) -> Dict[str, object]:
    prepared = _setup(args)
    reps = Repetitions(prepared)
    reps.run(prepared.execute)  # warm-up
    untraced = reps.for_seconds(prepared.execute, args.seconds / 2)

    tracer = layers.LayerTracer()
    tracer.install()
    try:
        # Set up again under tracing so calibration sweeps and arrival
        # generation are attributed; the imports are already paid.
        traced_prepared = _setup(args)
        setup_counts = tracer.snapshot()
        runs: List[Dict[str, float]] = []

        def traced_execute():
            tracer.reset()
            outputs = tracer.timed("bench.execute", traced_prepared.execute)
            runs.append(layers.metrics(layers.combine(setup_counts, tracer.snapshot())))
            return outputs

        traced_walls = reps.for_seconds(traced_execute, args.seconds / 2)
    finally:
        tracer.uninstall()
    if not runs:  # every traced repetition raised; the failures say why
        runs.append(layers.metrics(setup_counts))
    per_layer = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    return {
        "per_layer": per_layer,
        "untraced_wall_s": statistics.median(untraced),
        "traced_wall_s": per_layer["bench.execute.host_s"],
        "traced_reps": len(traced_walls),
        "host_ref_s": host_ref_s(),
        "phases": prepared.phases,
        **reps.result(),
    }


def selftest(args) -> Dict[str, object]:
    """Run one cluster fleet twice: the repetition check must reject it.

    ``ClusterSimulator.run`` keeps service-node, cache and autoscaler state
    between calls, which is why every benchmark repetition builds a fresh
    fleet; a fresh fleet must still match the first run.
    """
    from repro import cli

    simulator, arrivals, *_ = cli._build_cluster_from_args(
        cli.build_parser().parse_args(["cluster", *workloads.CLUSTER_FLAGS])
    )
    fresh = workloads.setup_cluster_faulted(args.seed)
    reused = Repetitions(fresh)
    first = reused.check(workloads._cluster_outputs(simulator.run(arrivals)))
    second = reused.check(workloads._cluster_outputs(simulator.run(arrivals)))
    rebuilt = reused.check(fresh.execute())
    return {
        "first": first,
        "reused_rejected": any("sim_digest" in msg for msg in second),
        "reused": second,
        "fresh_accepted": not rebuilt,
        "fresh": rebuilt,
    }


MODES = {"probe": probe, "measure": measure, "traced": traced, "selftest": selftest}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    result = MODES[args.mode](args)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
