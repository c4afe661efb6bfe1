"""The five benchmark workloads, driven through the simulator's public APIs.

Each workload is a ``setup(seed)`` that returns a :class:`Prepared`: the
``execute`` callable runs one repetition at the workload's stated size and
returns its simulated outputs as a JSON-able dict, and ``check`` lists the
invariants those outputs break (empty when correct).  Everything ``setup``
does -- imports, calibration sweeps, arrival generation -- is what
``setup_s`` measures; everything ``execute`` does is what ``cpu_s``
measures.

Seeds: ``serve_overload`` feeds the benchmark seed into its Poisson arrival
stream.  The other workloads run the inputs their entry points default to,
the same for every benchmark seed: the paper figure drivers pin their
calibrated trace seed (the published ratios ``paper_rel_error`` compares
against are defined at that calibration), ``flash_event`` keeps
``cross_validate``'s calibrated seed, and the cluster workloads use the
``repro cluster`` default seed, because the fleet falls into one of two
operating regimes by seed (README.md).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

SERVE_REQUESTS = 100_000
#: The service model of ``benchmarks/test_microbench.py`` (no calibration
#: sweep: this workload is the serve driver loop alone).
SERVE_SERVICE = dict(base=2.0e-4, per_query=2.0e-5, knee=32, candidate_fraction=0.7)
SERVE_OVERLOAD = 1.5  # x saturating_rate: shedding and the ladder both engage

#: ``repro cluster`` flags of the fleet the cluster workloads replay (no
#: ``--seed``: the CLI default).
CLUSTER_FLAGS = [
    "--nodes", "8", "--replicas", "24", "--requests", "100000",
    "--fault-plan", "node-crash=2,partition=1",
]

FLASH_TILES = 24


@dataclass
class Prepared:
    """A workload made ready by ``setup``."""

    execute: Callable[[], Dict[str, object]]
    check: Callable[[Dict[str, object]], List[str]]
    #: Wall seconds of the setup phases, by name (``import_s`` and, for the
    #: cluster workloads, ``cli_import_s``).
    phases: Dict[str, float]


def sim_digest(outputs: Dict[str, object]) -> str:
    """sha256 of the canonical JSON of a repetition's simulated outputs.

    Keys starting with ``_`` are bench-side annotations, not simulator
    outputs, and are left out.
    """
    payload = {k: v for k, v in outputs.items() if not k.startswith("_")}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _array_digest(values) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def _rel(ours: float, paper: float) -> float:
    return abs(ours / paper - 1.0)


# --- paper_figures ------------------------------------------------------------


def setup_paper_figures(seed: int) -> Prepared:
    del seed  # the figure drivers pin their calibrated trace seed
    t0 = time.perf_counter()
    from repro.analysis import experiments

    phases = {"import_s": time.perf_counter() - t0}

    def execute() -> Dict[str, object]:
        fig8 = experiments.fig8_breakdown(queries=32, sample_tiles=10)
        fig12 = experiments.fig12_interleaving(queries=32, sample_tiles=10)
        fig13 = experiments.fig13_end_to_end(queries=8, sample_tiles=10)
        return {
            "fig8": [
                [s.label, s.time, s.speedup_vs_baseline, s.fp32_utilization,
                 s.paper_speedup, s.paper_utilization]
                for s in fig8
            ],
            "fig12": [
                [r.benchmark, r.times["sequential"], r.times["uniform"],
                 r.times["learned"]]
                for r in fig12
            ],
            "fig12_paper": [
                experiments.FIG12_PAPER["learned_vs_uniform"],
                experiments.FIG12_PAPER["learned_vs_sequential"],
            ],
            "fig13": [
                [r.architecture, sorted(r.per_benchmark_time.items()),
                 r.mean_slowdown_vs_ecssd, r.paper_slowdown]
                for r in fig13
            ],
        }

    return Prepared(execute, check_paper_figures, phases)


def _fig12_averages(out: Dict[str, object]):
    rows = out["fig12"]
    lu = sum(uni / learned for _, _, uni, learned in rows) / len(rows)
    ls = sum(seq / learned for _, seq, _, learned in rows) / len(rows)
    return lu, ls


def paper_rel_error(out: Dict[str, object]) -> float:
    """Mean |ours/paper - 1| over the published ratios the drivers carry.

    Fig. 8 speedups (the baseline's 1.0 is its own normaliser and is left
    out) and utilizations, the two Fig. 12 averages, and the eight Fig. 13
    slowdowns.
    """
    errors = []
    for _, _, speedup, util, paper_speedup, paper_util in out["fig8"]:
        if paper_speedup is not None and paper_speedup != 1.0:
            errors.append(_rel(speedup, paper_speedup))
        if paper_util is not None:
            errors.append(_rel(util, paper_util))
    for ours, paper in zip(_fig12_averages(out), out["fig12_paper"]):
        errors.append(_rel(ours, paper))
    for arch, _, slowdown, paper in out["fig13"]:
        if arch != "ECSSD":
            errors.append(_rel(slowdown, paper))
    return sum(errors) / len(errors)


def check_paper_figures(out: Dict[str, object]) -> List[str]:
    """The shape assertions of the Fig. 8 / 12 / 13 benches."""
    bad: List[str] = []
    speedups = [row[2] for row in out["fig8"]]
    utils = [row[3] for row in out["fig8"]]
    if speedups != sorted(speedups) or utils != sorted(utils):
        bad.append("fig8: speedup/utilization not monotone across steps")
    if not utils[0] < 0.12:
        bad.append(f"fig8: baseline utilization {utils[0]:.3f} >= 0.12")
    if not 2.5 <= speedups[1] <= 6.0:
        bad.append(f"fig8: uniform-interleaving speedup {speedups[1]:.2f} off band")
    if not 7.0 <= speedups[-1] <= 15.0:
        bad.append(f"fig8: final speedup {speedups[-1]:.2f} off band")
    if not utils[-1] >= 0.85:
        bad.append(f"fig8: final utilization {utils[-1]:.3f} < 0.85")

    for name, seq, uni, learned in out["fig12"]:
        if not learned < uni < seq:
            bad.append(f"fig12: {name} strategies out of order")
    lu, ls = _fig12_averages(out)
    if not 1.1 <= lu <= 2.0 or not 4.5 <= ls <= 11.0:
        bad.append(f"fig12: averages {lu:.2f}x / {ls:.2f}x off band")

    rows = out["fig13"]
    if rows[0][0] != "ECSSD":
        bad.append("fig13: first row is not ECSSD")
    baselines = rows[1:]
    slowdowns = [row[2] for row in baselines]
    if slowdowns != sorted(slowdowns, reverse=True):
        bad.append("fig13: baseline slowdowns out of paper order")
    expected = ["CPU-N", "SmartSSD-N", "GenStore-N", "SmartSSD-H-N",
                "CPU-AP", "SmartSSD-AP", "GenStore-AP", "SmartSSD-H-AP"]
    if [row[0] for row in baselines] != expected:
        bad.append("fig13: baseline architectures out of paper order")
    for arch, _, slowdown, paper in baselines:
        if not 0.5 <= slowdown / paper <= 2.0:
            bad.append(f"fig13: {arch} slowdown {slowdown:.2f}x not within 2x of paper")
    if not (slowdowns[0] > 30 and slowdowns[-1] > 2):
        bad.append("fig13: headline slowdown range off")
    return bad


# --- flash_event --------------------------------------------------------------


def setup_flash_event(seed: int) -> Prepared:
    # cross_validate keeps its calibrated hotness seed: at 24 tiles the two
    # backends rank the strategies differently for some seeds (README.md).
    del seed
    t0 = time.perf_counter()
    from repro.analysis.validation import cross_validate

    phases = {"import_s": time.perf_counter() - t0}

    def execute() -> Dict[str, object]:
        report = cross_validate(tiles=FLASH_TILES)
        return {
            "rows": [[r.strategy, r.analytic_flash, r.event_flash] for r in report.rows],
            "envelope": list(report.envelope),
            "within_envelope": report.within_envelope(),
            "ordering_agrees": report.ordering_agrees(),
        }

    return Prepared(execute, check_flash_event, phases)


def check_flash_event(out: Dict[str, object]) -> List[str]:
    """Event/analytic envelope and strategy ordering (ValidationReport)."""
    bad: List[str] = []
    lo, hi = out["envelope"]
    for strategy, analytic, event in out["rows"]:
        ratio = event / analytic
        if not lo <= ratio <= hi:
            bad.append(f"flash: {strategy} event/analytic {ratio:.3f} outside [{lo}, {hi}]")
    if not out["ordering_agrees"]:
        bad.append("flash: event and analytic backends rank strategies differently")
    return bad


# --- serve_overload -----------------------------------------------------------


def setup_serve_overload(seed: int) -> Prepared:
    t0 = time.perf_counter()
    from repro.serve import (
        AffineServiceModel,
        ServingConfig,
        build_serving_stack,
        saturating_rate,
    )
    from repro.workloads.streams import poisson_arrivals

    phases = {"import_s": time.perf_counter() - t0}
    service = AffineServiceModel(**SERVE_SERVICE)
    config = ServingConfig(slo=0.02, shards=2, replicas=1)
    rate = SERVE_OVERLOAD * saturating_rate(service, config)
    arrivals = poisson_arrivals(rate, SERVE_REQUESTS, seed=seed)

    def execute() -> Dict[str, object]:
        # A fresh stack per repetition: admission, ladder and batcher state
        # persist across ServingSimulator.run calls.
        report = build_serving_stack(service, config).run(arrivals)
        return {
            "arrived": report.arrived,
            "admitted": report.admitted,
            "shed": report.shed_count,
            "latencies": _array_digest(report.latencies()),
            "report": report.to_dict(),
        }

    return Prepared(execute, check_serve_overload, phases)


def check_serve_overload(out: Dict[str, object]) -> List[str]:
    bad: List[str] = []
    if out["admitted"] + out["shed"] != out["arrived"]:
        bad.append(f"serve: admitted {out['admitted']} + shed {out['shed']} "
                   f"!= arrived {out['arrived']}")
    if out["arrived"] != SERVE_REQUESTS:
        bad.append(f"serve: {out['arrived']} arrived, expected {SERVE_REQUESTS}")
    if out["shed"] <= 0:
        bad.append(f"serve: nothing shed at {SERVE_OVERLOAD}x saturation")
    return bad


# --- cluster_faulted / cluster_attributed -------------------------------------


def _setup_cluster(attributed: bool) -> Prepared:
    t0 = time.perf_counter()
    from repro import cli

    cli_import_s = time.perf_counter() - t0
    from repro.cluster import build_cluster
    from repro.obs.causal import CausalCollector, installed

    phases = {"import_s": time.perf_counter() - t0, "cli_import_s": cli_import_s}
    args = cli.build_parser().parse_args(["cluster", *CLUSTER_FLAGS])
    seed = args.seed
    # The CLI's own builder: calibration sweep, placement, fault plan and
    # Poisson arrivals at the fleet's saturating rate.
    built, arrivals, _, _, service, fault_config = cli._build_cluster_from_args(args)
    config, degrees = built.config, list(built.placement.hot_degrees)

    def execute() -> Dict[str, object]:
        # ClusterSimulator.run keeps service-node, cache and autoscaler state
        # between calls, so every repetition gets a fleet of its own.
        simulator = build_cluster(
            service, config, seed=seed, fault_config=fault_config, hot_degrees=degrees
        )
        if not attributed:
            return _cluster_outputs(simulator.run(arrivals))
        collector = CausalCollector(seed=seed)
        with installed(collector):
            report = simulator.run(arrivals)
        out = _cluster_outputs(report)
        attribution = collector.report().to_dict()
        out["_attribution"] = hashlib.sha256(
            json.dumps(attribution, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]
        return out

    return Prepared(execute, check_cluster, phases)


def _cluster_outputs(report) -> Dict[str, object]:
    summary = report.to_dict()
    return {
        "arrived": report.arrived,
        "completed": report.completed,
        "shed": report.shed,
        "latencies": _array_digest(report.latencies),
        "report": summary,
    }


def check_cluster(out: Dict[str, object]) -> List[str]:
    if out["completed"] + out["shed"] != out["arrived"]:
        return [f"cluster: completed {out['completed']} + shed {out['shed']} "
                f"!= arrived {out['arrived']}"]
    return []


def setup_cluster_faulted(seed: int) -> Prepared:
    del seed  # the CLI's default fleet seed (module docstring)
    return _setup_cluster(attributed=False)


def setup_cluster_attributed(seed: int) -> Prepared:
    del seed
    return _setup_cluster(attributed=True)


WORKLOADS: Dict[str, Callable[[int], Prepared]] = {
    "paper_figures": setup_paper_figures,
    "flash_event": setup_flash_event,
    "serve_overload": setup_serve_overload,
    "cluster_faulted": setup_cluster_faulted,
    "cluster_attributed": setup_cluster_attributed,
}
