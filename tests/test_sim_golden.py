"""Golden bit-identity pins for the three event loops.

Each pin is a sha256 over a canonical JSON rendering of a small, seeded
run: the serve driver with shedding and the degradation ladder engaged,
and a faulted fleet run with the causal collector and a strict
sim-sanitizer installed.  The digest track, the report JSON and (for the
fleet) the attribution report must all stay byte-identical across any
refactor of the event kernel; the flash simulator's equal-timestamp pop
order is pinned literally.  A change to any hash here means simulated
behaviour changed and needs its own justification.
"""

import hashlib
import json

from repro.cluster import ClusterConfig, build_cluster, cluster_saturating_rate
from repro.faults import ClusterFaultConfig
from repro.obs import DigestRecorder
from repro.obs.causal import CausalCollector
from repro.obs.causal import installed as causal_installed
from repro.serve import (
    AffineServiceModel,
    ServingConfig,
    build_serving_stack,
    saturating_rate,
)
from repro.sim import SimSanitizer
from repro.sim import installed as simsan_installed
from repro.ssd.events import Simulator
from repro.workloads.streams import poisson_arrivals


#: sha256 pins of the seeded runs below.
GOLDEN = {
    "serve_digests": (
        "3bf3ab1a36808f62c7d9ec7cd10dcd388e3b4812e3fcb2efed839ce792ce4fd1"
    ),
    "serve_report": (
        "93c0d8870321db51020a98d69c682346a8072d4b70eee987d30dd667be197d99"
    ),
    "fleet_digests": (
        "c4a2df4e2540fbbc900d3b043bb1dc8265c9c29b493b555d4406326597b4fad7"
    ),
    "fleet_report": (
        "77bfdfb4ebd331fae2647957c8a88ad7206fd8456f39aa443e152893b9e37688"
    ),
    "fleet_attribution": (
        "d4971f1fd707a242b059bbb6cc4cd49a57dfa100ac767890a2258bd1228765e9"
    ),
}


def _sha(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _entries(recorder: DigestRecorder) -> list:
    return [entry.to_dict() for entry in recorder.entries]


SERVE_SERVICE = AffineServiceModel(
    base=2e-4, per_query=1e-4, knee=8, candidate_fraction=0.7
)
SERVE_CONFIG = ServingConfig(slo=0.02, shards=2, replicas=2)

FLEET_SERVICE = AffineServiceModel(base=5e-4, per_query=2e-5, knee=16)
FLEET_CONFIG = ClusterConfig(
    data_nodes=8,
    service_nodes=2,
    shards=4,
    replicas=12,
    racks=2,
    slots_per_node=2,
    slo=0.005,
    autoscale_interval=0.004,
)


def test_serve_run_is_pinned():
    recorder = DigestRecorder(interval=64, label="serve")
    simulator = build_serving_stack(
        SERVE_SERVICE, SERVE_CONFIG, digest_recorder=recorder
    )
    rate = 2.0 * saturating_rate(SERVE_SERVICE, SERVE_CONFIG)
    report = simulator.run(poisson_arrivals(rate, 1500, seed=11))
    assert report.shed_count > 0
    assert report.max_degrade_level >= 1
    assert len(recorder.entries) == 48
    assert _sha(_entries(recorder)) == GOLDEN["serve_digests"]
    assert _sha(report.to_dict()) == GOLDEN["serve_report"]


def test_faulted_fleet_run_is_pinned():
    recorder = DigestRecorder(interval=64, label="fleet")
    faults = ClusterFaultConfig.from_spec(
        "node-crash=2,partition=1", seed=7, horizon=0.02
    )
    simulator = build_cluster(
        FLEET_SERVICE,
        FLEET_CONFIG,
        seed=7,
        fault_config=faults,
        digest_recorder=recorder,
    )
    rate = 1.5 * cluster_saturating_rate(FLEET_SERVICE, FLEET_CONFIG)
    arrivals = poisson_arrivals(rate, 3000, seed=7)
    collector = CausalCollector(seed=7)
    with simsan_installed(SimSanitizer(strict=True)) as sanitizer:
        with causal_installed(collector):
            report = simulator.run(arrivals)
    assert sanitizer.violations == []
    assert sanitizer.pops_observed == 6702
    actions = {event.action for event in report.failover_timeline}
    assert actions == {"park", "redispatch", "unpark"}
    assert report.shed > 0 and report.cache_hits > 0 and report.steals > 0
    assert report.scale_ups > 0 and report.scale_downs > 0
    assert len(recorder.entries) == 105
    assert _sha(_entries(recorder)) == GOLDEN["fleet_digests"]
    assert _sha(report.to_dict()) == GOLDEN["fleet_report"]
    assert _sha(collector.report().to_dict()) == GOLDEN["fleet_attribution"]


def test_flash_simulator_equal_time_pop_order():
    sim = Simulator()
    order = []

    def fire(name, spawn=()):
        def callback():
            order.append((sim.now, name))
            for child, delay in spawn:
                sim.schedule(delay, fire(child))

        return callback

    sim.schedule_at(1.0, fire("a", spawn=[("a0", 0.0), ("a1", 1.0)]))
    sim.schedule_at(2.0, fire("b"))
    sim.schedule_at(1.0, fire("c", spawn=[("c0", 0.0)]))
    sim.schedule_at(0.0, fire("d", spawn=[("d0", 1.0), ("d1", 0.0)]))
    sim.schedule_at(1.0, fire("e"))
    sim.schedule_at(2.0, fire("f"))
    assert sim.run() == 2.0
    assert order == [
        (0.0, "d"),
        (0.0, "d1"),
        (1.0, "a"),
        (1.0, "c"),
        (1.0, "e"),
        (1.0, "d0"),
        (1.0, "a0"),
        (1.0, "c0"),
        (2.0, "b"),
        (2.0, "f"),
        (2.0, "a1"),
    ]
    assert sim.events_processed == len(order)
