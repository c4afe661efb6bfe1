"""Tests for the event-simulated tile timing backend (DESIGN.md §5)."""

import numpy as np
import pytest

from repro.cfp32.circuits import MacDesign
from repro.config import ECSSDConfig
from repro.core.event_backend import INT4_REGION_PAGE, EventBackedTiming
from repro.core.pipeline import PipelineFeatures, TilePipelineModel, TileWorkload
from repro.errors import ConfigurationError
from repro.layout.learned import HotnessPredictor, LearnedInterleaving
from repro.layout.placement import build_placement
from repro.layout.uniform import UniformInterleaving
from repro.workloads.traces import CandidateTraceGenerator, LabelHotnessModel

TILE = 2048
CHANNELS = 8


@pytest.fixture(scope="module")
def generator():
    hotness = LabelHotnessModel(num_labels=TILE * 4, run_length=1, seed=3)
    return CandidateTraceGenerator(hotness, candidate_ratio=0.1, query_noise=0.05)


def make_placement(generator, tile_index, learned=True):
    if learned:
        abs_sums = generator.predictor_abs_sums(tile_index, TILE, fidelity=0.9)
        predictor = HotnessPredictor(abs_sums)
        train = generator.tile_trace(tile_index, TILE, num_queries=200, seed=1)
        predictor.fine_tune(train.selection_frequency(), observations=200)
        strategy = LearnedInterleaving(predictor)
    else:
        strategy = UniformInterleaving()
    return build_placement(strategy, TILE, CHANNELS, 4096, 4096, tile_vectors=TILE)


def candidates_for(generator, tile_index):
    trace = generator.tile_trace(tile_index, TILE, num_queries=8, seed=7)
    return np.unique(np.concatenate(trace.candidates))


class TestEventTileTiming:
    def test_balanced_placement_faster_than_skewed(self, generator):
        learned = make_placement(generator, 0, learned=True)
        uniform = make_placement(generator, 0, learned=False)
        candidates = candidates_for(generator, 0)
        backend_a = EventBackedTiming()
        backend_b = EventBackedTiming()
        t_learned = backend_a.time_tile(
            learned, candidates, 0, batch=8, shrunk_dim=256,
            hidden_dim=1024, int4_bytes=TILE * 128,
        )
        t_uniform = backend_b.time_tile(
            uniform, candidates, 0, batch=8, shrunk_dim=256,
            hidden_dim=1024, int4_bytes=TILE * 128,
        )
        assert t_learned.flash_makespan < t_uniform.flash_makespan

    def test_page_counts_match_placement(self, generator):
        placement = make_placement(generator, 1)
        candidates = candidates_for(generator, 1)
        backend = EventBackedTiming()
        timing = backend.time_tile(
            placement, candidates, 0, batch=8, shrunk_dim=256,
            hidden_dim=1024, int4_bytes=TILE * 128,
        )
        np.testing.assert_array_equal(
            timing.pages_per_channel, placement.pages_per_channel(candidates)
        )

    def test_homogeneous_slower_than_heterogeneous(self, generator):
        placement = make_placement(generator, 2)
        candidates = candidates_for(generator, 2)
        hetero = EventBackedTiming(features=PipelineFeatures.full())
        homo = EventBackedTiming(
            features=PipelineFeatures(
                mac_design=MacDesign.ALIGNMENT_FREE,
                heterogeneous=False,
                overlap=True,
            )
        )
        t_het = hetero.time_tile(
            placement, candidates, 0, batch=8, shrunk_dim=256,
            hidden_dim=1024, int4_bytes=TILE * 128,
        )
        t_hom = homo.time_tile(
            placement, candidates, 0, batch=8, shrunk_dim=256,
            hidden_dim=1024, int4_bytes=TILE * 128,
        )
        assert t_hom.flash_makespan > t_het.flash_makespan

    def test_validation(self, generator):
        backend = EventBackedTiming()
        placement = make_placement(generator, 0)
        with pytest.raises(ConfigurationError):
            backend.time_tile(
                placement, np.array([0]), 0, batch=0, shrunk_dim=256,
                hidden_dim=1024, int4_bytes=128,
            )
        with pytest.raises(ConfigurationError):
            backend.run([], [], 8, 256, 1024, 128)
        with pytest.raises(ConfigurationError):
            backend.run([placement], [], 8, 256, 1024, 128)


HOMOGENEOUS = PipelineFeatures(
    mac_design=MacDesign.ALIGNMENT_FREE, heterogeneous=False, overlap=True
)


class TestTileRegions:
    """Tiles must not share logical pages, silently or otherwise."""

    def run_two(self, generator, backend, tile_spacing):
        placements = [make_placement(generator, t, learned=False) for t in range(2)]
        candidate_sets = [candidates_for(generator, t) for t in range(2)]
        return backend.run(
            placements, candidate_sets, batch=8, shrunk_dim=256,
            hidden_dim=1024, int4_bytes=TILE * 128, tile_spacing=tile_spacing,
        )

    def test_spacing_below_tile_pages_rejected(self, generator):
        # 2048 one-page vectors over 8 channels: 256 pages per channel.
        backend = EventBackedTiming()
        with pytest.raises(ConfigurationError, match="tile 0 needs 256 pages per channel"):
            self.run_two(generator, backend, tile_spacing=16)
        assert backend.device.ftl.pages_written == 0

    def test_spacing_equal_to_tile_pages_writes_every_page(self, generator):
        backend = EventBackedTiming()
        self.run_two(generator, backend, tile_spacing=256)
        assert backend.device.ftl.pages_written == 2 * TILE

    def test_homogeneous_int4_pages_count_against_spacing(self, generator):
        # 4096 INT4 pages are 512 per channel, more than the 256 FP32 pages:
        # they decide whether consecutive tiles' INT4 regions overlap.
        backend = EventBackedTiming(features=HOMOGENEOUS)
        placements = [make_placement(generator, 0, learned=False)] * 2
        with pytest.raises(ConfigurationError, match="needs 512 pages per channel"):
            backend.run(
                placements, [np.array([0])] * 2, batch=8, shrunk_dim=256,
                hidden_dim=1024, int4_bytes=TILE * 8192, tile_spacing=300,
            )

    def test_fp32_pages_reaching_int4_region_rejected(self, generator):
        placement = make_placement(generator, 0, learned=False)
        candidates = candidates_for(generator, 0)
        backend = EventBackedTiming(features=HOMOGENEOUS)
        kwargs = dict(batch=8, shrunk_dim=256, hidden_dim=1024, int4_bytes=TILE * 128)
        with pytest.raises(ConfigurationError, match="reaches the INT4 region"):
            backend.time_tile(placement, candidates, INT4_REGION_PAGE - 255, **kwargs)
        assert backend.device.ftl.pages_written == 0
        # The last base whose 256 pages end just below the region is fine.
        backend.time_tile(placement, candidates, INT4_REGION_PAGE - 256, **kwargs)


class TestBackendAgreement:
    def test_event_within_envelope_of_analytic(self, generator):
        """The two timing levels agree within the documented 2.2x envelope
        (sense serialization + firmware overhead on the event side)."""
        analytic = TilePipelineModel(features=PipelineFeatures.full())
        backend = EventBackedTiming()
        placements = [make_placement(generator, t) for t in range(3)]
        candidate_sets = [candidates_for(generator, t) for t in range(3)]
        event = backend.run(
            placements, candidate_sets, batch=8, shrunk_dim=256,
            hidden_dim=1024, int4_bytes=TILE * 128,
        )
        tiles = [
            TileWorkload(
                tile_vectors=TILE,
                shrunk_dim=256,
                hidden_dim=1024,
                batch=8,
                candidates=len(c),
                fp32_pages_per_channel=p.pages_per_channel(c),
                int4_bytes=TILE * 128,
            )
            for p, c in zip(placements, candidate_sets)
        ]
        # Each event-backed tile re-pays the initial sense (channels reset
        # between tiles), so the fair analytic comparison adds one tR/tile.
        tr = ECSSDConfig().flash.read_latency
        analytic_flash = sum(
            t.fp32_fetch + tr for t in map(analytic.tile_timing, tiles)
        )
        ratio = event.flash_time_total / analytic_flash
        assert 0.8 <= ratio <= 2.2

    def test_ordering_preserved_across_backends(self, generator):
        """Learned < uniform under BOTH the analytic and the event model."""
        analytic = TilePipelineModel(features=PipelineFeatures.full())
        times = {}
        for learned in (True, False):
            placement = make_placement(generator, 0, learned=learned)
            candidates = candidates_for(generator, 0)
            backend = EventBackedTiming()
            event = backend.time_tile(
                placement, candidates, 0, batch=8, shrunk_dim=256,
                hidden_dim=1024, int4_bytes=TILE * 128,
            )
            tile = TileWorkload(
                tile_vectors=TILE, shrunk_dim=256, hidden_dim=1024, batch=8,
                candidates=len(candidates),
                fp32_pages_per_channel=placement.pages_per_channel(candidates),
                int4_bytes=TILE * 128,
            )
            times[learned] = (
                event.flash_makespan,
                analytic.tile_timing(tile).fp32_fetch,
            )
        assert times[True][0] < times[False][0]  # event backend
        assert times[True][1] < times[False][1]  # analytic backend
