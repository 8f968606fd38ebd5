"""Real peer-to-peer ghost exchange in the multi-GPU pipeline (§VI)."""

import numpy as np
import pytest

from repro.analysis.metrics import displacement_agreement
from repro.core.stitcher import Stitcher
from repro.gpu.device import VirtualGpu
from repro.impls import PipelinedGpu, SimpleCpu
from repro.synth import make_synthetic_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("p2p"), rows=4, cols=6,
        tile_height=64, tile_width=64, overlap=0.25, seed=9,
    )


@pytest.fixture(scope="module")
def reference(dataset):
    return SimpleCpu().run(dataset)


class TestP2pEquivalence:
    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_matches_reference(self, n_gpus, dataset, reference):
        res = PipelinedGpu(devices=n_gpus, p2p=True).run(dataset)
        assert displacement_agreement(
            res.displacements, reference.displacements
        ) == 1.0


class TestP2pStructure:
    def test_no_redundant_reads(self, dataset):
        ghost = PipelinedGpu(devices=3).run(dataset)
        p2p = PipelinedGpu(devices=3, p2p=True).run(dataset)
        assert p2p.stats["reads"] == 24           # one per tile
        assert ghost.stats["reads"] == 24 + 2 * 4  # two duplicated columns
        assert p2p.stats["p2p_copies"] == 2 * 4

    def test_no_redundant_ffts(self, dataset):
        p2p = PipelinedGpu(devices=2, p2p=True).run(dataset)
        assert p2p.stats["ffts"] == 24

    def test_p2p_traffic_traced_on_receiver(self, dataset):
        devs = [VirtualGpu(device_id=i) for i in range(2)]
        PipelinedGpu(devices=devs, p2p=True).run(dataset)
        names1 = {e.name for e in devs[1].profiler.events}
        assert "memcpy-p2p-from-gpu0" in names1
        names0 = {e.name for e in devs[0].profiler.events}
        assert not any(n.startswith("memcpy-p2p") for n in names0)

    def test_ghost_buffers_freed(self, dataset):
        devs = [VirtualGpu(device_id=i) for i in range(2)]
        PipelinedGpu(devices=devs, p2p=True).run(dataset)
        # Only the pools' reservations + scratch remain until destroy;
        # every per-ghost allocation was freed by the bookkeeper.
        for dev in devs:
            # pool reservation (1) + NCC scratch (1) + c2r inverse
            # scratch (1) per pipeline
            assert dev.allocator.live_buffers == 3

    def test_causality_ghost_nccs_after_p2p(self, dataset):
        devs = [VirtualGpu(device_id=i) for i in range(2)]
        PipelinedGpu(devices=devs, p2p=True).run(dataset)
        ev1 = devs[1].profiler.events
        copies = [e for e in ev1 if e.name.startswith("memcpy-p2p")]
        first_ncc = min(e.start for e in ev1 if e.name == "ncc")
        # dev1's west-boundary pairs cannot have been the first NCCs unless
        # a p2p copy completed; at least one copy precedes some NCC work.
        assert copies
        assert min(e.end for e in copies) <= max(
            e.start for e in ev1 if e.name == "ncc"
        )


@pytest.fixture(scope="module")
def strip(tmp_path_factory):
    return make_synthetic_dataset(
        tmp_path_factory.mktemp("strip"), rows=1, cols=4, tile_height=64,
        tile_width=64, overlap=0.3, seed=2,
    )


class TestP2pValidation:
    def test_one_row_grid_splits(self, strip):
        """The first column of a one-row grid owns no pair: the first
        pipeline reads that column itself and ships its own last column
        east, so every tile is read once."""
        ref = Stitcher().stitch(strip)
        res = Stitcher(
            impl="pipelined-gpu", impl_options={"devices": 4, "p2p": True}
        ).stitch(strip)
        assert np.array_equal(res.positions.positions, ref.positions.positions)
        assert res.stats["reads"] == 4
        assert res.stats["p2p_copies"] == 2

    @pytest.mark.parametrize("p2p", [False, True])
    def test_gpus_counts_pipelines_run(self, strip, p2p):
        res = PipelinedGpu(devices=5, p2p=p2p).run(strip)
        assert res.stats["gpus"] == 3  # the first column's range is idle

    def test_single_gpu_p2p_is_noop(self, dataset, reference):
        res = PipelinedGpu(devices=1, p2p=True).run(dataset)
        assert displacement_agreement(
            res.displacements, reference.displacements
        ) == 1.0
        assert "p2p_copies" not in res.stats
