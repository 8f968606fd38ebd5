"""Architectural claims from the paper, verified by instrumentation.

The paper's performance story rests on structural properties (transform
reuse, O(1) D2H traffic, stream counts, bounded pools).  These tests pin
them on the real implementations -- if a refactor silently reintroduces,
say, per-pair FFT recomputation, these fail even though outputs stay right.
"""

import numpy as np
import pytest

from repro.analysis.opcounts import OperationCounts
from repro.faults import ErrorPolicy
from repro.faults.plan import Fault, FaultKind, FaultPlan
from repro.faults.report import FaultReport
from repro.grid.traversal import Traversal, default_pool_size
from repro.impls import (
    FijiBaseline,
    MtCpu,
    PipelinedCpu,
    PipelinedGpu,
    SimpleCpu,
    SimpleGpu,
)
from repro.synth import make_synthetic_dataset

#: The presets that split the grid, by name: ``n`` column partitions.
SPMD = {
    "mt-cpu": lambda n, **kw: MtCpu(workers=n, **kw),
    "pipelined-cpu": lambda n, **kw: PipelinedCpu(partitions=n, **kw),
}


@pytest.fixture(scope="module")
def grids(tmp_path_factory, dataset_4x4, dataset_3x5):
    root = tmp_path_factory.mktemp("spmd")
    out = {(4, 4): dataset_4x4, (3, 5): dataset_3x5}
    for rows, cols in ((1, 5), (5, 1)):
        out[rows, cols] = make_synthetic_dataset(
            root / f"{rows}x{cols}", rows=rows, cols=cols, tile_height=32,
            tile_width=32, overlap=0.25, seed=5,
        )
    return out


class TestTransformReuse:
    def test_simple_cpu_one_fft_per_tile(self, dataset_4x4):
        res = SimpleCpu().run(dataset_4x4)
        assert res.stats["ffts"] == 16
        assert res.stats["reads"] == 16

    def test_fiji_recomputes_per_pair(self, dataset_4x4):
        """The baseline's defining flaw: 2 FFTs and 2 reads per pair."""
        res = FijiBaseline().run(dataset_4x4)
        counts = OperationCounts(4, 4, 64, 64)
        assert res.stats["ffts"] == 2 * counts.pairs == 48
        assert res.stats["reads"] == 48

    def test_mt_cpu_shared_boundaries_no_redundancy(self, dataset_4x4):
        """Shared columns are built once and handed to both partitions."""
        res = MtCpu(workers=2).run(dataset_4x4)
        assert res.stats["reads"] == 16
        assert res.stats["ffts"] == 16

    def test_mt_cpu_on_one_worker_is_simple_cpu(self, dataset_4x4):
        """One partition is the whole grid on the caller's thread: the
        same counters and the same timeline rows as Simple-CPU."""
        from repro.observe import Tracer

        def run(make):
            tracer = Tracer()
            res = make(tracer=tracer).run(dataset_4x4)
            return res.stats, sorted(tracer.tracks())

        simple = run(SimpleCpu)
        assert simple == run(lambda **kw: MtCpu(workers=1, **kw))
        assert "phase1-tiles" in simple[1]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("grid", [(1, 5), (5, 1), (3, 5), (4, 4)],
                             ids=lambda g: f"{g[0]}x{g[1]}")
    @pytest.mark.parametrize("impl", sorted(SPMD))
    def test_spmd_reads_every_tile_once(self, impl, grid, workers, grids):
        """Column partitions share a column with their western neighbour;
        it is built once, so every tile is read and transformed once --
        under every traversal."""
        rows, cols = grid
        ds = grids[grid]
        ref = SimpleCpu().run(ds).displacements
        for traversal in Traversal:
            res = SPMD[impl](workers, traversal=traversal).run(ds)
            assert res.stats["reads"] == res.stats["ffts"] == rows * cols
            assert 1 <= res.stats["partitions"] <= workers
            assert repr(res.displacements.west) == repr(ref.west)
            assert repr(res.displacements.north) == repr(ref.north)

    @pytest.mark.parametrize("impl", sorted(SPMD))
    def test_dropped_shared_tile_skips_what_simple_cpu_skips(self, impl,
                                                             dataset_4x4):
        """Tile (1, 1) sits in column 1, which both partitions of two
        workers read; dropping it loses exactly simple-cpu's pairs."""
        def skipped(make):
            report = FaultReport()
            ds = FaultPlan().add(
                Fault(FaultKind.MISSING, tile=(1, 1))
            ).wrap_dataset(dataset_4x4)
            res = make(error_policy=ErrorPolicy(on_exhausted="skip"),
                       fault_report=report).run(ds)
            return report.skipped_pairs, report.skipped_tiles, res

        want, _, _ = skipped(SimpleCpu)
        got, tiles, res = skipped(lambda **kw: SPMD[impl](2, **kw))
        assert got == want and len(want) == 4
        assert tiles == [(1, 1)]
        assert res.stats["reads"] == res.stats["ffts"] == 15

    def test_pipelined_cpu_no_redundancy(self, dataset_4x4):
        res = PipelinedCpu().run(dataset_4x4)
        assert res.stats["ffts"] == 16
        assert res.stats["reads"] == 16


class TestGpuClaims:
    def test_simple_gpu_single_stream(self, dataset_4x4):
        impl = SimpleGpu()
        res = impl.run(dataset_4x4)
        assert res.stats["streams_used"] == 1  # default stream only

    def test_simple_gpu_d2h_is_scalars_only(self, dataset_4x4):
        """Paper: "minimizes transfers ... by only copying the result of
        the parallel reduction"."""
        res = SimpleGpu(n_peaks=1).run(dataset_4x4)
        pairs = 24
        # 2 doubles per pair (mag, index) = 16 B; allow small slack.
        assert res.stats["d2h_bytes"] == pairs * 16

    def test_simple_gpu_kernel_gaps(self, dataset_4x4):
        """Fig. 7: compute engine mostly idle under synchronous dispatch."""
        impl = SimpleGpu()
        impl.run(dataset_4x4)
        assert impl.last_device.profiler.density("compute") < 0.6

    def test_pipelined_gpu_three_streams_per_device(self, dataset_4x4):
        from repro.gpu.device import VirtualGpu

        dev = VirtualGpu()
        PipelinedGpu(devices=[dev]).run(dataset_4x4)
        # default stream + copy + fft + displacement = ids {1, 2, 3} used.
        used = dev.profiler.streams_used()
        assert len(used) == 3

    def test_pipelined_gpu_device_memory_bounded_by_pool(self, dataset_4x4):
        from repro.gpu.device import VirtualGpu

        dev = VirtualGpu()
        PipelinedGpu(devices=[dev], pool_size=12).run(dataset_4x4)
        # Half-spectrum transforms: pool (12) + NCC scratch are (64, 33)
        # complex, plus one float64 spatial surface for the c2r inverse;
        # nothing else allocated.
        spec = 64 * 33 * 16
        assert dev.allocator.peak_bytes == 13 * spec + 64 * 64 * 8

    def test_pipelined_gpu_complex_memory_bounded_by_pool(self, dataset_4x4):
        from repro.gpu.device import VirtualGpu

        dev = VirtualGpu()
        PipelinedGpu(devices=[dev], pool_size=12, real_transforms=False).run(
            dataset_4x4
        )
        hw = 64 * 64 * 16
        # pool (12 transforms) + 1 scratch surface; nothing else allocated.
        assert dev.allocator.peak_bytes == 13 * hw

    def test_pipelined_gpu_pool_exceeds_min_grid_dim(self, dataset_4x4):
        """Paper: "minimum pool size must exceed the smallest dimension"."""
        res = PipelinedGpu(devices=1).run(dataset_4x4)  # default sizing
        assert res.displacements.is_complete()

    def test_device_capacity_respected(self, dataset_4x4):
        """A pool larger than the card must fail like the card would."""
        from repro.gpu.device import VirtualGpu
        from repro.gpu.memory import OutOfDeviceMemory

        tiny = VirtualGpu(memory_bytes=100_000)
        with pytest.raises(OutOfDeviceMemory):
            PipelinedGpu(devices=[tiny], pool_size=4).run(dataset_4x4)


class TestMemoryBounds:
    def test_pipelined_cpu_pool_peak_recorded(self, dataset_4x4):
        """The early-release ledger bounds the live transforms by the
        chained-diagonal wavefront a transform pool is sized for."""
        res = PipelinedCpu().run(dataset_4x4)
        assert 0 < res.stats["peak_live_transforms"] <= default_pool_size(4, 4)

    def test_simple_cpu_live_transforms_bounded(self, dataset_4x4):
        res = SimpleCpu().run(dataset_4x4)
        assert res.stats["peak_live_transforms"] < 16

    @pytest.mark.parametrize("impl", sorted(SPMD))
    def test_shared_ghost_tiles_go_with_their_last_reader(self, impl,
                                                          monkeypatch,
                                                          tmp_path):
        """An 8x4 grid on two partitions shares column 1's eight tiles.
        Each partition takes them from a mapping of its own and its
        ledger frees them with its other tiles, so once both partitions
        have returned none of the run's tile statistics is left alive."""
        import gc

        from repro.core.kernel import DisplacementResult, Phase1Kernel
        from repro.core.tilestats import TileStats

        ds = make_synthetic_dataset(
            tmp_path / "8x4", rows=8, cols=4, tile_height=32, tile_width=32,
            overlap=0.25, seed=5,
        )
        built, live_at_return = set(), []
        products, update = Phase1Kernel.products, DisplacementResult.update

        def tracked(self, *args, **kw):
            out = products(self, *args, **kw)
            built.update(id(p) for p in out if isinstance(p, TileStats))
            return out

        def counted(self, other):
            update(self, other)
            gc.collect()
            live_at_return.append(sum(
                isinstance(o, TileStats) and id(o) in built
                for o in gc.get_objects()))

        monkeypatch.setattr(Phase1Kernel, "products", tracked)
        monkeypatch.setattr(DisplacementResult, "update", counted)
        res = SPMD[impl](2).run(ds)
        assert res.stats["partitions"] == 2
        assert built and len(live_at_return) == 2
        assert live_at_return[-1] == 0


class TestVirtualTimelineCausality:
    def test_pipelined_gpu_kernels_never_precede_their_copies(self, dataset_4x4):
        """The virtual timeline is causally ordered even though stage
        threads interleave: every forward FFT starts at or after some H2D
        copy completed, and no compute op starts before the first copy."""
        from repro.gpu.device import VirtualGpu

        dev = VirtualGpu()
        PipelinedGpu(devices=[dev]).run(dataset_4x4)
        events = dev.profiler.events
        copies = [e for e in events if e.name == "memcpy-h2d"]
        ffts = [e for e in events if e.name in ("cufft-fwd", "cufft-fwd-r2c")]
        assert ffts and copies
        first_copy_end = min(e.end for e in copies)
        for f in ffts:
            assert f.start >= first_copy_end - 1e-12
        # NCCs never precede two completed forward transforms.
        nccs = sorted(e.start for e in events if e.name == "ncc")
        fft_ends = sorted(e.end for e in ffts)
        assert nccs[0] >= fft_ends[1] - 1e-12
