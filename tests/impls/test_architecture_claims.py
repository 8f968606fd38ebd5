"""Architectural claims from the paper, verified by instrumentation.

The paper's performance story rests on structural properties (transform
reuse, O(1) D2H traffic, stream counts, bounded pools).  These tests pin
them on the real implementations -- if a refactor silently reintroduces,
say, per-pair FFT recomputation, these fail even though outputs stay right.
"""

import numpy as np
import pytest

from repro.analysis.opcounts import OperationCounts
from repro.impls import FijiBaseline, MtCpu, PipelinedCpu, PipelinedGpu, SimpleCpu, SimpleGpu


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
        """Boundary products are computed once and shared across bands."""
        res = MtCpu(workers=2).run(dataset_4x4)
        assert res.stats["reads"] == 16
        assert res.stats["ffts"] == 16
        assert res.stats["duplicated_boundary_reads"] == 0

    def test_proc_cpu_no_redundancy(self, dataset_4x4):
        """Process bands exchange boundary products through the arena."""
        from repro.impls import ProcCpu

        res = ProcCpu(workers=2).run(dataset_4x4)
        assert res.stats["reads"] == 16
        assert res.stats["ffts"] == 16
        assert res.stats["duplicated_boundary_reads"] == 0
        assert res.stats["process_workers"] == 2

    def test_pipelined_cpu_no_redundancy(self, dataset_4x4):
        res = PipelinedCpu(workers=3).run(dataset_4x4)
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
        res = PipelinedCpu(workers=2, pool_size=10).run(dataset_4x4)
        assert 0 < res.stats["pool_peak_in_use"] <= 10

    def test_simple_cpu_live_transforms_bounded(self, dataset_4x4):
        res = SimpleCpu().run(dataset_4x4)
        assert res.stats["peak_live_transforms"] < 16


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
