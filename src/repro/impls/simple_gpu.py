"""Simple-GPU: synchronous single-stream port of Simple-CPU (Fig. 6).

"The reference GPU implementation is single threaded on the CPU, executes
CUDA memory copies synchronously, and invokes all kernels on the default
stream."  It is Simple-CPU's loop,
:func:`~repro.core.displacement.compute_grid_displacements`, with the
stages run one after the other and a device half in the loop's seam
(:class:`DeviceHalf`): forward transforms live on-device in a tracked
pool, the loop's early-release ledger frees them, only the reduction
result is copied back, and the CCFs run on the host -- all the paper's
Simple-GPU optimizations, with the paper's Simple-GPU architectural flaw:
every device operation round-trips through host synchronization, so the
GPU idles during reads and CCFs (the gaps of Fig. 7).

The host/device interleaving is modeled on the device's virtual clock: each
synchronous submission starts no earlier than the host clock and advances
it to the operation's end (a pair's device sequence,
:func:`~repro.gpu.kernels.correlate_pair`, waits on the host clock once;
stream order chains the rest); host-only work (reads, CCFs) advances
the host clock by its modeled duration.  The trace's compute-engine density
is the quantity Fig. 7 visualizes.
"""

from __future__ import annotations

import numpy as np

from repro.core.displacement import DisplacementResult, compute_grid_displacements
from repro.gpu.costs import XEON_E5620, CpuCostModel
from repro.gpu.device import VirtualGpu
from repro.gpu.kernels import correlate_pair, rfft2_kernel
from repro.gpu.profiler import TraceEvent
from repro.grid.traversal import Traversal, default_pool_size
from repro.impls.base import Implementation
from repro.io.dataset import TileDataset


class DeviceHalf:
    """Simple-GPU's half of the loop's seam
    (:class:`~repro.core.displacement.HostHalf` is the host's).

    A tile's products are ``(pool slot, host products)``: H2D into the
    staging buffer, R2C into the slot, and
    :meth:`~repro.core.kernel.Phase1Kernel.host_products` for the CCFs.  A
    pair runs :func:`~repro.gpu.kernels.correlate_pair` in a scratch slot,
    then the kernel's ``resolve_peaks`` and ``commit``; releasing a tile
    gives its slot back to the pool.  :attr:`clock` is the host clock,
    which :meth:`host_op` advances by the modeled cost of host-only work.

    Coarse mode moves every device-side surface (staging, pool buffers,
    NCC scratch, inverse) to the coarse transform shape -- factor^2 less
    device memory and H2D traffic; the host keeps full-resolution tiles
    and statistics for refinement and fallback.
    """

    def __init__(self, kernel, device: VirtualGpu, tile_shape, pool_size: int,
                 host_costs: CpuCostModel) -> None:
        self.kernel = kernel
        self.device = device
        self.host_costs = host_costs
        full_shape = kernel.full_shape(tile_shape)
        self.hw = full_shape[0] * full_shape[1]
        self.fft_shape = kernel.transform_shape(tile_shape)
        # Live half-spectra of the traversal wavefront plus one scratch
        # slot for the NCC surface.
        self.pool = device.create_pool(pool_size,
                                       kernel.buffer_shape(tile_shape))
        # One persistent staging buffer for H2D copies (device-side, real
        # CUDA code would use pinned host + a device staging area); the
        # staged tile is float64, half the bytes of a complex copy.
        self.staging = device.alloc(self.fft_shape, dtype=np.float64)
        # The c2r inverse lands on a real spatial surface, which cannot
        # alias the half-spectrum scratch slot; one dedicated buffer.
        self.inverse = device.alloc(self.fft_shape, dtype=np.float64)
        self.clock = 0.0

    def host_op(self, name: str, seconds: float) -> None:
        """Host-only work of ``seconds``, traced on the host row."""
        self.device.profiler.record(
            TraceEvent(name=name, engine="host", stream=-1,
                       start=self.clock, end=self.clock + seconds)
        )
        self.clock += seconds

    def products(self, pixels, stats: dict, track=None, key=None) -> tuple:
        device, stream = self.device, self.device.default_stream
        costs = self.host_costs
        self.host_op("read-tile", costs.read(self.hw) + costs.decode(self.hw))
        src = self.kernel.transform_input(pixels, self.fft_shape)
        slot = self.pool.acquire(blocking=False)
        # A synchronous copy, then the default stream's transform: the
        # host waits for each.
        self.clock = device.h2d(src, self.staging, stream,
                                not_before=self.clock).end
        self.clock = rfft2_kernel(device, self.staging.data,
                                  self.pool.array(slot), stream,
                                  not_before=self.clock).end
        stats["ffts"] += 1
        return slot, self.kernel.host_products(pixels)

    def register(self, result: DisplacementResult, pair, first: tuple,
                 second: tuple, stats: dict):
        kernel, pool = self.kernel, self.pool
        scratch = pool.acquire(blocking=False)
        # Synchronous: the host waits for the O(k) D2H copy.
        peaks, ev = correlate_pair(
            self.device, pool.array(first[0]), pool.array(second[0]),
            pool.array(scratch), self.inverse.data,
            self.device.default_stream, kernel.peak_count,
            not_before=self.clock,
        )
        self.clock = ev.end
        pool.release(scratch)
        # Host-side CCFs over the device peaks.
        t = kernel.resolve_peaks(peaks, self.fft_shape, first[1], second[1],
                                 stats)
        self.host_op("ccf", self.host_costs.ccf(self.hw))
        kernel.commit(result, pair.direction, pair.second.row,
                      pair.second.col, t, stats)
        return t

    def release(self, products: tuple) -> None:
        self.pool.release(products[0])

    def close(self) -> None:
        self.device.free(self.inverse)
        self.device.free(self.staging)
        self.pool.destroy()


class SimpleGpu(Implementation):
    """Synchronous single-stream GPU port (9.3 min on the paper's machine)."""

    name = "simple-gpu"

    def __init__(
        self,
        device: VirtualGpu | None = None,
        pool_size: int | None = None,
        traversal: Traversal = Traversal.CHAINED_DIAGONAL,
        host_costs: CpuCostModel = XEON_E5620,
        **kw,
    ) -> None:
        super().__init__(**kw)
        self.device = device
        self.pool_size = pool_size
        self.traversal = traversal
        self.host_costs = host_costs
        self.last_device: VirtualGpu | None = None

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        device = self.device or VirtualGpu()
        self.last_device = device
        rows, cols = dataset.rows, dataset.cols
        half = DeviceHalf(
            self.kernel, device, dataset.tile_shape,
            self.pool_size or default_pool_size(rows, cols) + 1,
            self.host_costs,
        )
        disp = compute_grid_displacements(
            dataset.load, rows, cols, traversal=self.traversal,
            kernel=self.kernel, track=self.name, overlap=False, half=half,
        )
        half.close()
        stats = disp.stats
        stats["device_peak_bytes"] = device.allocator.peak_bytes
        stats["gpu_compute_density"] = device.profiler.density("compute")
        stats["d2h_bytes"] = device.profiler.bytes_copied("d2h")
        stats["streams_used"] = len(device.profiler.streams_used() - {-1})
        stats["virtual_makespan"] = max(device.synchronize(), half.clock)
        return disp, stats
