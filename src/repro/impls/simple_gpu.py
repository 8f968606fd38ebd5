"""Simple-GPU: synchronous single-stream port of Simple-CPU (Fig. 6).

"The reference GPU implementation is single threaded on the CPU, executes
CUDA memory copies synchronously, and invokes all kernels on the default
stream."  It keeps forward transforms on-device in a tracked pool, frees
them by the early-release ledger (:class:`repro.grid.ledger.PairBookkeeper`),
copies only the reduction result back, and runs the CCFs on the host --
all the paper's Simple-GPU optimizations, with the paper's Simple-GPU
architectural flaw: every device operation round-trips through host
synchronization, so the GPU idles during reads and CCFs (the gaps of
Fig. 7).

The host/device interleaving is modeled on the device's virtual clock: each
synchronous submission starts no earlier than ``host_clock`` and advances
the host clock to the operation's end (a pair's device sequence,
:func:`~repro.gpu.kernels.correlate_pair`, waits on the host clock once;
stream order chains the rest); host-only work (reads, CCFs) advances
the host clock by its modeled duration.  The trace's compute-engine density
is the quantity Fig. 7 visualizes.
"""

from __future__ import annotations

import numpy as np

from repro.core.displacement import DisplacementResult
from repro.gpu.costs import XEON_E5620, CpuCostModel
from repro.gpu.device import VirtualGpu
from repro.gpu.kernels import correlate_pair, fft2_kernel, rfft2_kernel
from repro.gpu.profiler import TraceEvent
from repro.grid.ledger import PairBookkeeper
from repro.grid.neighbors import grid_pairs
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import Traversal, default_pool_size, traverse
from repro.impls.base import Implementation
from repro.io.dataset import TileDataset


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
        kernel = self.kernel
        device = self.device or VirtualGpu()
        self.last_device = device
        rows, cols = dataset.rows, dataset.cols
        grid = TileGrid(rows, cols)
        full_shape = kernel.full_shape(dataset.tile_shape)
        # Coarse mode moves every device-side surface (staging, pool
        # buffers, NCC scratch, inverse) to the coarse transform shape --
        # factor^2 less device memory and H2D traffic.  The host keeps
        # full-resolution tiles + statistics for refinement and fallback.
        fft_shape = kernel.transform_shape(dataset.tile_shape)
        hw = full_shape[0] * full_shape[1]
        real = kernel.real_transforms
        # Pool of (half-)spectra: live transforms of the traversal
        # wavefront plus one scratch slot for the NCC / inverse-FFT
        # surface; cuFFT R2C halves both work and footprint.
        pool_size = self.pool_size or default_pool_size(rows, cols) + 1
        pool = device.create_pool(
            pool_size, kernel.buffer_shape(dataset.tile_shape)
        )
        stream = device.default_stream

        disp = DisplacementResult.empty(rows, cols)
        stats = {"reads": 0, "ffts": 0, "pairs": 0}
        #: Host side of each resident tile: ``(pixels, TileStats | None)``.
        host: dict[GridPosition, tuple] = {}
        slots: dict[GridPosition, int] = {}
        host_clock = 0.0

        def release(pos: GridPosition) -> None:
            pool.release(slots.pop(pos))
            host.pop(pos)

        # Resume: journaled pairs never touch the device; the ledger covers
        # the rest, so tiles whose incident pairs are all journaled are not
        # even read or copied.
        ledger = PairBookkeeper(grid, release=release, pairs=frozenset(
            pair for pair in grid_pairs(grid)
            if not kernel.serve_journaled(
                disp, pair.direction, pair.second.row, pair.second.col, stats
            )
        ))

        def host_op(name: str, seconds: float) -> None:
            nonlocal host_clock
            device.profiler.record(
                TraceEvent(name=name, engine="host", stream=-1,
                           start=host_clock, end=host_clock + seconds)
            )
            host_clock += seconds

        # One persistent staging buffer for H2D copies (device-side, real
        # CUDA code would use pinned host + a device staging area).  With
        # real transforms the staged tile is float64, halving H2D traffic.
        staging = device.alloc(
            fft_shape, dtype=np.float64 if real else np.complex128
        )
        # The c2r inverse lands on a real spatial surface, which cannot
        # alias the half-spectrum scratch slot; one dedicated buffer.
        inv_buf = device.alloc(fft_shape, dtype=np.float64) if real else None

        def load_and_transform(pos: GridPosition) -> list:
            """Make ``pos`` resident; return the pairs that completes."""
            nonlocal host_clock
            if not ledger.pending(pos):
                return []
            tile = kernel.read(dataset.load, pos.row, pos.col)
            if tile is None:
                # Cancelling its pairs still recycles surviving
                # neighbours' transform slots.
                kernel.skip_tile_pairs(pos, ledger.tile_failed(pos))
                return []
            host_op("read-tile", self.host_costs.read(hw) + self.host_costs.decode(hw))
            stats["reads"] += 1
            src = kernel.transform_input(tile, fft_shape)
            slot = pool.acquire(blocking=False)
            host_src = src if real else src.astype(np.complex128)
            ev = device.h2d(host_src, staging, stream, not_before=host_clock)
            host_clock = ev.end  # synchronous copy: host blocks
            fwd = rfft2_kernel if real else fft2_kernel
            ev = fwd(device, staging.data, pool.array(slot), stream, not_before=host_clock)
            host_clock = ev.end  # default stream, synchronous: host waits
            stats["ffts"] += 1
            host[pos] = kernel.host_products(tile)
            slots[pos] = slot
            return ledger.transform_ready(pos)

        tracer = kernel.tracer
        for pos in traverse(grid, self.traversal):
            with tracer.span("read+fft", "simple-gpu", key=pos):
                ready = load_and_transform(pos)
            for pair in ready:
                pair_t0 = tracer.now() if tracer.enabled else 0.0
                scratch = pool.acquire(blocking=False)
                # Synchronous: the host waits for the O(k) D2H copy.
                peaks, ev = correlate_pair(
                    device, pool.array(slots[pair.first]),
                    pool.array(slots[pair.second]), pool.array(scratch),
                    inv_buf.data if real else None, stream,
                    kernel.peak_count, not_before=host_clock,
                )
                host_clock = ev.end
                pool.release(scratch)

                # Host-side CCFs over the device peaks.
                t = kernel.resolve_peaks(
                    peaks, fft_shape, host[pair.first], host[pair.second], stats
                )
                host_op("ccf", self.host_costs.ccf(hw))
                kernel.commit(
                    disp, pair.direction, pair.second.row, pair.second.col,
                    t, stats,
                )
                if tracer.enabled:
                    tracer.record_span("pair", "simple-gpu", pair_t0,
                                       tracer.now(), key=str(pair))
                ledger.pair_completed(pair)

        if inv_buf is not None:
            device.free(inv_buf)
        device.free(staging)
        pool.destroy()
        stats["device_peak_bytes"] = device.allocator.peak_bytes
        stats["gpu_compute_density"] = device.profiler.density("compute")
        stats["d2h_bytes"] = device.profiler.bytes_copied("d2h")
        stats["streams_used"] = len(device.profiler.streams_used() - {-1})
        stats["virtual_makespan"] = max(device.synchronize(), host_clock)
        disp.stats = stats
        return disp, stats
