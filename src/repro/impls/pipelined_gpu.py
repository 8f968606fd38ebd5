"""Pipelined-GPU: the 6-stage per-GPU pipeline of the paper's Fig. 8.

One execution pipeline per GPU; the grid is decomposed spatially into
contiguous column partitions, one per card.  Stages per pipeline (threads
in parentheses, queues are bounded monitor queues):

1. **read** (1): reads tiles of the partition in chained-diagonal order;
2. **copier** (1): acquires a transform-pool slot and copies the tile to
   device memory asynchronously on the copy stream;
3. **fft** (1): launches the forward cuFFT in-place on the slot (one at a
   time -- the paper's Fermi cuFFT concurrency note) on the FFT stream;
4. **bookkeeping** (1): the dependency state machine; advances pairs whose
   transforms are both resident, recycles slots whose reference count
   reaches zero;
5. **displacement** (1): NCC + inverse FFT + top-k reduce on the
   displacement stream; copies back only the O(k) reduction scalars; posts
   the memory-management entry back to the bookkeeper (the Fig. 8 feedback
   edge into Q34's upstream);
6. **CCF** (``ccf_workers`` threads): maps reduction indices to candidate
   translations and computes the cross-correlation factors on the CPU,
   producing the final (correlation, x, y) per pair.

Boundary ("ghost") columns are read and transformed by both adjacent
partitions -- the duplicated work is how the paper's spatial decomposition
avoids cross-GPU communication (peer-to-peer copies are listed as future
work).  All partitions share the output arrays; cells are disjoint.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.displacement import DisplacementResult
from repro.gpu.device import VirtualGpu
from repro.gpu.kernels import (
    fft2_kernel,
    ifft2_kernel,
    irfft2_kernel,
    ncc_kernel,
    reduce_max_kernel,
    rfft2_kernel,
)
from repro.grid.ledger import PairBookkeeper
from repro.grid.neighbors import Pair, grid_pairs
from repro.grid.tile_grid import GridPosition, TileGrid, split_range
from repro.grid.traversal import Traversal, traverse
from repro.impls.base import Implementation, fold_stats
from repro.io.dataset import TileDataset
from repro.pipeline.graph import Pipeline
from repro.pipeline.stage import END_OF_STREAM


@dataclass
class _TileItem:
    pos: GridPosition
    pixels: np.ndarray


@dataclass
class _SlotItem:
    pos: GridPosition
    slot: int
    copied_at: float  # virtual completion time of the H2D copy
    pixels: np.ndarray  # what a p2p export ships with the transform


@dataclass
class _FftDone:
    pos: GridPosition


@dataclass
class _PairDone:
    pair: Pair


@dataclass
class _CcfWork:
    pair: Pair
    peaks: list  # [(magnitude, flat_index), ...]


@dataclass
class _TileFailed:
    """Reader could not deliver a tile (retries exhausted, skip policy)."""

    pos: GridPosition


class PipelinedGpu(Implementation):
    """Multi-GPU pipelined implementation (49.7 s / 26.6 s in the paper)."""

    name = "pipelined-gpu"

    def __init__(
        self,
        devices: list[VirtualGpu] | int = 1,
        ccf_workers: int = 2,
        pool_size: int | None = None,
        traversal: Traversal = Traversal.CHAINED_DIAGONAL,
        queue_size: int = 8,
        pool_timeout: float = 60.0,
        p2p: bool = False,
        **kw,
    ) -> None:
        super().__init__(**kw)
        if isinstance(devices, int):
            if devices < 1:
                raise ValueError("need at least one GPU")
            devices = [VirtualGpu(device_id=i) for i in range(devices)]
        if not devices:
            raise ValueError("need at least one GPU")
        self.devices = devices
        self.ccf_workers = ccf_workers
        self.pool_size = pool_size
        self.traversal = traversal
        self.queue_size = queue_size
        self.pool_timeout = pool_timeout
        #: Peer-to-peer ghost exchange (the paper's Section VI enabler for
        #: scaling past 2 cards): instead of reading and re-transforming
        #: its western ghost column, each pipeline receives the owner
        #: card's transforms over p2p copies.  Ghost transforms live in
        #: dedicated (non-pooled) device buffers, freed by reference count.
        self.p2p = p2p

    # -- partitioning ---------------------------------------------------------

    def _partition(self, grid: TileGrid) -> list[dict]:
        """Per-GPU partition descriptors: pair subset + tile columns."""
        ranges = split_range(grid.cols, len(self.devices))
        all_pairs = list(grid_pairs(grid))
        parts = []
        for k, (c0, c1) in enumerate(ranges):
            pairs = {
                p
                for p in all_pairs
                if c0 <= p.second.col < c1
                # north pairs are fully inside one column range; west pairs
                # owned by the partition holding their *second* tile.
            }
            # With p2p the ghost column arrives over the link instead of
            # being read + transformed redundantly.
            tile_c0 = c0 if (self.p2p or k == 0) else c0 - 1
            export_col = c1 - 1 if (self.p2p and k + 1 < len(ranges)) else None
            parts.append({
                "cols": (tile_c0, c1),
                "pairs": frozenset(pairs),
                "export_col": export_col,
            })
        return parts

    # -- execution --------------------------------------------------------------

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        rows, cols = dataset.rows, dataset.cols
        grid = TileGrid(rows, cols)
        disp = DisplacementResult.empty(rows, cols)
        parts = self._partition(grid)
        stats_lock = threading.Lock()
        stats = {"reads": 0, "ffts": 0, "pairs": 0, "gpus": len(parts)}

        if self.p2p and any(not part["pairs"] for part in parts) and len(parts) > 1:
            # A pairless partition never runs, so its neighbour would wait
            # forever for ghost transforms.  This only happens on degenerate
            # grids (e.g. 1-row grids split into 1-column partitions).
            raise ValueError(
                "p2p ghost exchange needs every partition to own pairs; "
                "use fewer GPUs for this grid shape"
            )
        # Ghost-import hooks: slot k holds partition k+1's import function;
        # partition k's FFT stage looks it up lazily (late binding is safe:
        # no stage starts before every pipeline is built).
        import_hooks: list = [None] * len(parts)
        pipelines: list[Pipeline] = []
        for index, (part, device) in enumerate(zip(parts, self.devices)):
            if part["pairs"]:
                pipe, import_ghost = self._build_pipeline(
                    dataset, grid, disp, part, device, stats, stats_lock,
                    index, import_hooks,
                )
                pipelines.append(pipe)
                if self.p2p and index > 0:
                    import_hooks[index - 1] = import_ghost

        if not pipelines:  # 1x1 grid: nothing to do
            disp.stats = stats
            return disp, stats

        for p in pipelines:
            p.start()
        for p in pipelines:
            p.join()

        for device in self.devices[: len(parts)]:
            with stats_lock:
                stats.setdefault("device_peak_bytes", 0)
                stats["device_peak_bytes"] = max(
                    stats["device_peak_bytes"], device.allocator.peak_bytes
                )
                stats.setdefault("d2h_bytes", 0)
                stats["d2h_bytes"] += device.profiler.bytes_copied("d2h")
        stats["streams_per_gpu"] = 3
        disp.stats = stats
        return disp, stats

    def _build_pipeline(
        self,
        dataset: TileDataset,
        grid: TileGrid,
        disp: DisplacementResult,
        part: dict,
        device: VirtualGpu,
        stats: dict,
        stats_lock: threading.Lock,
        index: int = 0,
        import_hooks: list | None = None,
    ) -> tuple[Pipeline, "object"]:
        kernel = self.kernel
        c0, c1 = part["cols"]
        export_col = part.get("export_col")
        import_hooks = import_hooks if import_hooks is not None else []
        # Coarse mode shrinks every device surface (pool slots, ghost
        # buffers, NCC scratch, inverse scratch) to the coarse transform
        # shape -- factor^2 less device memory, H2D and p2p traffic.  The
        # host keeps full-resolution pixels + statistics for the CCF
        # stage's refinement probes and the full-PCIAM fallback.
        fft_shape = kernel.transform_shape(dataset.tile_shape)
        bk = PairBookkeeper(grid, pairs=part["pairs"], metrics=kernel.metrics)
        my_tiles = bk.tiles

        real = kernel.real_transforms
        # Half-spectrum transforms shrink every pool buffer to (h, w//2+1)
        # complex values -- cuFFT R2C halves both footprint and FFT work.
        buf_shape = kernel.buffer_shape(dataset.tile_shape)
        pool_size = self.pool_size or (2 * min(grid.rows, c1 - c0) + 4)
        pool = device.create_pool(pool_size, buf_shape)
        # Dedicated streams per GPU stage (copier / fft / displacement):
        # "one CUDA stream per GPU stage (a total of 3 for stages 2, 3 & 5)".
        stream_copy = device.create_stream()
        stream_fft = device.create_stream()
        stream_disp = device.create_stream()
        # Persistent scratch surface for NCC/inverse-FFT (the "backward
        # transform" buffer class of the paper's pool).  The c2r inverse
        # lands on a real spatial surface that cannot alias the
        # half-spectrum NCC buffer, so real mode carries one extra float64
        # scratch (still less memory than the single full complex surface).
        scratch = device.alloc(buf_shape, dtype=np.complex128)
        inv_scratch = device.alloc(fft_shape, dtype=np.float64) if real else None

        def real_slot_view(buf: np.ndarray) -> np.ndarray:
            # cuFFT's in-place R2C layout: the (h, w//2+1) complex slot's
            # memory holds the row-padded real input; the H2D copy and the
            # forward transform both address this float64 view, so no
            # separate spatial staging buffer is needed.
            return buf.view(np.float64)[:, : fft_shape[1]]

        pipe = Pipeline(f"pipelined-gpu-{device.device_id}",
                        tracer=kernel.tracer, metrics=kernel.metrics,
                        watchdog=self.watchdog)
        q01 = pipe.queue(maxsize=self.queue_size, name="read-copy")
        q12 = pipe.queue(maxsize=0, name="copy-fft")
        q23 = pipe.queue(maxsize=0, name="events")      # fft-done + pair-done
        q34 = pipe.queue(maxsize=0, name="ready-pairs")
        q45 = pipe.queue(maxsize=0, name="ccf-work")

        #: Host side of each resident tile: ``(pixels, TileStats | None)``.
        host: dict[GridPosition, tuple] = {}
        slots: dict[GridPosition, int] = {}
        # Ghost transforms received over p2p (dedicated device buffers,
        # keyed by grid position; disjoint from the pooled slots).
        ghost_arrays: dict[GridPosition, object] = {}
        # Virtual-clock completion time of each tile's forward transform
        # (CUDA-event semantics: the displacement stream must not start a
        # pair's NCC before both transforms exist on the device).
        fft_done_at: dict[GridPosition, float] = {}
        state_lock = threading.Lock()

        def fft_array(pos: GridPosition) -> np.ndarray:
            """Device transform for ``pos`` (caller holds state_lock)."""
            g = ghost_arrays.get(pos)
            return g.data if g is not None else pool.array(slots[pos])
        # Host pixels live until CCFs of all incident pairs are done or
        # cancelled -- longer than the device slot, which the ledger frees
        # once the displacement stage is through with it.
        host_refcount = {pos: len(bk.incident(pos)) for pos in my_tiles}

        def host_pairs_done(pairs) -> None:
            with state_lock:
                for pair in pairs:
                    for pos in (pair.first, pair.second):
                        host_refcount[pos] -= 1
                        if host_refcount[pos] == 0:
                            host.pop(pos, None)  # None: never stored

        # Local traversal over the partition's tile columns.
        sub = TileGrid(grid.rows, c1 - c0)
        order = iter(
            [GridPosition(p.row, p.col + c0) for p in traverse(sub, self.traversal)]
        )

        def reader(_item, _ctx):
            try:
                pos = next(order)
            except StopIteration:
                return END_OF_STREAM
            tile = kernel.read(dataset.load, pos.row, pos.col)
            if tile is None:
                q23.put(_TileFailed(pos))
                # The eastern neighbour expects this tile's transform
                # over p2p; tell it the tile is lost instead.
                if export_col is not None and pos.col == export_col:
                    hook = (
                        import_hooks[index]
                        if index < len(import_hooks) else None
                    )
                    if hook is not None:
                        hook(pos, None, None, 0.0, None)
                return None
            with stats_lock:
                stats["reads"] += 1
            return _TileItem(pos, tile)

        def copier(item: _TileItem, _ctx):
            slot = pool.acquire(timeout=self.pool_timeout)
            src = kernel.transform_input(item.pixels, fft_shape)
            if real:
                # Copy the raw float64 tile (half the bytes of the complex
                # staging copy) into the slot's in-place R2C input view.
                ev = device.h2d(src, real_slot_view(pool.array(slot)), stream_copy)
            else:
                ev = device.h2d(src.astype(np.complex128), pool.array(slot), stream_copy)
            entry = (item.pixels, kernel.tile_stats(item.pixels))
            with state_lock:
                # Not if dropped neighbours already cancelled every pair
                # that would read it: nothing would ever pop it.
                if host_refcount[item.pos]:
                    host[item.pos] = entry
                slots[item.pos] = slot
            return _SlotItem(item.pos, slot, ev.end, item.pixels)

        def fft_stage(item: _SlotItem, _ctx):
            buf = pool.array(item.slot)
            # Event wait: the forward transform cannot start before its
            # tile's H2D copy completed on the copy stream.
            if real:
                ev = rfft2_kernel(device, real_slot_view(buf), buf, stream_fft,
                                  not_before=item.copied_at)
            else:
                ev = fft2_kernel(device, buf, buf, stream_fft, not_before=item.copied_at)
            with state_lock:
                fft_done_at[item.pos] = ev.end
            with stats_lock:
                stats["ffts"] += 1
            # P2P export: push boundary-column transforms to the eastern
            # neighbour pipeline instead of letting it re-read + re-FFT.
            if export_col is not None and item.pos.col == export_col:
                hook = import_hooks[index] if index < len(import_hooks) else None
                if hook is not None:
                    hook(item.pos, device, buf, ev.end, item.pixels)
            q23.put(_FftDone(item.pos))
            return None

        def import_ghost(pos, src_device, src_array, ready, pix):
            """Receive a neighbour card's transform (runs on its thread)."""
            if src_device is None:
                # The owner card lost this ghost tile; propagate the failure.
                q23.put(_TileFailed(pos))
                return None
            buf = device.alloc(buf_shape, dtype=np.complex128)
            ev = device.p2p_from(src_device, src_array, buf, stream_copy,
                                 not_before=ready)
            entry = (pix, kernel.tile_stats(pix))
            with state_lock:
                if host_refcount[pos]:
                    host[pos] = entry
                ghost_arrays[pos] = buf
                fft_done_at[pos] = ev.end
            with stats_lock:
                stats["p2p_copies"] = stats.get("p2p_copies", 0) + 1
            q23.put(_FftDone(pos))
            return None

        def release_device_tile(pos: GridPosition) -> None:
            with state_lock:
                ghost = ghost_arrays.pop(pos, None)
            if ghost is not None:
                device.free(ghost)
            else:
                with state_lock:
                    pool.release(slots.pop(pos))

        bk.release = release_device_tile

        def bookkeeper(event, _ctx):
            if isinstance(event, _FftDone):
                for pair in bk.transform_ready(event.pos):
                    q34.put(pair)
            elif isinstance(event, _PairDone):
                bk.pair_completed(event.pair)
            elif isinstance(event, _TileFailed):
                cancelled = bk.tile_failed(event.pos)
                kernel.skip_tile_pairs(event.pos, cancelled)
                host_pairs_done(cancelled)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unexpected event {event!r}")
            if bk.all_pairs_completed():
                q34.close()
                q23.close()
            return None

        def displacement(pair: Pair, ctx):
            # Resume: a journaled pair skips the device work *and* the CCF
            # stage; its host/device bookkeeping is settled here so slot
            # recycling and pipeline completion accounting still flow.
            local: dict = {}
            if kernel.serve_journaled(
                disp, pair.direction, pair.second.row, pair.second.col, local
            ):
                fold_stats(stats, local, stats_lock)
                host_pairs_done([pair])
                q23.put(_PairDone(pair))
                return None
            with state_lock:
                fft_i = fft_array(pair.first)
                fft_j = fft_array(pair.second)
                # Cross-stream dependency (CUDA event wait): the NCC cannot
                # start before both forward transforms completed on the FFT
                # stream's virtual timeline.
                ready = max(fft_done_at[pair.first], fft_done_at[pair.second])
            ncc_kernel(device, fft_i, fft_j, scratch.data, stream_disp,
                       not_before=ready)
            if real:
                irfft2_kernel(device, scratch.data, inv_scratch.data, stream_disp)
                surface = inv_scratch.data
            else:
                ifft2_kernel(device, scratch.data, scratch.data, stream_disp)
                surface = scratch.data
            peaks, _ = reduce_max_kernel(device, surface, stream_disp,
                                         k=kernel.peak_count)
            flat = np.array([v for p in peaks for v in p], dtype=np.float64)
            device.d2h(flat, stream_disp)  # O(k) scalars only
            ctx.emit(_CcfWork(pair, peaks))
            # Feedback entry for memory management (Fig. 8).
            q23.put(_PairDone(pair))
            return None

        def ccf_stage(work: _CcfWork, _ctx):
            pair = work.pair
            with state_lock:
                first, second = host[pair.first], host[pair.second]
            local: dict = {}
            # Host-side CCFs over the device peaks (in coarse mode the
            # contest + hill-climb, with the full-PCIAM fallback).
            t = kernel.resolve_peaks(work.peaks, fft_shape, first, second, local)
            kernel.commit(
                disp, pair.direction, pair.second.row, pair.second.col,
                t, local,
            )
            fold_stats(stats, local, stats_lock)
            host_pairs_done([pair])
            return None

        pipe.stage("read", reader, workers=1, input=None, output=q01)
        pipe.stage("copier", copier, workers=1, input=q01, output=q12)
        pipe.stage("fft", fft_stage, workers=1, input=q12, output=None)
        pipe.stage("bookkeeping", bookkeeper, workers=1, input=q23, output=None)
        pipe.stage("displacement", displacement, workers=1, input=q34, output=q45)
        pipe.stage("ccf", ccf_stage, workers=self.ccf_workers, input=q45, output=None)
        return pipe, import_ghost
