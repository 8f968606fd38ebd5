"""Proc-CPU: SPMD row bands over processes (GIL-free phase 1).

Same spatial decomposition and the same band loop
(:func:`~repro.impls.mt_cpu.row_products`,
:func:`~repro.impls.mt_cpu.band_pairs`) as
:class:`~repro.impls.mt_cpu.MtCpu`, but the band workers are OS
*processes*, so the non-numpy half of the phase-1 loop (peak contests,
CCF dispatch, bookkeeping) runs truly concurrently instead of
serializing on the GIL.  The pieces that make that practical:

- **fork + shared memory, zero pickling of pixels.**  Workers are forked
  from the parent after the run context (dataset handle, configuration,
  shared slabs) is staged in a module global, so they inherit everything
  by address; only the small per-band result records travel back through
  the executor.  Cross-band products move through a
  :class:`~repro.memmodel.shm.ShmArena` whose slabs are ``MAP_SHARED``,
  visible to every process.

- **two-phase boundary exchange.**  The north pairs joining band ``k`` to
  band ``k-1`` need the boundary row's tiles/spectra/statistics in *both*
  bands.  Phase A loads each interior boundary row exactly once and
  publishes tile + forward spectrum into the arena; Phase B band workers
  consume the slab views from both sides and rebuild the tile statistics
  from the shared tile (cheap at every tile size, and no 16 B/px slab).
  Every tile in the grid is therefore read and transformed exactly once
  -- ``duplicated_boundary_reads`` is 0 by construction.

- **batched forward FFTs.**  Row tiles are transformed ``fft_batch`` at a
  time through :func:`repro.core.pciam.forward_fft_batch` -- one backend
  call per stack amortizes per-transform dispatch overhead; slices are
  bit-identical to the per-tile transform.

- **deterministic merge.**  Each pair is owned by exactly one band;
  workers return their displacement records and the parent folds them in
  band order, so positions are bit-identical to ``simple-cpu``.

- **durability from inside workers.**  Each worker appends completed
  pairs to the run journal through its own
  :class:`~repro.recovery.journal.JournalAppender` (``O_APPEND`` writes
  interleave atomically), so a SIGKILL of the whole process tree loses at
  most in-flight pairs, exactly like the threaded backends.  Resume reads
  come from the fork-inherited journal state (read-only in workers).

Workers watch their parent's pid and ``os._exit`` when it changes
(SIGKILL of the parent must not leave orphans holding slab mappings), and
the arena unlinks its segments on normal exit *and* via the creator's
``resource_tracker`` after a kill.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import multiprocessing as mp

import numpy as np

from repro.core.displacement import DisplacementResult
from repro.core.kernel import Phase1Kernel
from repro.core.tilestats import TileStats
from repro.fftlib.plans import TransformKind
from repro.grid.neighbors import Direction
from repro.grid.tile_grid import split_range
from repro.impls.base import Implementation
from repro.impls.mt_cpu import band_pairs, row_products
from repro.io.dataset import TileDataset
from repro.memmodel.shm import ShmArena
from repro.observe.tracer import Tracer
from repro.recovery.journal import JournalAppender


#: Run context staged by the parent immediately before the executor's
#: workers fork, and inherited by them by address.  Exactly one proc-cpu
#: run may be live per process at a time (runs are sequential in every
#: caller; a second concurrent run would need a keyed registry here).
_CTX: "_RunCtx | None" = None


@dataclass
class _RunCtx:
    """Everything a forked band worker needs, reachable by inheritance."""

    impl: "ProcCpu"
    dataset: TileDataset
    bands: list[tuple[int, int]]
    #: Slab views indexed ``b * cols + c`` for interior boundary ``b``
    #: (the last row of band ``b``); ``None`` when the grid has one band.
    tiles: np.ndarray | None
    spectra: np.ndarray | None
    #: ``(n_boundaries, cols)`` int8: 1 = products published, 0 = tile
    #: skipped (or Phase A not run -- never observed by Phase B).
    mask: np.ndarray | None


@dataclass
class _TaskOutcome:
    """What one worker task ships back to the parent for merging.

    Inside the worker it stands in for the two parent-side objects the
    kernel reports to -- the ``DisplacementResult`` (:meth:`set`) and the
    ``FaultReport`` (the ``record_*`` methods): the forked copies of the
    real ones would swallow everything, so the outcome records it and
    :meth:`ProcCpu._merge` replays it in the parent.
    """

    #: ``(Direction, row, col, Translation)`` in traversal order.
    pairs: list = field(default_factory=list)
    skipped_tiles: list = field(default_factory=list)   # (r, c, errmsg)
    skipped_pairs: list = field(default_factory=list)   # (direction, r, c, reason)
    retries: list = field(default_factory=list)         # (r, c, attempt, errmsg)
    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    tracer_t0: float = 0.0

    def set(self, direction, row, col, t) -> None:
        self.pairs.append((direction, row, col, t))

    def record_retry(self, _stage, tile, attempt, exc) -> None:
        self.retries.append((*tile, attempt, f"{type(exc).__name__}: {exc}"))

    def record_skipped_tile(self, tile, exc) -> None:
        self.skipped_tiles.append((*tile, f"{type(exc).__name__}: {exc}"))

    def record_skipped_pair(self, direction, row, col, reason) -> None:
        self.skipped_pairs.append((direction, row, col, reason))


class _Task:
    """One worker task's kernel, outcome and tracer.

    The kernel is the parent's with its sinks swapped for worker-local
    ones: the outcome, a private tracer, and -- so completed pairs are
    durable without the parent -- a :class:`JournalAppender` on the run
    journal whose resume lookups read the fork-inherited journal state.
    """

    def __init__(self, track: str) -> None:
        ctx = _CTX
        parent: Phase1Kernel = ctx.impl.kernel
        self.ctx = ctx
        self.track = track
        self.out = _TaskOutcome()
        self.tracer = Tracer(enabled=parent.tracer.enabled)
        self.out.tracer_t0 = self.tracer._t0
        self.journal = None
        if parent.journal is not None:
            self.journal = JournalAppender(
                *parent.journal.appender_spec(), lookup=parent.journal.peek
            )
        self.kernel = replace(
            parent, fault_report=self.out, metrics=None, tracer=self.tracer,
            journal=self.journal,
        )

    def finish(self, local: dict) -> _TaskOutcome:
        if self.journal is not None:
            self.journal.close()
        self.out.stats = local
        self.out.spans = self.tracer.spans
        return self.out


def _watch_parent(ppid: int) -> None:  # pragma: no cover - daemon loop
    """Exit hard if the parent dies: orphaned band workers must not keep
    slab mappings (or executor queues) alive after a SIGKILL."""
    while True:
        if os.getppid() != ppid:
            os._exit(1)
        time.sleep(0.5)


def _worker_init(ppid: int) -> None:
    """Per-process setup: orphan watch + plan-cache warmup."""
    threading.Thread(target=_watch_parent, args=(ppid,), daemon=True).start()
    ctx = _CTX
    if ctx is None:  # pragma: no cover - defensive
        return
    kernel = ctx.impl.kernel
    # Warm the forward/inverse plans once per worker so the first pair in
    # every band pays no planning cost (the forked cache already holds
    # plans the parent created, but a fresh parent cache arrives cold).
    # Coarse mode warms the coarse shapes (the per-pair hot path) *and*
    # the full-resolution shapes (the fallback path) -- the PlanCache is
    # keyed on (kind, shape), so the two never collide.
    tile_shape = ctx.dataset.tile_shape
    kinds = (
        (TransformKind.R2C, TransformKind.C2R) if kernel.real_transforms
        else (TransformKind.C2C_FORWARD, TransformKind.C2C_INVERSE)
    )
    for shape in {kernel.transform_shape(tile_shape),
                  kernel.full_shape(tile_shape)}:
        for kind in kinds:
            kernel.cache.plan(shape, kind, allow_padding=False)


def _slab_entry(ctx: _RunCtx, b: int, c: int):
    """Entry triple for boundary ``b``, column ``c`` from the shared slabs.

    Tile and spectrum are zero-copy slab views; ``TileStats`` is rebuilt
    from the shared tile, which holds the loaded pixels exactly (float64
    represents every integer sample), so every downstream value is
    bit-identical to the publisher's.
    """
    if ctx.mask is None or not ctx.mask[b, c]:
        return None
    slot = b * ctx.dataset.cols + c
    tile = ctx.tiles[slot]
    return (tile, ctx.spectra[slot], TileStats(tile))


def _boundary_task(b: int) -> _TaskOutcome:
    """Phase A: publish boundary row ``b`` (last row of band ``b``)."""
    task = _Task(f"proc-cpu/boundary-{b}")
    ctx = task.ctx
    local = {"reads": 0, "ffts": 0}
    entries = row_products(
        task.kernel, ctx.dataset, ctx.bands[b][1] - 1, local, task.track,
        ctx.impl.fft_batch,
    )
    for c, entry in enumerate(entries):
        if entry is None:
            continue
        tile, fft, _ = entry
        slot = b * ctx.dataset.cols + c
        ctx.tiles[slot][: tile.shape[0], : tile.shape[1]] = tile
        ctx.spectra[slot] = fft
        ctx.mask[b, c] = 1
    return task.finish(local)


def _band_task(k: int) -> _TaskOutcome:
    """Phase B: all pairs owned by band ``k`` (rows ``[r0, r1)``).

    :func:`~repro.impls.mt_cpu.band_pairs`, with boundary rows (the row
    above, and this band's own last row when it is interior) from the
    Phase A slabs instead of fresh reads, and the outcome as the sink.
    """
    task = _Task(f"proc-cpu/band-{k}")
    ctx, kernel = task.ctx, task.kernel
    r0, r1 = ctx.bands[k]
    cols = ctx.dataset.cols
    local = {"reads": 0, "ffts": 0, "pairs": 0}
    workspace = kernel.arena(ctx.dataset.tile_shape, count=1).acquire()

    def row(r: int) -> list:
        if r == r0 - 1:
            # Boundary row from the band above: published by Phase A.
            return [_slab_entry(ctx, k - 1, c) for c in range(cols)]
        if r == r1 - 1 and k < len(ctx.bands) - 1:
            # This band's own last row is the next band's boundary row;
            # Phase A already read + transformed it.
            return [_slab_entry(ctx, k, c) for c in range(cols)]
        return row_products(
            kernel, ctx.dataset, r, local, task.track, ctx.impl.fft_batch
        )

    band_pairs(kernel, task.out, r0, r1, cols, row, workspace, local,
               task.track)
    return task.finish(local)


class ProcCpu(Implementation):
    """SPMD row bands over a fork-based process pool.

    ``workers`` caps the band count (like MT-CPU); ``fft_batch`` sets how
    many row tiles share one batched forward transform (1 disables
    batching).  Positions are bit-identical to ``simple-cpu`` in every
    configuration.
    """

    name = "proc-cpu"

    def __init__(self, workers: int = 4, fft_batch: int = 4, **kw) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if fft_batch < 1:
            raise ValueError(f"fft_batch must be >= 1, got {fft_batch}")
        super().__init__(**kw)
        self.workers = workers
        self.fft_batch = fft_batch

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        global _CTX
        kernel = self.kernel
        bands = split_range(dataset.rows, self.workers)
        n_boundaries = len(bands) - 1
        use_pool = n_boundaries > 0 and "fork" in mp.get_all_start_methods()

        tile_shape = tuple(dataset.tile_shape)
        # In coarse mode the published per-tile spectrum is coarse-shaped
        # (the full-resolution spectrum is never computed up front).
        sshape = kernel.buffer_shape(tile_shape)
        slots = n_boundaries * dataset.cols

        arena = None
        tiles = spectra = mask = None
        if n_boundaries:
            if use_pool:
                # MAP_SHARED slabs: Phase A writes in workers must be
                # visible to every Phase B worker.
                arena = ShmArena()
                tiles = arena.slab("tiles", slots, tile_shape, np.float64).array
                spectra = arena.slab("spectra", slots, sshape, np.complex128).array
                mask = arena.slab(
                    "mask", n_boundaries, (dataset.cols,), np.int8
                ).array
            else:  # pragma: no cover - non-fork platforms
                tiles = np.zeros((slots, *tile_shape))
                spectra = np.zeros((slots, *sshape), dtype=np.complex128)
                mask = np.zeros((n_boundaries, dataset.cols), dtype=np.int8)

        _CTX = _RunCtx(
            impl=self, dataset=dataset, bands=bands,
            tiles=tiles, spectra=spectra, mask=mask,
        )
        disp = DisplacementResult.empty(dataset.rows, dataset.cols)
        stats = {
            "reads": 0, "ffts": 0, "pairs": 0, "duplicated_boundary_reads": 0,
            "bands": len(bands), "process_workers": len(bands) if use_pool else 0,
        }
        try:
            if use_pool:
                outcomes = self._run_pool(bands, n_boundaries)
            else:
                outcomes = [
                    _boundary_task(b) for b in range(n_boundaries)
                ] + [_band_task(k) for k in range(len(bands))]
            self._merge(disp, stats, outcomes)
        finally:
            _CTX = None
            if arena is not None:
                arena.close()
        disp.stats = stats
        return disp, stats

    def _run_pool(self, bands, n_boundaries) -> list[_TaskOutcome]:
        """Fork the pool (after ``_CTX`` is staged) and run both phases."""
        ctx = mp.get_context("fork")
        outcomes: list[_TaskOutcome] = []
        with ProcessPoolExecutor(
            max_workers=len(bands), mp_context=ctx,
            initializer=_worker_init, initargs=(os.getpid(),),
        ) as pool:
            # Phase A must complete before any band consumes a slab; the
            # barrier is cheap (boundary rows are a 1/band_height slice
            # of the grid) and keeps Phase B entirely synchronization-free.
            for fut in [pool.submit(_boundary_task, b)
                        for b in range(n_boundaries)]:
                outcomes.append(fut.result())
            for fut in [pool.submit(_band_task, k)
                        for k in range(len(bands))]:
                outcomes.append(fut.result())
        return outcomes

    def _merge(self, disp: DisplacementResult, stats: dict,
               outcomes: list[_TaskOutcome]) -> None:
        """Fold worker outcomes into the parent-side result, in task order.

        Pair ownership is disjoint across bands, so the fold order cannot
        change any value -- but fixing it keeps every parent-side artifact
        (trace, fault report, journal accounting) deterministic too.
        """
        kernel = self.kernel
        for out in outcomes:
            for d, r, c, t in out.pairs:
                disp.set(d, r, c, t)
            for r, c, attempt, err in out.retries:
                kernel.note_retry(r, c, attempt, RuntimeError(err))
            for r, c, err in out.skipped_tiles:
                # The worker's appender already journaled the skip.
                kernel.count_skipped_tile(r, c, RuntimeError(err))
            for d, r, c, reason in out.skipped_pairs:
                kernel.note_skipped_pair(Direction(d), r, c, reason)
            for key, v in out.stats.items():
                stats[key] = stats.get(key, 0) + v
            kernel.tracer.absorb(out.spans, out.tracer_t0)
        resumed = stats.get("resumed_pairs", 0)
        if kernel.journal is not None:
            kernel.journal.resumed_pairs += resumed
            kernel.journal.note_worker_pairs(stats.get("pairs", 0))
            if kernel.metrics is not None and resumed:
                kernel.metrics.counter("journal.pairs_resumed").inc(resumed)
