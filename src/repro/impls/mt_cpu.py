"""MT-CPU: SPMD spatial domain decomposition (Section IV.A).

"We used the Simple-CPU implementation to develop a simple multi-threaded
implementation MT CPU.  This implementation uses spatial domain
decomposition and a thread-variant of the SPMD approach."

The grid is split into contiguous row bands, one per worker.  Each worker
runs the sequential algorithm over its band; the north pairs joining band
``k`` to band ``k-1`` are owned by band ``k``, whose worker needs the
boundary row of the band above.

A prefetch phase computes each interior boundary row's products (tile,
forward spectrum, tile statistics) exactly once and shares them with both
adjacent bands -- tiles and their products are read-only, so threads share
them for free.  Every tile is read and transformed exactly once:
``duplicated_boundary_reads`` is 0 by construction.

:func:`row_products` and :func:`band_pairs` are the SPMD band loop itself,
shared with :class:`~repro.impls.proc_cpu.ProcCpu`; the two schedulers
differ only in where results go and where boundary rows come from.
"""

from __future__ import annotations

import threading

from repro.core.displacement import DisplacementResult
from repro.grid.neighbors import Direction
from repro.grid.tile_grid import split_range
from repro.impls.base import Implementation, fold_stats
from repro.io.dataset import TileDataset


def row_products(kernel, dataset: TileDataset, r: int, local: dict,
                 track: str, fft_batch: int | None = None) -> list:
    """Load + transform grid row ``r``: ``[(tile, fft, stats) | None] * cols``.

    ``None`` marks a tile a skip policy dropped.  With ``fft_batch`` the
    tiles go ``fft_batch`` at a time through one batched forward FFT
    (slices are bit-identical to the per-tile transform); without, one by
    one through :meth:`~repro.core.kernel.Phase1Kernel.products`.
    ``local`` must hold a ``reads`` counter.
    """
    cols = dataset.cols
    step = fft_batch or 1
    entries: list[tuple | None] = [None] * cols
    for c0 in range(0, cols, step):
        c1 = min(c0 + step, cols)
        with kernel.tracer.span("read", track, key=f"row{r}[{c0}:{c1}]"):
            tiles = {c: kernel.read(dataset.load, r, c) for c in range(c0, c1)}
        live = [c for c, tile in tiles.items() if tile is not None]
        if not live:
            continue
        local["reads"] += len(live)
        with kernel.tracer.span("fft", track, key=f"row{r}x{len(live)}"):
            if fft_batch is None:
                products = [kernel.products(tiles[c], local) for c in live]
            else:
                products = kernel.batch_products([tiles[c] for c in live], local)
        for c, entry in zip(live, products):
            entries[c] = entry
    return entries


def band_pairs(kernel, sink, r0: int, r1: int, cols: int, row, workspace,
               local: dict, track: str) -> None:
    """Register every pair owned by the row band ``[r0, r1)``.

    West pairs within rows ``>= r0``, north pairs down into the band --
    including from row ``r0 - 1``, the band above's boundary row.  Rows
    are visited top to bottom with a 2-row sliding window, so the band's
    working set is two rows of products regardless of its height.
    ``row(r)`` supplies row ``r``'s :func:`row_products` entries; results
    go to ``sink`` (anything with ``DisplacementResult.set``).  Each pair
    is owned by exactly one band, so serving it from the journal here
    neither races nor double-records.
    """

    def pair(direction, r, c, first, second) -> None:
        if kernel.serve_journaled(sink, direction, r, c, local):
            return
        if first is None or second is None:
            kernel.note_skipped_pair(direction, r, c, "member tile unreadable")
            return
        key = f"{direction.name.lower()}({r},{c})"
        with kernel.tracer.span("pair", track, key=key):
            kernel.register_pair(
                sink, direction, r, c, first, second, workspace, local
            )

    prev_row: list[tuple | None] | None = None
    for r in range(max(r0 - 1, 0), r1):
        cur_row = row(r)
        if r >= r0:
            for c in range(cols):
                if c > 0:
                    pair(Direction.WEST, r, c, cur_row[c - 1], cur_row[c])
                if prev_row is not None:
                    pair(Direction.NORTH, r, c, prev_row[c], cur_row[c])
        prev_row = cur_row


class MtCpu(Implementation):
    """SPMD over row bands (best: 96 s at 16 threads on the paper's machine)."""

    name = "mt-cpu"

    def __init__(self, workers: int = 4, **kw) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        super().__init__(**kw)
        self.workers = workers

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        kernel = self.kernel
        disp = DisplacementResult.empty(dataset.rows, dataset.cols)
        stats_lock = threading.Lock()
        stats = {"reads": 0, "ffts": 0, "pairs": 0,
                 "duplicated_boundary_reads": 0}
        errors: list[BaseException] = []

        bands = split_range(dataset.rows, self.workers)
        # One pair workspace per band: each band worker processes its pairs
        # sequentially, so one scratch set per worker suffices.
        arena = kernel.arena(dataset.tile_shape, count=len(bands))

        #: grid row -> shared entry list, for rows prefetched once and
        #: consumed by both adjacent bands (read-only after the barrier).
        prefetched: dict[int, list] = {}

        def prefetch_worker(b: int, r: int) -> None:
            local = {"reads": 0}
            prefetched[r] = row_products(
                kernel, dataset, r, local, f"mt-cpu/boundary-{b}"
            )
            fold_stats(stats, local, stats_lock)

        def band_worker(k: int, r0: int, r1: int) -> None:
            local = {"reads": 0, "pairs": 0}
            track = f"mt-cpu/band-{k}"

            def row(r: int) -> list:
                if r in prefetched:
                    return prefetched[r]
                return row_products(kernel, dataset, r, local, track)

            ws = arena.acquire()
            try:
                band_pairs(kernel, disp, r0, r1, dataset.cols, row, ws,
                           local, track)
            finally:
                arena.release(ws)
            fold_stats(stats, local, stats_lock)

        def run_all(target, arg_lists) -> None:
            def guarded(*args) -> None:
                try:
                    target(*args)
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=guarded, args=args, daemon=True)
                for args in arg_lists
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            if errors:
                raise errors[0]

        # Phase A: build each interior boundary row's products once.  The
        # rows are disjoint, so the prefetch threads share nothing but the
        # (locked) stats dict, and the band phase reads ``prefetched``
        # without locks -- it is frozen after the join barrier.
        run_all(prefetch_worker,
                [(b, r1 - 1) for b, (_, r1) in enumerate(bands[:-1])])
        run_all(band_worker, [(k, *band) for k, band in enumerate(bands)])
        stats["bands"] = len(bands)
        disp.stats = stats
        return disp, stats
