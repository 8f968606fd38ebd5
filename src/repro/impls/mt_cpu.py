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
"""

from __future__ import annotations

import threading

from repro.core.displacement import DisplacementResult
from repro.grid.neighbors import Direction
from repro.impls.base import Implementation, fold_stats
from repro.io.dataset import TileDataset


def row_bands(rows: int, workers: int) -> list[tuple[int, int]]:
    """Split ``rows`` into ``<= workers`` contiguous ``[r0, r1)`` bands."""
    workers = min(workers, rows)
    base, extra = divmod(rows, workers)
    bands = []
    r0 = 0
    for k in range(workers):
        r1 = r0 + base + (1 if k < extra else 0)
        bands.append((r0, r1))
        r0 = r1
    return bands


class MtCpu(Implementation):
    """SPMD over row bands (best: 96 s at 16 threads on the paper's machine)."""

    name = "mt-cpu"

    def __init__(self, workers: int = 4, **kw) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        super().__init__(**kw)
        self.workers = workers

    def _run(self, dataset: TileDataset) -> tuple[DisplacementResult, dict]:
        disp = DisplacementResult.empty(dataset.rows, dataset.cols)
        stats_lock = threading.Lock()
        stats = {"reads": 0, "ffts": 0, "pairs": 0,
                 "duplicated_boundary_reads": 0}
        errors: list[BaseException] = []

        bands = row_bands(dataset.rows, self.workers)
        # One pair workspace per band: each band worker processes its pairs
        # sequentially, so one scratch set per worker suffices.
        arena = self.kernel.arena(dataset.tile_shape, count=len(bands))

        #: grid row -> shared entry list, for rows prefetched once and
        #: consumed by both adjacent bands (read-only after the barrier).
        prefetched: dict[int, list] = {}

        def prefetch_worker(b: int, r: int) -> None:
            prefetched[r] = self._row_products(
                dataset, r, stats, stats_lock, track=f"mt-cpu/boundary-{b}"
            )

        def band_worker(k: int, r0: int, r1: int) -> None:
            ws = arena.acquire()
            try:
                self._band(
                    dataset, disp, r0, r1, stats, stats_lock, k, ws,
                    prefetched,
                )
            finally:
                arena.release(ws)

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

    def _row_products(self, dataset, r: int, stats, stats_lock,
                      track: str) -> list:
        """Load + transform one grid row; entries are ``None`` for skips
        (their pairs are recorded as skipped and never computed)."""
        kernel = self.kernel
        local = {"reads": 0}
        entries: list[tuple | None] = []
        for c in range(dataset.cols):
            with kernel.tracer.span("read+fft", track, key=f"({r},{c})"):
                tile = kernel.read(dataset.load, r, c)
                if tile is None:
                    entries.append(None)
                    continue
                local["reads"] += 1
                entries.append(kernel.products(tile, local))
        fold_stats(stats, local, stats_lock)
        return entries

    def _band(
        self,
        dataset: TileDataset,
        disp: DisplacementResult,
        r0: int,
        r1: int,
        stats: dict,
        stats_lock: threading.Lock,
        band: int,
        workspace,
        prefetched: dict,
    ) -> None:
        """Sequential pass over rows [r0, r1) with a 2-row sliding window.

        Row-major traversal within the band: computing row ``r`` needs only
        rows ``r-1`` and ``r`` live, so the band's working set is two rows
        of transforms (plus tile statistics) regardless of band height.
        Rows present in ``prefetched`` (the shared boundary rows) are
        consumed in place -- no read, no FFT.
        """
        kernel = self.kernel
        local = {"pairs": 0}
        prev_row: list[tuple | None] | None = None
        track = f"mt-cpu/band-{band}"

        def pair(direction, r, c, first, second) -> None:
            # Each pair is owned by exactly one band, so serving it from
            # the journal here neither races nor double-records.
            if kernel.serve_journaled(disp, direction, r, c, local):
                return
            if first is None or second is None:
                kernel.note_skipped_pair(
                    direction, r, c, "member tile unreadable"
                )
                return
            key = f"{direction.name.lower()}({r},{c})"
            with kernel.tracer.span("pair", track, key=key):
                kernel.register_pair(
                    disp, direction, r, c, first, second, workspace, local
                )

        start = r0 - 1 if r0 > 0 else r0  # include boundary row from the band above
        for r in range(start, r1):
            cur_row = prefetched.get(r)
            if cur_row is None:
                cur_row = self._row_products(
                    dataset, r, stats, stats_lock, track
                )
            if r >= r0:
                for c in range(dataset.cols):
                    # West pair within this row (owned by this band).
                    if c > 0:
                        pair(Direction.WEST, r, c, cur_row[c - 1], cur_row[c])
                    # North pair down from the previous row.
                    if prev_row is not None:
                        pair(Direction.NORTH, r, c, prev_row[c], cur_row[c])
            prev_row = cur_row
        fold_stats(stats, local, stats_lock)
