"""Phase 1: relative displacements for the whole grid (Fig. 4).

This is the sequential *reference* schedule -- the ground truth against
which every other scheduler in :mod:`repro.impls` is checked.  It computes
each tile's products once, reuses them across the tile's incident pairs,
and frees them under the paper's early-release policy driven by the
traversal order (Section IV.A) -- the ledger
:class:`~repro.grid.ledger.PairBookkeeper` every memory-freeing scheduler
shares.  What is computed per tile and per pair
lives in :mod:`repro.core.kernel`, shared with every other scheduler.

Every traversal step has two halves: the *tile stage* reads the tile under
the error policy and builds its products, the *pair stage* registers,
commits and journals the pairs that tile completes and releases what is
done.  They run one after the other, or -- where :func:`_overlap_pays`
says so -- the paper's way: reader + FFT overlapped with the displacement
computation, the tile stage working exactly one tile ahead of the pair
stage.  Either way the pair stage sees the same steps in the same order,
so translations, counts, fault report and journal bytes are identical.
"""

from __future__ import annotations

import os
import queue
import threading
from contextlib import ExitStack, contextmanager
from typing import NamedTuple

from repro.core.kernel import DisplacementResult, Phase1Kernel, Translation
from repro.grid.ledger import PairBookkeeper
from repro.grid.neighbors import grid_pairs
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import Traversal, traverse
from repro.pipeline.graph import aggregate_failures

__all__ = ["DisplacementResult", "Translation", "compute_grid_displacements"]

#: Tracer timeline rows: ``read`` / ``downsample`` / ``fft`` / ``tilestats``
#: spans land on the first, ``pair`` spans on the second.  Spans of one row
#: never overlap each other; the two rows overlap when the stages do.
TILE_TRACK = "phase1-tiles"
PAIR_TRACK = "phase1-pairs"

#: The overlapped schedule engages from this many pixels per tile.  Below
#: the crossover a stage is shorter than the hand-off costs (a thread
#: wake-up and the GIL changing hands per step).  Measured by
#: ``benchmarks/bench_phase1_hotpath.py --overlap-sweep`` (5x5 grid, both
#: schedules forced), overlapped over inline: 64 px tiles (4 Ki px) 0.90x,
#: 128 px (16 Ki) 0.92x, 192 px (36 Ki) 0.97x, 256 px (64 Ki) 0.98-1.12x,
#: 320 px (100 Ki) 1.34x, 384 px (144 Ki) 1.38x, 512 px (256 Ki) 1.58x.
#: The gate sits above the crossover band (64-100 Ki px) with margin, so
#: every size it admits was measured to win clearly (docs/PERFORMANCE.md,
#: "Overlapped default schedule").
OVERLAP_MIN_TILE_PIXELS = 128 * 1024
#: ... and only with a second CPU to run the other stage on: with one, the
#: two threads time-slice and the hand-offs are pure cost (same sweep under
#: ``taskset -c 0``: 0.99x at 512 px, 0.93x at 128 px).
OVERLAP_MIN_CPUS = 2


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the machine's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _overlap_pays(tile_shape) -> bool:
    return (
        tile_shape[0] * tile_shape[1] >= OVERLAP_MIN_TILE_PIXELS
        and _usable_cpus() >= OVERLAP_MIN_CPUS
    )


class _TileStep(NamedTuple):
    """What the tile stage hands the pair stage for one traversal step."""

    pos: GridPosition
    #: ``None``: nothing left to compute for this tile, or it was dropped.
    products: tuple | None = None
    #: Why it was dropped (the journal's forensic record), else ``None``.
    dropped: str | None = None


@contextmanager
def _on_helper_thread(consume):
    """Run ``consume(item)`` on one helper thread, the caller one item ahead.

    Yields ``submit(item)``, which returns once the helper has *taken* the
    item -- a rendezvous, not a buffer: while the helper consumes item
    ``k`` the caller can prepare item ``k + 1`` and no more.  Anything
    ``consume`` raises (``KeyboardInterrupt`` and cancellation included)
    stops the helper consuming and is re-raised in the caller, from its
    next ``submit`` or on leaving the block; there it supersedes a failure
    of the caller's own, because the item it failed on came first.  When
    the caller fails, the items it already handed over are still consumed.
    The block waits for the helper: no thread outlives it.
    """
    channel: queue.SimpleQueue = queue.SimpleQueue()
    taken = threading.Semaphore(0)
    failure: list[BaseException] = []

    def run() -> None:
        while True:
            item = channel.get()
            taken.release()
            if item is None:
                return
            if not failure:
                try:
                    consume(item)
                except BaseException as exc:  # re-raised by the caller
                    failure.append(exc)
            del item  # don't pin its arrays while waiting for the next

    def submit(item) -> None:
        channel.put(item)
        taken.acquire()
        if failure:
            raise failure[0]

    helper = threading.Thread(target=run, name="phase1-pairs")
    helper.start()
    try:
        yield submit
    finally:
        channel.put(None)
        helper.join()
        if failure:
            raise failure[0]


def compute_grid_displacements(
    load_tile,
    rows: int,
    cols: int,
    traversal: Traversal = Traversal.CHAINED_DIAGONAL,
    kernel: Phase1Kernel | None = None,
    _overlap: bool | None = None,
    **kernel_options,
) -> DisplacementResult:
    """Compute west/north translations for the whole grid.

    ``load_tile(row, col) -> ndarray`` supplies pixels in any real dtype
    (e.g. ``TileDataset.load``; a loader that keeps the stored integer
    dtype saves a float64 copy per live tile, and the answers are the
    same).  Tiles and their products are released as soon as the
    early-free policy allows, so peak memory follows the traversal order,
    not the grid size -- plus, when the stages overlap, the one tile being
    prepared ahead.

    ``kernel`` is the run's :class:`~repro.core.kernel.Phase1Kernel`;
    without one, ``kernel_options`` (``fft_shape``, ``ccf_mode``,
    ``n_peaks``, ``real_transforms``, ``subpixel``, ``cache``,
    ``error_policy``, ``fault_report``, ``tracer``, ``metrics``,
    ``journal``, ``coarse``) build it -- see that class for what each does.

    Whether the two stages overlap is decided here, from the first tile
    read and the CPUs this process may use (:func:`_overlap_pays`); it is
    not an option.  ``_overlap`` exists for the tests that pin the two
    schedules against each other.

    Instrumented: ``result.stats`` records FFT/pair/read counts and the peak
    number of live transforms (these feed the Table I verification bench).
    With a tracer, every read, (downsample,) forward FFT and statistics
    build becomes a span on the :data:`TILE_TRACK` timeline row and every
    pair registration one on :data:`PAIR_TRACK` (``args["provenance"]``
    says which path produced it) -- the two-row analogue of the pipelined
    schedulers' per-stage timelines.

    Under an abort policy an exhausted read raises a
    :class:`~repro.pipeline.graph.PipelineError` naming the logical stage;
    under a skip policy the tile is dropped -- with every pair it
    participates in -- and the damage lands in the fault report and
    ``result.stats``.  A journaled pair is never recomputed, and a tile
    whose incident pairs are all journaled is not even read.  A failure
    surfaces once every earlier traversal step has completed, as it does
    when the stages run one after the other.
    """
    if kernel is None:
        kernel = Phase1Kernel(**kernel_options)
    elif kernel_options:
        raise TypeError("pass a kernel or kernel options, not both")
    tracer = kernel.tracer
    grid = TileGrid(rows, cols)
    result = DisplacementResult.empty(rows, cols)

    # Each key has one writer: the tile stage counts reads/ffts and the
    # live peak, the pair stage everything else.
    stats = {
        "reads": 0,
        "ffts": 0,
        "pairs": 0,
        "peak_live_transforms": 0,
    }
    if kernel.coarse is not None:
        stats["coarse_hits"] = 0
        stats["full_fallbacks"] = 0
    # Resume: serve journaled pairs up front; the ledger below covers only
    # the rest, so the traversal skips their computation (and the loads of
    # tiles with nothing left to do).
    fresh = frozenset(
        pair for pair in grid_pairs(grid)
        if not kernel.serve_journaled(
            result, pair.direction, pair.second.row, pair.second.col, stats
        )
    )

    # -- pair stage: owns products, the ledger and the journal ---------------

    products: dict[GridPosition, tuple] = {}
    built = released = 0  # products built by the tile stage / freed here

    def release(pos: GridPosition) -> None:
        nonlocal released
        del products[pos]
        released += 1

    # The early-release ledger over the pairs still to compute.  Only the
    # pair stage feeds it; the tile stage reads nothing but its incident
    # lists, which never change.
    ledger = PairBookkeeper(grid, pairs=fresh, release=release)
    # One workspace for the whole run: pairs are processed one at a time,
    # so a single scratch set serves every pair (built once the first
    # pair reveals the native tile shape).
    arena = workspace = None

    def register(step: _TileStep) -> None:
        nonlocal arena, workspace
        pos = step.pos
        if step.dropped is not None:
            if kernel.journal is not None:
                # What kernel.read() would have journaled, at this step's turn.
                kernel.journal.record_skipped_tile(pos.row, pos.col, step.dropped)
            # Its pairs are cancelled, so surviving neighbours still free.
            ledger.tile_failed(pos)
            return
        if step.products is None:
            return
        products[pos] = step.products
        for pair in ledger.transform_ready(pos):
            first, second = products[pair.first], products[pair.second]
            if workspace is None:
                arena = kernel.arena(first[0].shape, count=1)
                workspace = arena.acquire()
                stats["workspace_bytes"] = arena.bytes_per_workspace
            # The span says which path produced the pair ("coarse" /
            # "fallback", None = single pass) next to what it cost.
            args = {} if tracer.enabled else None
            with tracer.span("pair", PAIR_TRACK, key=str(pair), args=args):
                t = kernel.register_pair(
                    result, pair.direction, pair.second.row, pair.second.col,
                    first, second, workspace, stats,
                )
                if args is not None:
                    args["provenance"] = t.provenance
            ledger.pair_completed(pair)

    # -- tile stage: owns failed_tiles and the read side of the books --------

    failed_tiles: set[GridPosition] = set()
    n_skipped = 0

    def build(pos: GridPosition) -> _TileStep:
        nonlocal n_skipped, built
        # Still to compute: not journaled, and the neighbour not dropped
        # at an earlier step.  Decided from what this stage alone writes,
        # never from the pair stage's progress.
        todo = tuple(
            p for p in ledger.incident(pos)
            if (p.first if p.second == pos else p.second) not in failed_tiles
        )
        if not todo:
            return _TileStep(pos)  # contributes nothing: don't even read it
        key = str(pos)
        with tracer.span("read", TILE_TRACK, key=key):
            try:
                pixels, dropped = kernel.try_read(load_tile, pos.row, pos.col)
            except Exception as exc:
                if kernel.error_policy is None:
                    raise
                raise aggregate_failures(
                    "displacement", [("read", exc)]
                ) from exc
        if pixels is None:
            failed_tiles.add(pos)
            n_skipped += len(todo)
            kernel.skip_tile_pairs(pos, todo)
            return _TileStep(pos, dropped=dropped)
        stats["reads"] += 1
        products = kernel.products(pixels, stats, track=TILE_TRACK, key=key)
        built += 1
        stats["peak_live_transforms"] = max(
            stats["peak_live_transforms"], built - released
        )
        return _TileStep(pos, products)

    # -- the schedule ----------------------------------------------------------

    overlap = _overlap
    with ExitStack() as stack:
        submit = register
        for pos in traverse(grid, traversal):
            step = build(pos)
            if overlap is None and step.products is not None:
                overlap = _overlap_pays(step.products[0].shape)
            if overlap and submit is register:
                # The pair stage moves to the helper, not the tile stage:
                # the large allocations (decoded tile, float64 staging,
                # spectrum, statistics) stay in the caller's malloc arena.
                submit = stack.enter_context(_on_helper_thread(register))
            submit(step)
            del step  # the pair stage's now: don't pin it for another build

    if workspace is not None:
        arena.release(workspace)
    if failed_tiles:
        stats["skipped_tiles"] = sorted((p.row, p.col) for p in failed_tiles)
        stats["skipped_pairs"] = n_skipped
    result.stats = stats
    if not result.is_complete() and not failed_tiles:  # pragma: no cover
        raise RuntimeError(
            f"displacement phase incomplete: {result.pair_count()} pairs of "
            f"{2 * rows * cols - rows - cols}"
        )
    return result
