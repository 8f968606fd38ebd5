"""Phase 1: relative displacements for the whole grid (Fig. 4).

:func:`compute_grid_displacements` is the sequential *reference* loop --
the ground truth against which every other scheduler in
:mod:`repro.impls` is checked.  It computes
each tile's products once, reuses them across the tile's incident pairs,
and frees them under the paper's early-release policy driven by the
traversal order (Section IV.A) -- the ledger
:class:`~repro.grid.ledger.PairBookkeeper` every memory-freeing scheduler
shares.  What is computed per tile and per pair
lives in :mod:`repro.core.kernel`, shared with every other scheduler.

Every traversal step has two halves: the *tile stage* reads the tile under
the error policy and builds its products, the *pair stage* registers,
commits and journals the pairs that tile completes -- one journal group
commit per step -- and releases what is done.  They run one after the
other, or -- where :func:`_overlap_pays` says so -- the paper's way:
reader + FFT overlapped with the displacement computation, the tile
stage working exactly one tile ahead of the pair stage.  Either way the
pair stage sees the same steps in the same order, so translations,
counts, fault report and journal bytes are identical.

:func:`partitioned_displacements` is the one CPU schedule over that
loop, and Table II's three CPU rows are presets of it (the paper builds
MT-CPU from Simple-CPU by spatial decomposition and Pipelined-CPU by
overlapping its stages): ``partitions`` column partitions run the loop
side by side, each computing its own pairs, and the tiles two partitions
read are built once before they start; ``overlap`` forces the stages'
schedule or leaves it to :func:`_overlap_pays` on one partition (two
or more run inline unless forced).  A watchdog supervises its tile
reads under every preset.  Simple-GPU, the paper's port of Simple-CPU,
runs the loop too, with a device half in its seam (:class:`HostHalf`).
"""

from __future__ import annotations

import os
import queue
import threading
from contextlib import ExitStack, contextmanager, nullcontext
from functools import partial
from types import SimpleNamespace
from typing import MutableMapping, NamedTuple

from repro.core.kernel import DisplacementResult, Phase1Kernel, Translation
from repro.core.pciam import bump
from repro.grid.ledger import PairBookkeeper
from repro.grid.neighbors import grid_pairs, pairs_for_tile
from repro.grid.tile_grid import GridPosition, TileGrid
from repro.grid.traversal import (
    ColumnPartition,
    Traversal,
    column_partitions,
    traverse,
)
from repro.recovery.watchdog import (
    PipelineStallError,
    SupervisedReads,
    Watchdog,
    WatchdogConfig,
    aggregate_failures,
    join_supervised,
)

__all__ = [
    "DisplacementResult",
    "HostHalf",
    "Translation",
    "compute_grid_displacements",
    "partitioned_displacements",
]

#: Tracer timeline rows of a run on the default ``track``: ``read`` /
#: ``downsample`` / ``fft`` / ``tilestats`` spans land on the first,
#: ``pair`` spans on the second.  Spans of one row never overlap each
#: other; the two rows overlap when the stages do.
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
#: ... and only with a second CPU to run the other stage on:
#: with one, the two threads time-slice and the hand-offs are pure cost
#: (same sweep under ``taskset -c 0``: 0.99x at 512 px, 0.93x at 128 px).
OVERLAP_MIN_CPUS = 2


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the machine's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _overlap_pays(tile_shape) -> bool:
    """Whether a whole-grid run should overlap its stages: large enough
    tiles, and ``OVERLAP_MIN_CPUS`` usable CPUs."""
    return (
        tile_shape[0] * tile_shape[1] >= OVERLAP_MIN_TILE_PIXELS
        and usable_cpus() >= OVERLAP_MIN_CPUS
    )


class HostHalf:
    """The loop's seam -- a tile's products, a pair's registration, a
    product's release -- filled by the kernel on the host: one workspace
    serves the run's pairs, which are processed one at a time (built at
    the first, which reveals the native tile shape).  Simple-GPU fills the
    seam with its device half (:class:`repro.impls.simple_gpu.DeviceHalf`).
    """

    def __init__(self, kernel: Phase1Kernel) -> None:
        self.kernel = kernel
        self.products = kernel.products
        self.workspace = None

    def register(self, result: DisplacementResult, pair, first: tuple,
                 second: tuple, stats: dict) -> Translation:
        if self.workspace is None:
            self.workspace = self.kernel.workspace(first[0].shape)
            stats["workspace_bytes"] = self.workspace.nbytes
        return self.kernel.register_pair(
            result, pair.direction, pair.second.row, pair.second.col,
            first, second, self.workspace, stats,
        )

    def release(self, products: tuple) -> None:
        """Nothing to give back: the products go with their last reference."""


class _TileStep(NamedTuple):
    """What the tile stage hands the pair stage for one traversal step."""

    pos: GridPosition
    #: ``None``: nothing left to compute for this tile, or it was dropped.
    products: tuple | None = None
    #: The tile was dropped: its pairs are cancelled.
    dropped: bool = False
    #: Why, for the journal's forensic record; ``None`` when the tile's
    #: builder in another partition journaled it already.
    reason: str | None = None


def read_tile(kernel: Phase1Kernel, load_tile, pos: GridPosition, track: str):
    """:meth:`~repro.core.kernel.Phase1Kernel.try_read` of ``pos`` as a
    ``read`` span on ``track``.  Under an abort policy an exhausted read
    raises a :class:`~repro.recovery.watchdog.PipelineError` naming the
    logical stage; with no policy the original exception propagates."""
    with kernel.tracer.span("read", track, key=pos):
        try:
            return kernel.try_read(load_tile, pos.row, pos.col)
        except Exception as exc:
            if kernel.error_policy is None:
                raise
            raise aggregate_failures("displacement", [("read", exc)]) from exc


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
    Every exit from the block waits for the helper, so no thread outlives
    it; the helper is a daemon all the same, so a caller wedged in a read
    that a watchdog gave up on cannot keep the process alive.
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

    helper = threading.Thread(target=run, name="phase1-pairs", daemon=True)
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
    partition: ColumnPartition | None = None,
    shared: MutableMapping[GridPosition, tuple | None] | None = None,
    track: str = "phase1",
    overlap: bool | None = None,
    half=None,
    **kernel_options,
) -> DisplacementResult:
    """Compute west/north translations for the whole grid, or one partition.

    With a ``partition`` (one of
    :func:`~repro.grid.traversal.column_partitions`) the run visits its
    ``order`` and computes its ``pairs`` only -- the SPMD share of one
    worker; the result holds those pairs and nothing else.  ``shared``
    maps the tiles another partition also reads to their products, built
    once before the partitions started (``None``: the builder dropped and
    journaled the tile); the run takes them from there -- popping each, so
    the early-release ledger frees it with the run's own products --
    instead of reading and transforming them again.

    ``load_tile(row, col) -> ndarray`` supplies pixels in any real dtype
    (e.g. ``TileDataset.load``; a loader that keeps the stored integer
    dtype saves a float64 copy per live tile, and the answers are the
    same).  Tiles and their products are released as soon as the
    early-free policy allows, so peak memory follows the traversal order,
    not the grid size -- plus, when the stages overlap, the one tile being
    prepared ahead.

    ``kernel`` is the run's :class:`~repro.core.kernel.Phase1Kernel`;
    without one, ``kernel_options`` (``fft_shape``, ``ccf_mode``,
    ``n_peaks``, ``subpixel``, ``error_policy``, ``fault_report``,
    ``tracer``, ``metrics``, ``journal``, ``coarse``)
    build it -- see that class for what each does.

    Whether the two stages overlap is decided here, from the first tile
    read and the CPUs this process may use (:func:`_overlap_pays`); it is
    not a stitch option.
    ``overlap=True``/``False`` forces one schedule: Pipelined-CPU runs
    every partition overlapped, Simple-GPU none, and the tests pin the
    two schedules against each other.

    ``half`` is the loop's seam (:class:`HostHalf`, the default): it
    builds a tile's products, registers a pair from them and releases
    them when the ledger frees the tile.  Simple-GPU passes its device
    half; it is not a stitch option.

    Instrumented: ``result.stats`` records FFT/pair/read counts and the peak
    number of live transforms (these feed the Table I verification bench).
    With a tracer, every read, (downsample,) forward FFT and statistics
    build becomes a span on the ``{track}-tiles`` timeline row
    (:data:`TILE_TRACK`) and every pair registration one on
    ``{track}-pairs`` (:data:`PAIR_TRACK`; ``args["provenance"]`` says
    which path produced it) -- the two-row analogue of Pipelined-GPU's
    per-stage timelines.

    Under an abort policy an exhausted read raises a
    :class:`~repro.recovery.watchdog.PipelineError` naming the logical stage;
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
    if half is None:
        half = HostHalf(kernel)
    tracer = kernel.tracer
    tile_track, pair_track = f"{track}-tiles", f"{track}-pairs"
    grid = TileGrid(rows, cols)
    if partition is None:
        order, pairs = traverse(grid, traversal), grid_pairs(grid)
    else:
        order, pairs = partition.order, partition.pairs
    shared = shared or {}
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
        pair for pair in pairs
        if not kernel.serve_journaled(
            result, pair.direction, pair.second.row, pair.second.col, stats
        )
    )

    # -- pair stage: owns products, the ledger and the journal ---------------

    products: dict[GridPosition, tuple] = {}
    built = released = 0  # products built by the tile stage / freed here

    def release(pos: GridPosition) -> None:
        nonlocal released
        half.release(products.pop(pos))
        released += 1

    # The early-release ledger over the pairs still to compute.  Only the
    # pair stage feeds it; the tile stage reads nothing but its incident
    # lists, which never change.
    ledger = PairBookkeeper(grid, pairs=fresh, release=release)
    # Group commit: a step's pair records share one fsync, at the step's
    # end.  Each is still flushed as it lands, so SIGKILL loses none of
    # them; power loss costs at most the current step, which resume
    # recomputes.
    commit_step = (
        nullcontext if kernel.journal is None else kernel.journal.group
    )

    def register(step: _TileStep) -> None:
        pos = step.pos
        if step.dropped:
            if step.reason is not None and kernel.journal is not None:
                # What kernel.read() would have journaled, at this step's turn.
                kernel.journal.record_skipped_tile(pos.row, pos.col, step.reason)
            # Its pairs are cancelled, so surviving neighbours still free.
            ledger.tile_failed(pos)
            return
        if step.products is None:
            return
        products[pos] = step.products
        with commit_step():
            for pair in ledger.transform_ready(pos):
                # The span says which path produced the pair ("coarse" /
                # "fallback", None = single pass) next to what it cost.
                args = {} if tracer.enabled else None
                with tracer.span("pair", pair_track, key=pair, args=args):
                    t = half.register(
                        result, pair, products[pair.first],
                        products[pair.second], stats,
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
        products = reason = None
        if pos in shared:
            products = shared.pop(pos)
        else:
            pixels, reason = read_tile(kernel, load_tile, pos, tile_track)
            if pixels is not None:
                stats["reads"] += 1
                products = half.products(pixels, stats, track=tile_track,
                                         key=pos)
        if products is None:
            failed_tiles.add(pos)
            n_skipped += len(todo)
            kernel.skip_tile_pairs(pos, todo)
            return _TileStep(pos, dropped=True, reason=reason)
        built += 1
        stats["peak_live_transforms"] = max(
            stats["peak_live_transforms"], built - released
        )
        return _TileStep(pos, products)

    # -- the schedule ----------------------------------------------------------

    with ExitStack() as stack:
        submit = register
        for pos in order:
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

    if failed_tiles:
        stats["skipped_tiles"] = sorted((p.row, p.col) for p in failed_tiles)
        stats["skipped_pairs"] = n_skipped
    result.stats = stats
    if not ledger.all_pairs_completed():  # pragma: no cover
        raise RuntimeError(
            f"displacement phase incomplete: {ledger.pending_pairs()} pairs "
            "never computed"
        )
    return result


# -- the CPU schedule: partitions of the loop above ----------------------------


def fold_stats(stats: dict, local: dict, lock: threading.Lock) -> None:
    """Add a worker's ``local`` counters into the shared ``stats``; its
    per-tile lists (``skipped_tiles``) stay with the worker -- the fault
    report holds the run's."""
    with lock:
        for key, value in local.items():
            if isinstance(value, int):
                stats[key] = stats.get(key, 0) + value


def run_threads(target, arg_lists, watchdog: Watchdog | None = None) -> None:
    """Run ``target(*args)`` on one daemon thread per entry; re-raise the
    first failure once every thread has finished.  Under a started
    ``watchdog`` the wait is :func:`~repro.recovery.watchdog.join_supervised`,
    and an escalation raises
    :class:`~repro.recovery.watchdog.PipelineStallError`."""
    errors: list[BaseException] = []

    def guarded(*args) -> None:
        try:
            target(*args)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=args, daemon=True)
               for args in arg_lists]
    for t in threads:
        t.start()
    if watchdog is None:
        for t in threads:
            t.join()
    else:
        abandoned = join_supervised(threads, watchdog)
        if watchdog.escalated:
            raise PipelineStallError.escalated(watchdog, abandoned)
    if errors:
        raise errors[0]


def _ghost_columns(kernel: Phase1Kernel, grid: TileGrid,
                   parts: list[ColumnPartition]) -> list[list[GridPosition]]:
    """For each column two partitions read -- a partition's ghost column,
    the last one of its western neighbour -- the tiles a pair not yet
    journaled still needs (a tile with nothing left to do is not read)."""
    def needed(pos: GridPosition) -> bool:
        return not all(kernel.journaled(pair)
                       for pair in pairs_for_tile(grid, pos.row, pos.col))

    return [
        [pos for pos in (GridPosition(r, part.first_col)
                         for r in range(grid.rows)) if needed(pos)]
        for part in parts if part.first_col < part.cols[0]
    ]


def partitioned_displacements(
    load_tile,
    rows: int,
    cols: int,
    kernel: Phase1Kernel,
    *,
    partitions: int = 1,
    overlap: bool | None = None,
    traversal: Traversal = Traversal.CHAINED_DIAGONAL,
    watchdog: WatchdogConfig | None = None,
    name: str = "simple-cpu",
) -> DisplacementResult:
    """Phase 1 on the CPU: :func:`compute_grid_displacements` over up to
    ``partitions`` column partitions, one thread each.

    ``overlap`` forces each partition's stage schedule; ``None`` leaves it
    to :func:`_overlap_pays` on one partition and runs two or more inline
    (no measurement yet shows partitions gaining from their own overlap).
    The tiles two partitions read (a ghost column) are read and
    transformed once, one thread per column, before the partitions
    start, and handed to each reader in a mapping of its own, which it
    pops: every tile is read once, and a shared tile goes with its last
    reader.  One partition is the whole grid on the caller's thread --
    the default path -- unless a ``watchdog`` needs a thread it can
    abandon: under one, every tile read is supervised
    (:class:`~repro.recovery.watchdog.SupervisedReads`, reporting as
    ``name``, which also prefixes the partitions' timeline rows).
    """
    grid = TileGrid(rows, cols)
    parts = column_partitions(grid, partitions, traversal) if partitions > 1 else []
    dog = None
    if watchdog is not None:
        load_tile = reads = SupervisedReads(load_tile)
        dog = Watchdog(
            SimpleNamespace(name=name, stages=[reads], queues=[],
                            abort=reads.abort),
            watchdog, metrics=kernel.metrics,
        ).start()
    try:
        if len(parts) <= 1:
            out: list[DisplacementResult] = []
            whole = partial(compute_grid_displacements, load_tile, rows, cols,
                            traversal=traversal, kernel=kernel, overlap=overlap)
            if dog is None:
                out.append(whole())
            else:
                run_threads(lambda: out.append(whole()), [()], dog)
            out[0].stats["partitions"] = 1
            return out[0]

        #: Each partition's shared tiles, popped as the partition takes them.
        handed: list[dict] = [{} for _ in parts]
        disp = DisplacementResult.empty(rows, cols)
        stats = {"reads": 0, "ffts": 0, "pairs": 0, "partitions": len(parts)}
        lock = threading.Lock()

        def build(j: int, column: list[GridPosition]) -> None:
            local: dict = {}
            track = f"{name}/shared-{j}"
            for pos in column:
                pixels, reason = read_tile(kernel, load_tile, pos, track)
                products = None
                if pixels is None:  # dropped: journaled here, once
                    if kernel.journal is not None:
                        kernel.journal.record_skipped_tile(pos.row, pos.col,
                                                           reason)
                else:
                    bump(local, "reads")
                    products = kernel.products(pixels, local, track=track,
                                               key=pos)
                for k, part in enumerate(parts):
                    if part.first_col <= pos.col < part.cols[1]:
                        handed[k][pos] = products
            fold_stats(stats, local, lock)

        def run_partition(k: int, part: ColumnPartition) -> None:
            res = compute_grid_displacements(
                load_tile, rows, cols, kernel=kernel, partition=part,
                shared=handed[k], track=f"{name}/partition-{k}",
                overlap=False if overlap is None else overlap,
            )
            handed[k].clear()  # what it never took goes with it
            disp.update(res)  # partitions own disjoint cells
            fold_stats(stats, res.stats, lock)

        run_threads(build, enumerate(_ghost_columns(kernel, grid, parts)), dog)
        run_threads(run_partition, enumerate(parts), dog)
        disp.stats = stats
        return disp
    finally:
        if dog is not None:
            dog.stop()
