"""Grid traversal orders, their memory consequences, column partitions.

The paper's sequential implementation (Section IV.A) frees a tile's
transform "as soon as the relative displacements of its eastern, southern,
western, and northern neighbors were computed" and supports row, column,
diagonal, and *chained* traversal orders.  Chained-diagonal frees memory
earliest and is the default; the minimum GPU buffer-pool size "must exceed
the smallest dimension of the image grid" precisely because a diagonal
wavefront keeps about one grid-diagonal of transforms live.

The early-release ledger (:class:`~repro.grid.ledger.PairBookkeeper`)
gives every schedule its pair readiness: :func:`replay` visits an order on
it, yielding each tile with the pairs it made ready.  From that replay
:func:`peak_live_transforms` reports the maximum number of simultaneously
live transforms (``stats["peak_live_transforms"]`` of the sequential
schedule); the tests hold :func:`default_pool_size`, the pool rule every
transform pool starts from, above it for the chained-diagonal order.

:func:`column_partitions` is the spatial decomposition of the multi-GPU
pipeline (Section IV.B) and its per-socket variant: column ranges, each
also reading its western "ghost" column unless a p2p link delivers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

from repro.grid.ledger import PairBookkeeper
from repro.grid.neighbors import Pair, grid_pairs
from repro.grid.tile_grid import GridPosition, TileGrid, split_range


class Traversal(Enum):
    """Supported traversal orders (Section IV.A)."""

    ROW = "row"
    COLUMN = "column"
    DIAGONAL = "diagonal"
    CHAINED_ROW = "chained-row"
    CHAINED_COLUMN = "chained-column"
    CHAINED_DIAGONAL = "chained-diagonal"


def traverse(grid: TileGrid, order: Traversal) -> Iterator[GridPosition]:
    """Yield every grid position exactly once in the requested order.

    "Chained" orders alternate direction between successive rows/columns/
    anti-diagonals so consecutive tiles stay adjacent (the traversal is a
    connected path), which keeps the working set compact.  The positions
    are the grid's own (:meth:`~repro.grid.tile_grid.TileGrid.positions`).
    """
    rows, cols, at = grid.rows, grid.cols, grid.positions()
    if order is Traversal.ROW:
        for r in range(rows):
            for c in range(cols):
                yield at[r * cols + c]
    elif order is Traversal.COLUMN:
        for c in range(cols):
            for r in range(rows):
                yield at[r * cols + c]
    elif order is Traversal.CHAINED_ROW:
        for r in range(rows):
            rng = range(cols) if r % 2 == 0 else range(cols - 1, -1, -1)
            for c in rng:
                yield at[r * cols + c]
    elif order is Traversal.CHAINED_COLUMN:
        for c in range(cols):
            rng = range(rows) if c % 2 == 0 else range(rows - 1, -1, -1)
            for r in rng:
                yield at[r * cols + c]
    elif order in (Traversal.DIAGONAL, Traversal.CHAINED_DIAGONAL):
        chained = order is Traversal.CHAINED_DIAGONAL
        for d in range(rows + cols - 1):
            r_lo = max(0, d - cols + 1)
            r_hi = min(rows - 1, d)
            rng = range(r_lo, r_hi + 1)
            if chained and d % 2 == 1:
                rng = range(r_hi, r_lo - 1, -1)
            for r in rng:
                yield at[r * cols + d - r]
    else:  # pragma: no cover - exhaustive enum
        raise AssertionError(order)


def replay(
    grid: TileGrid,
    order: Iterable[GridPosition],
    pairs: Iterable[Pair] | None = None,
    release: Callable[[GridPosition], None] = lambda pos: None,
) -> Iterator[tuple[GridPosition, list[Pair]]]:
    """Visit ``order`` on the early-release ledger over ``pairs`` (``None``:
    the whole grid), computing each pair the moment both its transforms
    exist; yield every visit with the pairs it made ready.

    ``release`` sees each tile freed, before its visit is yielded.
    """
    ledger = PairBookkeeper(grid, pairs=pairs, release=release)
    for pos in order:
        ready = ledger.transform_ready(pos)
        for pair in ready:
            ledger.pair_completed(pair)
        yield pos, ready


def release_schedule(
    grid: TileGrid, order: Traversal
) -> list[tuple[GridPosition, list[GridPosition]]]:
    """Replay a traversal under the paper's early-free policy.

    Returns, per visit, ``(position, [transforms released after this
    visit])``: a tile's transform is released once all its incident pairs
    have been computed.
    """
    freed: list[GridPosition] = []
    out: list[tuple[GridPosition, list[GridPosition]]] = []
    for pos, _ready in replay(grid, traverse(grid, order), release=freed.append):
        out.append((pos, sorted(freed)))
        freed.clear()
    return out


def peak_live_transforms(grid: TileGrid, order: Traversal) -> int:
    """Maximum number of simultaneously live transforms for a traversal.

    This is the quantity that crashes into the memory wall in Fig. 5.  A
    tile counts as live from its visit until the visit that completes its
    last pair, so a pairless 1x1 grid peaks at 1.
    """
    live = 0
    peak = 0
    for _pos, freed in release_schedule(grid, order):
        live += 1
        peak = max(peak, live)
        live -= len(freed)
    return peak


def default_pool_size(rows: int, cols: int) -> int:
    """Transform-pool slots for a ``rows x cols`` chained-diagonal
    wavefront (Simple-GPU adds one NCC scratch slot)."""
    return 2 * min(rows, cols) + 4


@dataclass(frozen=True)
class ColumnPartition:
    """One pipeline's share of the grid.

    ``cols`` is the owned column range ``[c0, c1)``; ``pairs`` are the
    pairs whose second tile lies in it (north pairs are column-local, a
    west pair belongs to the partition of its eastern tile), in
    :func:`~repro.grid.neighbors.grid_pairs` order; ``first_col`` is the
    first column the partition reads -- ``c0 - 1`` when it reads its
    western ghost column itself -- and ``order`` its traversal over the
    columns ``[first_col, c1)`` it reads.
    """

    cols: tuple[int, int]
    pairs: tuple[Pair, ...]
    first_col: int
    order: tuple[GridPosition, ...]


def column_partitions(
    grid: TileGrid, parts: int, traversal: Traversal, p2p: bool = False
) -> list[ColumnPartition]:
    """Split the grid into at most ``parts`` column partitions.

    Ranges come from :func:`~repro.grid.tile_grid.split_range`; only those
    that own a pair are kept (a 1x1 grid, or a one-row grid's first
    column, owns none).  A kept partition reads its ghost column unless it
    starts the grid or, under ``p2p``, a kept partition to its west ships
    that column's transforms over the link.
    """
    all_pairs, at = grid_pairs(grid), grid.positions()
    out: list[ColumnPartition] = []
    for c0, c1 in split_range(grid.cols, parts):
        pairs = tuple(p for p in all_pairs if c0 <= p.second.col < c1)
        if not pairs:
            continue
        lo = c0 if c0 == 0 or (p2p and out) else c0 - 1
        visit = traverse(TileGrid(grid.rows, c1 - lo), traversal)
        out.append(ColumnPartition(
            (c0, c1), pairs, lo,
            tuple(at[p.row * grid.cols + p.col + lo] for p in visit),
        ))
    return out
