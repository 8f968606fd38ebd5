"""Grid traversal orders and their memory consequences.

The paper's sequential implementation (Section IV.A) frees a tile's
transform "as soon as the relative displacements of its eastern, southern,
western, and northern neighbors were computed" and supports row, column,
diagonal, and *chained* traversal orders.  Chained-diagonal frees memory
earliest and is the default; the minimum GPU buffer-pool size "must exceed
the smallest dimension of the image grid" precisely because a diagonal
wavefront keeps about one grid-diagonal of transforms live.

:func:`peak_live_transforms` quantifies this: it replays a traversal on
the early-release ledger (:class:`~repro.grid.ledger.PairBookkeeper`) and
reports the maximum number of simultaneously live transforms -- the
quantity the sequential reference schedule measures as
``stats["peak_live_transforms"]``, which tests use to verify the
chained-diagonal claim.  It does not size any pool: the pipelines default
to ``2 * min(rows, cols) + 4`` slots and Simple-GPU to ``+ 5`` (one NCC
scratch slot more), fixed rules the tests hold above this peak for the
chained-diagonal order.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

from repro.grid.ledger import PairBookkeeper
from repro.grid.tile_grid import GridPosition, TileGrid


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
    connected path), which keeps the working set compact.
    """
    rows, cols = grid.rows, grid.cols
    if order is Traversal.ROW:
        for r in range(rows):
            for c in range(cols):
                yield GridPosition(r, c)
    elif order is Traversal.COLUMN:
        for c in range(cols):
            for r in range(rows):
                yield GridPosition(r, c)
    elif order is Traversal.CHAINED_ROW:
        for r in range(rows):
            rng = range(cols) if r % 2 == 0 else range(cols - 1, -1, -1)
            for c in rng:
                yield GridPosition(r, c)
    elif order is Traversal.CHAINED_COLUMN:
        for c in range(cols):
            rng = range(rows) if c % 2 == 0 else range(rows - 1, -1, -1)
            for r in rng:
                yield GridPosition(r, c)
    elif order in (Traversal.DIAGONAL, Traversal.CHAINED_DIAGONAL):
        chained = order is Traversal.CHAINED_DIAGONAL
        for d in range(rows + cols - 1):
            r_lo = max(0, d - cols + 1)
            r_hi = min(rows - 1, d)
            rng = range(r_lo, r_hi + 1)
            if chained and d % 2 == 1:
                rng = range(r_hi, r_lo - 1, -1)
            for r in rng:
                yield GridPosition(r, d - r)
    else:  # pragma: no cover - exhaustive enum
        raise AssertionError(order)


def release_schedule(
    grid: TileGrid, order: Traversal
) -> list[tuple[GridPosition, list[GridPosition]]]:
    """Replay a traversal under the paper's early-free policy.

    For each visited tile, pair computations become *ready* when both
    members' transforms are live; a tile's transform is released once all
    its incident pairs have been computed.  Returns, per visit,
    ``(position, [transforms released after this visit])``.
    """
    freed: list[GridPosition] = []
    ledger = PairBookkeeper(grid, release=freed.append)
    out: list[tuple[GridPosition, list[GridPosition]]] = []
    for pos in traverse(grid, order):
        for pair in ledger.transform_ready(pos):
            ledger.pair_completed(pair)
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
