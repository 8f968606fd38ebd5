"""Tile-grid substrate: geometry, adjacency, and traversal orders.

The stitching computation is structured around an ``n x m`` grid of
overlapping tiles.  The memory behaviour of every implementation in the paper
is governed by the *order* in which tiles are visited (Section IV.A: the
chained-diagonal traversal frees transform memory earliest and is the
default) and by the 4-neighbour adjacency that defines which relative
displacements exist (Fig. 4: one *west* and one *north* translation per
tile, where present).  :class:`PairBookkeeper` is the early-release
ledger over those pairs that every memory-freeing scheduler runs on.
"""

from repro.grid.tile_grid import TileGrid, GridPosition, split_range
from repro.grid.neighbors import Direction, Pair, grid_pairs, pairs_for_tile
from repro.grid.ledger import PairBookkeeper
from repro.grid.traversal import (
    Traversal,
    traverse,
    peak_live_transforms,
    release_schedule,
)

__all__ = [
    "TileGrid",
    "GridPosition",
    "split_range",
    "Direction",
    "Pair",
    "grid_pairs",
    "pairs_for_tile",
    "PairBookkeeper",
    "Traversal",
    "traverse",
    "peak_live_transforms",
    "release_schedule",
]
