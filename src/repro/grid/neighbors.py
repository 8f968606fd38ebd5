"""Adjacency: the west/north pair structure of the displacement graph.

Fig. 4 of the paper computes two translation arrays over the grid:
``translations-west[I] = pciam(I#west, I)`` (the tile relative to its western
neighbour) and ``translations-north[I] = pciam(I#north, I)``.  A grid of
``n x m`` tiles therefore has ``n*(m-1)`` WEST pairs and ``(n-1)*m`` NORTH
pairs -- ``2nm - n - m`` pairs total, the pair count in the paper's Table I.

Conventions (used consistently across the whole package):

- A :class:`Pair` is ``(first, second, direction)`` where *second* is the
  tile owning the edge and *first* is its west/north neighbour.
- The displacement stored for the pair positions *second* in *first*'s
  coordinate frame, i.e. ``tx`` is about ``+ (w - overlap)`` for WEST pairs
  and ``ty`` about ``+ (h - overlap)`` for NORTH pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from repro.grid.tile_grid import GridPosition, TileGrid


class Direction(Enum):
    """Edge direction in the displacement graph."""

    WEST = "west"    # edge between (r, c-1) -> (r, c)
    NORTH = "north"  # edge between (r-1, c) -> (r, c)


@dataclass(frozen=True, order=True)
class Pair:
    """An adjacent tile pair; ``first`` is the west/north neighbour of ``second``."""

    first: GridPosition
    second: GridPosition
    direction: Direction

    def __post_init__(self) -> None:
        fr, fc = self.first
        sr, sc = self.second
        if self.direction is Direction.WEST and (fr != sr or fc != sc - 1):
            raise ValueError(f"not a west pair: {self.first} -> {self.second}")
        if self.direction is Direction.NORTH and (fc != sc or fr != sr - 1):
            raise ValueError(f"not a north pair: {self.first} -> {self.second}")


def pairs_for_tile(grid: TileGrid, row: int, col: int) -> list[Pair]:
    """The (up to 4) pairs whose computation needs tile ``(row, col)``.

    These are the edges whose completion decrements the tile's transform
    reference count: its own west/north edges plus the west edge of its
    eastern neighbour and the north edge of its southern neighbour.
    """
    out: list[Pair] = []
    here = GridPosition(row, col)
    if col > 0:
        out.append(Pair(GridPosition(row, col - 1), here, Direction.WEST))
    if row > 0:
        out.append(Pair(GridPosition(row - 1, col), here, Direction.NORTH))
    if col + 1 < grid.cols:
        out.append(Pair(here, GridPosition(row, col + 1), Direction.WEST))
    if row + 1 < grid.rows:
        out.append(Pair(here, GridPosition(row + 1, col), Direction.NORTH))
    return out


def grid_pairs(grid: TileGrid) -> tuple[Pair, ...]:
    """All ``2*rows*cols - rows - cols`` adjacent pairs of the grid (Table
    I), row-major by owning tile; built once per grid shape."""
    return _grid_pairs(grid.rows, grid.cols)


@lru_cache(maxsize=16)
def _grid_pairs(rows: int, cols: int) -> tuple[Pair, ...]:
    at = TileGrid(rows, cols).positions()
    out = []
    for i, here in enumerate(at):
        if here.col > 0:
            out.append(Pair(at[i - 1], here, Direction.WEST))
        if here.row > 0:
            out.append(Pair(at[i - cols], here, Direction.NORTH))
    return tuple(out)


def pair_count(grid: TileGrid) -> int:
    """Closed-form pair count ``2nm - n - m`` from Table I."""
    n, m = grid.rows, grid.cols
    return 2 * n * m - n - m
