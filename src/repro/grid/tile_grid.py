"""Grid geometry: positions, linear indexing, acquisition numbering.

Microscopes number tiles in acquisition order (the stage path), which is not
necessarily row-major from the upper-left: stages commonly scan in a
serpentine ("combing") path and may start from any corner.
:class:`TileGrid` converts between grid coordinates ``(row, col)``, linear
indices, and acquisition sequence numbers so datasets written in any of
these conventions address the same tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True, order=True)
class GridPosition:
    """A tile's grid coordinates (row-major, origin upper-left)."""

    row: int
    col: int

    def __iter__(self):
        yield self.row
        yield self.col


class Origin(Enum):
    """Which grid corner the acquisition sequence starts from."""

    UPPER_LEFT = "ul"
    UPPER_RIGHT = "ur"
    LOWER_LEFT = "ll"
    LOWER_RIGHT = "lr"


class Numbering(Enum):
    """Acquisition path shape."""

    ROW_MAJOR = "row"            # raster: every row scanned left-to-right
    COLUMN_MAJOR = "column"      # raster by columns
    ROW_SERPENTINE = "row-serpentine"        # boustrophedon rows (stage combing)
    COLUMN_SERPENTINE = "column-serpentine"  # boustrophedon columns


class TileGrid:
    """An ``rows x cols`` tile grid with index/sequence conversions."""

    def __init__(
        self,
        rows: int,
        cols: int,
        origin: Origin = Origin.UPPER_LEFT,
        numbering: Numbering = Numbering.ROW_MAJOR,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.origin = origin
        self.numbering = numbering

    def __len__(self) -> int:
        return self.rows * self.cols

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TileGrid({self.rows}x{self.cols}, {self.origin.value}, {self.numbering.value})"

    def __contains__(self, pos: tuple[int, int] | GridPosition) -> bool:
        r, c = pos
        return 0 <= r < self.rows and 0 <= c < self.cols

    # -- linear (row-major) indexing ---------------------------------------

    def index(self, row: int, col: int) -> int:
        """Row-major linear index of ``(row, col)``."""
        if (row, col) not in self:
            raise IndexError(f"({row},{col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def position(self, index: int) -> GridPosition:
        """Inverse of :meth:`index`."""
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} outside grid of {len(self)} tiles")
        return GridPosition(index // self.cols, index % self.cols)

    # -- acquisition sequence ----------------------------------------------

    def _axis_flip(self, row: int, col: int) -> tuple[int, int]:
        if self.origin in (Origin.UPPER_RIGHT, Origin.LOWER_RIGHT):
            col = self.cols - 1 - col
        if self.origin in (Origin.LOWER_LEFT, Origin.LOWER_RIGHT):
            row = self.rows - 1 - row
        return row, col

    def sequence_of(self, row: int, col: int) -> int:
        """Acquisition sequence number of grid position ``(row, col)``."""
        if (row, col) not in self:
            raise IndexError(f"({row},{col}) outside {self.rows}x{self.cols} grid")
        r, c = self._axis_flip(row, col)
        if self.numbering is Numbering.ROW_MAJOR:
            return r * self.cols + c
        if self.numbering is Numbering.COLUMN_MAJOR:
            return c * self.rows + r
        if self.numbering is Numbering.ROW_SERPENTINE:
            cc = c if r % 2 == 0 else self.cols - 1 - c
            return r * self.cols + cc
        if self.numbering is Numbering.COLUMN_SERPENTINE:
            rr = r if c % 2 == 0 else self.rows - 1 - r
            return c * self.rows + rr
        raise AssertionError(self.numbering)  # pragma: no cover

    def position_of_sequence(self, seq: int) -> GridPosition:
        """Grid position of acquisition sequence number ``seq``."""
        if not 0 <= seq < len(self):
            raise IndexError(f"sequence {seq} outside grid of {len(self)} tiles")
        if self.numbering is Numbering.ROW_MAJOR:
            r, c = seq // self.cols, seq % self.cols
        elif self.numbering is Numbering.COLUMN_MAJOR:
            c, r = seq // self.rows, seq % self.rows
        elif self.numbering is Numbering.ROW_SERPENTINE:
            r, c = seq // self.cols, seq % self.cols
            if r % 2 == 1:
                c = self.cols - 1 - c
        elif self.numbering is Numbering.COLUMN_SERPENTINE:
            c, r = seq // self.rows, seq % self.rows
            if c % 2 == 1:
                r = self.rows - 1 - r
        else:  # pragma: no cover
            raise AssertionError(self.numbering)
        r, c = self._axis_flip(r, c)
        return GridPosition(r, c)

    # -- iteration -----------------------------------------------------------

    def positions(self):
        """All positions in row-major order."""
        for r in range(self.rows):
            for c in range(self.cols):
                yield GridPosition(r, c)


def split_range(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``min(parts, n)`` contiguous ``[lo, hi)``
    ranges whose sizes differ by at most one, the larger ones first.

    The spatial decomposition of every partitioned scheduler: the column
    partitions of MT-CPU, per-socket Pipelined-CPU and the per-GPU
    pipelines, and the simulated MT-CPU's row bands.
    """
    parts = min(parts, n)
    base, extra = divmod(n, parts)
    out, lo = [], 0
    for k in range(parts):
        hi = lo + base + (1 if k < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out
