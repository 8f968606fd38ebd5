"""Tile-dataset layout: file naming, metadata sidecar, lazy access.

A microscope acquisition in the paper is a directory of TIFF tiles addressed
by grid position (e.g. ``img_r03_c17.tif``) plus acquisition parameters.
:class:`TileDataset` provides lazy, index-based access to such a directory so
the reader stage of the pipeline can stream tiles without ever holding the
full grid in memory (the paper's 42x59 grid is 6.68 GB on disk).
"""

from __future__ import annotations

import json
import os
import re
from collections import OrderedDict
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from repro.io.tiff import read_tiff, write_tiff

METADATA_FILENAME = "dataset.json"


class TileCache:
    """Byte-budgeted LRU cache in front of a ``(row, col) -> array`` loader.

    Memory policy for out-of-core composition: the streaming canvas visits
    each tile once per stripe it spans, so without caching a tile crossing
    k stripes is decoded k times.  A small LRU keyed on grid position keeps
    the working set (roughly one tile row) resident and makes decodes O(1)
    amortized, the same role feabas gives ``loader_config.cache_size``.

    ``capacity_bytes`` bounds the sum of cached ``arr.nbytes``; entries are
    evicted least-recently-used.  Tiles larger than the whole budget are
    served load-through without being cached.  Cached arrays are returned
    read-only (they are shared between calls); callers that need to mutate
    must copy.

    Counters (``hits``/``misses``/``evictions``/``current_bytes``/
    ``peak_bytes``) feed the observability gauges; :meth:`stats` snapshots
    them.
    """

    def __init__(self, loader, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        self._loader = loader
        self.capacity_bytes = int(capacity_bytes)
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.current_bytes = 0
        self.peak_bytes = 0

    def load(self, row: int, col: int) -> np.ndarray:
        key = (row, col)
        arr = self._entries.get(key)
        if arr is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return arr
        self.misses += 1
        arr = np.asarray(self._loader(row, col))
        if arr.nbytes > self.capacity_bytes:
            return arr  # load-through: would evict the entire cache for nothing
        while self._entries and self.current_bytes + arr.nbytes > self.capacity_bytes:
            _, old = self._entries.popitem(last=False)
            self.current_bytes -= old.nbytes
            self.evictions += 1
        arr = arr.view()
        arr.setflags(write=False)
        self._entries[key] = arr
        self.current_bytes += arr.nbytes
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        return arr

    __call__ = load

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.current_bytes = 0

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "current_bytes": self.current_bytes,
            "peak_bytes": self.peak_bytes,
            "capacity_bytes": self.capacity_bytes,
        }


@dataclass(frozen=True)
class FilePattern:
    """A ``str.format``-style tile file pattern.

    Two addressing styles, matching what microscope software emits:

    - grid patterns with ``row``/``col`` fields, e.g.
      ``img_r{row:03d}_c{col:03d}.tif``;
    - sequence patterns with a single ``seq`` field, e.g.
      ``img_{seq:04d}.tif`` -- tiles numbered in *acquisition order*,
      which the dataset maps back to grid positions through its scan-path
      metadata (origin corner + raster/serpentine numbering).
    """

    pattern: str = "img_r{row:03d}_c{col:03d}.tif"

    def __post_init__(self) -> None:
        # Fail fast on patterns that cannot address the grid.
        if self.is_sequential:
            try:
                a = self.pattern.format(seq=0)
                b = self.pattern.format(seq=1)
            except (KeyError, IndexError) as exc:
                raise ValueError(
                    f"pattern {self.pattern!r} must use field 'seq'"
                ) from exc
        else:
            try:
                a = self.pattern.format(row=0, col=0)
                b = self.pattern.format(row=1, col=2)
            except (KeyError, IndexError) as exc:
                raise ValueError(
                    f"pattern {self.pattern!r} must use named fields "
                    f"'row'/'col' (or a single 'seq')"
                ) from exc
        if a == b:
            raise ValueError(f"pattern {self.pattern!r} does not vary")

    @property
    def is_sequential(self) -> bool:
        return "{seq" in self.pattern

    def filename(self, row: int, col: int, seq: int | None = None) -> str:
        if self.is_sequential:
            if seq is None:
                raise ValueError(
                    f"sequential pattern {self.pattern!r} needs a sequence number"
                )
            return self.pattern.format(seq=seq)
        return self.pattern.format(row=row, col=col)

    def parse(self, name: str):
        """Recover ``(row, col)`` or ``("seq", n)``; ``None`` if no match."""
        rx = ""
        for part in re.split(r"(\{row[^}]*\}|\{col[^}]*\}|\{seq[^}]*\})", self.pattern):
            if part.startswith("{row"):
                rx += r"(?P<row>\d+)"
            elif part.startswith("{col"):
                rx += r"(?P<col>\d+)"
            elif part.startswith("{seq"):
                rx += r"(?P<seq>\d+)"
            else:
                rx += re.escape(part)
        m = re.fullmatch(rx, name)
        if not m:
            return None
        if self.is_sequential:
            return ("seq", int(m.group("seq")))
        return int(m.group("row")), int(m.group("col"))


@dataclass
class DatasetMetadata:
    """Acquisition parameters stored as a JSON sidecar next to the tiles.

    ``true_positions`` (ground-truth global tile origins, ``[rows][cols][2]``
    as ``(y, x)``) is only present for synthetic datasets; real microscopes
    cannot provide it.  ``overlap`` is the nominal fractional overlap the
    stage was programmed for (the paper's displacement search exists exactly
    because the realized overlap differs from this value).
    """

    rows: int
    cols: int
    tile_height: int
    tile_width: int
    overlap: float
    pattern: str = FilePattern().pattern
    bit_depth: int = 16
    true_positions: list | None = None
    stage_model: dict = field(default_factory=dict)
    #: Acquisition path for sequence-numbered patterns (values of
    #: :class:`repro.grid.tile_grid.Origin` / ``Numbering``).
    origin: str = "ul"
    numbering: str = "row"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(blob: str) -> "DatasetMetadata":
        return DatasetMetadata(**json.loads(blob))


class TileDataset:
    """Lazy access to a grid of TIFF tiles on disk.

    Tiles are loaded per request (and optionally converted to ``float64``,
    the working precision of the correlation math).  The dataset never
    caches pixels; memory policy belongs to the implementations, which the
    paper shows is the crux of scaling (Fig. 5).
    """

    def __init__(self, directory: str | Path, metadata: DatasetMetadata | None = None):
        self.directory = Path(directory)
        self._dirname = str(self.directory)
        if metadata is None:
            meta_path = self.directory / METADATA_FILENAME
            if not meta_path.exists():
                raise FileNotFoundError(
                    f"no {METADATA_FILENAME} in {self.directory}; pass metadata "
                    f"explicitly for foreign datasets"
                )
            metadata = DatasetMetadata.from_json(meta_path.read_text())
        self.metadata = metadata
        self.pattern = FilePattern(metadata.pattern)
        # Sequence-numbered patterns address tiles by acquisition order:
        # build the scan-path grid that maps (row, col) -> sequence number.
        self._seq_grid = None
        if self.pattern.is_sequential:
            from repro.grid.tile_grid import Numbering, Origin, TileGrid

            self._seq_grid = TileGrid(
                metadata.rows,
                metadata.cols,
                origin=Origin(metadata.origin),
                numbering=Numbering(metadata.numbering),
            )

    # -- geometry ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.metadata.rows

    @property
    def cols(self) -> int:
        return self.metadata.cols

    @property
    def tile_shape(self) -> tuple[int, int]:
        return (self.metadata.tile_height, self.metadata.tile_width)

    def __len__(self) -> int:
        return self.rows * self.cols

    # -- access ------------------------------------------------------------

    def path(self, row: int, col: int) -> Path:
        return Path(self._file(row, col))

    def _file(self, row: int, col: int) -> str:
        """:meth:`path` as a string, the form :meth:`load` opens."""
        self._check(row, col)
        seq = None
        if self._seq_grid is not None:
            seq = self._seq_grid.sequence_of(row, col)
        return os.path.join(self._dirname,
                            self.pattern.filename(row, col, seq=seq))

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(
                f"tile ({row},{col}) outside {self.rows}x{self.cols} grid"
            )

    def load(self, row: int, col: int, dtype=np.float64) -> np.ndarray:
        """Read one tile; raises ``FileNotFoundError``/``TiffError`` eagerly."""
        arr = read_tiff(self._file(row, col))
        if arr.shape != self.tile_shape:
            raise ValueError(
                f"tile ({row},{col}) has shape {arr.shape}, metadata says "
                f"{self.tile_shape}"
            )
        if dtype is not None:
            arr = arr.astype(dtype)
        return arr

    def true_position(self, row: int, col: int) -> tuple[int, int] | None:
        """Ground-truth ``(y, x)`` global origin if known (synthetic data)."""
        tp = self.metadata.true_positions
        if tp is None:
            return None
        y, x = tp[row][col]
        return int(y), int(x)

    # -- creation ----------------------------------------------------------

    @staticmethod
    def discover(
        directory: str | Path,
        pattern: str = FilePattern().pattern,
        overlap: float = 0.1,
        origin: str = "ul",
        numbering: str = "row",
    ) -> "TileDataset":
        """Adopt a foreign tile directory (no ``dataset.json``).

        Scans ``directory`` for files matching ``pattern``, infers the grid
        extent from the parsed row/column (or sequence) indices, reads one
        tile for its shape/bit depth, and synthesizes metadata.  ``overlap``
        is the *nominal* stage overlap the user knows from the microscope
        settings; the whole point of the paper is that the true overlaps
        are then measured, so a rough value is fine.

        Raises when no files match, when indices have holes, or when a
        sequence-numbered set does not fill a rectangle.
        """
        directory = Path(directory)
        fp = FilePattern(pattern)
        hits = []
        for f in sorted(directory.iterdir()):
            parsed = fp.parse(f.name)
            if parsed is not None:
                hits.append(parsed)
        if not hits:
            raise FileNotFoundError(
                f"no files matching {pattern!r} in {directory}"
            )
        if fp.is_sequential:
            seqs = sorted(n for _, n in hits)
            count = len(seqs)
            if seqs != list(range(count)):
                raise ValueError(
                    f"sequence numbers are not contiguous from 0 "
                    f"(found {seqs[:5]}...{seqs[-1]})"
                )
            # Without grid metadata a sequential set is ambiguous; require
            # the caller to re-create with explicit rows/cols via create().
            raise ValueError(
                "sequence-numbered datasets need explicit grid dimensions; "
                "write a dataset.json or use TileDataset.create()"
            )
        rows = max(r for r, _ in hits) + 1
        cols = max(c for _, c in hits) + 1
        found = set(hits)
        missing = [
            (r, c) for r in range(rows) for c in range(cols)
            if (r, c) not in found
        ]
        if missing:
            raise ValueError(
                f"grid has holes: missing {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )
        first = read_tiff(directory / fp.filename(*hits[0]))
        meta = DatasetMetadata(
            rows=rows,
            cols=cols,
            tile_height=first.shape[0],
            tile_width=first.shape[1],
            overlap=float(overlap),
            pattern=pattern,
            bit_depth=8 if first.dtype == np.uint8 else 16,
            origin=origin,
            numbering=numbering,
        )
        return TileDataset(directory, meta)

    @staticmethod
    def create(
        directory: str | Path,
        tiles: np.ndarray,
        overlap: float,
        pattern: str = FilePattern().pattern,
        true_positions: np.ndarray | list | None = None,
        stage_model: dict | None = None,
        origin: str = "ul",
        numbering: str = "row",
    ) -> "TileDataset":
        """Write a ``[rows, cols, h, w]`` tile stack as a dataset directory.

        With a sequence-numbered ``pattern``, files are named in the
        acquisition order defined by ``origin``/``numbering`` (e.g. a
        serpentine stage path writes ``img_0000.tif`` top-left, then
        rightwards, then back along the next row).
        """
        tiles = np.asarray(tiles)
        if tiles.ndim != 4:
            raise ValueError(f"expected [rows, cols, h, w] stack, got {tiles.shape}")
        rows, cols, h, w = tiles.shape
        if tiles.dtype == np.uint8:
            bits = 8
        elif tiles.dtype == np.uint16:
            bits = 16
        else:
            raise ValueError(f"tiles must be uint8/uint16, got {tiles.dtype}")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        fp = FilePattern(pattern)
        seq_grid = None
        if fp.is_sequential:
            from repro.grid.tile_grid import Numbering, Origin, TileGrid

            seq_grid = TileGrid(rows, cols, origin=Origin(origin),
                                numbering=Numbering(numbering))
        for r in range(rows):
            for c in range(cols):
                seq = seq_grid.sequence_of(r, c) if seq_grid is not None else None
                write_tiff(directory / fp.filename(r, c, seq=seq), tiles[r, c])
        tp = None
        if true_positions is not None:
            tp = np.asarray(true_positions).astype(int).tolist()
        meta = DatasetMetadata(
            rows=rows,
            cols=cols,
            tile_height=h,
            tile_width=w,
            overlap=float(overlap),
            pattern=pattern,
            bit_depth=bits,
            true_positions=tp,
            stage_model=dict(stage_model or {}),
            origin=origin,
            numbering=numbering,
        )
        (directory / METADATA_FILENAME).write_text(meta.to_json())
        return TileDataset(directory, meta)
