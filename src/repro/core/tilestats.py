"""Per-tile rectangle statistics for O(1)-statistics CCF.

The CCF contest (``repro.core.ccf``) evaluates the Pearson correlation of
4-8 candidate overlap rectangles per pair; the direct formulation makes five
full passes over each rectangle (two means, two norms, one dot product) and
materializes two mean-centred temporaries.  Every one of those statistics
except the cross term is a *single-tile* quantity, and each tile takes part
in up to four pairs (west/north/east/south neighbours), so the same sums are
recomputed up to ``4 * candidates`` times.

:class:`TileStats` summarises ``sum(I)`` and ``sum(I^2)`` of the tile once,
so each CCF candidate costs a few statistics lookups plus one fused dot
product for the cross term:

    r = (cross - S1*S2/n) / sqrt((S11 - S1^2/n) * (S22 - S2^2/n))

It keeps one of two summaries, chosen from the tile's pixel count
(:data:`MARGINAL_MIN_TILE_PIXELS`):

- **summed-area table** (small tiles): two integral images packed as the
  real and imaginary parts of one complex ``(h+1, w+1)`` table, so one
  cumsum pass per axis builds both (IEEE accumulates the parts
  independently, so the values are bit-identical to two separate real
  tables).  Any rectangle costs four lookups.  16 B/px on top of the
  8 B/px pixels.
- **marginals** (paper-sized tiles): 1-D prefix sums of the row and column
  marginals, O(h+w).  A rectangle's sums are a band read off the prefixes
  corrected by the directly reduced blocks the band adds outside it --
  the cheapest of four such decompositions.  Every overlap rectangle of
  two equal tiles touches a tile corner, and grid overlaps are a few rows
  (or columns) off a full band, so the correction is a sliver.

Both are built on *mean-shifted* pixels (tile minus its global mean).
Pearson correlation is shift-invariant, so every rectangle's ``r`` is
mathematically unchanged, while the shift (a) keeps the running sums small,
bounding the cancellation error of the ``S11 - S1^2/n`` subtraction, and
(b) makes a globally constant tile produce exactly-zero pixels, so its
variance is exactly ``0.0`` and the degenerate ``-1.0`` sentinel of
:func:`repro.core.ccf.ccf` is reproduced bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative variance floor for trusting the rectangle statistics.  The
#: cancellation error of ``S11 - S1^2/n`` is bounded by a few ulps of the
#: largest partial sum either summary holds (~eps * sum(I^2) over the whole
#: tile); a rectangle variance below ``_VAR_GUARD * sq_total`` is
#: indistinguishable from that noise, so the overlap carries no usable
#: texture and scores the ``-1.0`` degenerate sentinel.  (The direct path
#: lands in the same regime on such overlaps -- exactly ``-1.0`` when the
#: constant view's mean reconstructs bit-exactly, otherwise ``r`` of pure
#: rounding noise, ~1e-15 -- either way a guaranteed loser of the
#: interpretation contest.)
_VAR_GUARD = 1e-12

#: Tiles of at least this many pixels keep marginals instead of a
#: summed-area table.  Below it one residual reduction per probe costs more
#: than the whole table (~7 µs of numpy dispatch per residual block against
#: a table that builds in 0.1-0.4 ms); above it the table's build (~6-9 ms
#: at 696x520) and its 16 B/px dominate.  ``python
#: benchmarks/bench_phase1_hotpath.py --stats-sweep`` (5x5 grid, EXTENDED
#: contest, each summary forced, default and coarse, table time over
#: marginal time): 0.71x / 0.81x coarse at 64 / 128 px, break-even at
#: 192 px (coarse 0.97x), and both configurations win from 256 px
#: (1.16-1.22x, up to 1.38x at 512 px) -- where the constant sits
#: (docs/PERFORMANCE.md, "O(1)-statistics CCF").
MARGINAL_MIN_TILE_PIXELS = 256 * 256


class TileStats:
    """``sum(I)`` / ``sum(I^2)`` over any rectangle of one tile.

    Built once per tile; shared by every pair the tile takes part in.
    ``pixels`` holds the mean-shifted float64 tile used for the cross
    term, so callers that cache a ``TileStats`` need not also keep the raw
    tile alive for the CCF stage.
    """

    __slots__ = ("pixels", "shape", "sq_total", "_table", "_rows", "_cols")

    def __init__(self, tile: np.ndarray) -> None:
        px = np.asarray(tile, dtype=np.float64)
        if px.ndim != 2:
            raise ValueError(f"expected a 2-D tile, got shape {px.shape}")
        px = px - px.mean()
        self.pixels = px
        self.shape = px.shape
        h, w = px.shape
        if h * w >= MARGINAL_MIN_TILE_PIXELS:
            # Prefix sums of the row / column marginals, padded with a
            # leading zero and packed like the table (real: I, imag: I^2).
            self._table = None
            self._rows = _prefix(px.sum(axis=1), np.einsum("ij,ij->i", px, px))
            self._cols = _prefix(px.sum(axis=0), np.einsum("ij,ij->j", px, px))
            self.sq_total = float(self._rows[h].imag)
            return
        # Padded tables: row/col 0 are zero so rect() needs no branching.
        # Both tables come from ONE complex cumsum: real part carries I,
        # imaginary part I^2.  IEEE accumulates the parts independently, so
        # the values are bit-identical to two separate real cumsums, but
        # numpy's per-element accumulate overhead is paid once, not twice.
        table = np.zeros((h + 1, w + 1), dtype=np.complex128)
        inner = table[1:, 1:]
        inner.real = px
        np.square(px, out=inner.imag)
        # Cumulating the whole padded table is bit-identical (the zero
        # guard row/column contribute exact zeros) and skips a separate
        # temporary + block copy.
        np.cumsum(table, axis=0, out=table)
        np.cumsum(table, axis=1, out=table)
        self._table = table
        self._rows = self._cols = None
        # Whole-tile sum of squares: the error scale of every rectangle
        # variance the table can produce (see _VAR_GUARD).
        self.sq_total = float(table[h, w].imag)

    @property
    def nbytes(self) -> int:
        """Resident bytes: the pixels plus whichever summary is kept."""
        if self._table is not None:
            return self.pixels.nbytes + self._table.nbytes
        return self.pixels.nbytes + self._rows.nbytes + self._cols.nbytes

    def rect(self, y0: int, y1: int, x0: int, x1: int) -> tuple[float, float]:
        """``(sum, sum_of_squares)`` over ``[y0:y1, x0:x1]``: four lookups
        in the table, or a band of the marginals plus a residual block."""
        t = self._table
        if t is not None:
            z = complex(t[y1, x1]) - complex(t[y0, x1]) - complex(t[y1, x0]) \
                + complex(t[y0, x0])
            return z.real, z.imag
        h, w = self.shape
        rh, rw = y1 - y0, x1 - x0
        # Four ways to the same sums; take the one reducing fewest pixels:
        # the rectangle itself; its row band minus the columns outside it;
        # its column band minus the rows outside it; or its row band minus
        # every column outside it plus the outside corners added back.
        costs = (rh * rw, rh * (w - rw), (h - rh) * rw, (h - rh) * (w - rw))
        way = costs.index(min(costs))
        if way == 0:
            z = self._block(y0, y1, x0, x1)
        else:
            rows, cols = self._rows, self._cols
            outside_rows = ((0, y0), (y1, h))
            outside_cols = ((0, x0), (x1, w))
            if way == 1:
                z = complex(rows[y1]) - complex(rows[y0])
                for a, b in outside_cols:
                    z -= self._block(y0, y1, a, b)
            elif way == 2:
                z = complex(cols[x1]) - complex(cols[x0])
                for a, b in outside_rows:
                    z -= self._block(a, b, x0, x1)
            else:
                z = complex(rows[y1]) - complex(rows[y0]) - complex(cols[w]) \
                    + complex(cols[x1]) - complex(cols[x0])
                for a, b in outside_rows:
                    for c, d in outside_cols:
                        z += self._block(a, b, c, d)
        return z.real, z.imag

    def _block(self, y0: int, y1: int, x0: int, x1: int) -> complex:
        """``sum + 1j * sum_of_squares`` of ``pixels[y0:y1, x0:x1]``."""
        if y1 <= y0 or x1 <= x0:
            return 0j
        v = self.pixels[y0:y1, x0:x1]
        return complex(v.sum(), np.einsum("ij,ij->", v, v))


def _prefix(sums: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Zero-padded running totals of ``sums + 1j * squares``."""
    out = np.zeros(sums.size + 1, dtype=np.complex128)
    out.real[1:] = sums
    out.imag[1:] = squares
    return np.cumsum(out, out=out)


def ccf_at_stats(s1: TileStats, s2: TileStats, tx: int, ty: int) -> float:
    """CCF at translation ``(tx, ty)`` using O(1) rectangle statistics.

    Semantics match :func:`repro.core.ccf.ccf_at` (same overlap geometry,
    same ``[-1, 1]`` clamp, ``-1.0`` for empty or degenerate-constant
    overlaps); only the arithmetic path differs.  Textured overlaps agree
    with the direct scan to well under 1e-9; (near-)constant overlaps hit
    the ``_VAR_GUARD`` sentinel deterministically.
    """
    h1, w1 = s1.shape
    h2, w2 = s2.shape
    y0, y1 = max(ty, 0), min(h1, h2 + ty)
    x0, x1 = max(tx, 0), min(w1, w2 + tx)
    if y1 <= y0 or x1 <= x0:
        return -1.0
    n = float((y1 - y0) * (x1 - x0))
    sum1, sq1 = s1.rect(y0, y1, x0, x1)
    sum2, sq2 = s2.rect(y0 - ty, y1 - ty, x0 - tx, x1 - tx)
    var1 = sq1 - sum1 * sum1 / n
    var2 = sq2 - sum2 * sum2 / n
    if var1 <= _VAR_GUARD * s1.sq_total or var2 <= _VAR_GUARD * s2.sq_total:
        return -1.0
    v1 = s1.pixels[y0:y1, x0:x1]
    v2 = s2.pixels[y0 - ty : y1 - ty, x0 - tx : x1 - tx]
    # einsum reduces the strided views directly; ravel()+dot would copy both.
    cross = float(np.einsum("ij,ij->", v1, v2))
    # Scalar tail in pure python (math.sqrt is the same IEEE sqrt); numpy
    # scalar dispatch here costs more than the whole rectangle lookup.
    r = (cross - sum1 * sum2 / n) / math.sqrt(var1 * var2)
    if r >= 1.0:
        return 1.0
    if r <= -1.0:
        return -1.0
    return r


def subpixel_refine_stats(
    s1: TileStats, s2: TileStats, tx: int, ty: int
) -> tuple[float, float]:
    """O(1)-statistics twin of :func:`repro.core.ccf.subpixel_refine`."""
    from repro.core.ccf import _parabolic_vertex

    h, w = s1.shape
    c0 = ccf_at_stats(s1, s2, tx, ty)
    tx_f, ty_f = float(tx), float(ty)
    if abs(tx - 1) < w and abs(tx + 1) < w:
        cxm = ccf_at_stats(s1, s2, tx - 1, ty)
        cxp = ccf_at_stats(s1, s2, tx + 1, ty)
        tx_f += _parabolic_vertex(cxm, c0, cxp)
    if abs(ty - 1) < h and abs(ty + 1) < h:
        cym = ccf_at_stats(s1, s2, tx, ty - 1)
        cyp = ccf_at_stats(s1, s2, tx, ty + 1)
        ty_f += _parabolic_vertex(cym, c0, cyp)
    return tx_f, ty_f
