"""Phase 3: mosaic composition (Figs. 13-14).

Renders tiles into the output canvas at their absolute positions.  Blend
modes:

``OVERLAY``
    Last write wins -- the mode used for the paper's Fig. 13 ("composed
    using an overlay blend").
``AVERAGE``
    Mean of all tiles covering a pixel (needs a per-pixel weight pass).
``MAXIMUM``
    Per-pixel max; useful for fluorescence channels.
``LINEAR``
    Feathered blend: each tile contributes with a weight that ramps from
    its borders toward its centre, hiding seams from residual registration
    or illumination error.

``outline`` reproduces Fig. 14's highlighted-tile rendering by brightening
each tile's border pixels.

There is one renderer: :func:`blend_window` blends a painter's-order list
of tiles into a caller-owned window of the canvas, and it is the only code
that knows what a :class:`BlendMode` does.  Everything else is a sink or a
schedule over it -- :func:`compose` (an ndarray, whole or as row stripes
on threads), :func:`repro.core.streamcompose.stream_compose_to_tiff` (a
reusable band appended to a TIFF) and
:meth:`repro.core.pyramid.MosaicPyramid.render_region` (a viewport over
level-scaled positions).  A window is bit-identical to the same pixels of
any larger one: the tiles covering a pixel are blended in the same order,
and slicing an elementwise product (LINEAR) commutes with computing it.

Tiles stream one at a time (``load_tile`` callback) so the window is the
only mosaic-sized allocation -- the paper renders a 17k x 22k image,
which at float64 would be ~3 GB.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from repro.core.global_opt import GlobalPositions

#: ``(row, col, y, x)``: a tile's grid index and its canvas origin.
Tile = tuple[int, int, int, int]

#: Divisor given to uncovered pixels (weight 0) so normalisation needs no mask.
_TINY = np.finfo(np.float64).tiny


class BlendMode(Enum):
    OVERLAY = "overlay"
    AVERAGE = "average"
    MAXIMUM = "maximum"
    LINEAR = "linear"

    @property
    def needs_weight(self) -> bool:
        """Whether the blend divides by a per-pixel weight accumulator."""
        return self in (BlendMode.AVERAGE, BlendMode.LINEAR)


@dataclass(frozen=True)
class ComposePlan:
    """What a phase-3 render fixes before its first pixel, for any sink."""

    height: int
    width: int
    tile_shape: tuple[int, int]
    blend: BlendMode
    on_tile_error: str
    #: Row-major painter's order, skipped tiles left out.
    tiles: list[Tile]

    @cached_property
    def lin_w(self) -> np.ndarray:
        """LINEAR's separable ramp weight, 1 at the tile centre, ~0 at the borders."""
        h, w = self.tile_shape
        wy = 1.0 - np.abs(np.linspace(-1.0, 1.0, h))
        wx = 1.0 - np.abs(np.linspace(-1.0, 1.0, w))
        # Strictly positive so fully-covered pixels never divide by zero.
        return np.maximum(np.outer(wy, wx), 1e-6)

    def stripes(self, band_rows: int) -> list[tuple[int, int, list[Tile]]]:
        """Cut the canvas into ``(y0, y1, tiles)`` stripes of ``band_rows`` rows.

        Each stripe lists the tiles intersecting it (O(tiles) overall);
        appending in row-major order keeps painter's order inside every
        stripe, which is what makes OVERLAY bit-identical to one pass.
        """
        n = -(-self.height // band_rows)
        buckets: list[list[Tile]] = [[] for _ in range(n)]
        th = self.tile_shape[0]
        for t in self.tiles:
            s0 = max(0, t[2] // band_rows)
            s1 = min(n - 1, (t[2] + th - 1) // band_rows)
            for s in range(s0, s1 + 1):
                buckets[s].append(t)
        return [
            (s * band_rows, min(self.height, (s + 1) * band_rows), bucket)
            for s, bucket in enumerate(buckets)
        ]


def plan_compose(
    positions: GlobalPositions,
    tile_shape: tuple[int, int],
    blend: BlendMode | str = BlendMode.OVERLAY,
    skip_tiles=None,
    on_tile_error: str = "abort",
) -> ComposePlan:
    """Validate the render arguments and list the tiles in painter's order."""
    blend = BlendMode(blend)
    if on_tile_error not in ("abort", "skip"):
        raise ValueError(
            f"unknown on_tile_error {on_tile_error!r} (use 'abort' or 'skip')"
        )
    th, tw = (int(v) for v in tile_shape)
    if th < 1 or tw < 1:
        raise ValueError(f"bad tile shape {tile_shape}")
    skip = {(int(r), int(c)) for r, c in (skip_tiles or ())}
    height, width = positions.mosaic_shape((th, tw))
    tiles = [
        (r, c, int(positions.positions[r, c][0]), int(positions.positions[r, c][1]))
        for r in range(positions.rows)
        for c in range(positions.cols)
        if (r, c) not in skip
    ]
    return ComposePlan(height, width, (th, tw), blend, on_tile_error, tiles)


def blend_window(
    plan: ComposePlan,
    band: np.ndarray,
    weight: np.ndarray | None,
    y0: int,
    x0: int,
    tiles: list[Tile],
    fetch,
) -> list[Tile]:
    """Blend ``tiles`` into one window of the canvas; returns those it touched.

    ``band`` (and ``weight``, for blends that need one) are zeroed float64
    arrays -- for OVERLAY/MAXIMUM, ``band`` may be of any dtype that holds
    every tile's values -- owned by the caller and covering canvas rows
    ``[y0, y0 + band.shape[0])`` x columns ``[x0, x0 + band.shape[1])``.
    Tiles are visited in the order given and clipped to the window, and
    AVERAGE/LINEAR are normalised in place before returning; ``weight`` is
    scratch the kernel clobbers doing so.  Windows are disjoint arrays, so
    parallel renders need no locks or atomics.
    """
    th, tw = plan.tile_shape
    y1, x1 = y0 + band.shape[0], x0 + band.shape[1]
    blend = plan.blend
    touched: list[Tile] = []
    for t in tiles:
        r, c, ty, tx = t
        by0, by1 = max(ty, y0), min(ty + th, y1)
        bx0, bx1 = max(tx, x0), min(tx + tw, x1)
        if by1 <= by0 or bx1 <= bx0:
            continue
        try:
            # Native dtype: the band is float64, and numpy's promotion
            # rules make uint8/uint16 arithmetic in float64 value-exact,
            # so skipping the explicit conversion avoids a 4x-sized
            # float64 copy of every uint16 tile without changing a bit
            # of the output.
            tile = np.asarray(fetch(r, c))
        except Exception:
            if plan.on_tile_error == "skip":
                continue
            raise
        if tile.shape != (th, tw):
            raise ValueError(
                f"tile ({r},{c}) has shape {tile.shape}, expected {(th, tw)}"
            )
        cut = (slice(by0 - ty, by1 - ty), slice(bx0 - tx, bx1 - tx))
        src = tile[cut]
        dst = (slice(by0 - y0, by1 - y0), slice(bx0 - x0, bx1 - x0))
        if blend is BlendMode.OVERLAY:
            band[dst] = src
        elif blend is BlendMode.MAXIMUM:
            np.maximum(band[dst], src, out=band[dst])
        elif blend is BlendMode.AVERAGE:
            band[dst] += src
            weight[dst] += 1.0
        elif blend is BlendMode.LINEAR:
            w_src = plan.lin_w[cut]
            band[dst] += src * w_src
            weight[dst] += w_src
        else:  # pragma: no cover - exhaustive enum
            raise AssertionError(blend)
        touched.append(t)
    if weight is not None:
        # In place, no window-sized temporary: covered weights are >= 1e-6
        # (LINEAR's floor; AVERAGE counts from 1) so the clamp leaves them
        # alone, and an uncovered pixel is +0.0 / tiny = +0.0.
        np.maximum(weight, _TINY, out=weight)
        np.divide(band, weight, out=band)
    return touched


def outline_rows(
    band: np.ndarray,
    y0: int,
    tiles: list[Tile],
    tile_shape: tuple[int, int],
    value: float,
) -> None:
    """Draw the Fig. 14 border of ``tiles`` on full-width canvas rows from ``y0``.

    Every write stores the same ``value``, so the order of tiles and of
    stripes is irrelevant and a stripe's outline is exactly the
    row-restriction of the whole canvas's.
    """
    th, tw = tile_shape
    y1 = y0 + band.shape[0]
    for _, _, ty, tx in tiles:
        lo, hi = max(ty, y0), min(ty + th, y1)
        if hi <= lo:
            continue
        for y in (ty, ty + th - 1):
            if y0 <= y < y1:
                band[y - y0, tx : tx + tw] = value
        band[lo - y0 : hi - y0, tx] = value
        band[lo - y0 : hi - y0, tx + tw - 1] = value


def compose(
    load_tile,
    positions: GlobalPositions,
    tile_shape: tuple[int, int],
    blend: BlendMode = BlendMode.OVERLAY,
    outline: bool = False,
    outline_value: float | None = None,
    dtype=np.float32,
    skip_tiles=None,
    on_tile_error: str = "abort",
    return_mask: bool = False,
    workers: int = 1,
):
    """Render the mosaic into an array; returns a 2-D array of ``dtype``.

    ``load_tile(row, col) -> ndarray`` supplies pixels on demand.  Tiles are
    visited row-major, which for OVERLAY reproduces the usual microscopy
    convention (later rows/columns over earlier ones).  Blending is done
    in float64; ``dtype`` (default ``float32``) is what the finished canvas
    is converted to.

    ``workers > 1`` renders the canvas as that many horizontal stripes in
    parallel, one thread each (numpy releases the GIL in the blends).
    Each thread gets a row view of the same canvas as its window, so the
    result is bit-identical to ``workers=1`` for every blend mode; the
    only cost is that a tile straddling a stripe boundary is loaded once
    per stripe it touches.

    Degraded rendering: ``skip_tiles`` (iterable of ``(row, col)``) leaves
    holes where phase 1 dropped tiles; ``on_tile_error="skip"`` also turns
    load failures *during composition* into holes instead of aborting.
    With ``return_mask=True`` the return value is ``(canvas, mask)`` where
    ``mask[r, c]`` is True for every tile actually rendered -- the
    per-tile provenance record of the partial mosaic.
    """
    if workers < 1:
        raise ValueError(f"need at least one compose worker, got {workers}")
    plan = plan_compose(positions, tile_shape, blend, skip_tiles, on_tile_error)
    if workers == 1:
        canvas = np.zeros((plan.height, plan.width), dtype=np.float64)
        weight = np.zeros_like(canvas) if plan.blend.needs_weight else None
        rendered = blend_window(plan, canvas, weight, 0, 0, plan.tiles, load_tile)
    else:
        canvas, rendered = _compose_striped(plan, load_tile, workers)

    if outline:
        # After the render: the default value is the finished canvas's max.
        if outline_value is None:
            outline_value = float(canvas.max())
        outline_rows(canvas, 0, rendered, plan.tile_shape, outline_value)

    canvas = canvas.astype(dtype, copy=False)
    if return_mask:
        mask = np.zeros((positions.rows, positions.cols), dtype=bool)
        for r, c, _, _ in rendered:
            mask[r, c] = True
        return canvas, mask
    return canvas


def _compose_striped(
    plan: ComposePlan, load_tile, workers: int
) -> tuple[np.ndarray, list[Tile]]:
    """Parallel phase-3 render: ``<= workers`` stripes of one canvas, a
    thread each."""
    stripes = plan.stripes(-(-plan.height // workers))
    canvas = np.zeros((plan.height, plan.width), dtype=np.float64)
    weight = np.zeros_like(canvas) if plan.blend.needs_weight else None

    def render(stripe) -> list[Tile]:
        y0, y1, tiles = stripe
        return blend_window(
            plan, canvas[y0:y1], None if weight is None else weight[y0:y1],
            y0, 0, tiles, load_tile,
        )

    with ThreadPoolExecutor(max_workers=len(stripes)) as pool:
        rendered = [t for touched in pool.map(render, stripes) for t in touched]
    return canvas, rendered
