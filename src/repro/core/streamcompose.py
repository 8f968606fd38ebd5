"""Out-of-core phase 3: bounded-memory streaming composition.

The in-memory :func:`repro.core.compose.compose` caps mosaic size at RAM
(the ROADMAP's first open item): a 42x59-tile grid at the paper's tile
size is a ~17 GB float64 canvas.  This module renders the same mosaic
under a *hard memory budget*: the canvas never exists -- the mosaic is
produced as bounded horizontal stripes, each blended in a reusable band
buffer, quantized, and appended to an incremental striped TIFF/BigTIFF
writer (:class:`repro.io.tiff.TiffStripWriter`).  Peak resident bytes are

    stripe band (float64) + weight band (AVERAGE/LINEAR) +
    quantized output band + LRU tile cache

and the stripe height is *derived from the budget* so that sum stays
under it.  OVERLAY and MAXIMUM renders of integer tiles without a
``scale`` need neither float64 band: they blend straight into a band of
the output dtype, which is written as it is.  The LRU tile cache
(:class:`repro.io.dataset.TileCache`, modeled on feabas's
``loader_config.cache_size``) absorbs the re-decodes of tiles that
straddle stripe boundaries, keeping each source tile decoded O(1)
amortized times; without a budget, each tile is decoded once and kept
only until the last stripe it covers.

Every stripe is one :func:`repro.core.compose.blend_window` call -- the
renderer the in-memory path uses -- so bit-identity with it holds for
**all four blend modes**, including LINEAR feathering: every tile
covering a pixel vertically intersects that pixel's stripe, so the
per-stripe weighted accumulation and normalization are exactly the
row-restriction of the global computation -- same contributors, same
painter's order, same float64 sums.

After the full-resolution pass, multi-resolution pyramid levels are
emitted by streaming each level from the level above (block-mean 2x
:func:`repro.core.downsample.downsample`, windowed reads through
:class:`repro.io.tiff.TiffReader`) -- the full canvas is never
materialized at any level.  All output files stream into same-directory
``<name>.part`` files and are published together with ``os.replace``
only after the last byte: a failure at any point leaves nothing behind.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.compose import BlendMode, blend_window, outline_rows, plan_compose
from repro.core.downsample import downsample, downsampled_shape
from repro.core.global_opt import GlobalPositions
from repro.io.dataset import TileCache
from repro.io.tiff import TiffReader, TiffStripWriter
from repro.observe.tracer import NULL_TRACER

#: Default split of the memory budget between the tile cache and the
#: stripe buffers.  Half-and-half keeps roughly one tile row resident
#: (the set that straddles stripe boundaries) while leaving stripes tall
#: enough that most tiles are visited once.
CACHE_FRACTION = 0.5


def pyramid_level_path(path: str | Path, level: int) -> Path:
    """On-disk name of pyramid level ``level`` for mosaic ``path``.

    Level 0 is ``path`` itself; level k >= 1 is ``<stem>.L<k><suffix>``
    next to it (e.g. ``mosaic.tif`` -> ``mosaic.L2.tif``).
    """
    path = Path(path)
    if level < 0:
        raise ValueError(f"bad pyramid level {level}")
    if level == 0:
        return path
    return path.with_name(f"{path.stem}.L{level}{path.suffix}")


def plan_stripe_rows(
    memory_budget: int,
    width: int,
    height: int,
    blend: BlendMode,
    out_dtype: np.dtype,
) -> tuple[int, int]:
    """Split ``memory_budget`` bytes into stripe height + tile-cache bytes.

    Returns ``(band_rows, cache_bytes)``.  A canvas row costs
    ``width * (8 [band f64] + 8 [weight, AVERAGE/LINEAR only] +
    out_itemsize [quantized band])`` bytes -- an upper bound for the
    OVERLAY/MAXIMUM renders that blend in the output dtype, which plan
    the same stripes, so their files do not depend on the band.  The
    budget must fit at least one row or the mosaic is simply not
    composable at this width
    (:class:`ValueError`).  The cache gets ``CACHE_FRACTION`` of the
    budget, shrinking to whatever remains when even one stripe row is
    tight.
    """
    if memory_budget < 1:
        raise ValueError(f"memory budget must be positive, got {memory_budget}")
    per_row = width * (8 + (8 if blend.needs_weight else 0) + out_dtype.itemsize)
    if memory_budget < per_row:
        raise ValueError(
            f"memory budget {memory_budget} B cannot fit one canvas row "
            f"({per_row} B at width {width}); raise the budget or "
            f"compose a smaller mosaic"
        )
    cache_bytes = int(memory_budget * CACHE_FRACTION)
    band_rows = (memory_budget - cache_bytes) // per_row
    if band_rows < 1:
        # Budget is row-tight: give the stripe its one row, cache the rest.
        band_rows = 1
        cache_bytes = memory_budget - per_row
    return int(min(band_rows, height)), int(cache_bytes)


@dataclass
class StreamComposeResult:
    """What one streaming composition did (shape, memory, cache, pyramid)."""

    height: int
    width: int
    band_rows: int
    stripes: int
    tiles_rendered: int
    #: Peak tracked resident bytes (stripe buffers + tile cache), the
    #: number the memory budget bounds.
    peak_bytes: int
    memory_budget: int | None
    cache: dict | None
    #: Published pyramid files, ``[level 1 path, level 2 path, ...]``.
    pyramid_paths: list[Path] = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int]:
        return self.height, self.width


def stream_compose_to_tiff(
    path,
    load_tile,
    positions: GlobalPositions,
    tile_shape: tuple[int, int],
    blend: BlendMode = BlendMode.OVERLAY,
    memory_budget: int | None = None,
    band_rows: int | None = None,
    dtype=np.uint16,
    scale: float | None = None,
    outline: bool = False,
    skip_tiles=None,
    on_tile_error: str = "abort",
    pyramid_levels: int = 0,
    metrics=None,
    tracer=NULL_TRACER,
) -> StreamComposeResult:
    """Compose a mosaic to a TIFF/BigTIFF under a hard memory budget.

    The mosaic is rendered top-to-bottom in stripes of ``band_rows`` canvas
    rows; ``memory_budget`` (bytes) derives ``band_rows`` via
    :func:`plan_stripe_rows` and funds an LRU tile cache with the
    remainder.  Passing ``band_rows`` explicitly overrides the derived
    stripe height (the cache still gets its budget share).  With neither,
    stripes default to twice the tile height, and instead of a cache each
    tile is kept from its one decode until the last stripe it covers.

    All four blend modes stream bit-identically to the in-memory path
    (see module docstring for the LINEAR argument).  ``scale`` maps pixel
    values into the integer output range exactly as the in-memory
    quantization does (multiply, clip, truncating ``astype``).
    ``outline`` draws every rendered tile's border (Fig. 14) at the
    dtype's maximum, stripe by stripe.  ``skip_tiles``/``on_tile_error``
    mirror :func:`repro.core.compose.compose` for partial mosaics.

    ``pyramid_levels`` > 0 additionally writes that many 2x block-mean
    levels next to ``path`` (see :func:`pyramid_level_path`), each
    streamed from the level above through windowed reads.  All files
    (mosaic + levels) are published atomically together; any failure
    unlinks every ``.part``.

    ``metrics`` (a :class:`repro.observe.MetricsRegistry`) gains a
    ``compose_peak_canvas_bytes`` gauge, tile-cache hit/miss/eviction
    counters and a ``compose_stripes`` counter; ``tracer`` records one
    span per stripe and per pyramid level.

    Returns a :class:`StreamComposeResult`; ``result.peak_bytes`` is the
    tracked peak of stripe buffers + cache, which tests assert stays
    within ``memory_budget``.
    """
    # -- validate everything before any output I/O (atomicity contract).
    plan = plan_compose(positions, tile_shape, blend, skip_tiles, on_tile_error)
    dtype = np.dtype(dtype)
    if dtype.kind not in "iu":
        raise ValueError(f"streaming compose needs an integer dtype, got {dtype}")
    if pyramid_levels < 0:
        raise ValueError(f"pyramid_levels must be >= 0, got {pyramid_levels}")
    height, width = plan.height, plan.width

    cache_bytes = 0
    if memory_budget is not None:
        planned_rows, cache_bytes = plan_stripe_rows(
            int(memory_budget), width, height, plan.blend, dtype
        )
        if band_rows is None:
            band_rows = planned_rows
    elif band_rows is None:
        band_rows = 2 * plan.tile_shape[0]
    band_rows = max(1, min(int(band_rows), height))
    limit = float(np.iinfo(dtype).max)

    cache = TileCache(load_tile, cache_bytes) if cache_bytes > 0 else None
    stripes = plan.stripes(band_rows)
    fetch = _StripeTiles(cache.load if cache is not None else load_tile,
                         stripes, keep=cache is None)

    gauge = metrics.gauge("compose_peak_canvas_bytes") if metrics is not None else None
    peak_bytes = 0

    def track(resident: int) -> None:
        nonlocal peak_bytes
        resident += fetch.nbytes
        if cache is not None:
            resident += cache.current_bytes
        peak_bytes = max(peak_bytes, resident)
        if gauge is not None:
            gauge.set(resident)

    path = Path(path)
    level_paths = [pyramid_level_path(path, k) for k in range(pyramid_levels + 1)]
    parts = [p.with_name(p.name + ".part") for p in level_paths]
    rendered: set = set()

    try:
        # -- full-resolution pass -------------------------------------------
        # The band's dtype is chosen once, from the first tile: OVERLAY and
        # MAXIMUM of integer tiles without ``scale`` blend straight into
        # the output dtype (clip and truncation commute with both), every
        # other render in float64, quantised stripe by stripe.
        first = next((tiles[0] for _, _, tiles in stripes if tiles), None)
        head = fetch.peek(*first[:2]) if first is not None else None
        native = (
            scale is None and head is not None and head.dtype.kind in "iu"
            and plan.blend in (BlendMode.OVERLAY, BlendMode.MAXIMUM)
        )
        source = _clipped_into(fetch, dtype) if native else fetch
        with TiffStripWriter(
            parts[0], height, width, dtype, rows_per_strip=band_rows
        ) as writer:
            band = np.zeros((band_rows, width),
                            dtype=dtype if native else np.float64)
            weight = np.zeros_like(band) if plan.blend.needs_weight else None
            quantised = None if native else np.empty((band_rows, width), dtype)
            resident = sum(a.nbytes for a in (band, weight, quantised)
                           if a is not None)
            for s, (y0, y1, tiles) in enumerate(stripes):
                fetch.stripe = s
                b = band[: y1 - y0]
                b[:] = 0
                w = None
                if weight is not None:
                    w = weight[: y1 - y0]
                    w[:] = 0.0
                with tracer.span("compose.stripe", "compose", key=f"s{s}"):
                    touched = blend_window(plan, b, w, y0, 0, tiles, source)
                    rendered.update(touched)
                    if not native:
                        if scale is not None:
                            b *= scale
                        np.clip(b, 0, limit, out=b)
                    if outline:
                        # After scale and clip, so the border quantises to
                        # the dtype's maximum whatever ``scale`` is.
                        outline_rows(b, y0, touched, plan.tile_shape, limit)
                    out = b
                    if not native:
                        out = quantised[: y1 - y0]
                        np.copyto(out, b, casting="unsafe")  # == b.astype(dtype)
                    writer.write_rows(out)
                track(resident)
                if metrics is not None:
                    metrics.counter("compose_stripes").inc()
            del band, weight, quantised, out

        if cache is not None:
            if metrics is not None:
                metrics.counter("compose_tile_cache_hits").inc(cache.hits)
                metrics.counter("compose_tile_cache_misses").inc(cache.misses)
                metrics.counter("compose_tile_cache_evictions").inc(cache.evictions)
            cache.clear()  # pyramid pass reads the mosaic file, not tiles

        # -- pyramid pass: level k streamed from level k-1 ------------------
        _stream_pyramid_levels(parts, height, width, dtype, band_rows,
                               pyramid_levels, tracer, track)

        # -- atomic publish: levels first, mosaic last, so a reader that
        # sees the mosaic also sees its pyramid.
        for part, final in zip(parts[1:], level_paths[1:]):
            os.replace(part, final)
        os.replace(parts[0], path)
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise

    if gauge is not None:
        gauge.set(0)
    return StreamComposeResult(
        height=height,
        width=width,
        band_rows=band_rows,
        stripes=len(stripes),
        tiles_rendered=len(rendered),
        peak_bytes=peak_bytes,
        memory_budget=memory_budget,
        cache=cache.stats() if cache is not None else None,
        pyramid_paths=level_paths[1:],
    )


class _StripeTiles:
    """The stripe render's tile source: each loader call happens once.

    Without a tile cache (``keep``) a tile a later stripe also covers is
    kept from its first fetch until its last stripe, so it is decoded once
    per render instead of once per stripe.  :meth:`peek` fetches a tile
    early and hands the array -- or the error -- to that tile's first
    fetch, so a peek adds no load and moves none.  The render sets
    :attr:`stripe` before each stripe.
    """

    def __init__(self, load, stripes, keep: bool) -> None:
        self._load = load
        self._kept: dict = {}
        #: Last stripe of every tile that spans several; empty without keep.
        self._last: dict = {}
        if keep:
            for s, (_, _, tiles) in enumerate(stripes):
                for r, c, _, _ in tiles:
                    self._last[(r, c)] = s
        self.stripe = -1

    def peek(self, row: int, col: int):
        """Tile ``(row, col)`` ahead of its turn, or ``None`` if it failed."""
        try:
            tile = np.asarray(self._load(row, col))
        except Exception as exc:
            self._kept[(row, col)] = exc
            return None
        self._kept[(row, col)] = tile
        return tile

    def __call__(self, row: int, col: int):
        key = (row, col)
        tile = self._kept.pop(key, None)
        if tile is None:
            tile = self._load(row, col)
        elif isinstance(tile, Exception):
            raise tile
        if self._last.get(key, -1) > self.stripe:
            self._kept[key] = tile
        return tile

    @property
    def nbytes(self) -> int:
        return sum(getattr(t, "nbytes", 0) for t in self._kept.values())


def _clipped_into(fetch, dtype: np.dtype):
    """``fetch`` with every tile in ``dtype``'s range: one whose values
    ``dtype`` may not hold (signed, wider, float) is clipped to
    ``[0, max]`` and truncated on the way in, as the float band would
    have done after the blend -- exact, since OVERLAY and MAXIMUM commute
    with a monotone map that keeps 0."""
    top = np.iinfo(dtype).max

    def load(row: int, col: int):
        tile = np.asarray(fetch(row, col))
        if np.can_cast(tile.dtype, dtype) and tile.dtype.kind != "i":
            return tile
        return np.clip(tile, 0, top).astype(dtype)

    return load


def _stream_pyramid_levels(
    parts: list[Path],
    height: int,
    width: int,
    dtype: np.dtype,
    band_rows: int,
    pyramid_levels: int,
    tracer,
    track,
) -> None:
    """Write 2x block-mean levels, each windowed from the one above.

    Output bands are a quarter of the full-res stripe height so the input
    window (2x rows at the parent level, plus the float64 working copy
    inside :func:`downsample`) stays within the memory envelope the
    full-resolution stripe buffers already claimed.
    """
    limit = float(np.iinfo(dtype).max)
    in_h, in_w = height, width
    for k in range(1, pyramid_levels + 1):
        out_h, out_w = downsampled_shape((in_h, in_w), 2)
        out_band = max(1, band_rows // 4)
        with tracer.span("compose.pyramid_level", "compose", key=f"L{k}"), \
                TiffReader(parts[k - 1]) as reader, \
                TiffStripWriter(parts[k], out_h, out_w, dtype,
                                rows_per_strip=out_band) as writer:
            for oy0 in range(0, out_h, out_band):
                oy1 = min(out_h, oy0 + out_band)
                src = reader.read_rows(2 * oy0, min(in_h, 2 * oy1))
                ds = downsample(src, 2)
                out = np.clip(np.rint(ds), 0, limit).astype(dtype)
                if out.shape != (oy1 - oy0, out_w):  # pragma: no cover
                    raise AssertionError(
                        f"pyramid window bug: {out.shape} != "
                        f"{(oy1 - oy0, out_w)} at level {k}"
                    )
                writer.write_rows(out)
                # downsample's float64 conversion of src dominates its
                # transient footprint; account it honestly.
                track(src.nbytes + src.size * 8 + ds.nbytes + out.nbytes)
        in_h, in_w = out_h, out_w
