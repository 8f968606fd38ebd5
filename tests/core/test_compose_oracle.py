"""Every phase-3 sink against a per-pixel oracle that shares no code with it.

``compose()``, the streamed TIFF writer and the pyramid viewer are one
renderer (``blend_window``), so checking them against each other only
proves the row/column-restriction argument.  ``naive_mosaic`` below is the
independent reference: it blends pixel by pixel, straight from the
definition of each mode.
"""

import itertools
from typing import NamedTuple

import numpy as np
import pytest

from repro.core.compose import BlendMode, compose
from repro.core.global_opt import GlobalPositions
from repro.core.pyramid import MosaicPyramid
from repro.core.streamcompose import stream_compose_to_tiff
from repro.io.tiff import read_tiff

ROWS, COLS, TILE = 3, 3, (8, 6)
SKIP = [(0, 2), (2, 0)]
FAILING = (1, 1)
RNG = np.random.default_rng(5)
TILES = {
    (r, c): RNG.integers(1, 60000, TILE).astype(np.uint16)
    for r in range(ROWS)
    for c in range(COLS)
}
POSITIONS = GlobalPositions(
    positions=np.array(
        [[(max(0, 6 * r + (c - 1)), max(0, 4 * c + (r % 2))) for c in range(COLS)]
         for r in range(ROWS)],
        dtype=np.int64,
    ),
    method="test",
)


class Scene(NamedTuple):
    """What is rendered: the tiles and where they sit."""

    tiles: dict
    positions: GlobalPositions

    @property
    def tile_shape(self):
        return next(iter(self.tiles.values())).shape


SCENE = Scene(TILES, POSITIONS)


def loader(fail, scene=SCENE):
    def load(r, c):
        if fail and (r, c) == FAILING:
            raise OSError("bad sector")
        return scene.tiles[(r, c)]

    return load


def naive_mosaic(blend, left_out, outline_value, scene=SCENE):
    """For each pixel: its covering tiles in row-major order, blended by definition."""
    th, tw = scene.tile_shape
    h, w = scene.positions.mosaic_shape((th, tw))
    ramp = np.maximum(np.multiply.outer(1.0 - np.abs(np.linspace(-1.0, 1.0, th)),
                                        1.0 - np.abs(np.linspace(-1.0, 1.0, tw))), 1e-6)
    placed = [(int(scene.positions.positions[rc][0]), int(scene.positions.positions[rc][1]),
               scene.tiles[rc].astype(np.float64))
              for rc in sorted(scene.tiles) if rc not in left_out]
    out = np.zeros((h, w))
    for y, x in np.ndindex(h, w):
        cover = [(t[y - ty, x - tx], ramp[y - ty, x - tx])
                 for ty, tx, t in placed if 0 <= y - ty < th and 0 <= x - tx < tw]
        if not cover:
            continue
        values = [v for v, _ in cover]
        if blend is BlendMode.OVERLAY:
            out[y, x] = values[-1]
        elif blend is BlendMode.MAXIMUM:
            out[y, x] = max(values)
        elif blend is BlendMode.AVERAGE:
            out[y, x] = sum(values, 0.0) / len(values)
        else:
            out[y, x] = sum((v * k for v, k in cover), 0.0) / sum((k for _, k in cover), 0.0)
    if outline_value is not None:
        value = out.max() if outline_value == "max" else outline_value
        for ty, tx, _ in placed:
            out[[ty, ty + th - 1], tx:tx + tw] = value
            out[ty:ty + th, [tx, tx + tw - 1]] = value
    return out


def left_out(skip, fail):
    return set(SKIP if skip else ()) | ({FAILING} if fail else set())


def ndarray_sink(workers):
    def render(tmp_path, blend, skip, fail, outline, scene=SCENE):
        got, mask = compose(loader(fail, scene), scene.positions, scene.tile_shape, blend,
                            outline=outline, dtype=np.float64,
                            skip_tiles=SKIP if skip else None,
                            on_tile_error="skip", return_mask=True, workers=workers)
        assert {rc for rc in scene.tiles if not mask[rc]} == left_out(skip, fail)
        # compose() outlines at the finished canvas's maximum by default.
        return got, naive_mosaic(blend, left_out(skip, fail), "max" if outline else None,
                                 scene)

    return render


def tiff_sink(**how):
    def render(tmp_path, blend, skip, fail, outline, scene=SCENE):
        res = stream_compose_to_tiff(tmp_path / "m.tif", loader(fail, scene),
                                     scene.positions, scene.tile_shape,
                                     blend=blend, outline=outline,
                                     skip_tiles=SKIP if skip else None,
                                     on_tile_error="skip", **how)
        assert res.stripes == -(-res.height // res.band_rows)
        expected = naive_mosaic(blend, left_out(skip, fail), 65535.0 if outline else None,
                                scene)
        return read_tiff(tmp_path / "m.tif"), np.clip(expected, 0, 65535).astype(np.uint16)

    return render


def viewport_sink(window):
    def render(tmp_path, blend, skip, fail, outline, scene=SCENE):
        pyr = MosaicPyramid(loader(False, scene), scene.positions, scene.tile_shape, levels=1)
        y, x, h, w = window or (0, 0, *pyr.level_shape(0))
        got = pyr.render_region(y, x, h, w, level=0, blend=blend)
        return got, naive_mosaic(blend, set(), None, scene)[y:y + h, x:x + w]

    return render


SINKS = {
    "ndarray": ndarray_sink(1),
    "ndarray-w2": ndarray_sink(2),
    "ndarray-w5": ndarray_sink(5),
    "tiff-rows1": tiff_sink(band_rows=1),
    "tiff-rows5": tiff_sink(band_rows=5),
    "tiff-rows-th": tiff_sink(band_rows=TILE[0]),
    "tiff-rows-2th+3": tiff_sink(band_rows=2 * TILE[0] + 3),
    "tiff-budget": tiff_sink(memory_budget=1500),
    "viewport-full": viewport_sink(None),
    "viewport-off-origin": viewport_sink((3, 5, 11, 7)),
}


def matrix():
    for sink, blend, skip, fail, outline in itertools.product(
            SINKS, BlendMode, (False, True), (False, True), (False, True)):
        # The viewer has no skip list, error policy or outline to exercise.
        if sink.startswith("viewport") and (skip or fail or outline):
            continue
        yield pytest.param(
            sink, blend, skip, fail, outline,
            id=f"{sink}-{blend.value}-skip{int(skip)}-fail{int(fail)}-outline{int(outline)}")


@pytest.mark.parametrize("sink,blend,skip,fail,outline", matrix())
def test_sink_matches_per_pixel_oracle(tmp_path, sink, blend, skip, fail, outline):
    got, expected = SINKS[sink](tmp_path, blend, skip, fail, outline)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


# -- what an in-place, mask-free normalisation could get wrong -----------------

WEIGHTED = [BlendMode.AVERAGE, BlendMode.LINEAR]
FLOAT_SINKS = [name for name in SINKS if not name.startswith("tiff")]

#: 2x2 px tiles lie entirely on LINEAR's ramp border, so every weight is the
#: 1e-6 floor; 1 px overlaps (floor + floor) and 1 px gaps (no cover at all).
FLOOR_SCENE = Scene(
    {(r, c): RNG.integers(1, 60000, (2, 2)).astype(np.uint16)
     for r in range(2) for c in range(3)},
    GlobalPositions(positions=np.array([[(0, 0), (0, 1), (0, 4)],
                                        [(3, 0), (3, 1), (3, 4)]], dtype=np.int64),
                    method="test"),
)

NAN_SCENE = Scene({rc: t.astype(np.float64) for rc, t in TILES.items()}, POSITIONS)
NAN_SCENE.tiles[(0, 0)][2:5, 1:4] = np.nan   # interior and, at the edges, overlap
NAN_SCENE.tiles[(1, 1)][0, :] = np.nan       # a whole border row, under the ramp's floor
NAN_SCENE.tiles[(2, 2)][-1, -1] = np.nan     # a canvas corner pixel


def assert_holes_are_positive_zero(got, expected):
    # Every tile value is >= 1, so the oracle is zero exactly where no tile covers.
    hole = expected == 0
    assert hole.any() and not hole.all()
    assert not np.signbit(got[hole]).any()
    assert np.isfinite(got).all()


@pytest.mark.parametrize("blend", WEIGHTED, ids=lambda b: b.value)
# (the off-origin viewport's window is fully covered: nothing to check there)
@pytest.mark.parametrize("sink", [name for name in SINKS if name != "viewport-off-origin"])
def test_holes_and_margins_stay_positive_zero(tmp_path, sink, blend):
    skip = not sink.startswith("viewport")
    with np.errstate(all="raise"):
        got, expected = SINKS[sink](tmp_path, blend, skip, False, False)
    assert np.array_equal(got, expected)
    assert_holes_are_positive_zero(got, expected)


@pytest.mark.parametrize("sink", ["ndarray", "ndarray-w2", "tiff-rows1", "viewport-full"])
def test_linear_floor_is_the_only_cover(tmp_path, sink):
    with np.errstate(all="raise"):
        got, expected = SINKS[sink](tmp_path, BlendMode.LINEAR, False, False, False,
                                    FLOOR_SCENE)
    assert np.array_equal(got, expected)
    assert_holes_are_positive_zero(got, expected)


@pytest.mark.parametrize("blend", WEIGHTED, ids=lambda b: b.value)
@pytest.mark.parametrize("sink", FLOAT_SINKS)
def test_nan_pixels_propagate(tmp_path, sink, blend):
    skip = not sink.startswith("viewport")
    got, expected = SINKS[sink](tmp_path, blend, skip, False, False, NAN_SCENE)
    assert np.isnan(expected).any() and not np.isnan(expected).all()
    assert np.array_equal(got, expected, equal_nan=True)
    assert not np.signbit(got[expected == 0]).any()


@pytest.mark.parametrize("scene", [SCENE, FLOOR_SCENE, NAN_SCENE], ids=["int", "floor", "nan"])
@pytest.mark.parametrize("blend", WEIGHTED, ids=lambda b: b.value)
def test_schedules_agree_to_the_bit(tmp_path, blend, scene):
    """Stripes in workers and the viewer give the bytes one window gives."""
    one = SINKS["ndarray"](tmp_path, blend, False, False, False, scene)[0]
    for other in ("ndarray-w2", "viewport-full"):
        got = SINKS[other](tmp_path, blend, False, False, False, scene)[0]
        assert got.tobytes() == one.tobytes(), other
