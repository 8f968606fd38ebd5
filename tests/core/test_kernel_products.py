"""``Phase1Kernel.products`` converts each tile to float64 once.

The one array is the transform's input (``downsample``'s in coarse mode)
and then ``TileStats.pixels``, mean-shifted in place.  That must change
no value: the spectrum, the rectangle summary, the pixels and
``sq_total`` equal, byte for byte, what the three-copy build computed --
the transform and ``downsample`` converting the raw tile themselves, and
the statistics converting it again and subtracting the mean into a third
array.  Memory the caller owns is never written.
"""

import numpy as np
import pytest

from repro.core import tilestats
from repro.core.coarse import CoarseConfig
from repro.core.downsample import downsample
from repro.core.kernel import Phase1Kernel
from repro.core.pciam import forward_fft, smooth_fft_shape
from repro.core.tilestats import TileStats

DTYPES = [np.uint8, np.uint16, np.float32, np.float64]
#: (64, 96) divides the coarse factor; (61, 83) makes ``downsample``
#: edge-pad, and ``pad_to_smooth`` pads it to (64, 84).
SHAPES = [(64, 96), (61, 83)]
#: Values of the size constant that force each summary on any tile.
SUMMARIES = {"table": 1 << 62, "marginal": 0}


def tile_of(dtype, shape, seed=3):
    rng = np.random.default_rng(seed)
    if np.issubdtype(dtype, np.integer):
        return rng.integers(0, np.iinfo(dtype).max, size=shape, dtype=dtype,
                            endpoint=True)
    return (rng.random(shape) * 4000.0).astype(dtype)


def kernel_for(shape, coarse, real, pad):
    return Phase1Kernel(
        coarse=CoarseConfig() if coarse else None,
        real_transforms=real,
        fft_shape=smooth_fft_shape(shape) if pad else None,
    )


def three_copy_products(kernel, pixels):
    """``(spectrum, TileStats)`` as built before the fused conversion."""
    src = pixels
    if kernel.coarse is not None:
        src = downsample(pixels, kernel.coarse.factor)
    shape = (None if kernel.fft_shape is None
             else kernel.transform_shape(pixels.shape))
    spectrum = forward_fft(src, shape, real=kernel.real_transforms)
    # A float64 tile the statistics do not own: the constructor copies it
    # into ``px - px.mean()``, the old expression.
    stats = TileStats(np.asarray(pixels, dtype=np.float64))
    return spectrum, stats


def summary_bytes(stats):
    parts = (stats._table,) if stats._table is not None else (
        stats._rows, stats._cols)
    return [p.tobytes() for p in parts]


@pytest.fixture(params=list(SUMMARIES))
def summary(request, monkeypatch):
    monkeypatch.setattr(tilestats, "MARGINAL_MIN_TILE_PIXELS",
                        SUMMARIES[request.param])
    return request.param


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("coarse", [True, False], ids=["coarse", "full"])
@pytest.mark.parametrize("real", [True, False], ids=["r2c", "c2c"])
@pytest.mark.parametrize("pad", [False, True], ids=["native", "smooth"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_fused_products_equal_three_copy_build(dtype, coarse, real, pad,
                                               shape, summary):
    pixels = tile_of(dtype, shape)
    kept = pixels.copy()
    kernel = kernel_for(shape, coarse, real, pad)
    want_spectrum, want = three_copy_products(kernel, pixels)
    raw, spectrum, stats, fallback = kernel.products(pixels)
    assert raw is pixels
    np.testing.assert_array_equal(pixels, kept)
    assert spectrum.dtype == want_spectrum.dtype
    assert spectrum.tobytes() == want_spectrum.tobytes()
    assert stats.pixels.dtype == np.float64
    assert stats.pixels.tobytes() == want.pixels.tobytes()
    ref = np.asarray(pixels, dtype=np.float64)
    assert stats.pixels.tobytes() == (ref - ref.mean()).tobytes()
    assert summary_bytes(stats) == summary_bytes(want)
    assert repr(stats.sq_total) == repr(want.sq_total)
    assert (fallback is None) == (not coarse)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_tile_stats_matches_copying_build(dtype, summary):
    """The public constructor shifts its private conversion in place; a
    float64 tile it must copy gives the same bytes."""
    pixels = tile_of(dtype, (61, 83))
    got = TileStats(pixels)
    want = TileStats(np.asarray(pixels, dtype=np.float64))
    assert got.pixels.tobytes() == want.pixels.tobytes()
    assert summary_bytes(got) == summary_bytes(want)
    assert repr(got.sq_total) == repr(want.sq_total)


def caller_owned(kind, tmp_path):
    """A float64 tile whose memory belongs to the caller, and the bytes it
    must keep."""
    base = tile_of(np.float64, (64, 100))
    if kind == "array":
        tile = base[:, :96].copy()
    elif kind == "strided-view":
        tile = base[:, 2:98]
    elif kind == "read-only-view":
        tile = base[:, :96].copy().view()
        tile.setflags(write=False)
    else:
        tile = np.memmap(tmp_path / "tile.f64", dtype=np.float64, mode="w+",
                         shape=(64, 96))
        tile[...] = base[:, :96]
        tile.flush()
    return tile, np.array(tile)


OWNED = ["array", "strided-view", "read-only-view", "memmap"]


@pytest.mark.parametrize("kind", OWNED)
def test_tile_stats_leaves_caller_memory_alone(kind, tmp_path):
    tile, before = caller_owned(kind, tmp_path)
    px = np.asarray(tile)
    want = px - px.mean()
    stats = TileStats(tile)
    assert np.array(tile).tobytes() == before.tobytes()
    assert not np.may_share_memory(stats.pixels, tile)
    assert stats.pixels.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", OWNED)
@pytest.mark.parametrize("coarse", [True, False], ids=["coarse", "full"])
def test_products_leave_caller_memory_alone(kind, coarse, tmp_path):
    tile, before = caller_owned(kind, tmp_path)
    kernel = kernel_for(tile.shape, coarse, real=True, pad=False)
    want_spectrum, want = three_copy_products(kernel, tile)
    _, spectrum, stats, _ = kernel.products(tile)
    assert np.array(tile).tobytes() == before.tobytes()
    if kind == "memmap":
        on_disk = np.fromfile(tmp_path / "tile.f64", dtype=np.float64)
        assert on_disk.tobytes() == before.tobytes()
    assert not np.may_share_memory(stats.pixels, tile)
    assert spectrum.tobytes() == want_spectrum.tobytes()
    assert stats.pixels.tobytes() == want.pixels.tobytes()
    assert summary_bytes(stats) == summary_bytes(want)


def free_planes(planes):
    return [p for shelf in planes._free.values() for p in shelf]


def test_products_recycle_their_plane():
    """An integer tile is converted into a plane from the kernel's free
    list, which the statistics give back when they are freed; the next
    tile reuses it and computes the same products as a fresh plane."""
    kernel = Phase1Kernel()
    tile = tile_of(np.uint16, (64, 96))
    first = kernel.products(tile)
    assert kernel.planes.allocated == 1 and not free_planes(kernel.planes)
    plane = first[2].pixels
    expected = (first[1].copy(), plane.copy())
    del first, plane
    assert len(free_planes(kernel.planes)) == 1
    again = kernel.products(tile)
    assert kernel.planes.allocated == 1
    assert np.array_equal(again[1], expected[0])
    assert np.array_equal(again[2].pixels, expected[1])


def test_float64_tiles_take_no_plane():
    kernel = Phase1Kernel()
    products = kernel.products(tile_of(np.float64, (64, 96)))
    del products
    assert kernel.planes.allocated == 0 and not free_planes(kernel.planes)


def translations(result):
    d = result.displacements
    return repr((d.west, d.north))


def test_reused_stitcher_allocates_no_new_plane(dataset_4x4):
    """A stitcher keeps its planes between stitches: the second stitch
    allocates none and returns the same translations, to the bit."""
    from repro.core.stitcher import Stitcher

    stitcher = Stitcher()
    first = stitcher.stitch(dataset_4x4)
    allocated = stitcher.planes.allocated
    assert allocated > 0
    assert len(free_planes(stitcher.planes)) == allocated  # all came back
    second = stitcher.stitch(dataset_4x4)
    assert stitcher.planes.allocated == allocated
    assert translations(second) == translations(first)
    assert translations(first) == translations(Stitcher().stitch(dataset_4x4))


def test_live_stitchers_share_planes_freed_with_the_last(dataset_4x4):
    """A second stitcher alive at the same time reuses the first one's
    idle planes; once both are gone, so are the planes."""
    import weakref

    from repro.core.stitcher import Stitcher

    first = Stitcher()
    first.stitch(dataset_4x4)
    allocated = first.planes.allocated
    second = Stitcher(coarse=False)
    assert second.planes is first.planes
    second.stitch(dataset_4x4)
    assert first.planes.allocated == allocated
    gone = weakref.ref(first.planes)
    del first, second
    assert gone() is None
    assert Stitcher().planes.allocated == 0


def test_shared_column_planes_return_once(dataset_4x4):
    """mt-cpu's ghost-column tiles are shared by two partitions; their
    planes go back once, when the last partition lets go."""
    from repro.core.stitcher import Stitcher

    stitcher = Stitcher(impl="mt-cpu", impl_options={"workers": 2})
    stitcher.stitch(dataset_4x4)
    planes = free_planes(stitcher.planes)
    assert len(planes) == stitcher.planes.allocated > 0
    assert len({id(p) for p in planes}) == len(planes)
