"""Figs. 13 & 14: the composed mosaic (overlay blend; highlighted tiles).

The paper renders its 42x59 grid to a 17k x 22k image.  Here a scaled
synthetic plate is stitched end-to-end and composed both ways; the mosaics
are written to ``benchmarks/results/`` as TIFFs and scored against the
known plate (position recovery must be exact for the render to be valid).

Run as a script to benchmark out-of-core composition -- in-memory vs
streaming at two memory budgets -- and write ``BENCH_compose.json`` at
the repo root (the committed record; ``--check`` gates without writing:
tracked peak within each budget, streaming no slower than
``THROUGHPUT_FLOOR`` x in-memory)::

    python benchmarks/bench_fig13_14_compose.py           # full grid
    python benchmarks/bench_fig13_14_compose.py --quick
    python benchmarks/bench_fig13_14_compose.py --quick --check
"""

import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import numpy as np
import pytest

from benchmarks._util import RESULTS_DIR, emit, once, read_json, write_json
from repro.core.compose import BlendMode
from repro.core.stitcher import Stitcher
from repro.io.tiff import read_tiff, write_tiff
from repro.synth import make_synthetic_dataset

BENCH_COMPOSE_PATH = REPO_ROOT / "BENCH_compose.json"

#: (rows, cols, tile_px) per mode for the out-of-core comparison.
COMPOSE_MODES = {
    "full": (8, 8, 256),
    "quick": (6, 6, 192),  # big enough that per-stripe overhead amortizes
}

#: Streaming budgets as fractions of the full-resolution working set:
#: budget = in-memory peak // fraction, so every run is genuinely
#: over-budget (the canvas cannot fit) at two different severities.
BUDGET_FRACTIONS = (4, 16)

#: Acceptance floor: streaming throughput at the *looser* budget must be
#: within 25% of the in-memory path (same single compose worker).
THROUGHPUT_FLOOR = 0.75


@pytest.fixture(scope="module")
def stitched(tmp_path_factory):
    ds = make_synthetic_dataset(
        tmp_path_factory.mktemp("f13"), rows=7, cols=10,
        tile_height=96, tile_width=96, overlap=0.12, seed=13,
    )
    res = Stitcher().stitch(ds)
    assert res.position_errors().max() == 0.0
    return ds, res


def _to_uint16(mosaic: np.ndarray) -> np.ndarray:
    top = float(mosaic.max()) or 1.0
    return (np.clip(mosaic / top, 0, 1) * 65535).astype(np.uint16)


def test_fig13_overlay_mosaic(benchmark, stitched):
    ds, res = stitched

    mosaic = once(benchmark, lambda: res.compose(BlendMode.OVERLAY))
    RESULTS_DIR.mkdir(exist_ok=True)
    write_tiff(RESULTS_DIR / "fig13_mosaic_overlay.tif", _to_uint16(mosaic))
    h, w = mosaic.shape
    emit(
        "fig13_overlay",
        f"Fig. 13 -- overlay-blend mosaic rendered: {h}x{w} px "
        f"(paper: 17k x 22k from its 42x59 grid)\n"
        f"positions recovered exactly: True\n"
        f"saved: benchmarks/results/fig13_mosaic_overlay.tif",
    )
    assert mosaic.shape == res.positions.mosaic_shape(ds.tile_shape)


def test_fig14_highlighted_tiles(benchmark, stitched):
    ds, res = stitched

    mosaic = once(
        benchmark, lambda: res.compose(BlendMode.OVERLAY, outline=True)
    )
    write_tiff(RESULTS_DIR / "fig14_mosaic_outlined.tif", _to_uint16(mosaic))
    # Outlines exist: the brightest value traces tile borders.
    y, x = (int(v) for v in res.positions.positions[3, 4])
    assert mosaic[y, x + 5] == mosaic.max()
    emit(
        "fig14_outlined",
        "Fig. 14 -- mosaic with highlighted tile borders rendered\n"
        "saved: benchmarks/results/fig14_mosaic_outlined.tif",
    )


def test_compose_and_render_without_saving(benchmark, stitched):
    """The paper also reports composing + rendering without saving (15 s
    at paper scale); here the in-memory compose path alone is timed."""
    _, res = stitched
    mosaic = once(benchmark, lambda: res.compose(BlendMode.LINEAR))
    assert np.isfinite(mosaic).all()


# ---------------------------------------------------------------------------
# Out-of-core composition: in-memory vs streaming at bounded budgets.


def _measure_compose(ds, res, out_dir: Path) -> dict:
    """Time in-memory vs streaming compose-to-TIFF and report peak bytes.

    Both paths run single-worker, LINEAR blend (the heaviest working set:
    canvas + weight accumulator), write uint16, and must agree bit for
    bit.  The in-memory peak is the analytic working set -- float64
    canvas, float64 weights, uint16 output copy; the streaming peak is
    tracked live by the composer (band + weight + output stripe + tile
    cache).
    """
    h, w = res.positions.mosaic_shape(ds.tile_shape)
    mpix = h * w / 1e6
    record = {
        "blend": "linear",
        "canvas": [h, w],
        "mpix": round(mpix, 3),
        "grid": [ds.rows, ds.cols],
    }

    t0 = time.perf_counter()
    mosaic = res.compose(BlendMode.LINEAR, dtype=np.float64)
    reference = np.clip(mosaic, 0, 65535).astype(np.uint16)
    write_tiff(out_dir / "inmem.tif", reference)
    in_secs = time.perf_counter() - t0
    in_peak = h * w * (8 + 8 + 2)  # canvas + weight + uint16 copy
    del mosaic
    record["in_memory"] = {
        "seconds": round(in_secs, 4),
        "mpix_per_sec": round(mpix / in_secs, 3),
        "peak_canvas_bytes": in_peak,
    }

    record["streaming"] = []
    for frac in BUDGET_FRACTIONS:
        budget = in_peak // frac
        path = out_dir / f"stream-{frac}.tif"
        t0 = time.perf_counter()
        sres = res.compose_to_tiff(path, blend=BlendMode.LINEAR,
                                   memory_budget=budget)
        st_secs = time.perf_counter() - t0
        assert sres.peak_bytes <= budget, (
            f"streaming peak {sres.peak_bytes} exceeds budget {budget}")
        assert np.array_equal(read_tiff(path), reference), (
            f"streamed mosaic at budget //{frac} is not bit-identical")
        cache = sres.cache or {}
        record["streaming"].append({
            "budget_bytes": budget,
            "budget_fraction_of_in_memory": f"1/{frac}",
            "seconds": round(st_secs, 4),
            "mpix_per_sec": round(mpix / st_secs, 3),
            "throughput_vs_in_memory": round(in_secs / st_secs, 3),
            "peak_canvas_plus_cache_bytes": sres.peak_bytes,
            "stripes": sres.stripes,
            "band_rows": sres.band_rows,
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "cache_evictions": cache.get("evictions", 0),
        })
    return record


def _run_compose_bench(mode: str) -> dict:
    import tempfile

    rows, cols, tile = COMPOSE_MODES[mode]
    with tempfile.TemporaryDirectory(prefix="bench_compose_") as tmp:
        tmp = Path(tmp)
        ds = make_synthetic_dataset(
            tmp / "ds", rows=rows, cols=cols, tile_height=tile,
            tile_width=tile, overlap=0.12, seed=13,
        )
        res = Stitcher().stitch(ds)
        record = _measure_compose(ds, res, tmp)
    record["mode"] = mode
    return record


def test_out_of_core_compose_peaks(stitched, tmp_path):
    """Streaming stays under both budgets and matches in-memory exactly."""
    ds, res = stitched
    record = _measure_compose(ds, res, tmp_path)
    lines = [
        f"out-of-core compose -- {record['canvas'][0]}x"
        f"{record['canvas'][1]} px ({record['mpix']} MPix), linear blend",
        f"in-memory: {record['in_memory']['mpix_per_sec']} MPix/s, "
        f"peak {record['in_memory']['peak_canvas_bytes']:,} B",
    ]
    for s in record["streaming"]:
        lines.append(
            f"streaming @ {s['budget_fraction_of_in_memory']} budget "
            f"({s['budget_bytes']:,} B): {s['mpix_per_sec']} MPix/s, "
            f"peak {s['peak_canvas_plus_cache_bytes']:,} B, "
            f"{s['stripes']} stripes x {s['band_rows']} rows, "
            f"cache {s['cache_hits']}h/{s['cache_misses']}m"
        )
    emit("fig13_out_of_core", "\n".join(lines))
    for s in record["streaming"]:
        assert s["peak_canvas_plus_cache_bytes"] <= s["budget_bytes"]


def main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized grid instead of the full one")
    ap.add_argument("--check", action="store_true",
                    help="gate only: leave the committed BENCH_compose.json "
                         "as it is")
    args = ap.parse_args(argv)

    mode = "quick" if args.quick else "full"
    record = _run_compose_bench(mode)

    print(f"canvas {record['canvas'][0]}x{record['canvas'][1]} "
          f"({record['mpix']} MPix), in-memory "
          f"{record['in_memory']['mpix_per_sec']} MPix/s "
          f"(peak {record['in_memory']['peak_canvas_bytes']:,} B)")
    for s in record["streaming"]:
        print(f"  streaming @ {s['budget_fraction_of_in_memory']}: "
              f"{s['mpix_per_sec']} MPix/s "
              f"({s['throughput_vs_in_memory']:.2f}x in-memory), "
              f"peak {s['peak_canvas_plus_cache_bytes']:,} "
              f"<= {s['budget_bytes']:,} B")  # asserted by _measure_compose

    # The only speed gate is this absolute floor.  A ratio against a
    # committed run falls whenever the in-memory path gets faster; speed
    # is judged by parent/change pairs through benchmarks/e2e/run.py.
    ratio = record["streaming"][0]["throughput_vs_in_memory"]
    if ratio < THROUGHPUT_FLOOR:
        print(f"FAIL: streaming at the loose budget is {ratio:.2f}x "
              f"in-memory (floor {THROUGHPUT_FLOOR})")
        return 1
    print(f"OK: streaming at the loose budget is {ratio:.2f}x in-memory "
          f"(floor {THROUGHPUT_FLOOR}), peaks within budget")
    if args.check:
        return 0

    merged = read_json(BENCH_COMPOSE_PATH) or {}
    merged[mode] = record
    write_json(BENCH_COMPOSE_PATH, merged)
    print(f"wrote {BENCH_COMPOSE_PATH} ({mode})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
