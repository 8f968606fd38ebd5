#!/usr/bin/env python
"""Phase-1 hot-path benchmark: the sequential displacement phase, timed.

Measures the sequential displacement phase (the hot path every Table II
implementation shares) on a synthetic in-memory grid, in two
configurations:

``optimized``
    single-pass full PCIAM -- r2c half-spectrum transforms,
    O(1)-statistics CCF (``TileStats``), and the per-worker pair
    workspace; pinned to ``coarse=False``, so it stays the single-pass
    reference at tile sizes where the stitcher's default is coarse;
``coarse``
    the same with coarse-to-fine registration (``CoarseConfig()``).

The headline metric is phase-1 **pairs/sec**, with per-stage seconds
(read / fft / tilestats / pair, from the tracer) and peak RSS recorded
alongside, plus the overlapped-over-inline schedule ratio of the
optimized configuration.  That the optimized path computes what Fig. 2
defines is asserted by the naive oracle of
``tests/integration/test_impl_equivalence.py``; regressions are gated end
to end (``tiles_default/wall_s`` in ``BENCHMARK.json``).  The committed
artifact ``BENCH_phase1.json`` at the repo root records a run of this
file; the gates below compare *times* only between configurations
measured in the same run, never against it (``--coarse-gate`` does hold
the run's hit/fallback counts, which repeat exactly, to the committed
ones).

Usage::

    python benchmarks/bench_phase1_hotpath.py          # full: 8x8 grid
    python benchmarks/bench_phase1_hotpath.py --quick  # CI-sized: 5x5 grid
    python benchmarks/bench_phase1_hotpath.py --coarse-gate 1.0
    python benchmarks/bench_phase1_hotpath.py --stats-sweep  # TileStats threshold
    python benchmarks/bench_phase1_hotpath.py --coarse-corpus  # coarse gate
    python benchmarks/bench_phase1_hotpath.py --memory  # live set per stitch
    python benchmarks/bench_phase1_hotpath.py --fixed-costs  # per tile/pair

``--fixed-costs`` times the e2e ``grid_small_tiles`` operation, where
per-file, per-tile and per-pair fixed costs rather than pixels carry the
time, and checks its counts (no timing gate); its output at two commits
is ``benchmarks/results/fixed_costs.txt``.
"""

from __future__ import annotations

import argparse
import itertools
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks._util import emit, read_json, write_json  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_phase1.json"

#: (rows, cols, tile_px, repetitions) per mode.  512 px tiles keep the
#: numpy kernels (not python dispatch) dominant, approaching the regime of
#: the paper's 1392x1040 tiles while staying CI-friendly.
MODES = {
    "full": (8, 8, 512, 5),
    "quick": (5, 5, 256, 2),
}

#: (rows, cols, tile_px) for the worker-scaling sweep.  Smaller tiles than
#: the hot-path bench: the sweep measures *architecture* (latency hiding
#: and spatial decomposition), so modeled I/O should dominate compute.
SWEEP_MODES = {
    "full": (8, 8, 128),
    "quick": (5, 5, 128),
}

#: Modeled per-read disk latency for the sweep: a paper-scale tile
#: (1392 x 1040 at 16-bit ~ 2.9 MB) from cold spinning storage at
#: ~75 MB/s is ~40 ms.  The synthetic tiles here are far smaller, so the
#: sweep injects this latency explicitly; parallel backends then earn
#: their speedup the same way they do at paper scale -- by overlapping
#: reads across partitions -- rather than by exploiting an unrealistically hot
#: page cache.  (On a single-core CI runner the FFT/NCC compute cannot
#: parallelize at all, so latency hiding is also the only *honest* source
#: of speedup to measure there.)
SWEEP_READ_LATENCY = 0.04

SWEEP_WORKERS = (1, 2, 4, 8)

STAGES = ("read", "downsample", "fft", "tilestats", "pair")

#: What ``--coarse-gate`` holds to the committed artifact: the confidence
#: gate's decisions are deterministic, so the counts repeat exactly from
#: run to run where the timings (1.1-1.4x on one box) do not.
COARSE_COUNTS = ("coarse_hits", "full_fallbacks")


class LatencyDataset:
    """Delegating dataset wrapper that models per-read disk latency."""

    def __init__(self, dataset, latency: float) -> None:
        self._dataset = dataset
        self._latency = latency

    def __getattr__(self, name):
        return getattr(self._dataset, name)

    def load(self, row: int, col: int, **kw):
        time.sleep(self._latency)
        return self._dataset.load(row, col, **kw)


def _load_tiles(rows: int, cols: int, tile: int, seed: int = 7):
    """Synthesize an acquisition and preload it (no I/O inside the timing)."""
    from repro.synth import make_synthetic_dataset

    with tempfile.TemporaryDirectory(prefix="bench_phase1_") as tmp:
        ds = make_synthetic_dataset(
            tmp, rows=rows, cols=cols, tile_height=tile, tile_width=tile,
            overlap=0.2, seed=seed,
        )
        return {
            (r, c): ds.load(r, c) for r in range(rows) for c in range(cols)
        }


def _run_once(tiles, rows, cols, *, coarse=None, overlap=None):
    from repro.core.displacement import compute_grid_displacements
    from repro.core.pciam import CcfMode
    from repro.observe import Tracer

    tracer = Tracer()
    t0 = time.perf_counter()
    # EXTENDED + 2 peaks is the CLI's default robustness configuration
    # (up to 16 CCF candidates per pair) -- the workload the O(1) CCF
    # statistics are built for.
    result = compute_grid_displacements(
        lambda r, c: tiles[(r, c)], rows, cols,
        ccf_mode=CcfMode.EXTENDED,
        n_peaks=2,
        tracer=tracer,
        coarse=coarse,
        overlap=overlap,
    )
    seconds = time.perf_counter() - t0
    stage_seconds = {name: 0.0 for name in STAGES}
    for span in tracer.spans:
        if span.name in stage_seconds:
            stage_seconds[span.name] += span.duration
    return result, seconds, stage_seconds


def _translations(result):
    out = []
    for arr in (result.west, result.north):
        for row in arr:
            for t in row:
                out.append(None if t is None else (t.correlation, t.tx, t.ty))
    return out


def measure(mode: str) -> dict:
    import math

    from repro.core.coarse import CoarseConfig

    rows, cols, tile, reps = MODES[mode]
    tiles = _load_tiles(rows, cols, tile)
    pairs = 2 * rows * cols - rows - cols
    configs = {"optimized": {"coarse": False},
               "coarse": {"coarse": CoarseConfig()}}
    report: dict = {
        "mode": mode, "rows": rows, "cols": cols, "tile": tile,
        "pairs": pairs, "repetitions": reps,
    }
    outputs = {}
    # Round-robin the configurations within each repetition (rather than
    # all reps of one config back to back): every config samples the same
    # load profile of the host, so the config-to-config *ratios* -- what
    # the CI gates check -- are far more stable than the absolute times.
    best_of: dict[str, tuple] = {}
    results: dict = {}
    for _ in range(reps):
        for name, cfg in configs.items():
            result, seconds, stage_seconds = _run_once(
                tiles, rows, cols, **cfg
            )
            if name not in best_of or seconds < best_of[name][0]:
                best_of[name] = (seconds, stage_seconds)
            # Runs are deterministic: any repetition's result serves.
            results[name] = result
            outputs[name] = _translations(result)
    for name in configs:
        best, best_stages = best_of[name]
        result = results[name]
        report[name] = {
            "seconds": round(best, 4),
            "pairs_per_sec": round(pairs / best, 2),
            "stage_seconds": {
                k: round(v, 4) for k, v in best_stages.items()
            },
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
            ),
        }
        if name == "coarse":
            report[name]["coarse_hits"] = int(
                result.stats.get("coarse_hits", 0)
            )
            report[name]["full_fallbacks"] = int(
                result.stats.get("full_fallbacks", 0)
            )
    # Coarse-to-fine must land on the full-resolution reference's
    # positions: RMS distance is the accuracy metric the coarse gate
    # enforces (exactly 0 -- accepted or fallen back, a pair's answer is
    # the full-resolution integer peak).
    sq, n = 0.0, 0
    for a, b in zip(outputs["optimized"], outputs["coarse"]):
        if a is None and b is None:
            continue
        if a is None or b is None:
            raise AssertionError(
                "coarse run dropped or added a pair vs optimized"
            )
        sq += (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
        n += 1
    report["coarse"]["rms_px_vs_optimized"] = round(math.sqrt(sq / n), 4)
    report["coarse"]["speedup_vs_optimized"] = round(
        report["coarse"]["pairs_per_sec"]
        / report["optimized"]["pairs_per_sec"], 3,
    )
    return report


#: Tile sizes (px, square) of the ``--overlap-sweep`` on a 5x5 grid: the
#: measurement behind ``OVERLAP_MIN_TILE_PIXELS`` in core/displacement.py.
OVERLAP_SWEEP = (5, 5, (64, 128, 192, 256, 320, 384, 512))
#: Each schedule of an overlap measurement runs at least this long (and
#: at least three times).
OVERLAP_BLOCK_SECONDS = 3.0


def measure_overlap(rows: int, cols: int, tile: int) -> dict | None:
    """Overlapped vs inline schedule of the optimized configuration.

    Both schedules are forced (what is measured is the speedup, not the
    decision); results must be identical.  Unlike the other ratios here the
    repetitions are *not* interleaved: a kernel that is slow to spread two
    runnable threads over two CPUs (observed: ~1.2 s on a 2-vCPU
    Firecracker guest) only does so under sustained two-thread load, which
    inline runs in between would keep resetting -- so each schedule runs
    as one block of at least ``OVERLAP_BLOCK_SECONDS``.  Returns ``None`` when
    this process may use fewer CPUs than the overlapped schedule needs --
    it would never engage here.
    """
    from repro.core.displacement import OVERLAP_MIN_CPUS, usable_cpus

    if usable_cpus() < OVERLAP_MIN_CPUS:
        return None
    tiles = _load_tiles(rows, cols, tile)
    times: dict[bool, list[float]] = {False: [], True: []}
    outputs = {}
    for overlap in (False, True):
        block_end = time.perf_counter() + OVERLAP_BLOCK_SECONDS
        while len(times[overlap]) < 3 or time.perf_counter() < block_end:
            result, seconds, _ = _run_once(tiles, rows, cols, overlap=overlap)
            times[overlap].append(seconds)
            outputs[overlap] = _translations(result)
    if outputs[False] != outputs[True]:
        raise AssertionError("overlapped run diverged from the inline one")
    best = {k: min(v) for k, v in times.items()}
    median = {k: statistics.median(v) for k, v in times.items()}
    return {
        "rows": rows, "cols": cols, "tile": tile,
        "repetitions": len(times[True]),
        "inline_seconds": round(best[False], 4),
        "overlapped_seconds": round(best[True], 4),
        "speedup": round(best[False] / best[True], 3),
        "median_speedup": round(median[False] / median[True], 3),
    }


def _print_overlap(report: dict) -> None:
    print(f"  {report['rows']}x{report['cols']} grid, {report['tile']:4d}px "
          f"tiles ({report['tile'] ** 2 // 1024:4d} Ki px, best of "
          f"{report['repetitions']}): inline {report['inline_seconds']:.3f}s, "
          f"overlapped {report['overlapped_seconds']:.3f}s, "
          f"{report['speedup']:.2f}x (medians {report['median_speedup']:.2f}x)")


#: Tile sizes (px, square) of the ``--stats-sweep`` on a 5x5 grid: the
#: measurement behind ``MARGINAL_MIN_TILE_PIXELS`` in core/tilestats.py.
STATS_SWEEP = (5, 5, (64, 128, 192, 256, 320, 384, 512))
#: Repetitions per (size, configuration, summary); the summaries alternate
#: within each repetition so both sample the same host load.
STATS_SWEEP_REPS = 7


def measure_stats(rows: int, cols: int, tile: int,
                  reps: int = STATS_SWEEP_REPS) -> dict:
    """Phase 1 with each ``TileStats`` summary forced, default and coarse.

    The summary is forced through the size constant itself (0: marginals
    for every tile; unreachable: summed-area tables for every tile), on
    the inline schedule so only the statistics differ between the runs.
    Integer translations must agree between the two summaries.
    """
    from repro.core import tilestats
    from repro.core.coarse import CoarseConfig

    tiles = _load_tiles(rows, cols, tile)
    forced = {"table": 1 << 62, "marginal": 0}
    configs = {"optimized": {"coarse": False},
               "coarse": {"coarse": CoarseConfig()}}
    times = {(c, s): [] for c in configs for s in forced}
    outputs = {}
    saved = tilestats.MARGINAL_MIN_TILE_PIXELS
    try:
        for _ in range(reps):
            for cname, cfg in configs.items():
                for sname, threshold in forced.items():
                    tilestats.MARGINAL_MIN_TILE_PIXELS = threshold
                    result, seconds, _ = _run_once(
                        tiles, rows, cols, overlap=False, **cfg
                    )
                    times[cname, sname].append(seconds)
                    outputs[cname, sname] = [
                        None if t is None else t[1:]
                        for t in _translations(result)
                    ]
    finally:
        tilestats.MARGINAL_MIN_TILE_PIXELS = saved
    report: dict = {"rows": rows, "cols": cols, "tile": tile,
                    "repetitions": reps}
    for cname in configs:
        if outputs[cname, "table"] != outputs[cname, "marginal"]:
            raise AssertionError(
                f"{cname}: the two summaries registered different pairs"
            )
        best = {s: min(times[cname, s]) for s in forced}
        median = {s: statistics.median(times[cname, s]) for s in forced}
        report[cname] = {
            "table_seconds": round(best["table"], 4),
            "marginal_seconds": round(best["marginal"], 4),
            "speedup": round(best["table"] / best["marginal"], 3),
            "median_speedup": round(median["table"] / median["marginal"], 3),
        }
    return report


def _print_stats(report: dict) -> None:
    cells = []
    for cname in ("optimized", "coarse"):
        r = report[cname]
        cells.append(f"{cname} table {r['table_seconds']:.3f}s / marginal "
                     f"{r['marginal_seconds']:.3f}s = {r['speedup']:.2f}x "
                     f"(medians {r['median_speedup']:.2f}x)")
    print(f"  {report['tile']:4d}px ({report['tile'] ** 2 // 1024:4d} Ki px): "
          + "; ".join(cells))


#: The ``--coarse-corpus`` datasets: 3x3 grids from the virtual microscope
#: (factory stage) over tile shape x overlap x specimen x seed -- the
#: measurement behind ``COARSE_MIN_TILE_PIXELS`` in core/options.py and
#: ``PROBE_BUDGET`` in core/coarse.py.  ``granular`` is the e2e
#: benchmark's specimen, ``sparse`` has a few colonies and no pixel-scale
#: granularity: most of its overlaps are featureless.
CORPUS_SHAPES = ((128, 128), (192, 192), (256, 256), (260, 348), (320, 320),
                 (384, 384), (448, 448), (512, 512), (520, 696))
CORPUS_OVERLAPS = (0.10, 0.20, 0.35)
CORPUS_SPECIMENS = {
    "default": {},
    "granular": {"fine_texture": 0.0, "background_texture": 0.0},
    "sparse": {"colony_count": 4, "granularity": 0.0},
}
CORPUS_SEEDS = (0, 1)
#: Repetitions per dataset; the three configurations alternate within each.
CORPUS_REPS = 3


def _pair_translations(result) -> dict:
    from repro.grid.neighbors import Direction

    return {
        (d.value, r, c): (t.tx, t.ty)
        for d in Direction for r, c, t in result.displacements.entries(d)
    }


def measure_coarse_corpus(reps: int = CORPUS_REPS) -> list[dict]:
    """Phase 1 of every corpus dataset three ways: full PCIAM
    (``coarse=False``), coarse forced (``coarse=True``) and the default
    (undecided: the tile shape decides).  Records the median phase-1
    seconds of each, the forced run's hits and fallbacks, the pairs whose
    translation differs from full PCIAM's and both runs' position error."""
    from repro.core.options import StitchOptions
    from repro.core.stitcher import Stitcher
    from repro.synth import SpecimenParams, make_synthetic_dataset

    configs = {"full": False, "coarse": True, "default": None}
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench_corpus_") as tmp:
        for (h, w), overlap, (name, specimen), seed in itertools.product(
            CORPUS_SHAPES, CORPUS_OVERLAPS, CORPUS_SPECIMENS.items(),
            CORPUS_SEEDS,
        ):
            ds = make_synthetic_dataset(
                Path(tmp) / f"{h}x{w}-{overlap}-{name}-{seed}", rows=3,
                cols=3, tile_height=h, tile_width=w, overlap=overlap,
                seed=seed, specimen=SpecimenParams(**specimen) if specimen
                else None,
            )
            times = {k: [] for k in configs}
            results = {}
            for _ in range(reps):
                for key, coarse in configs.items():
                    results[key] = Stitcher(coarse=coarse).stitch(ds)
                    times[key].append(results[key].phase1_seconds)
            full, coarse = (_pair_translations(results[k])
                            for k in ("full", "coarse"))
            phase1 = {k: statistics.median(v) for k, v in times.items()}
            stats = results["coarse"].displacements.stats
            rows.append({
                "shape": [h, w], "overlap": overlap, "specimen": name,
                "seed": seed,
                "default_is_coarse": StitchOptions().coarse_for((h, w))
                is not None,
                "full_seconds": round(phase1["full"], 4),
                "coarse_ratio": round(phase1["coarse"] / phase1["full"], 3),
                "default_ratio": round(phase1["default"] / phase1["full"], 3),
                "hits": stats["coarse_hits"],
                "fallbacks": stats["full_fallbacks"],
                "differing_pairs": sum(full[k] != coarse[k] for k in full),
                "full_error_px": round(float(
                    results["full"].position_errors().max()), 2),
                "coarse_error_px": round(float(
                    results["coarse"].position_errors().max()), 2),
            })
            _print_corpus_row(rows[-1])
    return rows


def _print_corpus_row(row: dict) -> None:
    h, w = row["shape"]
    print(f"  {h:3d}x{w:<3d} ov {row['overlap']:.2f} {row['specimen']:8s} "
          f"seed {row['seed']}: default/full {row['default_ratio']:.2f} "
          f"({'coarse' if row['default_is_coarse'] else 'full'}), "
          f"coarse/full {row['coarse_ratio']:.2f}, {row['hits']:2d} hits "
          f"{row['fallbacks']:2d} fallbacks, {row['differing_pairs']} "
          f"differing pairs, error full {row['full_error_px']:.1f} px / "
          f"coarse {row['coarse_error_px']:.1f} px")


def _print_corpus_summary(rows: list[dict]) -> None:
    print("  coarse/full phase-1 ratio by tile shape (median / max over "
          "every specimen; non-sparse datasets with differing pairs):")
    for h, w in CORPUS_SHAPES:
        mine = [r for r in rows if r["shape"] == [h, w]]
        ratios = [r["coarse_ratio"] for r in mine]
        differing = sum(1 for r in mine
                        if r["specimen"] != "sparse" and r["differing_pairs"])
        print(f"    {h:3d}x{w:<3d} ({h * w // 1024:3d} Ki px): "
              f"{statistics.median(ratios):.2f} / {max(ratios):.2f}; "
              f"{differing}")
    gated = [r["default_ratio"] for r in rows if r["default_is_coarse"]]
    if gated:
        print(f"  default/full at or above the gate: median "
              f"{statistics.median(gated):.2f}, max {max(gated):.2f} "
              f"({len(gated)} datasets)")


def _disp_translations(displacements) -> list:
    class _Shim:
        west = displacements.west
        north = displacements.north

    return _translations(_Shim)


def measure_sweep(mode: str, workers: tuple[int, ...] = SWEEP_WORKERS,
                  latency: float = SWEEP_READ_LATENCY) -> dict:
    """Worker-scaling sweep: mt-cpu's worker threads against simple-cpu.

    Every run is checked bit-identical to the simple-cpu reference before
    its throughput counts.  Latency hiding is the mechanism under test --
    see :data:`SWEEP_READ_LATENCY`.
    """
    from repro.impls import MtCpu, SimpleCpu
    from repro.io.dataset import TileDataset
    from repro.synth import make_synthetic_dataset

    rows, cols, tile = SWEEP_MODES[mode]
    pairs = 2 * rows * cols - rows - cols

    with tempfile.TemporaryDirectory(prefix="bench_sweep_") as tmp:
        make_synthetic_dataset(
            tmp, rows=rows, cols=cols, tile_height=tile, tile_width=tile,
            overlap=0.2, seed=7,
        )
        dataset = LatencyDataset(TileDataset(tmp), latency)

        def timed(impl):
            t0 = time.perf_counter()
            run = impl.run(dataset)
            seconds = time.perf_counter() - t0
            return run, seconds

        ref_run, ref_seconds = timed(SimpleCpu())
        reference = _disp_translations(ref_run.displacements)
        report: dict = {
            "mode": mode, "rows": rows, "cols": cols, "tile": tile,
            "pairs": pairs, "read_latency": latency,
            "workers": list(workers),
            "simple_cpu": {
                "seconds": round(ref_seconds, 3),
                "pairs_per_sec": round(pairs / ref_seconds, 2),
            },
            "threads": {},
        }
        for w in workers:
            run, seconds = timed(MtCpu(workers=w))
            got = _disp_translations(run.displacements)
            if got != reference:
                raise AssertionError(
                    f"threads sweep at {w} workers diverged from the "
                    "simple-cpu reference -- positions must be "
                    "bit-identical"
                )
            report["threads"][str(w)] = {
                "seconds": round(seconds, 3),
                "pairs_per_sec": round(pairs / seconds, 2),
            }
        base = report["threads"][str(workers[0])]["pairs_per_sec"]
        for w in workers:
            entry = report["threads"][str(w)]
            entry["speedup_vs_1w"] = round(entry["pairs_per_sec"] / base, 2)
        report["identical_results"] = True
    return report


def _print_sweep(report: dict) -> None:
    print(f"worker-scaling sweep, {report['rows']}x{report['cols']} grid, "
          f"{report['tile']}px tiles, {report['pairs']} pairs, "
          f"{report['read_latency'] * 1000:.0f} ms modeled read latency:")
    r = report["simple_cpu"]
    print(f"  {'simple-cpu':>10}:       {r['pairs_per_sec']:8.1f} pairs/s "
          f"({r['seconds']:.3f}s)")
    for w in report["workers"]:
        e = report["threads"][str(w)]
        print(f"  {'threads':>10}: w={w:<2d}  {e['pairs_per_sec']:8.1f} pairs/s "
              f"({e['seconds']:.3f}s, {e['speedup_vs_1w']:.2f}x vs 1w)")
    print(f"  identical results: {report['identical_results']}")


#: ``--memory`` geometry: a 3x3 grid (10 % overlap) of the e2e camera
#: frame and of the paper's 1392x1040 tiles, each stitched coarse-to-fine
#: and full PCIAM.
MEMORY_GRID = (3, 3, 0.10)
MEMORY_SHAPES = ((520, 696), (1040, 1392))
#: Warm stitches per configuration whose minor faults are averaged.
MEMORY_WARM = 5

#: Runs in a fresh interpreter (``python -c``), so its ``ru_maxrss`` is
#: its own: the orchestrating parent never imports numpy.
_MEMORY_CHILD = """
import json, resource, sys, tracemalloc
sys.path.insert(0, {src!r})
from repro import Stitcher, TileDataset
dataset = TileDataset({directory!r})
stitcher = Stitcher(coarse={coarse!r})
stitcher.stitch(dataset)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({warm}):
    result = stitcher.stitch(dataset)
usage = resource.getrusage(resource.RUSAGE_SELF)
tracemalloc.start()
stitcher.stitch(dataset)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps(dict(
    tracemalloc_peak_mb=peak / 2**20,
    maxrss_mb=usage.ru_maxrss / 1024,
    minor_faults_per_stitch=(usage.ru_minflt - before) / {warm},
    coarse_hits=result.stats.get("coarse_hits", 0),
    full_fallbacks=result.stats.get("full_fallbacks", 0),
)))
"""


def _python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter."""
    import subprocess

    return subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True,
    ).stdout


def measure_memory(warm: int = MEMORY_WARM) -> list[dict]:
    """Per warm stitch (phases 1 and 2, TIFF tiles on disk), for every
    ``MEMORY_SHAPES`` x coarse on/off: the tracemalloc peak of one
    stitch, the process's ``ru_maxrss`` and its minor page faults.  Each
    configuration is a fresh process: ``ru_maxrss`` is a high-water mark
    and glibc's heap retention depends on what ran before."""
    import json

    rows, cols, overlap = MEMORY_GRID
    src = str(REPO_ROOT / "src")
    out = []
    with tempfile.TemporaryDirectory(prefix="bench_phase1_memory_") as tmp:
        for h, w in MEMORY_SHAPES:
            directory = f"{tmp}/{h}x{w}"
            # Without the low-frequency textures, as the e2e ``paper``
            # dataset: coarse-to-fine then hits on every pair, so the
            # rows measure the default path, not its fallback.
            _python(
                f"import sys; sys.path.insert(0, {src!r})\n"
                "from repro.synth import SpecimenParams, "
                "make_synthetic_dataset\n"
                f"make_synthetic_dataset({directory!r}, rows={rows}, "
                f"cols={cols}, tile_height={h}, tile_width={w}, "
                f"overlap={overlap}, seed=7, specimen=SpecimenParams("
                "fine_texture=0.0, background_texture=0.0))\n"
            )
            for coarse in (True, False):
                row = json.loads(_python(_MEMORY_CHILD.format(
                    src=src, directory=directory, coarse=coarse, warm=warm,
                )))
                row.update(tile=f"{w}x{h}", coarse=coarse)
                out.append(row)
    return out


def _format_memory(rows: list[dict], warm: int) -> str:
    grid_rows, grid_cols, overlap = MEMORY_GRID
    lines = [
        f"phase-1 memory: Stitcher.stitch of a {grid_rows}x{grid_cols} grid "
        f"({overlap:.0%} overlap, uint16 TIFF tiles), one fresh process "
        f"per row, {warm} warm stitches",
        f"{'tile':>10} {'coarse':>6} {'tracemalloc MiB':>16} "
        f"{'ru_maxrss MiB':>14} {'minflt/stitch':>14} {'hits/fallbacks':>15}",
    ]
    for r in rows:
        lines.append(
            f"{r['tile']:>10} {'on' if r['coarse'] else 'off':>6} "
            f"{r['tracemalloc_peak_mb']:16.1f} {r['maxrss_mb']:14.1f} "
            f"{r['minor_faults_per_stitch']:14.1f} "
            f"{r['coarse_hits']:>7}/{r['full_fallbacks']:<7}"
        )
    return "\n".join(lines)


#: Warm operations timed plain, then again with per-layer timers.
FIXED_COST_OPS = 7
#: CCF probes per pair on that grid: the contest scores the distinct
#: interpretations of two peaks, as it did before the fixed costs were
#: cut.  A change of this count is a change of the registration.
FIXED_COST_PROBES_PER_PAIR = 8.0
#: Passes over the tiles with per-tile descriptions.
FIXED_COST_PASSES = 7
#: Layers timed per call: (label, module, class or None, attribute).
#: Each call's time includes the timer's own ~0.3 us.
FIXED_COST_LAYERS = (
    ("decode", "repro.io.dataset", None, "read_tiff"),
    ("tile build", "repro.core.kernel", "Phase1Kernel", "products"),
    ("pair", "repro.core.kernel", "Phase1Kernel", "register_pair"),
    ("ccf probe", "repro.core.pciam", None, "ccf_at_stats"),
)


def measure_fixed_costs(ops: int = FIXED_COST_OPS) -> dict:
    """The ``grid_small_tiles`` e2e operation (stitch + mosaic of the
    21x30 grid of 64 px tiles, seed 7) in this process: the median of
    ``ops`` warm operations, then per call and per operation the time and
    count of each of ``FIXED_COST_LAYERS`` over ``ops`` timed ones, and
    the layout parses of every operation, the first (cold) one included;
    then the decode of tiles whose headers all differ
    (:func:`_decode_described`)."""
    import importlib

    from benchmarks.e2e.workloads import WORKLOADS, Context, make_dataset

    tiff = importlib.import_module("repro.io.tiff")
    parses = []
    real_parse = tiff._parse_first_ifd
    tiff._parse_first_ifd = lambda *a: parses.append(1) or real_parse(*a)
    spent: dict[str, float] = {}
    calls: dict[str, int] = {}

    def timed(label: str, real):
        def call(*args, **kw):
            t0 = time.perf_counter()
            try:
                return real(*args, **kw)
            finally:
                spent[label] = spent.get(label, 0.0) + time.perf_counter() - t0
                calls[label] = calls.get(label, 0) + 1
        return call

    workload = WORKLOADS["grid_small_tiles"]
    with tempfile.TemporaryDirectory(prefix="bench_fixed_costs_") as tmp:
        make_dataset("small", 7, Path(tmp) / "small")
        state = workload.setup(Context(Path(tmp) / "small", Path(tmp)))
        workload.operate(state)  # cold: the only one that parses a layout
        plain = []
        for _ in range(ops):
            t0 = time.perf_counter()
            workload.operate(state)
            plain.append(time.perf_counter() - t0)
        for label, module, cls, name in FIXED_COST_LAYERS:
            owner = importlib.import_module(module)
            owner = getattr(owner, cls) if cls else owner
            setattr(owner, name, timed(label, getattr(owner, name)))
        for _ in range(ops):
            workload.operate(state)
        layout_parses = len(parses)
        described = _decode_described(Path(tmp), tiff, parses)
    q1, median, q3 = statistics.quantiles(plain, n=4)
    return {
        "ops": ops,
        "op_ms": median * 1e3,
        "op_iqr_ms": (q1 * 1e3, q3 * 1e3),
        "layout_parses": layout_parses,
        "probes_per_pair": calls["ccf probe"] / calls["pair"],
        "described": described,
        "layers": {
            label: {"calls_per_op": calls[label] / ops,
                    "us_per_call": spent[label] / calls[label] * 1e6,
                    "ms_per_op": spent[label] / ops * 1e3}
            for label, *_where in FIXED_COST_LAYERS
        },
    }


def _decode_described(tmp: Path, tiff, parses: list) -> dict:
    """Decode a copy of the grid's tiles in which each tile carries its
    own ``ImageDescription`` of one length (``"img_r000_c000"``, ...), so
    all headers differ but all sizes agree: the layout cache's worst
    case, where every decode compares against a cached layout, misses and
    parses.  Per decode, the median of ``FIXED_COST_PASSES`` passes."""
    src = sorted((tmp / "small").glob("*.tif"))
    dst = tmp / "described"
    dst.mkdir()
    for p in src:
        tiff.write_tiff(dst / p.name, tiff.read_tiff(p), description=p.stem)
    paths = sorted(dst.glob("*.tif"))
    before = len(parses)
    passes = []
    for _ in range(FIXED_COST_PASSES):
        t0 = time.perf_counter()
        for p in paths:
            tiff.read_tiff(p)
        passes.append((time.perf_counter() - t0) / len(paths))
    decodes = FIXED_COST_PASSES * len(paths)
    return {"decodes": decodes, "parses": len(parses) - before,
            "us_per_call": statistics.median(passes) * 1e6}


def _format_fixed_costs(r: dict) -> str:
    layers = r["layers"]
    lines = [
        f"grid_small_tiles operation (21x30 grid, 64 px tiles, stitch + "
        f"mosaic): {r['op_ms']:.0f} ms median of {r['ops']} warm ops "
        f"(IQR {r['op_iqr_ms'][0]:.0f}-{r['op_iqr_ms'][1]:.0f} ms)",
        f"{'layer':>11} {'calls/op':>9} {'us/call':>8} {'ms/op':>7}",
    ]
    for label, row in layers.items():
        lines.append(f"{label:>11} {row['calls_per_op']:9.0f} "
                     f"{row['us_per_call']:8.1f} {row['ms_per_op']:7.1f}")
    d = r["described"]
    lines.append(f"{'decode, per-tile descriptions':>29}: "
                 f"{d['us_per_call']:.1f} us/call, {d['parses']} layout "
                 f"parses in {d['decodes']} decodes")
    lines.append(f"layout parses over {2 * r['ops'] + 1} ops: "
                 f"{r['layout_parses']}; ccf probes per pair: "
                 f"{r['probes_per_pair']:.2f}")
    return "\n".join(lines)


def _check_fixed_costs(r: dict) -> list[str]:
    """The counts ``--fixed-costs`` holds: one layout parse for the
    dataset, and the contest's probes per pair."""
    failures = []
    if r["layout_parses"] != 1:
        failures.append(f"{r['layout_parses']} layout parses, expected 1 "
                        "(one per dataset)")
    d = r["described"]
    if d["parses"] != d["decodes"]:
        failures.append(f"{d['parses']} layout parses in {d['decodes']} "
                        "decodes of tiles whose headers all differ")
    if r["probes_per_pair"] != FIXED_COST_PROBES_PER_PAIR:
        failures.append(f"{r['probes_per_pair']} ccf probes per pair, "
                        f"expected {FIXED_COST_PROBES_PER_PAIR}")
    return failures


def _print_report(report: dict) -> None:
    print(f"phase-1 hot path, {report['rows']}x{report['cols']} grid, "
          f"{report['tile']}px tiles, {report['pairs']} pairs "
          f"(best of {report['repetitions']}):")
    for name in ("optimized", "coarse"):
        r = report[name]
        stages = ", ".join(
            f"{k} {v:.3f}s" for k, v in r["stage_seconds"].items() if v
        )
        print(f"  {name:>9}: {r['pairs_per_sec']:8.1f} pairs/s "
              f"({r['seconds']:.3f}s; {stages}; rss {r['peak_rss_mb']} MB)")
    c = report["coarse"]
    print(f"  coarse: {c['speedup_vs_optimized']:.2f}x vs optimized, "
          f"{c['coarse_hits']} hits / {c['full_fallbacks']} fallbacks, "
          f"rms {c['rms_px_vs_optimized']:.3f} px")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized run (smaller grid, fewer repetitions)")
    ap.add_argument("--output", type=Path, default=BENCH_PATH,
                    help=f"JSON artifact path (default {BENCH_PATH.name})")
    ap.add_argument("--sweep", action="store_true",
                    help="run the worker-scaling sweep (mt-cpu's worker "
                         "threads) instead of the hot-path bench")
    ap.add_argument("--sweep-workers", type=str, default=None,
                    metavar="N,N,...",
                    help="comma-separated worker counts for --sweep "
                         f"(default {','.join(map(str, SWEEP_WORKERS))})")
    ap.add_argument("--gate", type=float, default=None, metavar="X",
                    help="with --sweep: fail unless mt-cpu at the highest "
                         "swept worker count reaches X times simple-cpu "
                         "pairs/sec (CI gate; skips rewriting the artifact)")
    ap.add_argument("--coarse-gate", type=float, default=None, metavar="X",
                    help="fail unless the coarse-to-fine configuration "
                         "decides as the committed artifact records "
                         f"({' / '.join(COARSE_COUNTS)}), lands on the "
                         "full-resolution reference's positions (0.0 px "
                         "RMS) AND reaches X times the optimized pairs/sec "
                         "(CI gate, X = 1.0: never slower; skips rewriting "
                         "the artifact).  Use the full geometry: "
                         "coarse-to-fine only pays off at paper-scale tile "
                         "sizes, so --quick measures the wrong regime")
    ap.add_argument("--overlap-gate", type=float, default=None, metavar="X",
                    help="fail unless the overlapped schedule (tile stage "
                         "one tile ahead of the pair stage) reaches X times "
                         "the inline one on the optimized configuration; "
                         "skipped, with the reason printed, when fewer than "
                         "two CPUs are usable.  Use the full geometry: the "
                         "--quick tiles are below the size the overlap "
                         "engages at")
    ap.add_argument("--overlap-sweep", action="store_true",
                    help="print the overlapped-over-inline ratio for a "
                         "range of tile sizes on a 5x5 grid: the "
                         "measurement the tile-size gate of the default "
                         "schedule is set from")
    ap.add_argument("--stats-sweep", action="store_true",
                    help="time phase 1 with each TileStats summary "
                         "(summed-area table, marginals) forced, for a "
                         "range of tile sizes on a 5x5 grid: the "
                         "measurement the summary's tile-size threshold is "
                         "set from; recorded in the artifact")
    ap.add_argument("--coarse-corpus", action="store_true",
                    help="time phase 1 full, coarse and default on every "
                         "dataset of a seeded 3x3 corpus (tile shape x "
                         "overlap x specimen x seed) and count hits, "
                         "fallbacks and pairs that differ from full PCIAM: "
                         "the measurement the default's tile-size gate is "
                         "set from; recorded in the artifact")
    ap.add_argument("--memory", action="store_true",
                    help="print the tracemalloc peak, ru_maxrss and minor "
                         "page faults per warm stitch of a 3x3 grid at "
                         "696x520 and 1392x1040, coarse on and off (one "
                         "fresh process each); writes "
                         "benchmarks/results/phase1_memory.txt")
    ap.add_argument("--fixed-costs", action="store_true",
                    help="time the decode, tile build, pair and CCF probe "
                         "of the e2e grid_small_tiles operation per call "
                         "and per operation, and the decode of its tiles "
                         "with per-tile descriptions; fails unless the "
                         "dataset parses one TIFF layout, each described "
                         "tile parses its own, and each pair makes the "
                         "expected CCF probes (no timing gate)")
    args = ap.parse_args(argv)

    mode = "quick" if args.quick else "full"

    if args.fixed_costs:
        report = measure_fixed_costs()
        print(_format_fixed_costs(report))
        failures = _check_fixed_costs(report)
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1 if failures else 0

    if args.memory:
        emit("phase1_memory", _format_memory(measure_memory(), MEMORY_WARM))
        return 0

    if args.coarse_corpus:
        print("coarse-to-fine corpus, phase-1 seconds over full PCIAM's "
              f"(median of {CORPUS_REPS}):")
        rows = measure_coarse_corpus()
        _print_corpus_summary(rows)
        merged = read_json(args.output) or {}
        merged["coarse_corpus"] = rows
        write_json(args.output, merged)
        print(f"wrote {args.output}")
        return 0

    if args.stats_sweep:
        rows, cols, sizes = STATS_SWEEP
        print("TileStats summaries, table over marginal (best of "
              f"{STATS_SWEEP_REPS}, inline schedule, EXTENDED + 2 peaks):")
        sweep = []
        for size in sizes:
            sweep.append(measure_stats(rows, cols, size))
            _print_stats(sweep[-1])
        merged = read_json(args.output) or {}
        merged["stats_sweep"] = sweep
        write_json(args.output, merged)
        print(f"wrote {args.output}")
        return 0

    if args.overlap_gate is not None or args.overlap_sweep:
        rows, cols, tile, _ = MODES[mode]
        sizes = (tile,)
        if args.overlap_sweep:
            rows, cols, sizes = OVERLAP_SWEEP
        print("overlapped vs inline schedule, optimized configuration:")
        for size in sizes:
            report = measure_overlap(rows, cols, size)
            if report is None:
                print("SKIP: the overlapped schedule needs two usable CPUs "
                      "(os.sched_getaffinity reports fewer)")
                return 0
            _print_overlap(report)
        if args.overlap_gate is not None:
            print(f"  gate: need >= {args.overlap_gate:.2f}x")
            if report["speedup"] < args.overlap_gate:
                print("FAIL: overlapped-schedule gate not met",
                      file=sys.stderr)
                return 1
            print("OK: overlap gate met")
        return 0

    if args.sweep:
        workers = SWEEP_WORKERS
        if args.sweep_workers:
            workers = tuple(
                int(tok) for tok in args.sweep_workers.split(",") if tok
            )
        report = measure_sweep(mode, workers=workers)
        _print_sweep(report)
        if args.gate is not None:
            top = str(max(workers))
            got = report["threads"][top]["pairs_per_sec"]
            base = report["simple_cpu"]["pairs_per_sec"]
            ratio = got / base
            print(f"  gate: mt-cpu at {top} workers is {ratio:.2f}x "
                  f"simple-cpu (need >= {args.gate:.2f}x)")
            if ratio < args.gate:
                print("FAIL: mt-cpu scaling gate not met", file=sys.stderr)
                return 1
            print("OK: scaling gate met")
            return 0
        merged = read_json(args.output) or {}
        merged[f"sweep_{mode}"] = report
        write_json(args.output, merged)
        print(f"wrote {args.output}")
        return 0

    report = measure(mode)
    _print_report(report)

    if args.coarse_gate is not None:
        c = report["coarse"]
        committed = ((read_json(args.output) or {}).get(mode) or {}).get(
            "coarse", {})
        ok = True
        print(f"  coarse gate: {c['speedup_vs_optimized']:.2f}x vs "
              f"optimized (need >= {args.coarse_gate:.2f}x), rms "
              f"{c['rms_px_vs_optimized']:.3f} px (need 0), committed "
              + " / ".join(f"{committed.get(k)} {k}" for k in COARSE_COUNTS))
        if any(c[k] != committed.get(k) for k in COARSE_COUNTS):
            print("FAIL: coarse-to-fine hit/fallback counts differ from "
                  f"{args.output.name} (they repeat exactly: a change in "
                  "them is a change in the gate's decisions)",
                  file=sys.stderr)
            ok = False
        if c["rms_px_vs_optimized"] != 0.0:
            print("FAIL: coarse-to-fine positions differ from the "
                  "full-resolution reference", file=sys.stderr)
            ok = False
        if c["speedup_vs_optimized"] < args.coarse_gate:
            print("FAIL: coarse-to-fine speedup gate not met",
                  file=sys.stderr)
            ok = False
        if not ok:
            return 1
        print("OK: coarse gate met")
        return 0

    report["overlap"] = measure_overlap(*MODES[mode][:3])
    if report["overlap"] is not None:
        _print_overlap(report["overlap"])
    merged = read_json(args.output) or {}
    merged[mode] = report
    write_json(args.output, merged)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
