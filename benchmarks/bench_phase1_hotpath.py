#!/usr/bin/env python
"""Phase-1 hot-path benchmark: the sequential displacement phase, timed.

Measures the sequential displacement phase (the hot path every Table II
implementation shares) on a synthetic in-memory grid, in two
configurations:

``optimized``
    the defaults -- r2c half-spectrum transforms, O(1)-statistics CCF
    (``TileStats``), and the per-worker pair workspace;
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
"""

from __future__ import annotations

import argparse
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

from benchmarks._util import read_json, write_json  # noqa: E402

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
#: and band decomposition), so modeled I/O should dominate compute.
SWEEP_MODES = {
    "full": (8, 8, 128),
    "quick": (5, 5, 128),
}

#: Modeled per-read disk latency for the sweep: a paper-scale tile
#: (1392 x 1040 at 16-bit ~ 2.9 MB) from cold spinning storage at
#: ~75 MB/s is ~40 ms.  The synthetic tiles here are far smaller, so the
#: sweep injects this latency explicitly; parallel backends then earn
#: their speedup the same way they do at paper scale -- by overlapping
#: reads across bands -- rather than by exploiting an unrealistically hot
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

    def load(self, row: int, col: int):
        time.sleep(self._latency)
        return self._dataset.load(row, col)


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
    from repro.fftlib.plans import PlanCache
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
        cache=PlanCache(),
        tracer=tracer,
        coarse=coarse,
        _overlap=overlap,
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
    configs = {"optimized": {}, "coarse": {"coarse": CoarseConfig()}}
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
    from repro.core.displacement import OVERLAP_MIN_CPUS, _usable_cpus

    if _usable_cpus() < OVERLAP_MIN_CPUS:
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
    configs = {"optimized": {}, "coarse": {"coarse": CoarseConfig()}}
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


def _disp_translations(displacements) -> list:
    class _Shim:
        west = displacements.west
        north = displacements.north

    return _translations(_Shim)


def measure_sweep(mode: str, workers: tuple[int, ...] = SWEEP_WORKERS,
                  latency: float = SWEEP_READ_LATENCY) -> dict:
    """Worker-scaling sweep: threads (mt-cpu) vs processes (proc-cpu).

    Every run is checked bit-identical to the simple-cpu reference before
    its throughput counts.  Latency hiding is the mechanism under test --
    see :data:`SWEEP_READ_LATENCY`.
    """
    from repro.impls import MtCpu, ProcCpu, SimpleCpu
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
            "threads": {}, "processes": {},
        }
        curves = {
            "threads": lambda w: MtCpu(workers=w),
            "processes": lambda w: ProcCpu(workers=w, fft_batch=4),
        }
        for curve, make in curves.items():
            for w in workers:
                run, seconds = timed(make(w))
                got = _disp_translations(run.displacements)
                if got != reference:
                    raise AssertionError(
                        f"{curve} sweep at {w} workers diverged from the "
                        "simple-cpu reference -- positions must be "
                        "bit-identical"
                    )
                report[curve][str(w)] = {
                    "seconds": round(seconds, 3),
                    "pairs_per_sec": round(pairs / seconds, 2),
                }
        for curve in curves:
            base = report[curve][str(workers[0])]["pairs_per_sec"]
            for w in workers:
                entry = report[curve][str(w)]
                entry["speedup_vs_1w"] = round(
                    entry["pairs_per_sec"] / base, 2
                )
        report["identical_results"] = True
    return report


def _print_sweep(report: dict) -> None:
    print(f"worker-scaling sweep, {report['rows']}x{report['cols']} grid, "
          f"{report['tile']}px tiles, {report['pairs']} pairs, "
          f"{report['read_latency'] * 1000:.0f} ms modeled read latency:")
    r = report["simple_cpu"]
    print(f"  {'simple-cpu':>10}:       {r['pairs_per_sec']:8.1f} pairs/s "
          f"({r['seconds']:.3f}s)")
    for curve in ("threads", "processes"):
        for w in report["workers"]:
            e = report[curve][str(w)]
            print(f"  {curve:>10}: w={w:<2d}  {e['pairs_per_sec']:8.1f} pairs/s "
                  f"({e['seconds']:.3f}s, {e['speedup_vs_1w']:.2f}x vs 1w)")
    print(f"  identical results: {report['identical_results']}")


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
                    help="run the worker-scaling sweep (threads vs "
                         "processes) instead of the hot-path bench")
    ap.add_argument("--sweep-workers", type=str, default=None,
                    metavar="N,N,...",
                    help="comma-separated worker counts for --sweep "
                         f"(default {','.join(map(str, SWEEP_WORKERS))})")
    ap.add_argument("--gate", type=float, default=None, metavar="X",
                    help="with --sweep: fail unless proc-cpu at the highest "
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
    args = ap.parse_args(argv)

    mode = "quick" if args.quick else "full"

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
            got = report["processes"][top]["pairs_per_sec"]
            base = report["simple_cpu"]["pairs_per_sec"]
            ratio = got / base
            print(f"  gate: proc-cpu at {top} workers is {ratio:.2f}x "
                  f"simple-cpu (need >= {args.gate:.2f}x)")
            if ratio < args.gate:
                print("FAIL: proc-cpu scaling gate not met", file=sys.stderr)
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
