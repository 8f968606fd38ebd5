"""The traced run: per-layer numbers from a step-by-step replay.

End-to-end metrics come from untraced children (``measure.py``).  This
module gives the per-layer ledger.  In one more child per workload it

1. repeats the real operation with a span around each public call
   (``core.stitcher.*``) -- the untraced-equivalent baseline;
2. replays the operation through the layers' public functions
   (``TileDataset.load``, ``forward_fft``, ``TileStats``, ``pciam`` /
   ``downsample`` + ``coarse_pciam``, ``resolve_absolute_positions``,
   ``stream_compose_to_tiff`` with a timed loader, ``compose``), one span
   per call.  A replay whose positions differ from the real operation's
   fails verification: its numbers would describe another computation;
3. runs the side experiments a trace cannot give (TIFF encode alone, the
   tight tile cache, the paper-scale phase-2 solve, journal overhead).

Span names are the layer-metric prefixes; spans are written to
``results/trace_<workload>.json`` when the child exits.  Nothing under
``src/`` is instrumented.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from measure import attempt, cpu_seconds, finish, new_record, ready
from spans import SpanRecorder, duration, self_times, totals
from workloads import (
    MIB, PYRAMID_LEVELS, STREAM_BUDGET, TIGHT_STREAM_BUDGET, VerificationError,
    _service_operate,
)

SIDE_REPEATS = 3


def best_of(fn, repeats: int = SIDE_REPEATS) -> float:
    """Minimum wall time of ``fn()`` over a few repeats (side experiments)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def cold_plan_seconds(dataset_dir: Path) -> float:
    """First minus second ``forward_fft`` of one tile in a fresh process.

    The difference is what a cold start pays per transform shape: plan
    creation, twiddle tables and first-touch pages.
    """
    from repro import TileDataset
    from repro.core.pciam import forward_fft

    tile = TileDataset(dataset_dir).load(0, 0)
    first = best_of(lambda: forward_fft(tile, real=True), repeats=1)
    return first - best_of(lambda: forward_fft(tile, real=True), repeats=1)


class Trace:
    """One traced child's recorder plus the best instrumented/replayed runs."""

    def __init__(self, workload, state, record, seconds: float) -> None:
        self.workload = workload
        self.state = state
        self.record = record
        self.rec = SpanRecorder(workload.name)
        self.deadline = time.perf_counter() + seconds
        self.metrics: dict[str, float] = {}

    def repeat(self, root_name: str, operate, share: float) -> tuple[dict, object]:
        """Run ``operate`` under a ``root_name`` span until ``share`` of the
        budget is used (at least twice); returns the fastest root span and
        what its operation left in ``state["traced"]``."""
        until = time.perf_counter() + share * max(0.0, self.deadline - time.perf_counter())

        def traced_operate(state):
            with self.rec.span(root_name) as root:
                state["root"] = root
                return operate(state)

        best = None
        runs = 0
        while runs < 2 or time.perf_counter() < until:
            runs += 1
            cpu0 = cpu_seconds()
            if attempt(self.workload, self.state, self.record, traced_operate) is None:
                break
            root = self.rec.spans[self.state["root"]]
            if best is None or duration(root) < duration(best[0]):
                best = (root, self.state.get("traced"), cpu_seconds() - cpu0)
        if best is None:
            raise VerificationError(f"no {root_name} run succeeded")
        return best

    def layer_sums(self, root: dict) -> dict[str, dict]:
        """Per-name sums below ``root``; records how much of it spans cover."""
        spans = self.rec.subtree(root["id"])
        uncovered = self_times(spans)[root["id"]]
        self.metrics["bench.layer_coverage"] = 1.0 - uncovered / duration(root)
        return totals(spans)


# -- grid workloads ------------------------------------------------------------


def replay_phase1(rec: SpanRecorder, dataset, stitcher):
    """Phase 1 as ``compute_grid_displacements`` orders it, one span per call."""
    import numpy as np

    from repro.core.coarse import coarse_pciam, coarse_transform_shape
    from repro.core.displacement import DisplacementResult, Translation
    from repro.core.downsample import downsample
    from repro.core.pciam import forward_fft, pciam
    from repro.core.tilestats import TileStats
    from repro.grid.neighbors import pairs_for_tile
    from repro.grid.tile_grid import TileGrid
    from repro.grid.traversal import traverse
    from repro.memmodel.workspace import WorkspaceArena

    coarse = stitcher.coarse
    layer = "core.coarse" if coarse is not None else "core.pciam"
    grid = TileGrid(dataset.rows, dataset.cols)
    disp = DisplacementResult.empty(dataset.rows, dataset.cols)
    tiles, ffts, tstats, done = {}, {}, {}, set()
    shape = dataset.tile_shape
    if coarse is not None:
        shape = coarse_transform_shape(shape, coarse.factor)
    arena = WorkspaceArena(shape, real=True, count=1)
    workspace = arena.acquire()
    kwargs = dict(ccf_mode=stitcher.ccf_mode, n_peaks=stitcher.n_peaks,
                  real_transforms=True, subpixel=stitcher.subpixel,
                  workspace=workspace)
    table_bytes = 0

    def release(pos) -> None:
        if pos in ffts and all(
            p in done for p in pairs_for_tile(grid, pos.row, pos.col)
        ):
            del ffts[pos], tiles[pos], tstats[pos]

    for pos in traverse(grid, stitcher.traversal):
        with rec.span("io.tiff.decode"):
            tiles[pos] = np.asarray(dataset.load(pos.row, pos.col), dtype=np.float64)
        spectrum_of = tiles[pos]
        if coarse is not None:
            with rec.span("core.downsample"):
                spectrum_of = downsample(tiles[pos], coarse.factor)
        with rec.span(f"{layer}.fft"):
            ffts[pos] = forward_fft(spectrum_of, real=True)
        with rec.span("core.tilestats.build"):
            tstats[pos] = TileStats(tiles[pos])
        table_bytes = tstats[pos].nbytes
        for pair in pairs_for_tile(grid, pos.row, pos.col):
            if pair in done or pair.first not in ffts or pair.second not in ffts:
                continue
            a, b = pair.first, pair.second
            with rec.span(f"{layer}.pair"):
                if coarse is not None:
                    r = coarse_pciam(tiles[a], tiles[b], coarse, cfft_i=ffts[a],
                                     cfft_j=ffts[b], stats_i=tstats[a],
                                     stats_j=tstats[b], **kwargs)
                else:
                    r = pciam(tiles[a], tiles[b], fft_i=ffts[a], fft_j=ffts[b],
                              stats_i=tstats[a], stats_j=tstats[b], **kwargs)
            disp.set(pair.direction, b.row, b.col,
                     Translation.from_pciam(r, subpixel=stitcher.subpixel))
            done.add(pair)
        release(pos)
        for pair in pairs_for_tile(grid, pos.row, pos.col):
            release(pair.first if pair.second == pos else pair.second)
    arena.release(workspace)
    return disp, table_bytes


def encode_alone(rec: SpanRecorder, path: Path, band_rows: int) -> tuple[float, int]:
    """Re-encode a written mosaic with the same strip layout: the TIFF
    encode share of a streamed compose, which runs inside the program."""
    from repro import read_tiff
    from repro.io.tiff import TiffStripWriter

    mosaic = read_tiff(path)
    copy = path.with_name("encode_alone.tif")
    height, width = mosaic.shape

    def encode() -> None:
        with rec.span("io.tiff.encode"):
            with TiffStripWriter(copy, height, width, mosaic.dtype,
                                 rows_per_strip=band_rows) as writer:
                for y in range(0, height, band_rows):
                    writer.write_rows(mosaic[y:y + band_rows])

    encode_s = best_of(encode)
    size = copy.stat().st_size
    copy.unlink()
    return encode_s, size


def decode_metrics(metrics: dict, sums: dict, dataset) -> None:
    row = sums.get("io.tiff.decode", {"calls": 0, "total_s": 0.0})
    tile_mb = dataset.tile_shape[0] * dataset.tile_shape[1] * 2 / MIB
    metrics["io.tiff.decode_s"] = row["total_s"]
    metrics["io.tiff.decode_calls"] = row["calls"]
    if row["total_s"] > 0:
        metrics["io.tiff.decode_mb_per_s"] = row["calls"] * tile_mb / row["total_s"]


def encode_metrics(metrics: dict, encode_s: float, size: int) -> None:
    metrics["io.tiff.encode_s"] = encode_s
    metrics["io.tiff.bytes_written"] = size
    metrics["io.tiff.encode_mb_per_s"] = size / MIB / encode_s


def trace_grid(trace: Trace) -> None:
    import numpy as np

    from repro import BlendMode
    from repro.core.global_opt import resolve_absolute_positions
    from repro.core.streamcompose import stream_compose_to_tiff
    from repro.fftlib.plans import default_cache

    rec, state, metrics = trace.rec, trace.state, trace.metrics
    dataset, stitcher, out = state["dataset"], state["stitcher"], state["out"]
    plans = default_cache()

    def instrumented(state):
        hits, misses = plans.hits, plans.misses
        with rec.span("core.stitcher.stitch"):
            result = stitcher.stitch(dataset)
        with rec.span("core.stitcher.compose"):
            result.compose_to_tiff(out, blend=BlendMode.OVERLAY)
        state["traced"] = (plans.hits - hits, plans.misses - misses)
        return result

    op, (plan_hits, plan_misses), cpu_s = trace.repeat("op", instrumented, 0.4)
    real = state["last"]
    op_sums = totals(rec.subtree(op["id"]))
    metrics["core.stitcher.stitch_s"] = op_sums["core.stitcher.stitch"]["total_s"]
    metrics["core.stitcher.compose_s"] = op_sums["core.stitcher.compose"]["total_s"]
    metrics["fftlib.plan_hits"] = plan_hits
    metrics["fftlib.plan_misses"] = plan_misses
    metrics["process.cpu_s"] = cpu_s

    def replayed(state):
        with rec.span("core.displacement.phase1"):
            disp, table_bytes = replay_phase1(rec, dataset, stitcher)
        with rec.span("core.global_opt.solve"):
            positions = resolve_absolute_positions(
                disp, method=stitcher.position_method,
                subpixel=stitcher.subpixel, quality=stitcher.quality,
            )
        with rec.span("core.streamcompose.stream"):
            streamed = stream_compose_to_tiff(
                out, rec.timed("io.tiff.decode",
                               lambda r, c: dataset.load(r, c, dtype=None)),
                positions, dataset.tile_shape, blend=BlendMode.OVERLAY,
            )
        if not np.array_equal(positions.positions, real.positions.positions):
            raise VerificationError("replay positions differ from the real run")
        state["traced"] = (disp, streamed, table_bytes)
        return type(real)(dataset, disp, positions, 0.0, 0.0)

    root, (disp, streamed, table_bytes), _ = trace.repeat("replay", replayed, 0.7)
    sums = trace.layer_sums(root)
    metrics["bench.trace_overhead_frac"] = duration(root) / duration(op) - 1.0
    decode_metrics(metrics, sums, dataset)
    layer = "core.coarse" if stitcher.coarse is not None else "core.pciam"
    for part in ("fft", "pair"):
        metrics[f"{layer}.{part}_s"] = sums[f"{layer}.{part}"]["total_s"]
    if stitcher.coarse is None:
        metrics["core.pciam.fft_calls"] = sums["core.pciam.fft"]["calls"]
        metrics["core.pciam.pair_calls"] = sums["core.pciam.pair"]["calls"]
    else:
        hits = real.displacements.stats["coarse_hits"]
        fallbacks = real.displacements.stats["full_fallbacks"]
        metrics["core.downsample.s"] = sums["core.downsample"]["total_s"]
        metrics["core.coarse.hits"] = hits
        metrics["core.coarse.fallbacks"] = fallbacks
        metrics["core.coarse.hit_ratio"] = hits / (hits + fallbacks)
    metrics["core.tilestats.build_s"] = sums["core.tilestats.build"]["total_s"]
    metrics["core.tilestats.build_calls"] = sums["core.tilestats.build"]["calls"]
    metrics["core.tilestats.table_mb"] = table_bytes / MIB
    phase1 = sums["core.displacement.phase1"]
    metrics["core.displacement.phase1_s"] = phase1["total_s"]
    metrics["core.displacement.self_s"] = phase1["self_s"]
    metrics["core.displacement.pairs_per_s"] = disp.pair_count() / phase1["total_s"]
    metrics["core.displacement.peak_live_transforms"] = (
        real.displacements.stats["peak_live_transforms"])
    metrics["core.global_opt.solve_s"] = sums["core.global_opt.solve"]["total_s"]
    report = real.positions.quality_report or {}
    metrics["core.global_opt.irls_iterations"] = report.get("irls_iterations", 0)
    metrics["core.global_opt.gated_pairs"] = report.get("gated_pairs", 0)
    stream = sums["core.streamcompose.stream"]
    encode_s, size = encode_alone(rec, out, streamed.band_rows)
    encode_metrics(metrics, encode_s, size)
    metrics["core.streamcompose.stream_s"] = stream["total_s"]
    metrics["core.streamcompose.blend_self_s"] = stream["self_s"] - encode_s
    metrics["core.streamcompose.stripes"] = streamed.stripes
    metrics["core.streamcompose.peak_bytes"] = streamed.peak_bytes
    if stitcher.position_method == "least_squares":
        paper_scale_phase2(trace, disp, real)


def paper_scale_phase2(trace: Trace, disp, real) -> None:
    """What the robust solve is for, and what it costs at the paper's 42x59."""
    import numpy as np

    from repro.core.displacement import DisplacementResult, Translation
    from repro.core.global_opt import resolve_absolute_positions
    from repro.core.quality_gate import QualityConfig
    from repro.grid.neighbors import Direction

    # The default solver on this workload's own displacements (recorded,
    # not verified: it is why the workload uses the gated solve).
    mst = resolve_absolute_positions(disp, method="mst")
    trace.metrics["core.global_opt.mst_error_px"] = float(
        type(real)(real.dataset, disp, mst, 0.0, 0.0).position_errors().max())

    rows, cols, step_y, step_x = 42, 59, 936, 1253
    rng = np.random.default_rng(4259)
    true = np.stack(np.meshgrid(np.arange(rows) * step_y, np.arange(cols) * step_x,
                                indexing="ij"), axis=-1)
    true = true + np.rint(rng.normal(0.0, 2.0, true.shape)).astype(np.int64)
    big = DisplacementResult.empty(rows, cols)
    for r in range(rows):
        for c in range(cols):
            for direction, (pr, pc) in ((Direction.WEST, (r, c - 1)),
                                        (Direction.NORTH, (r - 1, c))):
                if pr < 0 or pc < 0:
                    continue
                dy, dx = (int(v) for v in true[r, c] - true[pr, pc])
                if rng.random() < 0.01:  # outlier pair: wrong and unsure
                    t = Translation(float(rng.uniform(0.05, 0.3)),
                                    dx + int(rng.integers(-200, 200)),
                                    dy + int(rng.integers(-200, 200)),
                                    peak_ratio=1.05)
                else:
                    t = Translation(float(rng.uniform(0.8, 0.99)), dx, dy,
                                    peak_ratio=float(rng.uniform(2.0, 5.0)))
                big.set(direction, r, c, t)
    with trace.rec.span("core.global_opt.solve42x59") as span_id:
        resolve_absolute_positions(big, method="least_squares",
                                   quality=QualityConfig())
    trace.metrics["core.global_opt.solve42x59_s"] = duration(trace.rec.spans[span_id])


# -- mosaic_render --------------------------------------------------------------


def trace_render(trace: Trace) -> None:
    import numpy as np

    from repro import BlendMode
    from repro.core.compose import compose
    from repro.core.streamcompose import stream_compose_to_tiff

    rec, state, metrics = trace.rec, trace.state, trace.metrics
    dataset, result, out = state["dataset"], state["result"], state["out"]
    positions, tile_shape = result.positions, dataset.tile_shape

    def instrumented(state):
        with rec.span("core.stitcher.compose"):
            return trace.workload.operate(state)

    op, _, cpu_s = trace.repeat("op", instrumented, 0.4)
    metrics["core.stitcher.compose_s"] = duration(op)
    metrics["process.cpu_s"] = cpu_s

    def load(r, c):
        return dataset.load(r, c, dtype=None)

    def stream(budget: int, levels: int, loader=load):
        return stream_compose_to_tiff(out, loader, positions, tile_shape,
                                      blend=BlendMode.LINEAR,
                                      memory_budget=budget, pyramid_levels=levels)

    def replayed(state):
        timed = rec.timed("io.tiff.decode", load)
        with rec.span("core.streamcompose.stream"):
            streamed = stream(STREAM_BUDGET, PYRAMID_LEVELS, timed)
        with rec.span("core.compose.memory"):
            mosaic = compose(timed, positions, tile_shape,
                             blend=BlendMode.LINEAR, dtype=np.float64)
        state["traced"] = streamed
        return streamed, mosaic

    root, streamed, _ = trace.repeat("replay", replayed, 0.6)
    sums = trace.layer_sums(root)
    metrics["bench.trace_overhead_frac"] = duration(root) / duration(op) - 1.0
    decode_metrics(metrics, sums, dataset)
    metrics["io.dataset.cache_hits"] = streamed.cache["hits"]
    metrics["io.dataset.cache_misses"] = streamed.cache["misses"]
    metrics["io.dataset.cache_hit_ratio"] = streamed.cache["hits"] / (
        streamed.cache["hits"] + streamed.cache["misses"])
    memory = sums["core.compose.memory"]
    metrics["core.compose.memory_s"] = memory["total_s"]
    metrics["core.compose.mpix_per_s"] = (
        streamed.height * streamed.width / 1e6 / memory["total_s"])
    stream_sum = sums["core.streamcompose.stream"]
    metrics["core.streamcompose.stream_s"] = stream_sum["total_s"]
    metrics["core.streamcompose.stripes"] = streamed.stripes
    metrics["core.streamcompose.peak_bytes"] = streamed.peak_bytes

    # Side experiments, outside the replay so they are not in its coverage.
    with rec.span("side"):
        flat_s = best_of(lambda: stream(STREAM_BUDGET, 0))
        metrics["core.streamcompose.pyramid_s"] = stream_sum["total_s"] - flat_s
        encode_s, size = encode_alone(rec, out, streamed.band_rows)
        encode_metrics(metrics, encode_s, size)
        # The stream span's self time (loader spans excluded) is blend +
        # encode + pyramid.
        metrics["core.streamcompose.blend_self_s"] = (
            stream_sum["self_s"] - metrics["core.streamcompose.pyramid_s"] - encode_s)
        tight = []
        metrics["core.streamcompose.tight_stream_s"] = best_of(
            lambda: tight.append(stream(TIGHT_STREAM_BUDGET, 0)))
        metrics["io.dataset.tight_cache_misses"] = tight[-1].cache["misses"]


# -- service_batch --------------------------------------------------------------


def trace_service(trace: Trace, timings: dict) -> None:
    from repro import BlendMode, Stitcher, TileDataset
    from repro.service import ServiceClient

    rec, state, metrics = trace.rec, trace.state, trace.metrics
    metrics["service.start_s"] = timings["build_s"]

    op, _, cpu_s = trace.repeat("op", _service_operate, 0.4)
    metrics["process.cpu_s"] = cpu_s

    class CountingClient(ServiceClient):
        requests = 0

        def status(self, job_id):
            CountingClient.requests += 1
            return super().status(job_id)

    jobs: list[dict] = []

    def traced_job(client, spec):
        # Client threads start with an empty span stack: parent explicitly.
        with rec.span("service.job", parent=state["root"]) as job_span:
            with rec.span("service.submit"):
                job_id = client.submit(spec)["id"]
            with rec.span("service.wait"):
                record = client.wait(job_id, timeout=60.0, poll=0.005)
                seen_done = time.monotonic()
            if record["state"] != "done":
                raise VerificationError(f"job {job_id} ended {record['state']}")
            with rec.span("service.result"):
                result = client.result(job_id)
        CountingClient.requests += 2
        jobs.append({"record": record, "seen_done": seen_done, "span": job_span,
                     "root": state["root"]})
        return {"record": record, "result": result}

    def replayed(state):
        state["client"] = CountingClient
        before = CountingClient.requests
        try:
            outcomes = _service_operate(state, run_job=traced_job)
        finally:
            state["client"] = ServiceClient
        state["traced"] = CountingClient.requests - before
        return outcomes

    root, requests, _ = trace.repeat("replay", replayed, 0.7)
    sums = trace.layer_sums(root)
    metrics["bench.trace_overhead_frac"] = duration(root) / duration(op) - 1.0
    batch = [j for j in jobs if j["root"] == root["id"]]
    records = [j["record"] for j in batch]

    def median_of(fn) -> float:
        return statistics.median(fn(j) for j in batch)

    metrics["service.http_requests"] = requests
    metrics["service.submit_s"] = sums["service.submit"]["total_s"] / len(batch)
    metrics["service.queue_wait_s"] = median_of(
        lambda j: j["record"]["started_at"] - j["record"]["submitted_at"])
    metrics["service.run_s"] = median_of(
        lambda j: j["record"]["finished_at"] - j["record"]["started_at"])
    metrics["service.worker_job_s"] = median_of(
        lambda j: j["record"]["result"]["job_seconds"])
    metrics["service.dispatch_self_s"] = median_of(
        lambda j: j["record"]["finished_at"] - j["record"]["started_at"]
        - j["record"]["result"]["job_seconds"])
    metrics["service.notify_s"] = median_of(
        lambda j: j["seen_done"] - j["record"]["finished_at"])
    latencies = [duration(rec.spans[j["span"]]) for j in batch]
    metrics["service.job_latency_s"] = statistics.median(latencies)
    metrics["service.job_latency_max_s"] = max(latencies)
    metrics["service.job_latency_n"] = len(latencies)
    metrics["recovery.journal.records"] = sum(
        r["result"]["journal"]["recorded_pairs"] for r in records)
    counts = ServiceClient(*state["address"]).metrics()["jobs"]
    metrics["service.jobs_done"] = counts["done"]
    metrics["service.jobs_failed"] = sum(
        n for s, n in counts.items() if s not in ("done", "queued", "running"))

    # Side experiments: the same job without the service, and the journal.
    with rec.span("side"):
        dataset = TileDataset(state["ctx"].dataset_dir)
        out = state["ctx"].out_dir / "direct.tif"

        def direct():
            Stitcher().stitch(dataset).compose_to_tiff(out, blend=BlendMode.OVERLAY)

        metrics["service.direct_stitch_s"] = best_of(direct)
        metrics["service.overhead_frac"] = (
            metrics["service.job_latency_s"] / metrics["service.direct_stitch_s"] - 1.0)
        plain_s = best_of(lambda: Stitcher().stitch(dataset))
        runs = iter(range(SIDE_REPEATS))

        def journaled():
            ckpt = state["ctx"].out_dir / f"ckpt_{next(runs)}"
            Stitcher(checkpoint=str(ckpt)).stitch(dataset)

        metrics["recovery.journal.overhead_s"] = best_of(journaled) - plain_s


TRACERS = {
    "tiles_default": trace_grid,
    "tiles_coarse": trace_grid,
    "grid_small_tiles": trace_grid,
    "mosaic_render": trace_render,
}


def traced_run(request: dict) -> dict:
    record = new_record()
    t0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - t0
    cold_plan_s = 0.0
    if request["workload"] != "service_batch":  # its FFTs run in the workers
        cold_plan_s = cold_plan_seconds(Path(request["dataset_dir"]))
    workload, state, timings = ready(request)
    attempt(workload, state, record)  # cold operation, as in measure()
    trace = Trace(workload, state, record, float(request["seconds"]))
    trace.metrics["fftlib.cold_plan_s"] = cold_plan_s
    trace.metrics["process.import_s"] = import_s
    try:
        if workload.name == "service_batch":
            trace_service(trace, timings)
        else:
            TRACERS[workload.name](trace)
    except VerificationError as exc:
        record["attempted"] += 1
        record["failed"] += 1
        record["failures"].append(f"{type(exc).__name__}: {exc}")
    finish(workload, state, record)
    trace.metrics["verify.error_px"] = record["error_px"]
    trace.metrics["verify.failed_frac"] = record["failed"] / record["attempted"]
    Path(request["trace_path"]).parent.mkdir(parents=True, exist_ok=True)
    Path(request["trace_path"]).write_text(json.dumps(
        {"workload": workload.name, "spans": trace.rec.spans}))
    return {**record, "metrics": trace.metrics, "spans": len(trace.rec.spans)}
