"""Command-line interface: ``python -m repro <command> ...``.

Commands:

``synth``     generate a synthetic acquisition (tiles + metadata)
``stitch``    stitch an acquisition directory into a mosaic TIFF
``serve``     run the stitching service (HTTP job server, warm workers)
``info``      inspect a dataset or TIFF file
``simulate``  run the paper-scale performance simulation (Table II)

The CLI wraps the same public API the examples use; it exists so the tool
is usable without writing Python, like the standalone executables the
paper planned to release.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp + rename.

    A reader (or a resumed run) never observes a torn output file: it
    sees the old content or the new content, nothing in between.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.synth import make_synthetic_dataset

    ds = make_synthetic_dataset(
        args.output,
        rows=args.rows,
        cols=args.cols,
        tile_height=args.tile_size,
        tile_width=args.tile_size,
        overlap=args.overlap,
        seed=args.seed,
    )
    print(f"wrote {len(ds)} tiles ({args.tile_size} px, {args.overlap:.0%} "
          f"overlap) to {ds.directory}")
    return 0


#: Scheduler constructor argument <- the ``repro stitch`` flag that feeds it.
_IMPL_ARGS = {
    "mt-cpu": {"workers": "workers"},
    "pipelined-cpu": {"partitions": "workers"},
    "pipelined-gpu": {"devices": "gpus"},
}


def _workers_arg(value: str) -> int:
    """Parse ``--workers``: an integer, or ``auto`` for the CPUs this
    process may run on (its affinity mask, not the machine's count)."""
    if value == "auto":
        from repro.core.displacement import usable_cpus

        return usable_cpus()
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least one worker, got {n}")
    return n


def _bytes_arg(value: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (``512M``)."""
    suffixes = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    text = value.strip().lower().rstrip("b")
    scale = 1
    if text and text[-1] in suffixes:
        scale = suffixes[text[-1]]
        text = text[:-1]
    try:
        n = int(float(text) * scale)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected BYTES or e.g. 512M, got {value!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"byte budget must be >= 1, got {n}")
    return n


def _fault_spec_arg(value: str):
    """Parse ``--inject-faults``: refused at the door, naming the bad part."""
    from repro.faults import parse_fault_spec

    try:
        return parse_fault_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _brownout_arg(value: str):
    """Parse ``--brownout``: refused at the door, before the service starts."""
    from repro.service.resilience import BrownoutPolicy

    try:
        return BrownoutPolicy.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _impl_arg(value: str) -> str:
    """Parse ``--impl``: ``stitcher`` is a synonym of the default scheduler."""
    from repro.core.options import StitchOptions

    return StitchOptions.impl if value == "stitcher" else value


def _stitch_options(args: argparse.Namespace):
    """The :class:`StitchOptions` the ``repro stitch`` flags spell.

    The option flags' ``dest`` names are the flat keys, so the sugar (a
    quality/coarse knob turns its feature on) and the validation are
    ``from_flat``'s, as for every other surface.
    """
    from repro.core.options import FLAT_KEYS, StitchOptions

    flat = {k: v for k, v in vars(args).items() if k in FLAT_KEYS}
    flat["impl_options"] = {
        kwarg: getattr(args, flag)
        for kwarg, flag in _IMPL_ARGS.get(args.impl, {}).items()
    }
    if args.watchdog is not None:
        from repro.recovery import WatchdogConfig

        flat["impl_options"]["watchdog"] = WatchdogConfig(
            item_deadline=args.watchdog, stall_timeout=args.stall_timeout
        )
    if args.paper_faithful:
        flat.update(ccf_mode="paper4", n_peaks=1)
        if flat["coarse"] is None:  # an explicit --coarse-registration wins
            flat["coarse"] = False
    return StitchOptions.from_flat(flat)


def _cmd_stitch(args: argparse.Namespace) -> int:
    from repro.core.compose import BlendMode
    from repro.core.stitcher import Stitcher
    from repro.io.dataset import TileDataset
    from repro.io.tiff import write_tiff

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    try:
        options = _stitch_options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pattern:
        dataset = TileDataset.discover(
            args.dataset, pattern=args.pattern, overlap=args.overlap
        )
        print(f"discovered {dataset.rows}x{dataset.cols} grid via {args.pattern!r}")
    else:
        dataset = TileDataset(args.dataset)
    if args.inject_faults is not None:
        try:
            plan = args.inject_faults.plan(dataset.rows, dataset.cols)
        except ValueError as exc:
            print(f"error: --inject-faults: {exc}", file=sys.stderr)
            return 2
        dataset = plan.wrap_dataset(dataset)
        print(f"injecting faults (seed {plan.seed}): "
              + ", ".join(f"{k} x{v}" for k, v in sorted(plan.summary().items())))
    tracer = metrics = None
    if args.trace or args.metrics:
        from repro.observe import MetricsRegistry, Tracer

        metrics = MetricsRegistry()
        if args.trace:
            tracer = Tracer()
    stitcher = Stitcher(
        options,
        trace=tracer if tracer is not None else False,
        metrics=metrics if metrics is not None else False,
        checkpoint=str(args.checkpoint) if args.checkpoint else None,
        resume="require" if args.resume else "auto",
    )
    t0 = time.perf_counter()
    result = stitcher.stitch(dataset)
    elapsed = time.perf_counter() - t0
    print(f"stitched {dataset.rows}x{dataset.cols} grid in {elapsed:.2f} s "
          f"({result.stats['pairs']} pairs)")
    coarse = options.coarse_for(dataset.tile_shape)
    if coarse is not None:
        print(f"coarse: {result.stats.get('coarse_hits', 0)} hits, "
              f"{result.stats.get('full_fallbacks', 0)} fallbacks "
              f"(factor {coarse.factor}, conf >= {coarse.conf_thresh})")
    report = result.stats.get("fault_report")
    if report is not None and report:
        print(f"fault report: {report.summary()}")
    quality_report = result.stats.get("quality_report")
    if quality_report is not None:
        reasons = ", ".join(
            f"{k} x{v}" for k, v in sorted(quality_report["gate_reasons"].items())
        ) or "none"
        print(
            f"quality gate: {quality_report['gated_pairs']}/"
            f"{quality_report['pair_count']} pairs demoted ({reasons}); "
            f"median confidence {quality_report['median_confidence']:.3f}; "
            f"irls iterations {quality_report['irls_iterations']}, "
            f"damped edges {quality_report['residue_damped_edges']}"
        )
    if args.fault_report:
        plan = getattr(dataset, "fault_plan", None)
        payload = {
            "implementation": result.implementation,
            "grid": [dataset.rows, dataset.cols],
            "elapsed_seconds": elapsed,
            "fault_report": report.to_dict() if report is not None else None,
            "injected": plan.summary() if plan is not None else None,
            "triggered": plan.triggered_summary() if plan is not None else None,
            "journal": result.stats.get("journal"),
        }
        _write_atomic(args.fault_report, json.dumps(payload, indent=2) + "\n")
        print(f"fault report JSON -> {args.fault_report}")
    if args.trace:
        n_events = result.write_trace(args.trace)
        print(f"trace: {n_events} events -> {args.trace} "
              f"(open in Perfetto / chrome://tracing)")
    if args.metrics:
        print("metrics:")
        print(json.dumps(result.stats.get("metrics", {}), indent=2))
    errors = result.position_errors(exclude_degraded=True)
    if errors is not None:
        print(f"position error vs ground truth: max {np.nanmax(errors):.1f} px")
    if args.output:
        if args.memory_budget is not None or args.pyramid > 0:
            # Out-of-core path: the canvas never exists.  Values are
            # clipped to uint16 rather than max-normalized (a global max
            # would need a second pass over the mosaic).
            sres = result.compose_to_tiff(
                args.output,
                blend=BlendMode(args.blend),
                memory_budget=args.memory_budget,
                pyramid_levels=args.pyramid,
                outline=args.outline,
            )
            msg = (f"mosaic {sres.height}x{sres.width} -> {args.output} "
                   f"(streamed, {sres.stripes} stripes of {sres.band_rows} "
                   f"rows, peak {sres.peak_bytes / 1e6:.1f} MB")
            if args.memory_budget is not None:
                msg += f" of {args.memory_budget / 1e6:.1f} MB budget"
            if sres.pyramid_paths:
                msg += f"; pyramid L1..L{len(sres.pyramid_paths)}"
            print(msg + ")")
        else:
            mosaic = result.compose(
                BlendMode(args.blend), outline=args.outline,
                workers=args.compose_workers,
            )
            top = float(mosaic.max()) or 1.0
            scaled = (np.clip(mosaic / top, 0, 1) * 65535).astype(np.uint16)
            # Atomic publish: a crash mid-write must not leave a torn TIFF
            # where a previous (complete) mosaic used to be.
            out = Path(args.output)
            tmp = out.with_name(out.name + ".tmp")
            write_tiff(tmp, scaled, description="repro mosaic")
            os.replace(tmp, out)
            print(f"mosaic {mosaic.shape[0]}x{mosaic.shape[1]} -> {args.output}")
    if args.positions_json:
        _write_atomic(
            args.positions_json,
            json.dumps(result.positions.positions.tolist()),
        )
        print(f"positions -> {args.positions_json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.resilience import (
        BreakerConfig,
        BrownoutPolicy,
        ResilienceConfig,
    )
    from repro.service.server import StitchService

    resilience = ResilienceConfig(
        job_deadline=args.job_deadline,
        stall_timeout=args.stall_timeout,
        quarantine_threshold=args.quarantine_threshold,
        breaker=BreakerConfig(
            death_threshold=args.breaker_threshold,
            window_seconds=args.breaker_window,
            cooldown_seconds=args.breaker_cooldown,
        ),
        brownout=args.brownout or BrownoutPolicy(),
        spool_budget_bytes=args.spool_budget,
    )
    service = StitchService(
        spool_dir=args.spool,
        workers=args.workers,
        dataset_root=args.dataset_root,
        max_depth=args.queue_depth,
        per_tenant_limit=args.per_tenant,
        default_retry_budget=args.retry_budget,
        resilience=resilience,
    )
    service.start()
    host, port = service.start_http(args.host, args.port)
    print(f"stitching service on http://{host}:{port} "
          f"({args.workers} workers, spool {args.spool})")
    print("endpoints: POST /jobs, GET /jobs/<id>, GET /jobs/<id>/result, "
          "POST /jobs/<id>/cancel, GET /metrics, GET /healthz")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("shutting down ...")
    finally:
        service.stop()
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.io.dataset import METADATA_FILENAME, TileDataset
    from repro.io.tiff import read_tiff

    path = Path(args.path)
    if path.is_dir():
        ds = TileDataset(path)
        meta = ds.metadata
        print(f"dataset: {path}")
        print(f"  grid: {ds.rows} x {ds.cols} ({len(ds)} tiles)")
        print(f"  tile: {meta.tile_height} x {meta.tile_width}, "
              f"{meta.bit_depth}-bit")
        print(f"  nominal overlap: {meta.overlap:.0%}")
        print(f"  ground truth: {'yes' if meta.true_positions else 'no'}")
    else:
        arr, desc = read_tiff(path, return_description=True)
        print(f"tiff: {path}")
        print(f"  {arr.shape[0]} x {arr.shape[1]}, {arr.dtype}, "
              f"range [{arr.min()}, {arr.max()}]")
        if desc:
            print(f"  description: {desc}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.simulate.costmodel import LAPTOP, PAPER_MACHINE
    from repro.simulate.experiments import PAPER_TABLE2, table2_runtimes

    machine = LAPTOP if args.machine == "laptop" else PAPER_MACHINE
    rows = table2_runtimes(machine, rows=args.rows, cols=args.cols)
    print(format_table(
        ["implementation", "time (s)", "S/CPU", "paper (s)"],
        [[r.implementation, round(r.seconds, 1),
          round(r.speedup_vs_simple_cpu, 1),
          round(PAPER_TABLE2.get(r.implementation, float("nan")), 1)]
         for r in rows],
        title=f"Table II projection, {args.rows}x{args.cols} grid on {machine.name}",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid CPU-GPU image stitching (ICPP 2014 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic acquisition")
    s.add_argument("output", type=Path)
    s.add_argument("--rows", type=int, default=4)
    s.add_argument("--cols", type=int, default=4)
    s.add_argument("--tile-size", type=int, default=128)
    s.add_argument("--overlap", type=float, default=0.15)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_synth)

    from repro.core.options import (
        POSITION_METHODS,
        RESIDUE_MODES,
        SCHEDULERS,
        TILE_ERROR_POLICIES,
        StitchOptions,
    )

    s = sub.add_parser("stitch", help="stitch a dataset directory")
    # Option flags: ``dest`` is the StitchOptions flat key, defaults and
    # choices are read off the declaration (repro.core.options).
    s.add_argument("dataset", type=Path)
    s.add_argument("-o", "--output", type=Path, help="mosaic TIFF path")
    s.add_argument("--blend", choices=[m.value for m in __import__(
        "repro.core.compose", fromlist=["BlendMode"]).BlendMode],
        default="overlay")
    s.add_argument("--outline", action="store_true", help="highlight tiles (Fig. 14)")
    s.add_argument("--peaks", dest="n_peaks", type=int,
                   default=StitchOptions.n_peaks)
    s.add_argument("--paper-faithful", action="store_true",
                   help="Fig. 2 scheme verbatim: 1 peak, 4 interpretations, "
                        "full-resolution PCIAM")
    s.add_argument("--pad", dest="pad_to_smooth", action="store_true",
                   help="pad FFTs to smooth sizes")
    s.add_argument("--refine", action="store_true", default=None,
                   help="re-measure the pairs the quality gate demotes "
                        "from its stage model (implies --quality-gate)")
    s.add_argument("--quality-gate", dest="quality", action="store_true",
                   help="score every pair (confidence, peak sharpness, "
                        "stage-model deviation) and demote untrustworthy "
                        "pairs to nominal-prior edges before phase 2 "
                        "(docs/ROBUSTNESS.md); implied by the knobs below")
    s.add_argument("--conf-thresh", type=float, default=None, metavar="C",
                   help="demote pairs whose correlation falls below C "
                        "(default 0.33; implies --quality-gate)")
    s.add_argument("--residue-mode", choices=RESIDUE_MODES, default=None,
                   help="IRLS damping of large residuals in the "
                        "least_squares solver: huber re-weights, threshold "
                        "hard-rejects (default none; implies --quality-gate)")
    s.add_argument("--min-peak-ratio", type=float, default=None, metavar="R",
                   help="demote pairs whose first/second correlation-peak "
                        "magnitude ratio falls below R (default 1.0 = off; "
                        "implies --quality-gate)")
    s.add_argument("--coarse-registration", dest="coarse",
                   action=argparse.BooleanOptionalAction,
                   help="two-pass coarse-to-fine PCIAM: register on "
                        "block-mean downsampled tiles, refine confident "
                        "peaks at full resolution, fall back to full "
                        "PCIAM otherwise (docs/PERFORMANCE.md).  Default: "
                        "decided from the tile size -- on for paper-scale "
                        "tiles, off for small ones and under "
                        "--paper-faithful; --no-coarse-registration is "
                        "full PCIAM at every size.  Implied by the knobs "
                        "below")
    s.add_argument("--coarse-scale", type=float, default=None, metavar="S",
                   help="coarse-pass downsampling scale in (0, 0.5] "
                        "(default 0.5 = factor 2; implies "
                        "--coarse-registration)")
    s.add_argument("--coarse-conf-thresh", type=float, default=None,
                   metavar="C",
                   help="minimum refined correlation to trust the coarse "
                        "pass; below it the pair falls back to full "
                        "PCIAM (default 0.95; implies "
                        "--coarse-registration)")
    s.add_argument("--positions", dest="position_method",
                   choices=POSITION_METHODS,
                   default=StitchOptions.position_method)
    s.add_argument("--positions-json", type=Path)
    s.add_argument("--impl", type=_impl_arg, choices=sorted(SCHEDULERS),
                   default=StitchOptions.impl,
                   help="phase-1 scheduler: a Table II implementation "
                        "('stitcher', the default, is simple-cpu)")
    s.add_argument("--workers", type=_workers_arg, default=2,
                   metavar="N|auto",
                   help="phase-1 worker threads (mt-cpu) or partitions "
                        "(pipelined-cpu); 'auto' = usable CPU count")
    s.add_argument("--compose-workers", type=_workers_arg, default=1,
                   metavar="N|auto",
                   help="phase-3 stripe workers for the output mosaic "
                        "(bit-identical to sequential); 'auto' = usable CPU "
                        "count")
    s.add_argument("--memory-budget", type=_bytes_arg, default=None,
                   metavar="BYTES",
                   help="compose the output mosaic out-of-core under this "
                        "hard budget (suffixes K/M/G): bounded stripes + LRU "
                        "tile cache streamed to a TIFF/BigTIFF, bit-identical "
                        "to the in-memory path")
    s.add_argument("--pyramid", type=int, default=0, metavar="LEVELS",
                   help="also write LEVELS 2x block-mean pyramid files next "
                        "to the output mosaic (streamed, never materialized); "
                        "implies the streaming compose path")
    s.add_argument("--gpus", type=int, default=1,
                   help="virtual GPUs for the pipelined-gpu impl")
    s.add_argument("--pattern", type=str, default=None,
                   help="adopt a foreign directory: tile file pattern, e.g. "
                        "'img_r{row:03d}_c{col:03d}.tif'")
    s.add_argument("--overlap", type=float, default=0.1,
                   help="nominal overlap for --pattern discovery")
    s.add_argument("--max-retries", type=int,
                   default=StitchOptions.max_retries,
                   help="retries per failing tile read (0 = fail fast)")
    s.add_argument("--on-tile-error", choices=TILE_ERROR_POLICIES,
                   default=StitchOptions.on_tile_error,
                   help="after retries: abort the run, or drop the tile and "
                        "render a partial mosaic")
    s.add_argument("--inject-faults", type=_fault_spec_arg, default=None,
                   metavar="SEED[:kind=count,...]",
                   help="damage the run's tile reads with a seeded fault "
                        "plan (testing); a bare SEED keeps the default mix, "
                        "the extended form names tile counts per kind "
                        "(missing, corrupt, transient, slow, hang, crash, "
                        "dust, saturate, shift) plus latency=SECONDS, e.g. "
                        "'42:missing=1,transient=2' or '7:hang=1,latency=0'")
    s.add_argument("--fault-report", type=Path, default=None,
                   metavar="OUT.json",
                   help="write the machine-readable fault report "
                        "(retries/skips/degradations + injection summary)")
    s.add_argument("--checkpoint", type=Path, default=None, metavar="DIR",
                   help="journal completed work to DIR/journal.jsonl so an "
                        "interrupted run can resume without recomputing")
    s.add_argument("--resume", action="store_true",
                   help="require an existing matching journal in "
                        "--checkpoint DIR (error if absent); without this "
                        "flag a matching journal is still resumed when "
                        "present")
    s.add_argument("--watchdog", type=float, default=None, metavar="SECONDS",
                   help="supervise phase 1: cancel any work item (a tile "
                        "read) running longer than SECONDS and unwedge "
                        "stalls instead of hanging (every CPU --impl and "
                        "pipelined-gpu; fiji-baseline and simple-gpu are "
                        "rejected)")
    s.add_argument("--stall-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="whole-pipeline no-progress window before the "
                        "watchdog escalates (with --watchdog)")
    s.add_argument("--trace", type=Path, default=None, metavar="OUT.json",
                   help="record a unified Chrome/Perfetto trace of the run "
                        "(stage spans + queue depths + virtual-GPU engines)")
    s.add_argument("--metrics", action="store_true",
                   help="collect and print per-stage counters/latency "
                        "percentiles as JSON")
    s.set_defaults(func=_cmd_stitch)

    s = sub.add_parser(
        "serve",
        help="run the stitching service (async HTTP job server over a "
             "pool of persistent warm workers)",
    )
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8642,
                   help="listen port (0 = ephemeral)")
    s.add_argument("--workers", type=_workers_arg, default=2,
                   metavar="N|auto",
                   help="persistent worker processes; each stays warm "
                        "(imports, FFT tables) across jobs")
    s.add_argument("--spool", type=Path, default=Path("stitch-spool"),
                   help="per-job state root (checkpoints, positions)")
    s.add_argument("--dataset-root", type=Path, default=None,
                   help="confine job dataset paths to this directory")
    s.add_argument("--queue-depth", type=int, default=64,
                   help="max queued jobs before 429 + Retry-After")
    s.add_argument("--per-tenant", type=int, default=16,
                   help="max queued jobs per tenant")
    s.add_argument("--job-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="kill + requeue a job running longer than this "
                        "(a job spec's deadline_seconds overrides)")
    s.add_argument("--stall-timeout", type=float, default=120.0,
                   metavar="SECONDS",
                   help="kill + requeue a job whose journal has not grown "
                        "for this long")
    s.add_argument("--retry-budget", type=int, default=1,
                   help="default requeues per job after worker death "
                        "(a job spec's retry_budget overrides)")
    s.add_argument("--quarantine-threshold", type=int, default=3,
                   metavar="K",
                   help="worker deaths attributed to one job before it is "
                        "quarantined with a post-mortem")
    s.add_argument("--breaker-threshold", type=int, default=3,
                   help="worker deaths inside --breaker-window that trip "
                        "the crash-loop circuit breaker open")
    s.add_argument("--breaker-window", type=float, default=30.0,
                   metavar="SECONDS",
                   help="sliding window for the breaker's death count")
    s.add_argument("--breaker-cooldown", type=float, default=1.0,
                   metavar="SECONDS",
                   help="first OPEN interval before half-open canary "
                        "probing (doubles per failed canary, capped)")
    s.add_argument("--spool-budget", type=_bytes_arg, default=None,
                   metavar="BYTES",
                   help="spool disk budget (suffixes K/M/G); submissions "
                        "that would exceed it are rejected with 429")
    s.add_argument("--brownout", type=_brownout_arg, default=None,
                   metavar="MODE[:k=v,...]",
                   help="overload policy: off (the default), shed "
                        "low-priority submissions, or degrade (shed, and "
                        "skip compose output while browned out); keys "
                        "depth, degraded-depth, shed-priority, ewma-high "
                        "(e.g. 'degrade:depth=0.8,shed-priority=4')")
    s.set_defaults(func=_cmd_serve)

    s = sub.add_parser("info", help="inspect a dataset directory or TIFF")
    s.add_argument("path", type=Path)
    s.set_defaults(func=_cmd_info)

    s = sub.add_parser("simulate", help="paper-scale performance simulation")
    s.add_argument("--machine", choices=["paper", "laptop"], default="paper")
    s.add_argument("--rows", type=int, default=42)
    s.add_argument("--cols", type=int, default=59)
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("report", help="paper-vs-measured fidelity report")
    s.add_argument("-o", "--output", type=Path, help="write markdown here")
    s.set_defaults(func=_cmd_report)
    return p


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.paper_report import fidelity_report

    text, all_ok = fidelity_report()
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"\nreport -> {args.output}")
    return 0 if all_ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
