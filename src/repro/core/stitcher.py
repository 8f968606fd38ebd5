"""High-level stitching facade tying the three phases together.

``Stitcher`` is the public entry point a downstream user reaches for::

    from repro import Stitcher
    from repro.io import TileDataset

    result = Stitcher().stitch(TileDataset("path/to/acquisition"))
    mosaic = result.compose()

Scheduler selection, FFT padding, peak-interpretation mode, traversal
order and the phase-2 solver are all options with paper-faithful defaults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.compose import BlendMode, compose
from repro.core.displacement import DisplacementResult, partitioned_displacements
from repro.core.global_opt import GlobalPositions, resolve_absolute_positions
from repro.core.kernel import ErrorPolicy, Phase1Kernel
from repro.core.options import (  # noqa: F401 -- re-exported: importers of the scheduler table
    SCHEDULERS,
    StitchOptions,
    scheduler_options,
    schedulers_honouring,
)
from repro.core.quality_gate import assess_quality, repair
from repro.faults.report import FaultReport
from repro.io.dataset import TileDataset
from repro.memmodel.pool import PlaneFreeList
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import NULL_TRACER, Tracer
from repro.recovery.journal import (
    RESUME_MODES,
    RunJournal,
    checkpoint_journal_path,
)


@dataclass
class StitchResult:
    """Everything the three phases produced, plus timing."""

    dataset: TileDataset
    displacements: DisplacementResult
    positions: GlobalPositions
    phase1_seconds: float
    phase2_seconds: float
    implementation: str = "simple-cpu"
    stats: dict = field(default_factory=dict)
    on_tile_error: str = "abort"

    @property
    def fault_report(self) -> FaultReport | None:
        """The run's :class:`FaultReport` when a retry/skip policy was active."""
        return self.stats.get("fault_report")

    @property
    def tracer(self):
        """The run's :class:`~repro.observe.tracer.Tracer` when traced."""
        return self.stats.get("tracer")

    @property
    def metrics(self) -> dict | None:
        """JSON-able metrics snapshot (``stats["metrics"]``) when collected."""
        return self.stats.get("metrics")

    def trace_events(self) -> list[dict]:
        """Merged Chrome trace events for this run (pipeline + any GPUs)."""
        from repro.analysis.tracefmt import merged_trace_events

        tracer = self.stats.get("tracer")
        if tracer is None:
            raise ValueError(
                "run was not traced; pass trace=True to Stitcher (or --trace)"
            )
        return merged_trace_events(
            tracer=tracer, gpu_profilers=self.stats.get("gpu_profilers")
        )

    def write_trace(self, path) -> int:
        """Write the unified Chrome/Perfetto trace; returns the event count."""
        from repro.analysis.tracefmt import write_chrome_trace

        events = self.trace_events()
        write_chrome_trace(path, events)
        return len(events)

    def skipped_tiles(self) -> list[tuple[int, int]]:
        report = self.fault_report
        return report.skipped_tiles if report is not None else []

    def compose(
        self,
        blend: BlendMode = BlendMode.OVERLAY,
        outline: bool = False,
        dtype=np.float32,
        return_mask: bool = False,
        workers: int = 1,
    ):
        """Phase 3, on demand (the paper renders rather than always saving).

        Tiles phase 1 dropped are left as holes; with ``return_mask=True``
        the per-tile provenance mask comes back alongside the canvas.
        ``workers > 1`` renders horizontal canvas stripes in parallel
        (bit-identical to sequential; see :func:`repro.core.compose.compose`).
        """
        return compose(
            self._load_native,
            self.positions,
            self.dataset.tile_shape,
            blend=blend,
            outline=outline,
            dtype=dtype,
            skip_tiles=self.skipped_tiles(),
            on_tile_error=self.on_tile_error,
            return_mask=return_mask,
            workers=workers,
        )

    def _load_native(self, row: int, col: int) -> np.ndarray:
        """Tile pixels in their stored dtype (no float64 promotion).

        Composition blends into float64 canvases/bands either way, and
        numpy's promotion makes uint8/uint16 arithmetic there value-exact
        -- so handing compose the native array is bit-identical while
        skipping a 4x-sized float64 copy per tile.  Registration paths
        keep requesting float64 explicitly.
        """
        return self.dataset.load(row, col, dtype=None)

    def compose_to_tiff(
        self,
        path,
        blend: BlendMode = BlendMode.OVERLAY,
        memory_budget: int | None = None,
        pyramid_levels: int = 0,
        band_rows: int | None = None,
        dtype=np.uint16,
        scale: float | None = None,
        outline: bool = False,
        metrics=None,
        tracer=None,
    ):
        """Phase 3 straight to disk under a memory budget (out-of-core).

        Streams the mosaic to ``path`` in bounded stripes through
        :func:`repro.core.streamcompose.stream_compose_to_tiff` -- the
        renderer :meth:`compose` uses, over a TIFF sink, so bit-identical
        to :meth:`compose` + quantization for every blend mode, but peak
        memory is the budget, not the canvas.
        ``memory_budget`` (bytes) sizes the stripes and the LRU tile
        cache; ``pyramid_levels`` also writes 2x block-mean levels next
        to ``path`` for :class:`repro.core.pyramid.DiskPyramid` viewers.
        Tiles phase 1 dropped are left as holes, as in :meth:`compose`.

        Returns the :class:`repro.core.streamcompose.StreamComposeResult`
        (mosaic shape, stripe/cache/peak-memory accounting, pyramid
        paths).
        """
        from repro.core.streamcompose import stream_compose_to_tiff
        from repro.observe.tracer import NULL_TRACER

        return stream_compose_to_tiff(
            path,
            self._load_native,
            self.positions,
            self.dataset.tile_shape,
            blend=blend,
            memory_budget=memory_budget,
            band_rows=band_rows,
            dtype=dtype,
            scale=scale,
            outline=outline,
            skip_tiles=self.skipped_tiles(),
            on_tile_error=self.on_tile_error,
            pyramid_levels=pyramid_levels,
            metrics=metrics,
            tracer=tracer if tracer is not None else NULL_TRACER,
        )

    def position_errors(self, exclude_degraded: bool = False) -> np.ndarray | None:
        """Per-tile |recovered - truth| in pixels, when ground truth exists.

        Both recovered and true positions are normalized to a (0, 0) origin
        before comparison (absolute positions are only defined up to a
        global translation).  ``exclude_degraded=True`` sets the error to
        NaN for tiles positioned by nominal fallback (their "error" reflects
        the stage model, not the registration).
        """
        if self.dataset.metadata.true_positions is None:
            return None
        true = np.asarray(self.dataset.metadata.true_positions, dtype=np.int64)
        true = true - true.reshape(-1, 2).min(axis=0)
        diff = self.positions.positions - true
        err = np.linalg.norm(diff.astype(np.float64), axis=-1)
        if exclude_degraded and self.positions.degraded is not None:
            err = err.copy()
            err[self.positions.degraded] = np.nan
        return err


class Stitcher:
    """Configurable three-phase stitcher: the one entry point of a run.

    What to compute is a :class:`~repro.core.options.StitchOptions`
    value: pass one as ``options``, or spell its flat keys as keywords
    (``Stitcher(coarse=True, conf_thresh=0.4, impl="mt-cpu")``; with
    both, the keywords override ``options``).  Either way the value is
    built and validated by ``StitchOptions.from_flat`` before anything
    runs, and reads such as ``stitcher.coarse`` forward to
    :attr:`options`.  The remaining arguments are the run's resources,
    not options: a tracer, a metrics registry and the checkpoint
    directory.

    Every scheduler (``impl``) runs the same
    :class:`~repro.core.kernel.Phase1Kernel`, so all produce identical
    displacements; the quality gate's repair, phase 2, fault/quality
    reporting and timing happen here, once, whichever one ran.
    """

    def __init__(
        self,
        options: StitchOptions | None = None,
        *,
        trace: bool | Tracer = False,
        metrics: bool | MetricsRegistry = False,
        checkpoint: str | None = None,
        resume: str = "auto",
        journal_fsync: bool = True,
        **flat,
    ) -> None:
        if options is None:
            options = StitchOptions.from_flat(flat)
        elif not isinstance(options, StitchOptions):
            raise TypeError(
                f"options must be a StitchOptions, got {options!r} "
                "(spell individual options as keywords)"
            )
        elif flat:
            options = StitchOptions.from_flat({**vars(options), **flat})
        self.options = options
        # Observability: ``trace=True`` (or a caller-owned Tracer) records
        # per-phase and per-operation spans; metrics are collected whenever
        # either switch is on, and land in ``StitchResult.stats["metrics"]``.
        if isinstance(trace, Tracer):
            self.tracer: Tracer | None = trace
        else:
            self.tracer = Tracer() if trace else None
        if isinstance(metrics, MetricsRegistry):
            self.metrics: MetricsRegistry | None = metrics
        elif metrics or self.tracer is not None:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = None
        # Durability (docs/ROBUSTNESS.md): ``checkpoint`` names a directory
        # holding the run journal; every completed pair is flushed there
        # (and fsync'd once per traversal step), and a rerun over the
        # same directory resumes, recomputing only what never landed.
        # ``resume`` is the journal-open mode (auto/require/never);
        # ``journal_fsync=False`` drops the fsyncs -- the guard against
        # power loss -- for speed (tests, benchmarks).
        if resume not in RESUME_MODES:
            raise ValueError(
                f"resume must be {'/'.join(RESUME_MODES)}, got {resume!r}"
            )
        self.checkpoint = checkpoint
        self.resume = resume
        self.journal_fsync = journal_fsync
        # Phase 1's float64 tile planes (the paper's allocate-once buffer
        # pool, Section IV.B, host side): every stitch recycles them.  The
        # stitchers alive at once share one list, so a second stitcher
        # (say, one that checks another's answer) reuses the idle planes
        # instead of adding its own; they are freed with the last one.
        self.planes = PlaneFreeList.shared()

    def __getattr__(self, name: str):
        """Option reads (``stitcher.coarse``, ``.n_peaks``, ...) forward to
        :attr:`options`; only names the stitcher itself lacks get here."""
        if name == "options":  # not set yet: __init__ raised, or a copy
            raise AttributeError(name)
        return getattr(self.options, name)

    def _error_policy(self) -> ErrorPolicy | None:
        """Retry/skip policy for tile reads; None = strict legacy behaviour."""
        opts = self.options
        if opts.max_retries == 0 and opts.on_tile_error == "abort":
            return None
        return ErrorPolicy(
            max_retries=opts.max_retries,
            backoff=opts.retry_backoff,
            on_exhausted=opts.on_tile_error,
        )

    @staticmethod
    def _nominal_step(dataset: TileDataset):
        """Nominal grid step from acquisition metadata (overlap fraction)."""
        th, tw = dataset.tile_shape
        ov = dataset.metadata.overlap
        return ((0.0, round(tw * (1.0 - ov))), (round(th * (1.0 - ov)), 0.0))

    def open_journal(self, dataset: TileDataset) -> RunJournal | None:
        """Open/create the checkpoint journal, or ``None`` (no checkpoint).

        Raises :class:`~repro.recovery.journal.JournalMismatch` when the
        directory holds a different run's journal, and
        :class:`~repro.recovery.journal.JournalError` when ``resume=
        "require"`` finds nothing to resume.
        """
        if self.checkpoint is None:
            return None
        return RunJournal.open(
            checkpoint_journal_path(self.checkpoint),
            self.options.fingerprint(dataset),
            fsync=self.journal_fsync,
            metrics=self.metrics,
            resume=self.resume,
        )

    def _phase1(self, dataset: TileDataset, kernel: Phase1Kernel):
        """Run the selected scheduler; returns ``(displacements, stats)``."""
        opts = self.options
        tracer = kernel.tracer
        if opts.impl == "simple-cpu":
            # The default stays import-free: repro.impls (and the virtual
            # GPU under it) loads only for a scheduler that needs it; this
            # is the schedule impls.SimpleCpu runs.  Native dtype: the
            # kernel converts on use (uint -> float64 is exact), so live
            # products hold no float64 copy of the raw tile.
            with tracer.span("phase1:simple-cpu", "phase1"):
                disp = partitioned_displacements(
                    partial(dataset.load, dtype=None),
                    dataset.rows, dataset.cols, kernel,
                    traversal=opts.traversal,
                    watchdog=opts.impl_options.get("watchdog"),
                )
            return disp, dict(disp.stats)
        from repro.impls import ALL_IMPLEMENTATIONS

        scheduler = ALL_IMPLEMENTATIONS[opts.impl](
            kernel=kernel, traversal=opts.traversal, **opts.impl_options
        )
        run = scheduler.run(dataset)
        stats = dict(run.stats)
        if tracer.enabled:
            # Virtual-GPU engine rows for the merged timeline (Fig. 7/9).
            devices = list(getattr(scheduler, "devices", None) or [])
            if getattr(scheduler, "last_device", None) is not None:
                devices.append(scheduler.last_device)
            if devices:
                stats["gpu_profilers"] = [d.profiler for d in devices]
        return run.displacements, stats

    def stitch(self, dataset: TileDataset) -> StitchResult:
        """Run phases 1 and 2; phase 3 is on the result object.

        With ``max_retries``/``on_tile_error="skip"`` the run survives
        unreadable tiles: failing reads are retried, exhausted tiles are
        dropped from phase 1, phase 2 falls back to nominal stage
        coordinates for any stranded grid component, and the resulting
        :class:`FaultReport` lands in ``result.stats["fault_report"]``.
        """
        opts = self.options
        policy = self._error_policy()
        report = FaultReport() if policy is not None else None
        tracer = self.tracer if self.tracer is not None else NULL_TRACER
        journal = self.open_journal(dataset)
        kernel = Phase1Kernel(
            ccf_mode=opts.ccf_mode,
            n_peaks=opts.n_peaks,
            fft_shape=opts.fft_shape(dataset.tile_shape),
            subpixel=opts.subpixel,
            # Resolved once, here: every scheduler runs the same config.
            coarse=opts.coarse_for(dataset.tile_shape),
            error_policy=policy,
            fault_report=report,
            tracer=tracer,
            metrics=self.metrics,
            journal=journal,
            planes=self.planes,
        )
        t0 = time.perf_counter()
        try:
            with tracer.span("phase1:displacements", "stitcher"):
                disp, stats = self._phase1(dataset, kernel)
            if journal is not None:
                journal.record_milestone(
                    "phase1_complete", pairs=disp.pair_count()
                )
        except BaseException:
            # Keep everything journaled so far durable for the next resume.
            if journal is not None:
                journal.close()
            raise
        if opts.quality is not None and opts.quality.refine:
            with tracer.span("refine", "stitcher"):
                stats["refined_pairs"], stats["unrepairable_pairs"] = repair(
                    disp, assess_quality(disp, opts.quality),
                    partial(dataset.load, dtype=None), opts.subpixel)
        t1 = time.perf_counter()
        degrade = {}
        if policy is not None and opts.on_tile_error == "skip":
            degrade = {
                "on_disconnected": "nominal",
                "nominal_step": self._nominal_step(dataset),
            }
        with tracer.span("phase2:global-opt", "stitcher"):
            pos = resolve_absolute_positions(
                disp, method=opts.position_method, subpixel=opts.subpixel,
                quality=opts.quality, **degrade,
            )
        t2 = time.perf_counter()
        if journal is not None:
            # Phase 2 is deterministic and cheap relative to phase 1, so a
            # resumed run always re-solves it from the journaled pairs; the
            # milestone records that (and when) the run got this far.
            journal.record_milestone(
                "phase2_complete",
                method=opts.position_method,
                degraded=len(pos.degraded_tiles()),
            )
            stats["journal"] = journal.summary()
            journal.close()
        if pos.quality_report is not None:
            stats["quality_report"] = pos.quality_report
            if self.metrics is not None:
                for counter, key in (
                    ("quality.pairs_gated", "gated_pairs"),
                    ("quality.irls_iterations", "irls_iterations"),
                    ("quality.residue_damped_edges", "residue_damped_edges"),
                ):
                    self.metrics.counter(counter).inc(
                        pos.quality_report.get(key, 0)
                    )
        if report is not None:
            for rc in pos.degraded_tiles():
                report.record_degraded_tile(rc)
            plan = getattr(dataset, "fault_plan", None)
            if plan is not None:
                report.injected = plan.summary()
            stats["fault_report"] = report
        if self.metrics is not None:
            self.metrics.histogram("stitch.phase1_seconds").observe(t1 - t0)
            self.metrics.histogram("stitch.phase2_seconds").observe(t2 - t1)
            stats["metrics"] = self.metrics.snapshot()
        if self.tracer is not None:
            stats["tracer"] = self.tracer
        return StitchResult(
            dataset=dataset,
            displacements=disp,
            positions=pos,
            phase1_seconds=t1 - t0,
            phase2_seconds=t2 - t1,
            implementation=opts.impl,
            stats=stats,
            on_tile_error=opts.on_tile_error,
        )

    def stitch_channels(
        self, datasets: list[TileDataset], reference: int = 0
    ) -> list[StitchResult]:
        """Multi-channel stitching: register once, compose per channel.

        The paper's experiments acquire "two tile grids, one per color
        channel" of the *same* plate scan; the stage moved once, so one
        channel's displacements apply to all.  The reference channel (pick
        the one with the most texture) is stitched normally; the others
        reuse its positions, costing only phase 3 each.

        Provenance follows the positions: when the reference run carried
        a fault policy (retries/skips) or a quality gate, the dependent
        channels share its ``fault_report``/``quality_report`` and its
        ``on_tile_error`` policy, so a tile dropped from the reference
        registration is also left out of every dependent channel's
        mosaic -- the channels stay aligned *and* identically masked.
        """
        if not datasets:
            raise ValueError("need at least one channel")
        if not 0 <= reference < len(datasets):
            raise IndexError(f"reference channel {reference} of {len(datasets)}")
        ref_ds = datasets[reference]
        for i, ds in enumerate(datasets):
            if (ds.rows, ds.cols) != (ref_ds.rows, ref_ds.cols) or (
                ds.tile_shape != ref_ds.tile_shape
            ):
                raise ValueError(
                    f"channel {i} geometry {ds.rows}x{ds.cols}/{ds.tile_shape} "
                    f"differs from reference "
                    f"{ref_ds.rows}x{ref_ds.cols}/{ref_ds.tile_shape}"
                )
        ref_result = self.stitch(ref_ds)
        # Shared provenance: only keys the reference run actually produced
        # (a clean default run keeps the minimal one-key stats dict).
        shared = {
            key: ref_result.stats[key]
            for key in ("fault_report", "quality_report")
            if key in ref_result.stats
        }
        out: list[StitchResult] = []
        for i, ds in enumerate(datasets):
            if i == reference:
                out.append(ref_result)
            else:
                out.append(
                    StitchResult(
                        dataset=ds,
                        displacements=ref_result.displacements,
                        positions=ref_result.positions,
                        phase1_seconds=0.0,
                        phase2_seconds=0.0,
                        stats={"positions_from_channel": reference, **shared},
                        on_tile_error=ref_result.on_tile_error,
                    )
                )
        return out
