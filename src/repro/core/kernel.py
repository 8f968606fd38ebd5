"""The phase-1 kernel: *what* is computed per tile and per pair.

The paper's Table II compares implementations that "share the same
operators and differ only in architecture".  This module is the shared
half.  :class:`Phase1Kernel` owns, once:

- the tile **read under the error policy** (retries, skip, fault report,
  metrics, the journal's forensic skip record) -- the one place phase 1
  survives a failure;
- the **per-tile products** ``(pixels, spectrum, TileStats, fallback)``
  -- the full-resolution spectrum, or in coarse-to-fine mode the
  block-mean-downsampled *coarse* spectrum plus the full-resolution one a
  rejected pair transforms on first need;
- the **journal lookup** that serves an already-durable pair;
- the **pair registration**: PCIAM (or coarse PCIAM) ->
  :class:`Translation` -> ``disp.set`` -> journal record -> hit/fallback
  counters -- including the host half of the virtual-GPU pair, which
  resolves device-reduced peaks into a translation;
- the **skipped-pair accounting** of a tile that could not be read.

A *scheduler* (:func:`repro.core.displacement.compute_grid_displacements`
and every class of :mod:`repro.impls`) decides only order, placement and
buffering: its traversal, partitions, queues, pools and virtual-GPU streams.

Defaults are the paper's Fig. 2 scheme verbatim (``PAPER4``, one peak),
like :func:`~repro.core.pciam.pciam`; :class:`repro.core.stitcher.Stitcher`
and :class:`repro.impls.base.Implementation` deliberately default to the
more robust ``EXTENDED`` contest over two peaks.  This is the one place
the difference is stated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.coarse import (
    CoarseConfig,
    FullSpectrum,
    coarse_pciam,
    coarse_transform_shape,
    resolve_coarse_peaks,
)
from repro.core.downsample import downsample
from repro.core.pciam import (
    CcfMode,
    PciamResult,
    bump,
    contest,
    forward_fft,
    pciam,
)
from repro.core.tilestats import TileStats
from repro.fftlib.plans import spectrum_shape
from repro.fftlib.smooth import pad_to_shape
from repro.grid.neighbors import Direction
from repro.memmodel.pool import PlaneFreeList
from repro.memmodel.workspace import PairWorkspace
from repro.observe.tracer import NULL_TRACER
from repro.recovery.cancel import ItemCancelled


@dataclass(frozen=True)
class ErrorPolicy:
    """What a failing tile read does (see :meth:`Phase1Kernel.try_read`).

    Up to ``max_retries`` more attempts follow the first failure, retry
    ``n`` (0-based) after ``backoff * 2**n`` seconds; once they are spent,
    ``on_exhausted`` either aborts the run with the last error or skips
    the tile.
    """

    max_retries: int = 0
    backoff: float = 0.0
    on_exhausted: str = "abort"

    def __post_init__(self) -> None:
        # Deferred: core.options reaches this module through its imports.
        from repro.core.options import TILE_ERROR_POLICIES

        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.on_exhausted not in TILE_ERROR_POLICIES:
            raise ValueError(
                f"on_exhausted must be one of {'/'.join(TILE_ERROR_POLICIES)}, "
                f"got {self.on_exhausted!r}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return self.backoff * 2**attempt


@dataclass(frozen=True)
class Translation:
    """One pairwise translation: ``second`` relative to its west/north neighbour.

    ``tx``/``ty`` are the paper's integer output; ``tx_f``/``ty_f`` carry
    the optional sub-pixel estimate (``None`` = integer only).
    """

    correlation: float
    tx: int
    ty: int
    tx_f: float | None = None
    ty_f: float | None = None
    #: First-to-second phase-correlation peak-magnitude ratio (peak
    #: sharpness), a quality signal for the phase-2 confidence gate.
    #: ``None`` when unavailable (``n_peaks == 1`` runs, older journals,
    #: repaired translations).
    peak_ratio: float | None = None
    #: ``"coarse"``/``"fallback"`` when the coarse-to-fine path produced
    #: the pair (:mod:`repro.core.coarse`); ``None`` for the single-pass
    #: full-resolution path.  Journaled, so a resumed run can prove which
    #: path produced every translation.
    provenance: str | None = None

    @property
    def fx(self) -> float:
        """Best available x translation as a float."""
        return self.tx_f if self.tx_f is not None else float(self.tx)

    @property
    def fy(self) -> float:
        """Best available y translation as a float."""
        return self.ty_f if self.ty_f is not None else float(self.ty)

    @staticmethod
    def from_pciam(r: PciamResult, subpixel: bool = False) -> "Translation":
        if subpixel:
            return Translation(r.correlation, r.tx, r.ty, r.tx_f, r.ty_f,
                               peak_ratio=r.peak_ratio,
                               provenance=r.provenance)
        return Translation(r.correlation, r.tx, r.ty,
                           peak_ratio=r.peak_ratio,
                           provenance=r.provenance)


@dataclass
class DisplacementResult:
    """Phase-1 output: the two translation arrays of Fig. 4.

    ``west[r][c]`` positions tile ``(r, c)`` relative to ``(r, c-1)`` and is
    ``None`` for ``c == 0``; ``north[r][c]`` positions ``(r, c)`` relative
    to ``(r-1, c)`` and is ``None`` for ``r == 0``.
    """

    rows: int
    cols: int
    west: list[list[Translation | None]]
    north: list[list[Translation | None]]
    stats: dict = field(default_factory=dict)

    @staticmethod
    def empty(rows: int, cols: int) -> "DisplacementResult":
        return DisplacementResult(
            rows=rows,
            cols=cols,
            west=[[None] * cols for _ in range(rows)],
            north=[[None] * cols for _ in range(rows)],
        )

    def set(self, direction: Direction, row: int, col: int, t: Translation) -> None:
        arr = self.west if direction is Direction.WEST else self.north
        arr[row][col] = t

    def get(self, direction: Direction, row: int, col: int) -> Translation | None:
        arr = self.west if direction is Direction.WEST else self.north
        return arr[row][col]

    def update(self, other: "DisplacementResult") -> None:
        """Copy in every pair ``other`` computed (a partition's share)."""
        for direction in Direction:
            for row, col, t in other.entries(direction):
                self.set(direction, row, col, t)

    def entries(
        self, direction: Direction
    ) -> list[tuple[int, int, Translation]]:
        """Computed pairs of ``direction`` as ``(row, col, translation)``,
        row-major."""
        arr = self.west if direction is Direction.WEST else self.north
        return [
            (r, c, t)
            for r, row in enumerate(arr)
            for c, t in enumerate(row)
            if t is not None
        ]

    def pair_count(self) -> int:
        n = sum(1 for row in self.west for t in row if t is not None)
        n += sum(1 for row in self.north for t in row if t is not None)
        return n

    def is_complete(self) -> bool:
        """All ``2nm - n - m`` pairs computed."""
        return self.pair_count() == 2 * self.rows * self.cols - self.rows - self.cols

    def missing_pairs(self) -> list[tuple[str, int, int]]:
        """Absent interior pairs as ``(direction, row, col)`` of the second tile."""
        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                if c > 0 and self.west[r][c] is None:
                    out.append(("west", r, c))
                if r > 0 and self.north[r][c] is None:
                    out.append(("north", r, c))
        return out


@dataclass
class Phase1Kernel:
    """One run's operators, options and accounting sinks (see module doc).

    Result-affecting options: ``ccf_mode``, ``n_peaks``, ``fft_shape``
    (the padded transform shape, ``None`` = native tile size),
    ``subpixel`` and ``coarse`` (a :class:`~repro.core.coarse.CoarseConfig`
    switches the per-tile product to the coarse spectrum and pairs to
    :func:`~repro.core.coarse.coarse_pciam`; results then carry their
    ``"coarse"``/``"fallback"`` provenance into the journal).

    Cost-only option: ``real_transforms`` (half-spectrum R2C/C2R; off
    is the paper's verbatim complex scheme).

    Resource: ``planes``, the free list of float64 tile planes.

    Sinks, each optional: ``error_policy`` + ``fault_report`` (without a
    policy a failing read propagates raw -- the strict legacy contract),
    ``tracer``, ``metrics``, and ``journal`` -- a
    :class:`~repro.recovery.journal.RunJournal`: journaled pairs are
    served from it and counted apart from computed ones
    (``stats["resumed_pairs"]`` vs ``stats["pairs"]``), and every fresh
    pair is durable before the run advances.  All sinks are thread-safe,
    so concurrent workers share one kernel.
    """

    ccf_mode: CcfMode = CcfMode.PAPER4
    n_peaks: int = 1
    fft_shape: tuple[int, int] | None = None
    subpixel: bool = False
    coarse: CoarseConfig | None = None
    real_transforms: bool = True
    error_policy: ErrorPolicy | None = None
    fault_report: Any = None
    tracer: Any = None
    metrics: Any = None
    journal: Any = None
    #: Where :meth:`products` takes its float64 tile planes from and
    #: returns them to; a :class:`~repro.core.stitcher.Stitcher` passes
    #: the list it holds, so the planes outlive the run.
    planes: PlaneFreeList = field(default_factory=PlaneFreeList)

    def __post_init__(self) -> None:
        self.coarse = self.coarse or None  # False: single pass, as None
        if self.fft_shape is not None:
            self.fft_shape = tuple(self.fft_shape)
        if self.tracer is None:
            self.tracer = NULL_TRACER
        #: ``fft_shape`` argument of the per-tile transform: the spectrum
        #: runs un-padded at the (downsampled) tile size unless padding
        #: was asked for.
        self._product_shape = (
            None if self.fft_shape is None
            else self.transform_shape(self.fft_shape)
        )

    # -- geometry -----------------------------------------------------------

    def full_shape(self, tile_shape) -> tuple[int, int]:
        """Full-resolution spatial transform shape (padded or native)."""
        return self.fft_shape if self.fft_shape is not None else tuple(tile_shape)

    def transform_shape(self, tile_shape) -> tuple[int, int]:
        """Spatial shape of the per-tile spectrum and the pair NCC/inverse.

        Coarse mode shrinks both to the downsampled shape (the
        full-resolution refinement probes need no FFT scratch).
        """
        shape = self.full_shape(tile_shape)
        if self.coarse is not None:
            return coarse_transform_shape(shape, self.coarse.factor)
        return shape

    def buffer_shape(self, tile_shape) -> tuple[int, int]:
        """Shape of a stored spectrum: ``(h, w//2 + 1)`` under real
        transforms -- the paper's "roughly half the memory"."""
        shape = self.transform_shape(tile_shape)
        return spectrum_shape(shape) if self.real_transforms else shape

    def workspace(self, tile_shape) -> PairWorkspace:
        """One pair worker's scratch for ``tile_shape`` tiles; in coarse
        mode it carries full-resolution scratch for fallbacks, allocated
        on the first."""
        return PairWorkspace(
            self.transform_shape(tile_shape), real=self.real_transforms,
            fallback_shape=(
                None if self.coarse is None else self.full_shape(tile_shape)
            ),
        )

    # -- accounting ---------------------------------------------------------

    @property
    def skips(self) -> bool:
        """Exhausted reads drop the tile instead of failing the run."""
        return (
            self.error_policy is not None
            and self.error_policy.on_exhausted == "skip"
        )

    def note_skipped_pair(self, direction: Direction, row: int, col: int,
                          reason: str) -> None:
        if self.fault_report is not None:
            self.fault_report.record_skipped_pair(
                direction.value, row, col, reason
            )
        if self.metrics is not None:
            self.metrics.counter("pairs.skipped").inc()

    def skip_tile_pairs(self, pos, pairs) -> None:
        """Account ``pairs`` as uncomputable: tile ``pos`` was dropped."""
        reason = f"tile ({pos.row},{pos.col}) unreadable"
        for pair in pairs:
            self.note_skipped_pair(
                pair.direction, pair.second.row, pair.second.col, reason
            )

    # -- per-tile work ------------------------------------------------------

    def try_read(self, load_tile, row: int, col: int):
        """``load_tile(row, col)`` under the error policy, journal untouched.

        Returns ``(pixels, None)``, or ``(None, reason)`` for a tile a skip
        policy dropped.  No policy: the original exception propagates.
        With one, retries are applied and recorded; exhaustion re-raises
        the last error (abort) or records the skipped tile in the fault
        report and the metrics (skip).  A scheduler that journals the
        skip at a turn of its own (the pair stage of
        :func:`~repro.core.displacement.compute_grid_displacements`)
        records ``reason`` itself; everyone else calls :meth:`read`.
        """
        policy = self.error_policy
        if policy is None:
            return load_tile(row, col), None
        for attempt in range(policy.max_retries + 1):
            try:
                return load_tile(row, col), None
            except ItemCancelled as exc:
                # The watchdog cancelled this read and its token stays
                # cancelled: another attempt could only fail again.
                error = exc
                break
            except Exception as exc:
                error = exc
                if attempt < policy.max_retries:
                    if self.fault_report is not None:
                        self.fault_report.record_retry(
                            "read", (row, col), attempt, exc
                        )
                    if self.metrics is not None:
                        self.metrics.counter("read.retries").inc()
                    if policy.backoff > 0:
                        time.sleep(policy.delay(attempt))
        if not self.skips:
            raise error
        if self.fault_report is not None:
            self.fault_report.record_skipped_tile((row, col), error)
        if self.metrics is not None:
            self.metrics.counter("read.skipped_tiles").inc()
        return None, str(error)

    def read(self, load_tile, row: int, col: int):
        """:meth:`try_read`, with a dropped tile also journaled; returns
        the pixels, or ``None`` for a dropped tile."""
        pixels, dropped = self.try_read(load_tile, row, col)
        if dropped is not None and self.journal is not None:
            # Forensic record only: skips are retried on resume (the
            # fault may have been transient), so replay ignores these.
            self.journal.record_skipped_tile(row, col, dropped)
        return pixels

    def tile_stats(self, pixels) -> TileStats:
        """Per-tile rectangle statistics (summed-area table or marginals,
        by tile size): built once, shared by the tile's up-to-four
        incident pairs, released with its spectrum.  Their float64 pixels
        are the tile's only float64 copy (see :class:`TileStats`)."""
        return TileStats(pixels)

    def fallback_spectrum(self, pixels) -> FullSpectrum | None:
        """The full-resolution spectrum a coarse fallback of the tile
        reuses, transformed on first need; ``None`` in single-pass mode,
        where the tile's spectrum already is one."""
        if self.coarse is None:
            return None
        return FullSpectrum(
            pixels, self.full_shape(pixels.shape), self.real_transforms
        )

    def host_products(self, pixels) -> tuple:
        """``(pixels, TileStats, fallback)``: what the host keeps of a tile
        whose spectrum lives on a device (see :meth:`resolve_peaks`)."""
        return pixels, self.tile_stats(pixels), self.fallback_spectrum(pixels)

    def transform_input(self, pixels, shape: tuple[int, int] | None = None):
        """Spatial input of the per-tile transform: block-mean downsampled
        in coarse mode, zero-padded to ``shape`` when one is given."""
        src = pixels
        if self.coarse is not None:
            src = downsample(pixels, self.coarse.factor)
        if shape is not None and src.shape != shape:
            src = pad_to_shape(src, shape)
        return src

    def products(self, pixels, stats: dict | None = None,
                 track: str | None = None, key: object = None) -> tuple:
        """``(pixels, spectrum, TileStats, fallback)`` of one tile.

        ``pixels`` is kept as handed in -- any real dtype.  The tile is
        converted to float64 once, here (exactly, for integer tiles), into
        a plane taken from :attr:`planes`: that one array is the input of
        ``downsample`` (coarse) or of the forward transform (full PCIAM),
        which read it without copying and never write it, and then
        becomes ``TileStats.pixels``, mean-shifted in place
        (:meth:`TileStats._adopt`), and goes back to :attr:`planes` when
        the statistics are freed -- once, however many partitions shared
        them.  A float64 tile is the caller's, so the statistics copy it
        instead.  Either way one full-size float64 array per tile is kept.
        Coarse mode never computes the full-resolution transform up front:
        ``fallback`` (:meth:`fallback_spectrum`) computes it, from the raw
        tile, for the first gate-rejected pair of the tile and keeps it for
        the others, instead of every pair paying for it always.  With a
        ``track`` the three steps become ``downsample`` / ``fft`` /
        ``tilestats`` spans on that timeline row.
        """
        tracer = self.tracer if track is not None else NULL_TRACER
        pool = None
        px = pixels
        if pixels.dtype != np.float64:
            pool = self.planes
            px = pool.take(pixels.shape)
            np.copyto(px, pixels, casting="unsafe")
        src = px
        if self.coarse is not None:
            with tracer.span("downsample", track, key=key):
                src = downsample(px, self.coarse.factor)
        with tracer.span("fft", track, key=key):
            spectrum = forward_fft(
                src, self._product_shape, real=self.real_transforms
            )
        with tracer.span("tilestats", track, key=key):
            tstats = TileStats._adopt(px, pixels, pool)
        bump(stats, "ffts")
        return pixels, spectrum, tstats, self.fallback_spectrum(pixels)

    # -- per-pair work ------------------------------------------------------

    def journaled(self, pair) -> bool:
        """Whether the journal holds ``pair`` already (a peek: no resume
        hit is counted)."""
        return self.journal is not None and self.journal.peek(
            pair.direction.value, pair.second.row, pair.second.col
        ) is not None

    def serve_journaled(self, disp, direction: Direction, row: int, col: int,
                        stats: dict) -> bool:
        """Serve pair ``(direction, row, col)`` from the journal if it is
        there; ``(row, col)`` is the pair's second (owning) tile."""
        if self.journal is None:
            return False
        t = self.journal.lookup(direction.value, row, col)
        if t is None:
            return False
        disp.set(direction, row, col, t)
        bump(stats, "resumed_pairs")
        return True

    def _pair_options(self, stats_i: TileStats, stats_j: TileStats) -> dict:
        """The keywords :func:`pciam` and :func:`coarse_pciam` share."""
        return dict(
            fft_shape=self.fft_shape,
            ccf_mode=self.ccf_mode,
            n_peaks=self.n_peaks,
            real_transforms=self.real_transforms,
            subpixel=self.subpixel,
            stats_i=stats_i,
            stats_j=stats_j,
        )

    def register_pair(self, disp, direction: Direction, row: int, col: int,
                      first: tuple, second: tuple, workspace=None,
                      stats: dict | None = None) -> Translation:
        """Register one pair from its tiles' :meth:`products` and commit it.

        ``stats`` receives ``pairs`` and, in coarse mode, the gate's
        ``coarse_hits`` / ``full_fallbacks`` decisions.
        """
        img_i, fft_i, stats_i, full_i = first
        img_j, fft_j, stats_j, full_j = second
        options = self._pair_options(stats_i, stats_j)
        if self.coarse is not None:
            r = coarse_pciam(
                img_i, img_j, self.coarse, cfft_i=fft_i, cfft_j=fft_j,
                workspace=workspace, stats=stats, full_i=full_i,
                full_j=full_j, **options,
            )
        else:
            r = pciam(
                img_i, img_j, fft_i=fft_i, fft_j=fft_j,
                workspace=workspace, **options,
            )
        t = Translation.from_pciam(r, subpixel=self.subpixel)
        self.commit(disp, direction, row, col, t, stats)
        return t

    def commit(self, disp, direction: Direction, row: int, col: int,
               t: Translation, stats: dict | None = None) -> None:
        """Publish a computed pair: result cell, journal, counters."""
        disp.set(direction, row, col, t)
        if self.journal is not None:
            self.journal.record_pair(direction.value, row, col, t)
        bump(stats, "pairs")
        if self.metrics is not None and t.provenance is not None:
            self.metrics.counter(
                "coarse.hits" if t.provenance == "coarse"
                else "coarse.fallbacks"
            ).inc()

    # -- host half of a device-side pair --------------------------------------

    @property
    def peak_count(self) -> int:
        """Peaks a device-side reduction must return per pair."""
        if self.coarse is not None:
            return max(self.n_peaks, self.coarse.coarse_peaks)
        return self.n_peaks

    def resolve_peaks(self, peaks, shape: tuple[int, int], first: tuple,
                      second: tuple, stats: dict | None = None) -> Translation:
        """Translation from the ``[(magnitude, flat_index), ...]`` peaks a
        device reduced from the inverse NCC surface of shape ``shape``.

        ``first`` / ``second`` are the host-side :meth:`host_products`
        the CCFs run on: the same :func:`~repro.core.pciam.contest` the CPU
        pair runs, or in coarse mode the shared
        :func:`~repro.core.coarse.resolve_coarse_peaks` gate (hill-climb
        over the upscaled peaks, full PCIAM from the retained pixels when
        the gate rejects) -- which is what lands the GPU paths on the same
        answers as the CPU ones, sub-pixel estimates included.
        """
        img_i, stats_i, full_i = first
        img_j, stats_j, full_j = second
        peaks = [
            (float(mag), *map(int, np.unravel_index(int(flat), shape)))
            for mag, flat in peaks
        ]
        if self.coarse is not None:
            r = resolve_coarse_peaks(
                peaks, shape, config=self.coarse, ccf_mode=self.ccf_mode,
                stats_i=stats_i, stats_j=stats_j, subpixel=self.subpixel,
                fallback=lambda: pciam(
                    img_i, img_j, fft_i=full_i.get(), fft_j=full_j.get(),
                    **self._pair_options(stats_i, stats_j)
                ),
                stats=stats,
            )
        else:
            r = contest(
                peaks, shape, self.ccf_mode, stats_i, stats_j, self.subpixel
            )
        return Translation.from_pciam(r, subpixel=self.subpixel)
