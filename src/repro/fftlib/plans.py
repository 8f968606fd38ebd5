"""FFT plans, planning modes, and the plan cache (FFTW-style).

The paper (Section IV.A) describes FFTW's two-phase operation -- *plan*, then
*execute* -- and the four planning modes it evaluated (``estimate``,
``measure``, ``patient``, ``exhaustive``).  Planning picks an execution
strategy for a fixed problem (shape, transform kind); its cost is amortized by
caching and by *wisdom* (serialized planning decisions).

This module reproduces that structure:

- ``ESTIMATE`` picks a strategy from a heuristic without timing anything.
- ``MEASURE`` / ``PATIENT`` / ``EXHAUSTIVE`` time candidate strategies for an
  increasing number of trials and keep the fastest, exactly like FFTW's
  escalating search effort.

Two strategies exist for every problem:

``direct``
    Transform at the native size.
``padded``
    Zero-pad each axis to the next smooth length (products of 2/3/5/7) and
    transform at the padded size.  This is the paper's future-work "padding
    image tiles" optimization; whether it wins is decided empirically at
    planning time, as FFTW would.

Every plan executes through :func:`transform`, the package's one FFT
gateway (numpy's pocketfft, byte-identical to ``scipy.fft``).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
from numpy import fft as _pocketfft

from repro.fftlib.smooth import next_smooth_shape, pad_to_shape


class PlanningMode(Enum):
    """FFTW planning rigor levels (ordered by planning effort)."""

    ESTIMATE = "estimate"
    MEASURE = "measure"
    PATIENT = "patient"
    EXHAUSTIVE = "exhaustive"

    @property
    def trials(self) -> int:
        """Number of timing trials per candidate strategy."""
        return {"estimate": 0, "measure": 1, "patient": 3, "exhaustive": 5}[self.value]


class TransformKind(Enum):
    """Supported transform kinds.

    ``R2C``/``C2R`` are the paper's second future-work optimization
    (real-to-complex transforms halve both work and footprint).
    """

    C2C_FORWARD = "c2c_forward"
    C2C_INVERSE = "c2c_inverse"
    R2C = "r2c"
    C2R = "c2r"


@dataclass(frozen=True)
class PlanKey:
    """Identity of a planning problem: shape + kind (mode picks rigor only).

    ``shape`` is always the *spatial* problem shape ``(h, w)`` -- for
    ``C2R`` plans the executed input is the half-spectrum
    ``(h, w // 2 + 1)`` and ``shape`` names the real output, which is the
    information the inverse needs anyway (the half-spectrum alone cannot
    distinguish even from odd widths).
    """

    shape: tuple[int, ...]
    kind: TransformKind

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "kind": self.kind.value}

    @staticmethod
    def from_json(d: dict) -> "PlanKey":
        return PlanKey(tuple(d["shape"]), TransformKind(d["kind"]))


def spectrum_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Half-spectrum shape of a real array of ``shape`` (rfft2 output)."""
    return (*shape[:-1], shape[-1] // 2 + 1)


def transform(
    kind: TransformKind,
    a: np.ndarray,
    shape: tuple[int, ...],
    overwrite_input: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The one FFT gateway: run ``kind`` over the last two axes of ``a``.

    ``shape`` is the spatial problem shape (its last two entries are read;
    a leading batch axis is untouched).  ``overwrite_input`` lets the
    first pass run in place in ``a``; ``out`` receives the result (the
    real spatial surface for ``C2R``, the spectrum otherwise).

    Runs on numpy's C++ pocketfft one axis at a time, in the order
    ``scipy.fft``'s multi-axis transforms use and with the ``1/(h*w)``
    of an inverse applied where they apply it, so every spectrum and
    surface equals ``scipy.fft``'s byte for byte (``C2C`` input must be
    complex).  Each second pass runs in place, so a transform allocates
    at most its output -- plus, for a ``C2R`` that may not clobber its
    input, one spectrum-sized intermediate.
    """
    h, w = shape[-2:]
    if kind is TransformKind.R2C:
        spec = _pocketfft.rfft(a, axis=-1, out=out)
        return _pocketfft.fft(spec, axis=-2, out=spec)
    first = out if out is not None else (a if overwrite_input else None)
    if kind is TransformKind.C2C_FORWARD:
        spec = _pocketfft.fft(a, axis=-2, out=first)
        return _pocketfft.fft(spec, axis=-1, out=spec)
    # Inverses pass norm="forward" (no scaling of their own) and take
    # scipy's 1/(h*w): per component after the first pass for C2C, on the
    # real output for C2R.
    scale = 1.0 / (h * w)
    if kind is TransformKind.C2C_INVERSE:
        spec = _pocketfft.ifft(a, axis=-2, norm="forward", out=first)
        parts = spec.view(np.float64)
        np.multiply(parts, scale, out=parts)
        return _pocketfft.ifft(spec, axis=-1, norm="forward", out=spec)
    if kind is TransformKind.C2R:
        spec = _pocketfft.ifft(
            a, axis=-2, norm="forward", out=a if overwrite_input else None
        )
        real = _pocketfft.irfft(spec, n=w, axis=-1, norm="forward", out=out)
        real *= scale
        return real
    raise ValueError(kind)  # pragma: no cover - exhaustive enum


class Plan:
    """An executable FFT plan for one problem shape and transform kind.

    A plan owns its padded workspace (when the ``padded`` strategy won) so
    repeated executions allocate nothing beyond the transform output.  Plans
    are *not* thread-safe for concurrent execution because of the shared
    workspace; each pipeline thread should hold its own plan (as FFTW
    requires of its plan/buffer pairs), or pass ``reuse_workspace=False``.
    """

    def __init__(
        self,
        key: PlanKey,
        strategy: str,
        fft_shape: tuple[int, ...],
        planning_time: float = 0.0,
    ) -> None:
        if strategy not in ("direct", "padded"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.key = key
        self.strategy = strategy
        self.fft_shape = fft_shape
        self.planning_time = planning_time
        self.executions = 0
        self._workspace: np.ndarray | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Plan({self.key.shape}, {self.key.kind.value}, "
            f"strategy={self.strategy}, fft_shape={self.fft_shape})"
        )

    @property
    def input_shape(self) -> tuple[int, ...]:
        """Shape ``execute`` expects: half-spectrum for C2R, spatial else."""
        if self.key.kind is TransformKind.C2R:
            return spectrum_shape(self.key.shape)
        return self.key.shape

    def _padded_input(self, a: np.ndarray, reuse_workspace: bool) -> np.ndarray:
        if not reuse_workspace:
            return pad_to_shape(a, self.fft_shape)
        if self._workspace is None or self._workspace.dtype != a.dtype:
            self._workspace = np.zeros(self.fft_shape, dtype=a.dtype)
        return pad_to_shape(a, self.fft_shape, out=self._workspace)

    def execute(
        self,
        a: np.ndarray,
        reuse_workspace: bool = True,
        overwrite_input: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run the transform on ``a`` (shape must match the plan key).

        ``overwrite_input=True`` lets the transform run in place in ``a``
        (a ``C2C`` result then *is* ``a``); use it when ``a`` is scratch
        the caller owns, e.g. a workspace buffer refilled next pair.
        ``out`` receives the result instead of a fresh array -- a pair's
        ``C2R`` inverse lands in its workspace's spatial buffer.
        """
        if tuple(a.shape) != self.input_shape:
            raise ValueError(
                f"plan is for input shape {self.input_shape}, "
                f"got array of shape {a.shape}"
            )
        self.executions += 1
        kind = self.key.kind
        if self.strategy == "direct":
            return transform(
                kind, a, self.key.shape, overwrite_input=overwrite_input,
                out=out,
            )
        padded = self._padded_input(a, reuse_workspace)
        return transform(
            kind, padded, self.fft_shape, overwrite_input=True, out=out
        )


def _time_strategy(fn: Callable[[], np.ndarray], trials: int) -> float:
    """Best-of-``trials`` wall time for one candidate execution."""
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class PlanCache:
    """Caches plans per problem and holds wisdom (FFTW-style).

    The cache is thread-safe for plan *lookup/creation*; executing the
    returned plan concurrently from several threads is the caller's business
    (see :class:`Plan`).
    """

    def __init__(self) -> None:
        self._plans: dict[PlanKey, Plan] = {}
        self._wisdom: dict[PlanKey, str] = {}
        self._lock = threading.Lock()
        self.planning_seconds = 0.0
        #: Plan-lookup accounting: ``hits`` counts :meth:`plan` calls
        #: answered from the cache, ``misses`` counts plan creations.
        #: A warm worker serving its second same-geometry job shows
        #: hits > 0 and misses == 0 -- the amortization the service's
        #: persistent pools exist for.
        self.hits = 0
        self.misses = 0
        #: Per-problem lookup accounting (``PlanKey -> [hits, misses]``).
        #: Coarse-to-fine runs plan at two resolutions in one cache;
        #: the per-shape split is what proves the coarse-shape plans are
        #: being reused (and never cross-contaminate the full-resolution
        #: entries, which stay keyed separately).
        self._key_stats: dict[PlanKey, list[int]] = {}

    def __len__(self) -> int:
        return len(self._plans)

    def cached(
        self,
        shape: tuple[int, ...],
        kind: TransformKind = TransformKind.C2C_FORWARD,
    ) -> Plan | None:
        """Return the cached plan for ``shape``/``kind`` without creating one."""
        key = PlanKey(tuple(int(n) for n in shape), kind)
        with self._lock:
            return self._plans.get(key)

    def plan(
        self,
        shape: tuple[int, ...],
        kind: TransformKind = TransformKind.C2C_FORWARD,
        mode: PlanningMode = PlanningMode.ESTIMATE,
        allow_padding: bool = True,
    ) -> Plan:
        """Return (creating if needed) the plan for ``shape``/``kind``.

        Wisdom short-circuits planning: a problem whose strategy was already
        decided (by a previous plan call or imported wisdom) is never
        re-measured, which is how the paper amortizes its 4 min 20 s patient
        planning cost.

        ``allow_padding=False`` restricts planning to the shape-preserving
        ``direct`` strategy.  Callers that do their own padding and depend on
        the output shape (e.g. the correlation core, which must interpret
        peak coordinates modulo the transform size) must set this.
        """
        key = PlanKey(tuple(int(n) for n in shape), kind)
        with self._lock:
            counts = self._key_stats.setdefault(key, [0, 0])
            cached = self._plans.get(key)
            if cached is not None and not (
                allow_padding is False and cached.strategy != "direct"
            ):
                self.hits += 1
                counts[0] += 1
                return cached
            self.misses += 1
            counts[1] += 1
            if not allow_padding:
                plan = Plan(key, "direct", key.shape, planning_time=0.0)
                # Cache only if nothing better is already cached.
                self._plans.setdefault(key, plan)
                return plan
            plan = self._make_plan(key, mode)
            self._plans[key] = plan
            self._wisdom[key] = plan.strategy
            self.planning_seconds += plan.planning_time
            return plan

    def _make_plan(self, key: PlanKey, mode: PlanningMode) -> Plan:
        if key.kind is TransformKind.C2R:
            # Padding a half-spectrum is not shape-preserving in any useful
            # sense (the inverse must land exactly on the spatial key shape),
            # so C2R plans are always direct.
            return Plan(key, "direct", key.shape, planning_time=0.0)
        padded_shape = next_smooth_shape(key.shape)
        if key in self._wisdom:
            strategy = self._wisdom[key]
            fft_shape = padded_shape if strategy == "padded" else key.shape
            return Plan(key, strategy, fft_shape, planning_time=0.0)
        if mode is PlanningMode.ESTIMATE or padded_shape == key.shape:
            # Heuristic only: native size when already smooth, else direct
            # (FFTW estimate mode also never measures; it guesses).
            return Plan(key, "direct", key.shape, planning_time=0.0)

        t0 = time.perf_counter()
        trials = mode.trials
        dtype = np.complex128 if key.kind in (
            TransformKind.C2C_FORWARD, TransformKind.C2C_INVERSE
        ) else np.float64
        sample = np.ones(key.shape, dtype=dtype)
        direct = Plan(key, "direct", key.shape)
        padded = Plan(key, "padded", padded_shape)
        t_direct = _time_strategy(lambda: direct.execute(sample), trials)
        t_padded = _time_strategy(lambda: padded.execute(sample), trials)
        planning_time = time.perf_counter() - t0
        win = direct if t_direct <= t_padded else padded
        return Plan(key, win.strategy, win.fft_shape, planning_time=planning_time)

    def stats(self) -> dict:
        """JSON-able lookup accounting (entries, hits, misses).

        ``per_shape`` breaks the totals down by planning problem, one
        entry per ``(shape, kind)``, largest shape first -- in a
        coarse-to-fine run the full-resolution and coarse shapes appear
        as separate rows, each with its own hit/miss/execution counts.
        """
        with self._lock:
            per_shape = [
                {
                    "shape": list(key.shape),
                    "kind": key.kind.value,
                    "hits": counts[0],
                    "misses": counts[1],
                    "executions": (
                        self._plans[key].executions
                        if key in self._plans else 0
                    ),
                }
                for key, counts in sorted(
                    self._key_stats.items(),
                    key=lambda kv: (kv[0].shape, kv[0].kind.value),
                    reverse=True,
                )
            ]
            return {
                "entries": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "per_shape": per_shape,
            }

    # -- wisdom -----------------------------------------------------------

    def export_wisdom(self) -> str:
        """Serialize planning decisions to a JSON string."""
        with self._lock:
            entries = [
                {"key": k.to_json(), "strategy": v} for k, v in self._wisdom.items()
            ]
        return json.dumps({"version": 1, "wisdom": entries})

    def import_wisdom(self, blob: str) -> int:
        """Load wisdom previously produced by :meth:`export_wisdom`.

        Returns the number of entries imported.  Imported wisdom wins over
        nothing (existing entries are kept), matching FFTW semantics where
        wisdom accumulates.
        """
        data = json.loads(blob)
        if data.get("version") != 1:
            raise ValueError("unsupported wisdom version")
        n = 0
        with self._lock:
            for entry in data["wisdom"]:
                key = PlanKey.from_json(entry["key"])
                if key not in self._wisdom:
                    self._wisdom[key] = entry["strategy"]
                    n += 1
        return n


_default_cache = PlanCache()


def default_cache() -> PlanCache:
    """Process-wide plan cache used by :mod:`repro.fftlib.transforms`."""
    return _default_cache
