"""The options of a stitch: declared, defaulted, coerced and validated once.

:class:`StitchOptions` is the only place that says which options a
stitch has.  Every surface spells them with the same flat keys and
builds the value through :meth:`StitchOptions.from_flat` --
``Stitcher(**flat)``, the ``repro stitch`` flags (``dest=`` names are
the flat keys), a service job's ``options`` object -- so a bad value is
refused where it enters (constructor, ``argparse``, ``POST /jobs``)
rather than after phase 1 has run.  Runtime resources (tracer, metrics
registry, checkpoint directory) are not options; they stay
:class:`~repro.core.stitcher.Stitcher` arguments.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real

from repro.core.coarse import CoarseConfig
from repro.core.pciam import CcfMode, smooth_fft_shape
from repro.core.quality_gate import RESIDUE_MODES, QualityConfig  # noqa: F401 -- RESIDUE_MODES re-exported (CLI choices)
from repro.grid.traversal import Traversal
from repro.recovery.journal import dataset_fingerprint

#: The phase-1 schedulers by name, and which of the options a scheduler
#: (rather than the kernel) has to honour each one can: ``watchdog``
#: supervision (the CPU presets watch their tile reads from threads they
#: can abandon, Pipelined-GPU its stages; Fiji-baseline and Simple-GPU
#: run on the caller's thread, which cannot supervise itself).  Every
#: other option -- ``traversal`` included -- works under all of them.
#: The classes live in :mod:`repro.impls`, imported only when a
#: non-default one is selected.
SCHEDULERS: dict[str, frozenset[str]] = {
    "simple-cpu": frozenset({"watchdog"}),
    "fiji-baseline": frozenset(),
    "mt-cpu": frozenset({"watchdog"}),
    "pipelined-cpu": frozenset({"watchdog"}),
    "simple-gpu": frozenset(),
    "pipelined-gpu": frozenset({"watchdog"}),
}

#: What :func:`scheduler_options` reads off the default scheduler, stated
#: so that validating its options imports no scheduler.
DEFAULT_SCHEDULER_OPTIONS = ["watchdog"]

#: Undecided, coarse-to-fine registration runs from this many pixels per
#: tile (:meth:`StitchOptions.coarse_for`).  Measured by ``python
#: benchmarks/bench_phase1_hotpath.py --coarse-corpus`` (3x3 grids, three
#: specimens x three overlaps x two seeds per tile shape), coarse phase-1
#: time over full PCIAM's, corpus median with the sparse specimen's
#: fallback-heavy frames included: 128 px tiles (16 Ki px) 1.49x, 256 px
#: (64 Ki) 1.14x, 348x260 (88 Ki) 0.92x, 384 px (144 Ki) 1.18x, 448 px
#: (196 Ki) 0.92x, 512 px (256 Ki) 0.87x, 696x520 (353 Ki) 0.71x.  The
#: gate admits only sizes whose median is a clear win (<= 0.75x): the
#: paper's 696x520 camera tile and up (docs/PERFORMANCE.md,
#: "Coarse-to-fine registration").
COARSE_MIN_TILE_PIXELS = 320 * 1024

POSITION_METHODS = ("mst", "least_squares")
TILE_ERROR_POLICIES = ("abort", "skip")

#: Flat keys that are sugar for one field of a nested config; naming any
#: of them turns the feature on (``quality`` / ``coarse``), bar
#: ``refine=False`` (``refine`` is ``quality.refine``, the gate's repair).
QUALITY_KNOBS = ("conf_thresh", "residue_mode", "min_peak_ratio", "refine")
COARSE_KNOBS = ("coarse_scale", "coarse_conf_thresh")


def schedulers_honouring(option: str) -> list[str]:
    """Names of the schedulers that can honour ``option``."""
    return sorted(name for name, can in SCHEDULERS.items() if option in can)


def scheduler_options(impl: str) -> list[str]:
    """The ``impl_options`` keys scheduler ``impl`` takes, read off its
    constructor chain (``traversal`` is an option of the stitch itself and
    the kernel is built by ``Stitcher``, so neither counts)."""
    from repro.impls import ALL_IMPLEMENTATIONS

    names: set[str] = set()
    for cls in ALL_IMPLEMENTATIONS[impl].__mro__:
        init = cls.__dict__.get("__init__")
        if init is None:
            continue
        params = list(inspect.signature(init).parameters.values())
        names.update(
            p.name for p in params
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            break  # no ``**kw`` handed further up the chain
    return sorted(names - {"self", "kernel", "traversal"})


def check_number(name: str, value, kind=Real, minimum=None) -> None:
    """``value`` is a ``kind`` (never a bool or a string) and ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is Integral else "a number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        raise ValueError(
            f"unknown {name} {value!r} (use "
            f"{' or '.join(repr(c) for c in choices)})"
        )


def _enum(name: str, value, cls):
    """``value`` as a member of enum ``cls`` (a member or its string value)."""
    try:
        return cls(value)
    except ValueError:
        raise ValueError(
            f"unknown {name} {value!r} (use one of {[m.value for m in cls]})"
        ) from None


def _switch(name: str, value, cls):
    """A feature switch: ``True`` -> default ``cls()``, off -> ``None``."""
    if value is None or value is False:
        return None
    if value is True:
        return cls()
    if isinstance(value, cls):
        return value
    raise ValueError(
        f"{name} must be true, false or a {cls.__name__}, got {value!r}"
    )


@dataclass(frozen=True)
class StitchOptions:
    """What a stitch computes and how; frozen, validated at construction.

    ``quality`` takes ``True`` for the default config, a config object
    for tuned behaviour, or ``None``/``False`` for off (the default --
    results stay bit-identical to runs without the feature).
    ``coarse`` takes the same values, except that its default ``None``
    means undecided: the tile shape decides (:meth:`coarse_for`), and
    only ``False`` turns it off at every size.  ``traversal`` /
    ``ccf_mode`` also take the enum's string value.  ``impl`` names the
    phase-1 scheduler (a key of :data:`SCHEDULERS`) and ``impl_options``
    carries that scheduler's own constructor arguments; an option the
    chosen scheduler cannot honour raises ``ValueError`` rather than being dropped, and so does
    a ``quality.residue_mode`` under a ``position_method`` other than
    ``"least_squares"``, the only solve that damps residues.
    """

    traversal: Traversal = Traversal.CHAINED_DIAGONAL
    ccf_mode: CcfMode = CcfMode.EXTENDED
    n_peaks: int = 2
    #: Half-spectrum R2C/C2R transforms; off is the paper's verbatim
    #: complex scheme (same answers, twice the work and footprint).
    real_transforms: bool = True
    subpixel: bool = False
    pad_to_smooth: bool = False
    position_method: str = "mst"
    #: Phase-2 quality gate and its repair step (docs/ROBUSTNESS.md).
    quality: QualityConfig | None = None
    #: Two-pass coarse-to-fine registration (docs/PERFORMANCE.md):
    #: ``None`` = from :data:`COARSE_MIN_TILE_PIXELS` up, ``False`` = never.
    coarse: CoarseConfig | bool | None = None
    max_retries: int = 0
    retry_backoff: float = 0.05
    on_tile_error: str = "abort"
    impl: str = "simple-cpu"
    impl_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, cls in (("traversal", Traversal), ("ccf_mode", CcfMode)):
            object.__setattr__(self, name, _enum(name, getattr(self, name), cls))
        for name, cls in (("quality", QualityConfig), ("coarse", CoarseConfig)):
            value = getattr(self, name)
            if not (name == "coarse" and value is False):
                object.__setattr__(self, name, _switch(name, value, cls))
        object.__setattr__(self, "impl_options", dict(self.impl_options or {}))
        for name in ("real_transforms", "subpixel", "pad_to_smooth"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(
                    f"{name} must be true or false, got {getattr(self, name)!r}"
                )
        check_number("n_peaks", self.n_peaks, Integral, 1)
        check_number("max_retries", self.max_retries, Integral, 0)
        check_number("retry_backoff", self.retry_backoff, Real, 0)
        _check_choice("position_method", self.position_method, POSITION_METHODS)
        _check_choice("on_tile_error", self.on_tile_error, TILE_ERROR_POLICIES)
        damping = self.quality.residue_mode if self.quality else "none"
        if damping != "none" and self.position_method != "least_squares":
            raise ValueError(
                f"residue_mode {damping!r} needs position_method 'least_squares' "
                f"(got {self.position_method!r}: that solve damps no residue)"
            )
        if self.impl not in SCHEDULERS:
            raise ValueError(
                f"unknown impl {self.impl!r} (choose from {sorted(SCHEDULERS)})"
            )
        if self.impl_options:
            accepted = (DEFAULT_SCHEDULER_OPTIONS if self.impl == "simple-cpu"
                        else scheduler_options(self.impl))
            for key in self.impl_options:
                if key not in accepted:
                    raise ValueError(
                        f"impl {self.impl!r} has no option {key!r} "
                        f"(it accepts {accepted})"
                    )
        if (self.impl_options.get("watchdog") is not None
                and "watchdog" not in SCHEDULERS[self.impl]):
            raise ValueError(
                f"impl {self.impl!r} cannot honour watchdog; "
                f"use one of {schedulers_honouring('watchdog')}"
            )

    @classmethod
    def from_flat(cls, flat: dict) -> "StitchOptions":
        """Options from the flat spelling every outside surface uses.

        Keys are the field names plus the convenience knobs
        (:data:`QUALITY_KNOBS`, :data:`COARSE_KNOBS`); a knob that is
        not ``None`` overrides that field of the ``quality`` / ``coarse``
        config and turns the feature on, whatever the switch says.
        ``coarse_scale`` is the feabas-style fractional scale (0.5 ->
        factor 2) and keeps the config's other fields.
        """
        flat = dict(flat)
        unknown = sorted(set(flat) - FLAT_KEYS)
        if unknown:
            raise TypeError(
                f"unknown stitch options {unknown} (known: {sorted(FLAT_KEYS)})"
            )
        knobs = {
            key: value
            for key in QUALITY_KNOBS + COARSE_KNOBS
            if (value := flat.pop(key, None)) is not None
        }
        for key, value in knobs.items():
            if key == "refine" and not isinstance(value, bool):
                raise ValueError(f"refine must be true or false, got {value!r}")
            if key not in ("refine", "residue_mode"):
                check_number(key, value)
        if knobs.get("refine") is False:
            del knobs["refine"]
        options = cls(**flat)
        quality = {k: knobs[k] for k in QUALITY_KNOBS if k in knobs}
        coarse = {}
        if "coarse_scale" in knobs:
            coarse["factor"] = CoarseConfig.from_scale(
                knobs["coarse_scale"]).factor
        if "coarse_conf_thresh" in knobs:
            coarse["conf_thresh"] = knobs["coarse_conf_thresh"]
        if quality:
            options = replace(options, quality=replace(
                options.quality or QualityConfig(), **quality))
        if coarse:
            options = replace(options, coarse=replace(
                options.coarse or CoarseConfig(), **coarse))
        return options

    def fft_shape(self, tile_shape) -> tuple[int, int] | None:
        """Transform shape for ``tile_shape`` tiles; ``None`` = unpadded."""
        return smooth_fft_shape(tile_shape) if self.pad_to_smooth else None

    def coarse_for(self, tile_shape) -> CoarseConfig | None:
        """The coarse-to-fine config a stitch of ``tile_shape`` tiles runs;
        ``None`` = full PCIAM.  Undecided, the default config from
        :data:`COARSE_MIN_TILE_PIXELS` up."""
        if self.coarse is None:
            h, w = tile_shape
            return CoarseConfig() if h * w >= COARSE_MIN_TILE_PIXELS else None
        return self.coarse or None

    def fingerprint_options(self, tile_shape=None) -> dict:
        """The result-affecting options, as a journal header records them.

        Half-spectrum transforms, retries and the scheduler choice are
        deliberately excluded: every scheduler produces identical
        displacements with either transform scheme, so a run
        checkpointed under one may resume under another.  Coarse-to-fine
        registration *is* fingerprinted, as the config the tile shape
        resolves it to (:meth:`coarse_for`; undecided without a tile
        shape, ``None``): its refinement probes a subset of the full
        candidate contest, so its correlations are not interchangeable
        with single-pass values.  So below :data:`COARSE_MIN_TILE_PIXELS`
        an undecided run and a ``coarse=False`` one write the same header,
        while from it up a journal written under ``coarse=False`` (full
        PCIAM, the default before coarse-to-fine was) is refused by an
        undecided resume, naming ``options.coarse``, and resumes under
        ``coarse=False``.  Journals written before the option existed
        match a full-PCIAM resume (absent key and ``None`` compare equal).
        """
        fft_shape = None if tile_shape is None else self.fft_shape(tile_shape)
        coarse = (
            (self.coarse or None) if tile_shape is None
            else self.coarse_for(tile_shape)
        )
        return {
            "ccf_mode": self.ccf_mode.value,
            "n_peaks": int(self.n_peaks),
            "subpixel": self.subpixel,
            "fft_shape": list(fft_shape) if fft_shape is not None else None,
            "position_method": self.position_method,
            "refine": bool(self.quality and self.quality.refine),
            "coarse": coarse.to_fingerprint() if coarse is not None else None,
        }

    def fingerprint(self, dataset) -> dict:
        """The identity a journal of this run over ``dataset`` is bound to."""
        return {
            "dataset": dataset_fingerprint(dataset),
            "options": self.fingerprint_options(dataset.tile_shape),
        }


#: Every key :meth:`StitchOptions.from_flat` accepts: the fields plus the knobs.
FLAT_KEYS = frozenset(f.name for f in fields(StitchOptions)).union(
    QUALITY_KNOBS, COARSE_KNOBS
)
