"""The service's job model: what a client submits, what the server tracks.

A :class:`JobSpec` is the client-facing request -- which dataset to
stitch, under which tenant, at what priority, with which (whitelisted)
stitcher options.  A :class:`JobRecord` is the server-side lifecycle
object wrapped around it: state machine, attempt counter, timestamps and
the eventual result summary.  Records are what every endpoint serializes.

Two job shapes exist, mirroring the workloads a real plate-scanning
service sees:

- **full** jobs run phases 1-3 (registration + solve, optional compose);
- **parameter-reuse** jobs (``reuse_positions_from``) skip registration
  entirely and apply a completed job's solved positions to another
  channel/plane of the same scan -- the cheap job shape multi-channel
  acquisition produces (see ``Stitcher.stitch_channels``).
"""

from __future__ import annotations

import re
import uuid
from dataclasses import dataclass, field, fields
from enum import Enum
from numbers import Integral
from typing import Any

from repro.core.options import StitchOptions, check_number
from repro.faults.plan import parse_fault_spec

#: The options a job spec may set: the service's exposure policy, by
#: name.  What the stitch options among them mean, default to and
#: accept is :class:`~repro.core.options.StitchOptions`'s business
#: (values are validated through its ``from_flat`` at submission).
#: Everything else -- tracing, checkpoint paths, the scheduler and its
#: worker count -- is owned by the service (the
#: checkpoint directory in particular *is* the job's durability story
#: and must not be client-controlled).
ALLOWED_OPTIONS = frozenset({
    "position_method",
    "subpixel",
    "n_peaks",
    "max_retries",
    "on_tile_error",
    "quality",
    "conf_thresh",
    "residue_mode",
    "min_peak_ratio",
    "refine",
    "coarse",
    "coarse_scale",
    "coarse_conf_thresh",
    #: Out-of-core composition: hard byte budget for the compose stage
    #: (stripe buffers + LRU tile cache), and streamed 2x pyramid levels
    #: written next to the output mosaic.
    "memory_budget",
    "pyramid_levels",
})

#: The two allowed options that configure the compose stage rather than
#: the stitch, with the smallest value each admits (``None`` = unset).
COMPOSE_OPTIONS = {"memory_budget": 1, "pyramid_levels": 0}


def stitch_keys_of(options: dict) -> dict:
    """The stitch options of a job's ``options`` (compose keys dropped)."""
    return {k: v for k, v in options.items() if k not in COMPOSE_OPTIONS}

#: Output blend modes a job may request for its optional mosaic.
#: All four stream bit-identically to the in-memory path (LINEAR
#: feathering normalizes per stripe, the row-restriction of the global
#: computation).
ALLOWED_BLENDS = ("overlay", "average", "maximum", "linear")

_TENANT_RE = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")
_JOB_ID_RE = re.compile(r"^[a-f0-9]{12}$")


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: Terminal isolation state: the job's attempts killed too many
    #: workers (poison input); it is never requeued and carries a
    #: structured post-mortem instead of a result.
    QUARANTINED = "quarantined"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED,
                        JobState.QUARANTINED)


def new_job_id() -> str:
    return uuid.uuid4().hex[:12]


@dataclass(frozen=True)
class JobSpec:
    """A validated stitch request.

    ``priority`` is an integer in [0, 9]; higher runs first.  ``tenant``
    names the admission-control bucket.  ``deadline_seconds`` is the
    per-job watchdog budget (None = the pool default);
    ``retry_budget`` is how many times the service may re-queue the job
    after a worker death or watchdog kill before declaring it failed.
    """

    dataset: str
    tenant: str = "default"
    priority: int = 0
    options: dict = field(default_factory=dict)
    #: Completed job id whose solved positions this job applies
    #: (parameter-reuse: phase 3 only, no registration).
    reuse_positions_from: str | None = None
    #: Optional mosaic output path (streamed TIFF) and blend mode.
    output: str | None = None
    blend: str = "overlay"
    #: ``SEED[:kind=count,...]`` fault-injection spec (testing/chaos).
    inject_faults: str | None = None
    deadline_seconds: float | None = None
    retry_budget: int = 1

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ValueError("job spec needs a dataset path")
        if not _TENANT_RE.match(self.tenant):
            raise ValueError(
                f"tenant must match {_TENANT_RE.pattern}, got {self.tenant!r}"
            )
        if not 0 <= int(self.priority) <= 9:
            raise ValueError(f"priority must be in [0, 9], got {self.priority}")
        if not isinstance(self.options, dict):
            raise ValueError(
                f"options must be a JSON object, got {self.options!r}"
            )
        unknown = set(self.options) - ALLOWED_OPTIONS
        if unknown:
            raise ValueError(
                f"unknown job options {sorted(unknown)} "
                f"(allowed: {sorted(ALLOWED_OPTIONS)})"
            )
        # A bad value is refused here (HTTP 400), not after phase 1.
        StitchOptions.from_flat(stitch_keys_of(self.options))
        for key, minimum in COMPOSE_OPTIONS.items():
            if self.options.get(key) is not None:
                check_number(key, self.options[key], Integral, minimum)
        if self.inject_faults is not None:
            parse_fault_spec(self.inject_faults)
        if self.blend not in ALLOWED_BLENDS:
            raise ValueError(
                f"blend must be one of {ALLOWED_BLENDS}, got {self.blend!r}"
            )
        if self.reuse_positions_from is not None and not _JOB_ID_RE.match(
            self.reuse_positions_from
        ):
            raise ValueError(
                f"reuse_positions_from must be a job id, "
                f"got {self.reuse_positions_from!r}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {self.retry_budget}")

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        """Build a spec from a request body, rejecting unknown keys."""
        if not isinstance(payload, dict):
            raise ValueError("job spec must be a JSON object")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown job spec keys {sorted(unknown)}")
        kwargs: dict[str, Any] = dict(payload)
        if "priority" in kwargs:
            kwargs["priority"] = int(kwargs["priority"])
        if "retry_budget" in kwargs:
            kwargs["retry_budget"] = int(kwargs["retry_budget"])
        if "options" in kwargs and kwargs["options"] is None:
            kwargs["options"] = {}
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["options"] = dict(self.options)
        return out


@dataclass
class JobRecord:
    """Server-side lifecycle of one submitted job.

    State transitions (enforced by :meth:`transition`)::

        queued -> running -> done | failed | cancelled | quarantined
        running -> queued            (requeue after worker death/kill)
        queued -> cancelled

    ``attempts`` counts executions started; a job whose worker died
    ``retry_budget`` times fails rather than requeueing forever, and a
    job attributed ``quarantine_threshold`` worker deaths is quarantined
    with a post-mortem regardless of remaining budget.
    """

    spec: JobSpec
    id: str = field(default_factory=new_job_id)
    state: JobState = JobState.QUEUED
    #: Monotonic submission sequence number, assigned by the queue --
    #: the FIFO key within a (tenant, priority) lane.
    seq: int = -1
    attempts: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    worker: int | None = None
    error: str | None = None
    #: Exception class name for worker-reported failures (structured
    #: error detail; the flat ``error`` string keeps the full message).
    error_type: str | None = None
    #: Worker-reported summary (pairs, timings, transform-ledger hits, journal).
    result: dict | None = None
    cancel_requested: bool = False
    #: Per-attempt worker-death records (signal, cause, clock) filled in
    #: by the pool's poison tracker.
    death_events: list = field(default_factory=list)
    #: Quarantine post-mortem (deaths, signals, last journal milestone).
    post_mortem: dict | None = None
    #: Journal milestone the job had durably reached when it failed.
    last_milestone: str | None = None
    #: Brownout degradations applied at admission: ["skip_compose"] when
    #: a browned-out ``degrade`` service dropped the job's output, else [].
    degraded_by_brownout: list = field(default_factory=list)

    _VALID = {
        JobState.QUEUED: (JobState.RUNNING, JobState.CANCELLED),
        JobState.RUNNING: (
            JobState.DONE, JobState.FAILED, JobState.CANCELLED,
            JobState.QUEUED, JobState.QUARANTINED,
        ),
        JobState.DONE: (),
        JobState.FAILED: (),
        JobState.CANCELLED: (),
        JobState.QUARANTINED: (),
    }

    def transition(self, to: JobState) -> None:
        if to not in self._VALID[self.state]:
            raise ValueError(f"illegal job transition {self.state} -> {to}")
        self.state = to

    def error_detail(self) -> dict | None:
        """Structured failure report for the status endpoint.

        ``None`` for healthy jobs; for failed/quarantined ones the
        client gets machine-usable fields -- exception type, the last
        journal milestone the run durably reached, the attempt count and
        every attributed worker-death signal -- instead of a flat
        message it would have to parse.
        """
        if self.error is None and not self.death_events:
            return None
        detail = {
            "error": self.error,
            "type": self.error_type,
            "attempts": self.attempts,
            "last_milestone": self.last_milestone,
            "death_signals": [
                e["signal"] if isinstance(e, dict) else e.signal
                for e in self.death_events
            ],
        }
        if self.post_mortem is not None:
            detail["post_mortem"] = self.post_mortem
        return detail

    def to_dict(self) -> dict:
        """JSON payload for the status endpoint."""
        return {
            "id": self.id,
            "state": self.state.value,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "dataset": self.spec.dataset,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "worker": self.worker,
            "error": self.error,
            "error_detail": self.error_detail(),
            "result": self.result,
            "degraded_by_brownout": list(self.degraded_by_brownout),
            "spec": self.spec.to_dict(),
        }
