"""Service resilience: quarantine, circuit breaking, load shedding, disk budget.

The service layer (PR 7) made the stitcher a standing multi-tenant
server, but its failure handling was still per-incident: a worker death
meant an unconditional respawn and a requeue, repeated until the job's
retry budget ran out.  That policy is correct for *transient* deaths
(a stray OOM kill, a test's SIGKILL) and catastrophic for *systematic*
ones -- a job whose input deterministically crashes the worker burns a
fresh process per attempt, and a burst of deaths turns the pool into a
fork bomb with a queue attached.  Wang et al.'s hybrid pathology
pipeline (PAPERS.md) frames the fix: a shared data-processing service
survives on *isolation of bad inputs* and *graceful degradation under
load*, not on per-request heroics.

Four cooperating mechanisms, all deterministic under injected clocks:

- :class:`PoisonTracker` -- per-job worker-death attribution.  After
  ``quarantine_threshold`` deaths attributable to the same job, the job
  is **quarantined**: a terminal state with a structured post-mortem
  (attempts, per-attempt death signals, the last journal milestone the
  job reached) instead of another respawn/requeue cycle.
- :class:`CircuitBreaker` -- a sliding-window breaker over worker
  deaths.  Too many deaths per unit time trips the pool OPEN (no
  dispatch); after a cooldown it goes HALF_OPEN and admits **one canary
  job at a time**; a canary surviving its run closes the breaker, a
  canary death re-opens it with doubled (capped) cooldown.  Respawn
  pacing uses capped exponential backoff with deterministic jitter so
  a crash loop cannot hot-spin fork().
- :class:`LoadShedder` -- brownout policy over queue depth, service-time
  EWMA and worker availability.  Crossing the soft threshold reports
  ``degraded`` and sheds the lowest-priority submissions with an honest
  ``Retry-After``; crossing the hard threshold reports ``browned_out``
  and sheds more aggressively, optionally *degrading* admitted jobs
  (auto-enable coarse registration, skip compose output) instead of
  rejecting them outright.
- :class:`SpoolBudget` -- a byte budget over the spool/journal/output
  tree.  Admissions that would exceed it are rejected (429,
  ``spool_budget``) before they can wedge a worker on a full disk;
  mid-run ``ENOSPC`` surfaces as a clean
  :class:`~repro.recovery.journal.JournalWriteError` job failure.

Everything is observable: ``service.breaker_state`` /
``service.quarantined_jobs`` / ``service.shed_requests`` /
``service.spool_bytes`` metrics, breaker and quarantine transitions as
zero-width tracer spans on the ``service`` track, and ``/healthz``
reporting ``ok | degraded | browned_out`` with reasons.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from random import Random

from repro.service.queue import AdmissionRejected

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "BrownoutPolicy",
    "CircuitBreaker",
    "DeathEvent",
    "HealthReport",
    "LoadShedder",
    "PoisonTracker",
    "ResilienceConfig",
    "SpoolBudget",
    "SpoolBudgetExceeded",
]


# -- circuit breaker ---------------------------------------------------------


class BreakerState(str, Enum):
    CLOSED = "closed"        # normal dispatch
    OPEN = "open"            # no dispatch until the cooldown elapses
    HALF_OPEN = "half_open"  # one canary job at a time

    @property
    def gauge_value(self) -> int:
        """Numeric encoding for the ``service.breaker_state`` gauge."""
        return {"closed": 0, "half_open": 1, "open": 2}[self.value]


@dataclass(frozen=True)
class BreakerConfig:
    """Crash-loop breaker thresholds.

    ``death_threshold`` deaths within ``window_seconds`` trip the
    breaker OPEN.  ``cooldown_seconds`` is the first OPEN interval;
    every canary death doubles it up to ``max_cooldown_seconds``.
    ``respawn_base``/``respawn_cap`` bound the per-slot exponential
    respawn backoff; ``jitter`` is the randomized fraction of each
    backoff (0 = fully deterministic, 0.5 = up to half the delay), drawn
    from a ``seed``-ed stream so tests replay exactly.
    """

    death_threshold: int = 3
    window_seconds: float = 30.0
    cooldown_seconds: float = 1.0
    max_cooldown_seconds: float = 30.0
    respawn_base: float = 0.05
    respawn_cap: float = 5.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.death_threshold < 1:
            raise ValueError(
                f"death_threshold must be >= 1, got {self.death_threshold}"
            )
        if self.window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be > 0, got {self.window_seconds}"
            )
        if self.cooldown_seconds < 0 or self.max_cooldown_seconds < 0:
            raise ValueError("cooldowns must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")


class CircuitBreaker:
    """Sliding-window crash-loop breaker with half-open canary probing.

    Thread-safe; driven by the pool's dispatcher threads.  The state
    machine::

        CLOSED --(>= threshold deaths in window)--> OPEN
        OPEN   --(cooldown elapsed)--------------> HALF_OPEN
        HALF_OPEN --(canary survives)------------> CLOSED
        HALF_OPEN --(canary's worker dies)-------> OPEN (cooldown doubled)

    ``acquire()`` is the dispatch gate: it returns ``"normal"`` when
    closed, ``"canary"`` for exactly one caller when half-open, and
    ``None`` (caller should wait briefly and retry) otherwise.
    """

    def __init__(self, config: BreakerConfig | None = None,
                 clock=time.monotonic, metrics=None, tracer=None) -> None:
        self.config = config or BreakerConfig()
        self.clock = clock
        self.metrics = metrics
        self.tracer = tracer
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._deaths: deque[float] = deque()
        self._opened_at: float | None = None
        self._cooldown = self.config.cooldown_seconds
        self._canary_out = False
        self._rng = Random(self.config.seed)
        self.trips = 0
        self.canary_successes = 0
        self.canary_failures = 0
        self._publish(self._state)

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        """OPEN -> HALF_OPEN once the cooldown elapses (lock held)."""
        if (
            self._state is BreakerState.OPEN
            and self._opened_at is not None
            and self.clock() - self._opened_at >= self._cooldown
        ):
            self._transition(BreakerState.HALF_OPEN)

    def _transition(self, to: BreakerState) -> None:
        if to is self._state:
            return
        self._state = to
        self._publish(to)

    def _publish(self, state: BreakerState) -> None:
        if self.metrics is not None:
            self.metrics.gauge("service.breaker_state").set(state.gauge_value)
        if self.tracer is not None:
            t = self.tracer.now()
            self.tracer.record_span(
                f"breaker:{state.value}", "service", t, t,
                args={"state": state.value},
            )

    # -- events --------------------------------------------------------------

    def record_death(self) -> None:
        """One worker death; may trip the breaker."""
        with self._lock:
            now = self.clock()
            self._deaths.append(now)
            horizon = now - self.config.window_seconds
            while self._deaths and self._deaths[0] < horizon:
                self._deaths.popleft()
            if self._state is BreakerState.HALF_OPEN and self._canary_out:
                # The canary's worker died: the fault is still live.
                self._canary_out = False
                self.canary_failures += 1
                self._cooldown = min(
                    self.config.max_cooldown_seconds, self._cooldown * 2
                )
                self._opened_at = now
                self._transition(BreakerState.OPEN)
                self._count("service.breaker_reopened")
                return
            if (
                self._state is BreakerState.CLOSED
                and len(self._deaths) >= self.config.death_threshold
            ):
                self.trips += 1
                self._opened_at = now
                self._cooldown = self.config.cooldown_seconds
                self._transition(BreakerState.OPEN)
                self._count("service.breaker_trips")

    def record_success(self) -> None:
        """A job completed without killing its worker."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN and self._canary_out:
                self._canary_out = False
                self.canary_successes += 1
                self._cooldown = self.config.cooldown_seconds
                self._deaths.clear()
                self._transition(BreakerState.CLOSED)
                self._count("service.breaker_closed")

    # -- dispatch gate -------------------------------------------------------

    def acquire(self) -> str | None:
        """Dispatch permission: ``"normal"``, ``"canary"`` or ``None``."""
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return "normal"
            if self._state is BreakerState.HALF_OPEN and not self._canary_out:
                self._canary_out = True
                return "canary"
            return None

    def release(self, permit: str | None, died: bool) -> None:
        """Settle a dispatch permit.

        Death accounting happens in :meth:`record_death` (the pool calls
        it from the death path with the job in hand); here the canary
        slot is freed and a surviving canary closes the breaker.
        """
        if permit != "canary":
            return
        if died:
            return  # record_death already handled the reopen
        self.record_success()

    def abandon(self, permit: str | None) -> None:
        """Return an unused permit (queue was empty)."""
        if permit != "canary":
            return
        with self._lock:
            self._canary_out = False

    # -- respawn pacing ------------------------------------------------------

    def respawn_backoff(self, consecutive_deaths: int) -> float:
        """Seconds to wait before respawning after the Nth consecutive
        death on one slot: capped exponential plus deterministic jitter.

        The jittered fraction decorrelates slots so a pool-wide crash
        does not respawn every worker on the same tick.
        """
        n = max(1, int(consecutive_deaths))
        base = min(
            self.config.respawn_cap,
            self.config.respawn_base * (2 ** (n - 1)),
        )
        if self.config.jitter <= 0:
            return base
        with self._lock:
            frac = self._rng.random()
        return base * (1.0 - self.config.jitter + self.config.jitter * frac)

    def snapshot(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state.value,
                "trips": self.trips,
                "canary_successes": self.canary_successes,
                "canary_failures": self.canary_failures,
                "deaths_in_window": len(self._deaths),
                "cooldown_seconds": self._cooldown,
            }

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()


# -- poison-job quarantine ---------------------------------------------------


@dataclass(frozen=True)
class DeathEvent:
    """One worker death attributed to a job attempt."""

    attempt: int
    signal: str          # "SIGKILL", "SIGSEGV", "exit(1)", "unknown"
    cause: str           # "worker_death" | "deadline"
    at: float            # pool clock timestamp

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt, "signal": self.signal,
            "cause": self.cause, "at": self.at,
        }


def describe_exit(exitcode: int | None) -> str:
    """Human name for a worker's exit code (negative = killed by signal)."""
    if exitcode is None:
        return "unknown"
    if exitcode < 0:
        try:
            import signal as _signal

            return _signal.Signals(-exitcode).name
        except ValueError:
            return f"signal {-exitcode}"
    return f"exit({exitcode})"


class PoisonTracker:
    """Per-job worker-death attribution and quarantine decision.

    A job whose attempts have killed ``threshold`` workers is *poison*:
    retrying it buys nothing and costs a warm worker (plus its plan
    cache) every time.  The tracker remembers each death per job id and
    answers the only question the pool needs: "has this job earned
    quarantine?"
    """

    def __init__(self, threshold: int = 3, clock=time.monotonic) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.clock = clock
        self._lock = threading.Lock()
        self._deaths: dict[str, list[DeathEvent]] = {}

    def record_death(self, job_id: str, attempt: int, signal: str,
                     cause: str = "worker_death") -> bool:
        """Attribute one death; returns True when the job is now poison."""
        with self._lock:
            events = self._deaths.setdefault(job_id, [])
            events.append(DeathEvent(attempt, signal, cause, self.clock()))
            return len(events) >= self.threshold

    def deaths(self, job_id: str) -> list[DeathEvent]:
        with self._lock:
            return list(self._deaths.get(job_id, ()))

    def forget(self, job_id: str) -> None:
        """Drop attribution (job reached a terminal state)."""
        with self._lock:
            self._deaths.pop(job_id, None)

    def post_mortem(self, job_id: str, journal_path=None) -> dict:
        """Structured quarantine report: what killed how many workers,
        and how far the job durably got before each death."""
        events = self.deaths(job_id)
        report = {
            "job_id": job_id,
            "worker_deaths": len(events),
            "threshold": self.threshold,
            "death_signals": [e.signal for e in events],
            "deaths": [e.to_dict() for e in events],
            "last_milestone": None,
            "journaled_pairs": 0,
        }
        if journal_path is not None:
            from repro.recovery.journal import load_journal

            state = load_journal(journal_path)
            if state.milestones:
                report["last_milestone"] = next(
                    reversed(state.milestones)
                )
            report["journaled_pairs"] = len(state.pairs)
        return report


# -- load shedding / brownout ------------------------------------------------


@dataclass(frozen=True)
class BrownoutPolicy:
    """Declared overload behaviour.

    ``mode``
        ``"off"`` -- never shed (report-only health);
        ``"shed"`` -- reject low-priority submissions when overloaded;
        ``"degrade"`` -- shed *and* degrade admitted jobs while browned
        out (force coarse registration, drop compose output) so the pool
        spends less per job instead of queueing more debt.
    ``degraded_depth`` / ``brownout_depth``
        queue-depth fractions (of ``max_depth``) that mark the service
        degraded / browned out.
    ``shed_priority_degraded`` / ``shed_priority_brownout``
        submissions with priority *strictly below* these floors are shed
        in the respective state -- lowest-priority tenants go first.
    ``ewma_high``
        per-job EWMA service seconds that alone marks the service
        degraded (None = ignore service time).
    ``degraded_compose_budget``
        in ``degrade`` mode, admitted jobs in the *degraded* state keep
        their compose output but run it out-of-core under this byte
        budget -- a cheap middle tier between full service and the
        browned-out ``skip_compose``.
    """

    mode: str = "shed"
    degraded_depth: float = 0.6
    brownout_depth: float = 0.85
    shed_priority_degraded: int = 2
    shed_priority_brownout: int = 5
    ewma_high: float | None = None
    degraded_compose_budget: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.mode not in ("off", "shed", "degrade"):
            raise ValueError(
                f"brownout mode must be off/shed/degrade, got {self.mode!r}"
            )
        if not 0.0 < self.degraded_depth <= self.brownout_depth <= 1.0:
            raise ValueError(
                "need 0 < degraded_depth <= brownout_depth <= 1, got "
                f"{self.degraded_depth}/{self.brownout_depth}"
            )
        if not 0 <= self.shed_priority_degraded <= self.shed_priority_brownout <= 10:
            raise ValueError("shed priority floors must satisfy "
                             "0 <= degraded <= brownout <= 10")
        if self.degraded_compose_budget < 1:
            raise ValueError(
                f"degraded_compose_budget must be positive, got "
                f"{self.degraded_compose_budget}"
            )

    @classmethod
    def parse(cls, spec: str) -> "BrownoutPolicy":
        """Parse ``MODE[:key=value,...]`` (e.g. ``degrade:depth=0.7``)."""
        mode, _, rest = spec.partition(":")
        kwargs: dict = {"mode": mode or "shed"}
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"expected key=value in brownout spec: {item!r}")
            if key == "depth":
                kwargs["brownout_depth"] = float(value)
            elif key == "degraded-depth":
                kwargs["degraded_depth"] = float(value)
            elif key == "shed-priority":
                kwargs["shed_priority_brownout"] = int(value)
            elif key == "ewma-high":
                kwargs["ewma_high"] = float(value)
            elif key == "compose-budget":
                kwargs["degraded_compose_budget"] = int(value)
            else:
                raise ValueError(f"unknown brownout key {key!r}")
        return cls(**kwargs)


@dataclass(frozen=True)
class HealthReport:
    """One assessment of service health: status plus the reasons."""

    status: str                      # "ok" | "degraded" | "browned_out"
    reasons: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {"status": self.status, "reasons": list(self.reasons)}


class LoadShedder:
    """Brownout assessment + shed decisions over live service signals."""

    def __init__(self, policy: BrownoutPolicy | None = None,
                 metrics=None) -> None:
        self.policy = policy or BrownoutPolicy(mode="off")
        self.metrics = metrics
        self.shed_requests = 0
        self._lock = threading.Lock()

    def assess(self, *, depth: int, max_depth: int,
               workers_alive: int, workers_total: int,
               service_ewma: float | None = None,
               breaker_state: BreakerState = BreakerState.CLOSED,
               ) -> HealthReport:
        """Classify current load into ok / degraded / browned_out."""
        reasons: list[str] = []
        browned = False
        frac = depth / max_depth if max_depth else 0.0
        if frac >= self.policy.brownout_depth:
            reasons.append(
                f"queue {depth}/{max_depth} >= brownout threshold "
                f"{self.policy.brownout_depth:.0%}"
            )
            browned = True
        elif frac >= self.policy.degraded_depth:
            reasons.append(
                f"queue {depth}/{max_depth} >= degraded threshold "
                f"{self.policy.degraded_depth:.0%}"
            )
        if workers_total and workers_alive == 0:
            reasons.append("no live workers")
            browned = True
        elif workers_total and workers_alive < workers_total:
            reasons.append(
                f"{workers_total - workers_alive}/{workers_total} "
                f"workers down"
            )
        if breaker_state is BreakerState.OPEN:
            reasons.append("crash-loop breaker open")
            browned = True
        elif breaker_state is BreakerState.HALF_OPEN:
            reasons.append("crash-loop breaker half-open (canary probing)")
        if (
            self.policy.ewma_high is not None
            and service_ewma is not None
            and service_ewma >= self.policy.ewma_high
        ):
            reasons.append(
                f"service time EWMA {service_ewma:.1f}s >= "
                f"{self.policy.ewma_high:.1f}s"
            )
        if not reasons:
            return HealthReport("ok")
        return HealthReport(
            "browned_out" if browned else "degraded", tuple(reasons)
        )

    def shed_floor(self, report: HealthReport) -> int | None:
        """Priority floor below which submissions are shed, or None."""
        if self.policy.mode == "off" or report.ok:
            return None
        if report.status == "browned_out":
            return self.policy.shed_priority_brownout
        return self.policy.shed_priority_degraded

    def check_admission(self, priority: int, report: HealthReport,
                        retry_after: float) -> None:
        """Raise :class:`AdmissionRejected` when this submission sheds."""
        floor = self.shed_floor(report)
        if floor is None or priority >= floor:
            return
        with self._lock:
            self.shed_requests += 1
        if self.metrics is not None:
            self.metrics.counter("service.shed_requests").inc()
        raise AdmissionRejected(
            "shed_load",
            retry_after,
            f"service is {report.status} "
            f"({'; '.join(report.reasons)}); shedding priority < {floor}",
        )

    def degrade_options(self, report: HealthReport) -> list[str] | None:
        """Degradations to apply to an admitted job, or None.

        Only the ``degrade`` mode touches jobs, in two tiers.  Browned
        out: coarse registration (4x less FFT work at the default 0.5x
        scale) is forced on -- unless the job asked for ``"coarse":
        false``; tiles large enough that the default phase 1 is
        coarse-to-fine already see no change -- and compose output is
        skipped.  Merely
        degraded: the job keeps its output but the compose stage runs
        out-of-core under ``degraded_compose_budget`` bytes -- same
        pixels (the streaming path is bit-identical), just a capped
        memory footprint per worker.  All reversible by resubmitting
        after recovery.
        """
        if self.policy.mode != "degrade" or report.ok:
            return None
        if report.status == "browned_out":
            return ["coarse", "skip_compose"]
        return [f"compose_budget:{self.policy.degraded_compose_budget}"]


# -- spool disk budget -------------------------------------------------------


class SpoolBudgetExceeded(AdmissionRejected):
    """Admission would push the spool past its byte budget."""

    def __init__(self, used: int, budget: int, estimate: int,
                 retry_after: float = 30.0):
        super().__init__(
            "spool_budget",
            retry_after,
            f"spool holds {used} bytes of a {budget}-byte budget; "
            f"admitting ~{estimate} more would exceed it",
        )
        self.used = used
        self.budget = budget


class SpoolBudget:
    """Byte budget over the spool tree (journals, positions, outputs).

    ``usage()`` walks the spool directory, cached for ``ttl`` seconds so
    a submission burst does not turn into a stat() storm; the walk is
    refreshed on demand after job completions.  ``admit()`` rejects a
    submission whose estimated footprint would exceed the budget --
    catching disk exhaustion at the front door instead of as a torn
    journal mid-run.
    """

    def __init__(self, spool_dir: str | Path, max_bytes: int,
                 per_job_estimate: int = 1 << 20, ttl: float = 1.0,
                 clock=time.monotonic, metrics=None) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.spool_dir = Path(spool_dir)
        self.max_bytes = int(max_bytes)
        self.per_job_estimate = int(per_job_estimate)
        self.ttl = ttl
        self.clock = clock
        self.metrics = metrics
        self._lock = threading.Lock()
        self._cached: int | None = None
        self._cached_at: float | None = None

    def refresh(self) -> int:
        """Walk the spool and cache the byte total."""
        total = 0
        if self.spool_dir.exists():
            for root, _dirs, files in os.walk(self.spool_dir):
                for name in files:
                    try:
                        total += os.path.getsize(os.path.join(root, name))
                    except OSError:
                        continue  # racing a delete
        with self._lock:
            self._cached = total
            self._cached_at = self.clock()
        if self.metrics is not None:
            self.metrics.gauge("service.spool_bytes").set(total)
        return total

    def usage(self) -> int:
        with self._lock:
            fresh = (
                self._cached is not None
                and self._cached_at is not None
                and self.clock() - self._cached_at < self.ttl
            )
            if fresh:
                return self._cached  # type: ignore[return-value]
        return self.refresh()

    def admit(self, estimate: int | None = None) -> None:
        """Raise :class:`SpoolBudgetExceeded` when the submission won't fit."""
        est = self.per_job_estimate if estimate is None else int(estimate)
        used = self.usage()
        if used + est > self.max_bytes:
            # Re-walk before rejecting: the cache may be stale just after
            # a cleanup, and a false 429 on a fresh disk is worse than
            # one extra directory walk on the rejection path.
            used = self.refresh()
            if used + est > self.max_bytes:
                if self.metrics is not None:
                    self.metrics.counter(
                        "service.spool_budget_rejected").inc()
                raise SpoolBudgetExceeded(used, self.max_bytes, est)

    def snapshot(self) -> dict:
        return {
            "spool_bytes": self.usage(),
            "budget_bytes": self.max_bytes,
            "per_job_estimate": self.per_job_estimate,
        }


# -- configuration facade ----------------------------------------------------


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything ``repro serve`` can tune, in one picklable bundle."""

    quarantine_threshold: int = 3
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    brownout: BrownoutPolicy = field(
        default_factory=lambda: BrownoutPolicy(mode="off")
    )
    #: Spool byte budget; None disables the guard.
    spool_budget_bytes: int | None = None
    spool_per_job_estimate: int = 1 << 20
