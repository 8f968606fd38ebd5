"""Multi-tenant priority job queue with admission control and backpressure.

The exemplar for this layer is feabas's batched ``num_overlaps_per_job``
dispatch: a standing pool drains chunked work, and the queue in front of
it is what turns "heavy traffic" into bounded memory and fair service.
Three policies, all deterministic (the stress tests drive an injected
clock):

- **bounded depth**: the queue holds at most ``max_depth`` jobs; a
  submit beyond that is rejected with a ``retry_after`` hint derived
  from the observed service rate (reject-with-retry-after, never
  block-the-socket);
- **per-tenant admission control**: one tenant may hold at most
  ``per_tenant_limit`` queued jobs, so a single noisy client cannot
  starve the rest of the fleet even when the queue has room;
- **fair ordering**: strictly higher priority first; within a priority,
  round-robin across tenants (least-recently-served tenant next); within
  one tenant's lane, FIFO by submission sequence.

:meth:`JobQueue.admit` is the service's one admission decision: the
brownout policy's shed verdict and the spool byte budget gate a
submission ahead of the depth and tenant bounds, and every refusal --
with its ``Retry-After`` -- is built by one helper.

An accepted job is never lost: it leaves the queue only via
:meth:`take` (handed to a worker), :meth:`cancel`, or :meth:`drain` at
shutdown -- the conservation invariant ``accepted == taken + cancelled
+ depth`` that ``tests/service/test_queue_stress.py`` asserts under
randomized load.  Requeued jobs (worker death, watchdog kill) re-enter
at the *front* of their lane, keeping their original FIFO slot.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.service.jobs import JobRecord, JobState


class AdmissionRejected(Exception):
    """Submission refused; ``reason`` names the gate.

    ``retry_after`` is the server's estimate (seconds) of when capacity
    will exist again; it surfaces as HTTP 429 + ``Retry-After``.  Only
    :meth:`JobQueue._reject` makes one.
    """

    def __init__(self, reason: str, retry_after: float, message: str):
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


#: The counter each refusal bumps; ``shutting_down`` counts none.
_REJECTION_COUNTERS = {
    "shed_load": "service.shed_requests",
    "spool_budget": "service.spool_budget_rejected",
    "queue_full": "service.queue_rejected_full",
    "tenant_limit": "service.queue_rejected_tenant",
}


class JobQueue:
    """Thread-safe bounded priority queue over :class:`JobRecord` lanes.

    ``clock`` is injectable (monotonic seconds) so ordering and
    retry-after arithmetic are testable without real time; ``workers``
    is the drain-rate hint used by the retry-after estimate.
    """

    def __init__(
        self,
        max_depth: int = 64,
        per_tenant_limit: int = 16,
        workers: int = 1,
        clock=time.monotonic,
        metrics=None,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if per_tenant_limit < 1:
            raise ValueError(
                f"per_tenant_limit must be >= 1, got {per_tenant_limit}"
            )
        self.max_depth = max_depth
        self.per_tenant_limit = per_tenant_limit
        self.workers = max(1, int(workers))
        self.clock = clock
        self.metrics = metrics
        self._cond = threading.Condition()
        #: ``(priority, tenant) -> deque[JobRecord]`` FIFO lanes.
        self._lanes: dict[tuple[int, str], deque] = {}
        #: Tenant -> take-counter value when last served (round-robin key).
        self._last_served: dict[str, int] = {}
        self._seq = 0
        self._takes = 0
        self._depth = 0
        self._closed = False
        # Conservation counters (exposed via stats(), asserted by tests).
        self.accepted = 0
        self.taken = 0
        self.cancelled = 0
        self.rejected_full = 0
        self.rejected_tenant = 0
        #: EWMA of per-job service seconds, fed back by the pool.
        self._service_ewma: float | None = None

    # -- admission -----------------------------------------------------------

    def _tenant_depth(self, tenant: str) -> int:
        return sum(
            len(lane)
            for (_, t), lane in self._lanes.items()
            if t == tenant
        )

    def retry_after_hint(self) -> float:
        """Seconds until capacity plausibly frees: depth / drain rate."""
        per_job = self._service_ewma if self._service_ewma else 1.0
        est = per_job * (self._depth + 1) / self.workers
        return min(60.0, max(0.1, est))

    def note_job_seconds(self, seconds: float) -> None:
        """Feed one completed job's wall time into the drain-rate EWMA."""
        with self._cond:
            if self._service_ewma is None:
                self._service_ewma = float(seconds)
            else:
                self._service_ewma = 0.8 * self._service_ewma + 0.2 * float(seconds)

    def _reject(self, reason: str, message: str) -> AdmissionRejected:
        """Count one refusal and build its exception.

        The only place an :class:`AdmissionRejected` is made, so the one
        source of ``Retry-After``: the drain-rate hint for the gates
        that open as jobs finish, a fixed wait for the two that do not.
        """
        closed_queue_wait = 60.0  # a closed queue does not reopen
        full_spool_wait = 30.0    # a spool frees only on cleanup
        with self._cond:
            if reason == "queue_full":
                self.rejected_full += 1
            elif reason == "tenant_limit":
                self.rejected_tenant += 1
            if reason == "shutting_down":
                retry_after = closed_queue_wait
            elif reason == "spool_budget":
                retry_after = full_spool_wait
            else:
                retry_after = self.retry_after_hint()
        counter = _REJECTION_COUNTERS.get(reason)
        if counter is not None:
            self._count(counter)
        return AdmissionRejected(reason, retry_after, message)

    def admit(self, record: JobRecord, *, shed: str | None = None,
              spool=None) -> JobRecord:
        """The admission decision: enqueue ``record`` or raise the
        :class:`AdmissionRejected` of the first gate that refuses it.

        Gates in precedence order: ``shed`` (the brownout policy's
        reason to shed this submission, None to pass), then ``spool``
        (a :class:`~repro.service.resilience.SpoolBudget`, walked before
        the lock is taken), then :meth:`submit`'s closed / depth /
        tenant checks, atomic with the enqueue.
        """
        if shed is not None:
            raise self._reject("shed_load", shed)
        refusal = spool.refusal() if spool is not None else None
        if refusal is not None:
            raise self._reject("spool_budget", refusal)
        return self.submit(record)

    def submit(self, record: JobRecord) -> JobRecord:
        """Enqueue ``record`` or raise :class:`AdmissionRejected`.

        On admission the record gets its FIFO sequence number and
        submission timestamp; the caller still owns the record object
        (the server's job table and the queue share it).
        """
        with self._cond:
            if self._closed:
                raise self._reject("shutting_down", "queue is shut down")
            if self._depth >= self.max_depth:
                raise self._reject(
                    "queue_full",
                    f"queue depth {self._depth} at limit {self.max_depth}",
                )
            tenant = record.spec.tenant
            if self._tenant_depth(tenant) >= self.per_tenant_limit:
                raise self._reject(
                    "tenant_limit",
                    f"tenant {tenant!r} has {self.per_tenant_limit} jobs "
                    f"queued already",
                )
            record.seq = self._seq
            self._seq += 1
            record.submitted_at = self.clock()
            key = (record.spec.priority, tenant)
            self._lanes.setdefault(key, deque()).append(record)
            self._depth += 1
            self.accepted += 1
            self._count("service.queue_accepted")
            self._gauge()
            self._cond.notify()
            return record

    def requeue(self, record: JobRecord) -> None:
        """Put a job back at the *front* of its lane (worker died mid-run).

        Requeues bypass admission control: the job was already accepted
        once and dropping it now would violate the no-loss guarantee.
        """
        with self._cond:
            key = (record.spec.priority, record.spec.tenant)
            self._lanes.setdefault(key, deque()).appendleft(record)
            self._depth += 1
            self._count("service.jobs_requeued")
            self._gauge()
            self._cond.notify()

    # -- consumption ---------------------------------------------------------

    def _pick_lane(self):
        """The lane to serve next, or None.  Caller holds the lock."""
        live = [(key, lane) for key, lane in self._lanes.items() if lane]
        if not live:
            return None
        top = max(key[0] for key, _ in live)
        # Round-robin: among this priority's tenants, the one served
        # longest ago wins; ties break lexicographically for determinism.
        candidates = [(key, lane) for key, lane in live if key[0] == top]
        candidates.sort(
            key=lambda kl: (self._last_served.get(kl[0][1], -1), kl[0][1])
        )
        return candidates[0]

    def take(self, timeout: float | None = None) -> JobRecord | None:
        """Next job by (priority, tenant-fairness, FIFO); None on timeout
        or shutdown-with-empty-queue."""
        with self._cond:
            while True:
                picked = self._pick_lane()
                if picked is not None:
                    key, lane = picked
                    record = lane.popleft()
                    self._depth -= 1
                    self._takes += 1
                    self._last_served[key[1]] = self._takes
                    self.taken += 1
                    self._count("service.queue_taken")
                    self._gauge()
                    if self.metrics is not None:
                        self.metrics.histogram(
                            "service.queue_wait_seconds"
                        ).observe(self.clock() - record.submitted_at)
                    return record
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    return None

    def cancel(self, job_id: str) -> JobRecord | None:
        """Remove a still-queued job; returns it, or None if not queued."""
        with self._cond:
            for lane in self._lanes.values():
                for record in lane:
                    if record.id == job_id:
                        lane.remove(record)
                        self._depth -= 1
                        self.cancelled += 1
                        self._gauge()
                        return record
            return None

    # -- introspection / lifecycle -------------------------------------------

    def rebalance_rotation(self) -> None:
        """Drop rotation memory for tenants with nothing queued.

        Called after a quarantine removes a tenant's job from
        circulation without a requeue: a tenant whose lanes went quiet
        should re-enter the least-recently-served rotation as *new*
        (served first on return), not carry the stale take-counter its
        poison job earned while monopolizing a worker.
        """
        with self._cond:
            live = {t for (_, t), lane in self._lanes.items() if lane}
            for tenant in [t for t in self._last_served if t not in live]:
                del self._last_served[tenant]

    def depth(self) -> int:
        with self._cond:
            return self._depth

    @property
    def service_ewma(self) -> float | None:
        """Current per-job service-seconds EWMA (None until first job)."""
        with self._cond:
            return self._service_ewma

    def depth_by_tenant(self) -> dict[str, int]:
        with self._cond:
            out: dict[str, int] = {}
            for (_, tenant), lane in self._lanes.items():
                if lane:
                    out[tenant] = out.get(tenant, 0) + len(lane)
            return out

    def stats(self) -> dict:
        with self._cond:
            return {
                "depth": self._depth,
                "accepted": self.accepted,
                "taken": self.taken,
                "cancelled": self.cancelled,
                "rejected_full": self.rejected_full,
                "rejected_tenant": self.rejected_tenant,
            }

    def close(self) -> None:
        """Stop admitting; wake blocked takers (they drain, then get None)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self) -> list[JobRecord]:
        """Remove and return every queued job (shutdown path)."""
        with self._cond:
            out = []
            for lane in self._lanes.values():
                while lane:
                    out.append(lane.popleft())
            self._depth = 0
            self._gauge()
            out.sort(key=lambda r: r.seq)
            return out

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("service.queue_depth").set(self._depth)


__all__ = ["AdmissionRejected", "JobQueue", "JobRecord", "JobState"]
