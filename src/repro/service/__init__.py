"""Stitching-as-a-service: a long-lived job server over the stitcher.

Every capability the system has grown -- GIL-free process workers,
crash-safe journals, deadline and stall supervision, the metrics
registry -- was reachable only through one-shot CLI invocations.  This package turns
them into a standing service:

- :mod:`repro.service.jobs` -- the job model (spec, record, states);
- :mod:`repro.service.queue` -- multi-tenant priority queue with
  admission control and backpressure;
- :mod:`repro.service.pool` -- persistent forked worker processes that
  stay warm (imports, FFT tables) between jobs, journal every job for
  crash-resume, and are killed past a job's deadline or journal stall;
- :mod:`repro.service.server` -- the asyncio HTTP/JSON front end
  (submit/status/cancel/result/metrics endpoints);
- :mod:`repro.service.client` -- a thin blocking client for tests,
  examples and the CI smoke job;
- :mod:`repro.service.resilience` -- poison-job quarantine, crash-loop
  circuit breaking, brownout load shedding and the spool disk budget.

Start one with ``python -m repro serve DATASET_ROOT`` or embed
:class:`~repro.service.server.StitchService` directly (the e2e tests
do).  See docs/API.md "Running as a service".
"""

from repro.service.client import (
    BackpressureError,
    JobFailedError,
    ServiceClient,
    ServiceError,
)
from repro.service.jobs import JobRecord, JobSpec, JobState
from repro.service.queue import AdmissionRejected, JobQueue
from repro.service.pool import WorkerPool
from repro.service.resilience import (
    BreakerConfig,
    BreakerState,
    BrownoutPolicy,
    CircuitBreaker,
    HealthReport,
    ResilienceConfig,
    SpoolBudget,
)
from repro.service.server import StitchService

__all__ = [
    "AdmissionRejected",
    "BackpressureError",
    "BreakerConfig",
    "BreakerState",
    "BrownoutPolicy",
    "CircuitBreaker",
    "HealthReport",
    "JobFailedError",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ResilienceConfig",
    "ServiceClient",
    "ServiceError",
    "SpoolBudget",
    "StitchService",
    "WorkerPool",
]
