"""Asyncio HTTP/JSON front end over the queue and the worker pool.

The protocol is deliberately minimal -- stdlib-only HTTP/1.1 with JSON
bodies, one request per connection -- because the interesting parts live
below it (admission control, durability, supervision).  Endpoints:

========================  =====================================================
``POST /jobs``            submit a job spec; 202 + record, or 429 +
                          ``Retry-After`` on backpressure
``GET /jobs``             list job summaries (``?tenant=`` filter)
``GET /jobs/<id>``        one job's full record; ``?wait=S`` holds the
                          response until the job is terminal or ``S``
                          seconds pass (capped at ``MAX_WAIT_SECONDS``)
``POST /jobs/<id>/cancel``cancel a queued or running job
``GET /jobs/<id>/result`` solved positions + run summary (409 until done)
``GET /metrics``          Prometheus-style text exposition
``GET /metrics.json``     the raw :class:`MetricsRegistry` snapshot
``GET /healthz``          liveness: workers, queue depth, job-state counts
========================  =====================================================

:class:`StitchService` owns the job table and composes the pieces; it is
equally usable embedded (the e2e tests drive it in-process) or behind
``python -m repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
from dataclasses import replace
from pathlib import Path

from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import Tracer
from repro.recovery.watchdog import WatchdogConfig
from repro.service.jobs import JobRecord, JobSpec, JobState
from repro.service.pool import DEFAULT_WATCHDOG, WorkerPool
from repro.service.queue import AdmissionRejected, JobQueue
from repro.service.resilience import (
    HealthReport,
    ResilienceConfig,
    SpoolBudget,
)

_JOB_PATH = re.compile(r"^/jobs/(?P<id>[a-f0-9]{12})(?P<rest>/result|/cancel)?$")

#: Largest request body the server will read (a job spec is ~1 KB).
MAX_BODY_BYTES = 64 * 1024

#: Longest a ``GET /jobs/<id>?wait=`` long-poll is held open, in seconds.
MAX_WAIT_SECONDS = 30.0


class ServiceHTTPError(Exception):
    def __init__(self, status: int, payload: dict,
                 headers: dict | None = None):
        super().__init__(payload.get("error", f"HTTP {status}"))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


def _wait_seconds(query: str) -> float:
    """The ``wait=`` of a query string, clamped to :data:`MAX_WAIT_SECONDS`;
    0 when there is none.  Not a non-negative number: 400."""
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key != "wait":
            continue
        try:
            seconds = float(value)
        except ValueError:
            seconds = float("nan")
        if not seconds >= 0:
            raise ServiceHTTPError(400, {
                "error": f"wait must be a non-negative number of seconds, "
                         f"got {value!r}",
            })
        return min(seconds, MAX_WAIT_SECONDS)
    return 0.0


def _release(waiters: list) -> None:
    """Wake parked long-polls (on the server loop)."""
    for waiter in waiters:
        if not waiter.done():
            waiter.set_result(None)


class StitchService:
    """The service: job table + queue + pool + registry + HTTP surface.

    ``dataset_root`` (optional) confines job dataset paths to one
    directory tree -- submissions naming paths outside it are rejected,
    so a network client cannot point the stitcher at arbitrary files.
    """

    def __init__(
        self,
        spool_dir: str | Path,
        workers: int = 2,
        dataset_root: str | Path | None = None,
        max_depth: int = 64,
        per_tenant_limit: int = 16,
        watchdog: WatchdogConfig = DEFAULT_WATCHDOG,
        default_retry_budget: int | None = None,
        metrics: MetricsRegistry | None = None,
        clock=time.monotonic,
        resilience: ResilienceConfig | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.spool_dir = Path(spool_dir)
        self.dataset_root = (
            Path(dataset_root).resolve() if dataset_root is not None else None
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=True)
        self.default_retry_budget = default_retry_budget
        self.clock = clock
        self.resilience = resilience or ResilienceConfig()
        self.queue = JobQueue(
            max_depth=max_depth,
            per_tenant_limit=per_tenant_limit,
            workers=workers,
            clock=clock,
            metrics=self.metrics,
        )
        self.pool = WorkerPool(
            self.queue,
            self.spool_dir,
            workers=workers,
            metrics=self.metrics,
            watchdog=watchdog,
            resolve_positions=self._resolve_positions,
            on_transition=self._on_transition,
            clock=clock,
            resilience=self.resilience,
            tracer=self.tracer,
        )
        self.spool_budget = (
            SpoolBudget(
                self.spool_dir,
                self.resilience.spool_budget_bytes,
                per_job_estimate=self.resilience.spool_per_job_estimate,
                clock=clock,
                metrics=self.metrics,
            )
            if self.resilience.spool_budget_bytes is not None
            else None
        )
        self.jobs: dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        self._transitions = threading.Condition(self._lock)
        #: Parked ``?wait=`` long-polls: job id -> futures on the HTTP loop.
        self._waiters: dict[str, list[asyncio.Future]] = {}
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._http_thread: threading.Thread | None = None
        self.address: tuple[str, int] | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "StitchService":
        """Start the worker pool (HTTP is separate; see start_http)."""
        self.pool.start()
        return self

    def stop(self) -> None:
        self.stop_http()
        self.pool.stop()

    def start_http(self, host: str = "127.0.0.1",
                   port: int = 0) -> tuple[str, int]:
        """Serve HTTP on a daemon thread; returns the bound address.

        ``port=0`` binds an ephemeral port -- what the tests and the CI
        smoke job use to avoid collisions.
        """
        if self._http_thread is not None:
            raise RuntimeError("HTTP server already running")
        started = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                server = loop.run_until_complete(
                    asyncio.start_server(self._handle_connection, host, port)
                )
            except BaseException as exc:  # pragma: no cover - bind failure
                failure.append(exc)
                started.set()
                return
            self._server = server
            sock = server.sockets[0].getsockname()
            self.address = (sock[0], sock[1])
            started.set()
            try:
                loop.run_forever()
            finally:
                server.close()
                # Parked long-polls answer with the record as it stands,
                # so no client hangs on a stopped server.
                self._release_waiters()
                handlers = asyncio.all_tasks(loop)
                if handlers:
                    loop.run_until_complete(asyncio.wait(handlers, timeout=1.0))
                loop.run_until_complete(server.wait_closed())
                loop.close()

        self._http_thread = threading.Thread(
            target=runner, name="service-http", daemon=True
        )
        self._http_thread.start()
        started.wait(timeout=10.0)
        if failure:
            self._http_thread = None
            raise failure[0]
        if self.address is None:
            raise RuntimeError("HTTP server failed to start in time")
        return self.address

    def stop_http(self) -> None:
        if self._loop is not None and self._http_thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._http_thread.join(timeout=10.0)
        self._loop = None
        self._server = None
        self._http_thread = None
        self.address = None

    # -- service operations (shared by HTTP and embedded use) -----------------

    def submit(self, payload: dict) -> JobRecord:
        """Validate, admit and enqueue one job; raises on rejection."""
        if (
            self.default_retry_budget is not None
            and isinstance(payload, dict)
            and "retry_budget" not in payload
        ):
            payload = {**payload, "retry_budget": self.default_retry_budget}
        spec = self._resolve_dataset(JobSpec.from_dict(payload))
        policy = self.resilience.brownout
        # Assessing health polls every worker: only when the policy acts.
        report = (self.health_report() if policy.mode != "off"
                  else HealthReport("ok"))
        applied: list[str] = []
        if policy.skips_compose(report):
            spec, applied = self._degrade_spec(spec)
        record = JobRecord(spec=spec, degraded_by_brownout=applied)
        self.queue.admit(record, shed=policy.shed(spec.priority, report),
                         spool=self.spool_budget)
        with self._lock:
            self.jobs[record.id] = record
        self.metrics.counter("service.jobs_submitted").inc()
        if applied:
            self.metrics.counter("service.jobs_degraded").inc()
        return record

    @staticmethod
    def _degrade_spec(spec: JobSpec) -> tuple[JobSpec, list[str]]:
        """A browned-out admission's spec: its compose output dropped,
        its options untouched.  Returns the spec plus the degradations
        that changed it -- a job with no output loses nothing, and its
        record should not say it did."""
        if spec.output is None:
            return spec, []
        return replace(spec, output=None), ["skip_compose"]

    def _resolve_dataset(self, spec: JobSpec) -> JobSpec:
        path = Path(spec.dataset)
        if self.dataset_root is not None:
            candidate = (
                path if path.is_absolute() else self.dataset_root / path
            ).resolve()
            if not candidate.is_relative_to(self.dataset_root):
                raise ValueError(
                    f"dataset {spec.dataset!r} escapes the dataset root"
                )
            path = candidate
        if not path.is_dir():
            raise ValueError(f"dataset directory {path} does not exist")
        return replace(spec, dataset=str(path))

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self.jobs.get(job_id)
        if record is None:
            raise KeyError(job_id)
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job immediately; flag a running one for its
        dispatcher to kill.  Idempotent on terminal jobs."""
        record = self.get(job_id)
        with self._lock:
            if record.state.terminal:
                return record
            record.cancel_requested = True
        if self.queue.cancel(job_id) is not None:
            # Still queued: the pool never saw it, finish it here.
            record.transition(JobState.CANCELLED)
            record.finished_at = self.clock()
            if self.metrics is not None:
                self.metrics.counter("service.jobs_cancelled").inc()
            self._on_transition(record)
        return record

    def result(self, job_id: str) -> dict:
        record = self.get(job_id)
        if record.state is not JobState.DONE:
            raise ServiceHTTPError(409, {
                "error": f"job {job_id} is {record.state.value}, not done",
                "state": record.state.value,
            })
        positions = json.loads(
            self.pool.positions_path(job_id).read_text()
        )
        return {"id": job_id, "summary": record.result, **positions}

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until the job reaches a terminal state (in-process use)."""
        deadline = time.monotonic() + timeout
        record = self.get(job_id)
        with self._transitions:
            while not record.state.terminal:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {record.state.value} "
                        f"after {timeout}s"
                    )
                self._transitions.wait(timeout=min(remaining, 0.5))
        return record

    def health_report(self) -> HealthReport:
        """Classify the service's live load into ok/degraded/browned_out."""
        workers = self.pool.worker_stats()
        return self.resilience.brownout.assess(
            depth=self.queue.depth(),
            max_depth=self.queue.max_depth,
            workers_alive=sum(1 for w in workers if w["alive"]),
            workers_total=len(workers),
            service_ewma=self.queue.service_ewma,
            breaker_state=self.pool.breaker.state,
        )

    def job_state_counts(self) -> dict[str, int]:
        with self._lock:
            counts = {state.value: 0 for state in JobState}
            for record in self.jobs.values():
                counts[record.state.value] += 1
        return counts

    # -- pool callbacks ------------------------------------------------------

    def _on_transition(self, record: JobRecord) -> None:
        with self._transitions:
            self._transitions.notify_all()
            # Only a terminal state answers a long-poll: a requeue after a
            # worker death keeps it parked.
            waiters = (self._waiters.pop(record.id, [])
                       if record.state.terminal else [])
        if waiters:
            try:
                waiters[0].get_loop().call_soon_threadsafe(_release, waiters)
            except RuntimeError:  # the loop closed; stop_http released them
                pass

    def _release_waiters(self) -> None:
        with self._lock:
            waiters = [w for ws in self._waiters.values() for w in ws]
            self._waiters.clear()
        _release(waiters)

    def _resolve_positions(self, job_id: str) -> tuple[Path, str]:
        record = self.get(job_id)  # KeyError -> failed job with message
        if record.state is not JobState.DONE:
            raise ValueError(
                f"source job {job_id} is {record.state.value}, not done"
            )
        path = self.pool.positions_path(job_id)
        if not path.exists():
            raise ValueError(f"source job {job_id} has no positions file")
        return path, job_id

    # -- metrics -------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        snap = self.metrics.snapshot()
        snap["jobs"] = self.job_state_counts()
        snap["queue"] = self.queue.stats()
        snap["workers"] = self.pool.worker_stats()
        snap["breaker"] = self.pool.breaker.snapshot()
        snap["health"] = self.health_report().to_dict()
        if self.spool_budget is not None:
            snap["spool"] = self.spool_budget.snapshot()
        return snap

    def metrics_text(self) -> str:
        """Prometheus-style exposition of the registry + job-state counts."""
        snap = self.metrics.snapshot()
        lines: list[str] = []

        def mangle(name: str) -> str:
            return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)

        for name, value in snap["counters"].items():
            m = mangle(name)
            lines.append(f"# TYPE {m} counter")
            lines.append(f"{m} {value}")
        for name, g in snap["gauges"].items():
            m = mangle(name)
            lines.append(f"# TYPE {m} gauge")
            lines.append(f"{m} {g['value']}")
            lines.append(f"{m}_peak {g['peak']}")
        for name, h in snap["histograms"].items():
            m = mangle(name)
            lines.append(f"# TYPE {m} summary")
            lines.append(f"{m}_count {h.get('count', 0)}")
            lines.append(f"{m}_sum {h.get('sum', 0.0)}")
            for q, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
                if key in h:
                    lines.append(f'{m}{{quantile="{q}"}} {h[key]}')
        m = "repro_service_jobs"
        lines.append(f"# TYPE {m} gauge")
        for state, count in sorted(self.job_state_counts().items()):
            lines.append(f'{m}{{state="{state}"}} {count}')
        return "\n".join(lines) + "\n"

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            status, headers, payload = await self._dispatch(reader)
        except ServiceHTTPError as exc:
            status, headers, payload = exc.status, exc.headers, exc.payload
        except Exception as exc:  # pragma: no cover - defensive
            status, headers, payload = 500, {}, {
                "error": f"{type(exc).__name__}: {exc}"
            }
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
            ctype = "application/json"
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  409: "Conflict", 429: "Too Many Requests",
                  500: "Internal Server Error"}.get(status, "")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        for k, v in headers.items():
            head.append(f"{k}: {v}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body)
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass

    async def _dispatch(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("ascii",
                                                        "replace").strip()
        if not request_line:
            raise ServiceHTTPError(400, {"error": "empty request"})
        try:
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            raise ServiceHTTPError(
                400, {"error": f"malformed request line {request_line!r}"}
            ) from None
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("ascii", "replace").strip()
            if not line:
                break
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ServiceHTTPError(400, {
                "error": f"malformed Content-Length header {raw_length!r}",
            })
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise ServiceHTTPError(
                400, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
            )
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        m = _JOB_PATH.match(path)
        if method == "GET" and m is not None and m.group("rest") is None:
            await self._long_poll(m.group("id"), _wait_seconds(query))
        return self._route(method, path, query, body)

    async def _long_poll(self, job_id: str, seconds: float) -> None:
        """Return once job ``job_id`` is terminal or ``seconds`` have
        passed; an unknown id is 404 at once.  The request is parked as a
        future that :meth:`_on_transition` resolves -- nothing polls."""
        record = self._record(job_id)
        if not seconds:
            return
        waiter = asyncio.get_running_loop().create_future()
        with self._lock:
            # A request read while stop_http drains must not park.
            if record.state.terminal or not self._server.is_serving():
                return
            self._waiters.setdefault(job_id, []).append(waiter)
        try:
            await asyncio.wait((waiter,), timeout=seconds)
        finally:
            with self._lock:
                parked = self._waiters.get(job_id, [])
                if waiter in parked:
                    parked.remove(waiter)
                    if not parked:
                        del self._waiters[job_id]

    def _route(self, method: str, path: str, query: str, body: bytes):
        if path == "/jobs" and method == "POST":
            return self._ep_submit(body)
        if path == "/jobs" and method == "GET":
            return self._ep_list(query)
        m = _JOB_PATH.match(path)
        if m:
            job_id, rest = m.group("id"), m.group("rest")
            if rest is None and method == "GET":
                return 200, {}, self._record(job_id).to_dict()
            if rest == "/cancel" and method == "POST":
                return 200, {}, self.cancel_or_404(job_id).to_dict()
            if rest == "/result" and method == "GET":
                return 200, {}, self.result_or_404(job_id)
            raise ServiceHTTPError(
                405, {"error": f"{method} not allowed on {path}"}
            )
        if path == "/metrics" and method == "GET":
            return 200, {}, self.metrics_text()
        if path == "/metrics.json" and method == "GET":
            return 200, {}, self.metrics_snapshot()
        if path == "/healthz" and method == "GET":
            report = self.health_report()
            payload = {
                "ok": report.ok,
                "status": report.status,
                "reasons": list(report.reasons),
                "queue_depth": self.queue.depth(),
                "jobs": self.job_state_counts(),
                "workers": self.pool.worker_stats(),
                "breaker": self.pool.breaker.snapshot(),
            }
            if self.spool_budget is not None:
                payload["spool"] = self.spool_budget.snapshot()
            return 200, {}, payload
        raise ServiceHTTPError(404, {"error": f"no route {method} {path}"})

    def _record(self, job_id: str) -> JobRecord:
        try:
            return self.get(job_id)
        except KeyError:
            raise ServiceHTTPError(
                404, {"error": f"no job {job_id}"}
            ) from None

    def cancel_or_404(self, job_id: str) -> JobRecord:
        self._record(job_id)
        return self.cancel(job_id)

    def result_or_404(self, job_id: str) -> dict:
        self._record(job_id)
        return self.result(job_id)

    def _ep_submit(self, body: bytes):
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceHTTPError(
                400, {"error": f"bad JSON body: {exc}"}
            ) from None
        try:
            record = self.submit(payload)
        except AdmissionRejected as exc:
            raise ServiceHTTPError(
                429,
                {
                    "error": str(exc),
                    "reason": exc.reason,
                    "retry_after": exc.retry_after,
                },
                headers={"Retry-After": f"{exc.retry_after:.1f}"},
            ) from None
        except (ValueError, TypeError) as exc:
            raise ServiceHTTPError(400, {"error": str(exc)}) from None
        return 202, {}, record.to_dict()

    def _ep_list(self, query: str):
        tenant = None
        for part in query.split("&"):
            key, _, value = part.partition("=")
            if key == "tenant" and value:
                tenant = value
        with self._lock:
            records = [
                {
                    "id": r.id,
                    "state": r.state.value,
                    "tenant": r.spec.tenant,
                    "priority": r.spec.priority,
                    "attempts": r.attempts,
                }
                for r in self.jobs.values()
                if tenant is None or r.spec.tenant == tenant
            ]
        return 200, {}, {"jobs": records}
