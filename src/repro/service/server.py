"""Asyncio HTTP/JSON front end over the queue and the worker pool.

The protocol is deliberately minimal -- stdlib-only HTTP/1.1 with JSON
bodies, one request per connection -- because the interesting parts live
below it (admission control, durability, supervision).  Endpoints:

========================  =====================================================
``POST /jobs``            submit a job spec; 202 + record, or 429 +
                          ``Retry-After`` on backpressure
``GET /jobs``             list job summaries (``?tenant=`` filter)
``GET /jobs/<id>``        one job's full record
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
    LoadShedder,
    ResilienceConfig,
    SpoolBudget,
)

_JOB_PATH = re.compile(r"^/jobs/(?P<id>[a-f0-9]{12})(?P<rest>/result|/cancel)?$")

#: Largest request body the server will read (a job spec is ~1 KB).
MAX_BODY_BYTES = 64 * 1024


class ServiceHTTPError(Exception):
    def __init__(self, status: int, payload: dict,
                 headers: dict | None = None):
        super().__init__(payload.get("error", f"HTTP {status}"))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


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
        self.shedder = LoadShedder(self.resilience.brownout,
                                   metrics=self.metrics)
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
        spec = JobSpec.from_dict(payload)
        spec = self._resolve_dataset(spec)
        report = self.health_report()
        self.shedder.check_admission(
            spec.priority, report, self.queue.retry_after_hint()
        )  # may raise AdmissionRejected("shed_load")
        if self.spool_budget is not None:
            self.spool_budget.admit()  # may raise SpoolBudgetExceeded
        degraded = self.shedder.degrade_options(report)
        record = JobRecord(spec=spec)
        if degraded:
            spec, applied = self._degrade_spec(spec, degraded)
            record = JobRecord(spec=spec, id=record.id)
            record.degraded_by_brownout = applied
            if applied and self.metrics is not None:
                self.metrics.counter("service.jobs_degraded").inc()
        self.queue.submit(record)  # may raise AdmissionRejected
        with self._lock:
            self.jobs[record.id] = record
        if self.metrics is not None:
            self.metrics.counter("service.jobs_submitted").inc()
        return record

    @staticmethod
    def _degrade_spec(spec: JobSpec,
                      degradations: list[str]) -> tuple[JobSpec, list[str]]:
        """Apply brownout degradations to an admitted spec.

        Returns the (possibly rebuilt) spec plus the degradations that
        actually changed it -- forcing coarse on a job already running
        coarse, or skipping compose on a job with no output, is a no-op
        the record should not advertise.  A job that asked for
        ``"coarse": false`` keeps full PCIAM.  Forcing coarse on an
        undecided job changes nothing on tiles from
        ``COARSE_MIN_TILE_PIXELS`` (core/options.py) up, whose default
        phase 1 is coarse-to-fine already; it is below that size that
        the degradation saves FFT work.

        ``compose_budget:<bytes>`` is the degraded-tier middle ground:
        the job keeps its output, but the compose stage streams
        out-of-core under the given byte budget (never *raising* a
        budget the client already set lower).
        """
        options, output = dict(spec.options), spec.output
        applied: list[str] = []
        if "coarse" in degradations and options.get("coarse") is None:
            options["coarse"] = True
            applied.append("coarse")
        if "skip_compose" in degradations and output is not None:
            output = None
            applied.append("skip_compose")
        for d in degradations:
            if not d.startswith("compose_budget:"):
                continue
            budget = int(d.partition(":")[2])
            current = options.get("memory_budget")
            if output is not None and (current is None or current > budget):
                options["memory_budget"] = budget
                applied.append(f"compose_budget:{budget}")
        if not applied:
            return spec, []
        # replace() re-runs JobSpec's validation on the degraded options.
        return replace(spec, options=options, output=output), applied

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
        return self.shedder.assess(
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
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ServiceHTTPError(
                400, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
            )
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return self._route(method, path, query, body)

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
