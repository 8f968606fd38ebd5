"""Thin blocking HTTP client for the stitching service.

Stdlib-only (``http.client``), one connection per call -- the server
closes connections after each response anyway.  The client's job is to
turn HTTP status codes back into Python semantics: 429 becomes
:class:`BackpressureError` carrying the server's ``Retry-After`` hint,
other non-2xx become :class:`ServiceError` with the server's message,
and a terminal failed/quarantined job surfaces (on request) as
:class:`JobFailedError` rendering the server's structured error detail
-- exception type, last journal milestone, per-attempt death signals --
instead of a flat string.  Waiting on a job is a long-poll
(:meth:`ServiceClient.watch`): the server answers when the job is
terminal, so a wait costs one request per ``MAX_WAIT_SECONDS``, not one
per poll interval.
"""

from __future__ import annotations

import http.client
import json
import random
import time

from repro.service.jobs import JobState


class ServiceError(Exception):
    """Non-2xx response from the service (other than backpressure)."""

    def __init__(self, status: int, payload: dict):
        message = payload.get("error", f"HTTP {status}")
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.payload = payload


class BackpressureError(ServiceError):
    """HTTP 429: submission rejected; retry after ``retry_after`` seconds."""

    def __init__(self, status: int, payload: dict, retry_after: float):
        super().__init__(status, payload)
        self.retry_after = retry_after
        self.reason = payload.get("reason", "rejected")


class JobFailedError(Exception):
    """A waited-on job reached ``failed`` or ``quarantined``.

    The message folds in the server's structured ``error_detail`` so an
    operator reading a stack trace sees what actually happened --
    exception type, how far the journal got, what killed the workers --
    without a follow-up status call.  The full record is on ``.record``.
    """

    def __init__(self, record: dict):
        self.record = record
        self.state = record.get("state", "failed")
        self.detail = record.get("error_detail") or {}
        parts = [
            f"job {record.get('id')} {self.state}: "
            f"{record.get('error') or 'unknown error'}"
        ]
        if self.detail.get("type"):
            parts.append(f"type={self.detail['type']}")
        if self.detail.get("attempts"):
            parts.append(f"attempts={self.detail['attempts']}")
        if self.detail.get("last_milestone"):
            parts.append(f"last_milestone={self.detail['last_milestone']}")
        if self.detail.get("death_signals"):
            parts.append(
                "death_signals=" + ",".join(self.detail["death_signals"])
            )
        super().__init__(" | ".join(parts))


class ServiceClient:
    """Talks to one :class:`~repro.service.server.StitchService`."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport -----------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None,
                 timeout: float | None = None):
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            ctype = resp.getheader("Content-Type", "")
            if ctype.startswith("application/json"):
                data = json.loads(raw.decode("utf-8"))
            else:
                data = raw.decode("utf-8")
            if resp.status == 429:
                retry_after = float(
                    resp.getheader("Retry-After")
                    or (data.get("retry_after", 1.0)
                        if isinstance(data, dict) else 1.0)
                )
                raise BackpressureError(resp.status, data, retry_after)
            if resp.status >= 400:
                if not isinstance(data, dict):
                    data = {"error": str(data)}
                raise ServiceError(resp.status, data)
            return data
        finally:
            conn.close()

    # -- API -----------------------------------------------------------------

    def submit(self, spec: dict) -> dict:
        """POST a job spec; returns the accepted job record (202)."""
        return self._request("POST", "/jobs", body=spec)

    def submit_with_retry(self, spec: dict, attempts: int = 10,
                          max_wait: float = 5.0, base_wait: float = 0.05,
                          sleep=time.sleep, rng: random.Random | None = None,
                          ) -> dict:
        """Submit, honouring backpressure with decorrelated-jitter waits.

        Each rejection sleeps ``uniform(base_wait, 3 * previous_wait)``
        (AWS-style decorrelated jitter, so a burst of rejected clients
        spreads out instead of retrying in lockstep), floored by the
        server's honest ``Retry-After`` hint and capped at ``max_wait``.
        ``sleep`` and ``rng`` are injectable so the unit tests drive the
        loop on a fake clock with a seeded stream.  Gives up
        (re-raising) after ``attempts`` rejections.
        """
        rng = rng if rng is not None else random.Random()
        last: BackpressureError | None = None
        wait = base_wait
        for _ in range(attempts):
            try:
                return self.submit(spec)
            except BackpressureError as exc:
                last = exc
                wait = min(max_wait, rng.uniform(base_wait, wait * 3))
                wait = max(wait, min(exc.retry_after, max_wait))
                sleep(wait)
        assert last is not None
        raise last

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def watch(self, job_id: str, seconds: float) -> dict:
        """One long-poll: the job's record once it is terminal, or as it
        stands after ``seconds`` (the server caps them at
        ``MAX_WAIT_SECONDS``)."""
        return self._request("GET", f"/jobs/{job_id}?wait={seconds:.3f}",
                             timeout=self.timeout + seconds)

    def list_jobs(self, tenant: str | None = None) -> list[dict]:
        path = "/jobs" + (f"?tenant={tenant}" if tenant else "")
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/result")

    def wait(self, job_id: str, timeout: float = 120.0,
             poll: float = 0.2, raise_on_failure: bool = False) -> dict:
        """Wait until the job is terminal; returns the final record.

        Each round is one :meth:`watch` for what is left of ``timeout``
        (at most ``MAX_WAIT_SECONDS``).  Only a server that answers a
        running job early -- one that ignores ``wait`` -- makes the loop
        sleep ``poll`` between requests.

        With ``raise_on_failure`` a terminal ``failed``/``quarantined``
        state raises :class:`JobFailedError` rendering the structured
        error detail instead of returning a record the caller must
        inspect.
        """
        # Read at call time: importing the server with this module would
        # reorder the package's imports and raise its peak RSS by ~0.8 MiB.
        from repro.service.server import MAX_WAIT_SECONDS

        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            seconds = max(0.0, min(deadline - asked, MAX_WAIT_SECONDS))
            record = self.watch(job_id, seconds)
            if JobState(record["state"]).terminal:
                if raise_on_failure and record["state"] in ("failed",
                                                            "quarantined"):
                    raise JobFailedError(record)
                return record
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout}s"
                )
            if now - asked < seconds:
                time.sleep(poll)

    def metrics_text(self) -> str:
        return self._request("GET", "/metrics")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics.json")

    def health(self) -> dict:
        return self._request("GET", "/healthz")
