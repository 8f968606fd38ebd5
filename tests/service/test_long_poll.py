"""Long-poll completion: ``GET /jobs/<id>?wait=S`` and ``ServiceClient.wait``.

A parked request is a future on the server loop that the pool's
transition callback resolves when the job turns terminal -- nothing
polls.  Most tests keep the pool cold, so a job stays queued until the
test moves it (cancel, or a direct transition callback); one runs a
real job on a live worker.
"""

from __future__ import annotations

import http.server
import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.service import ServiceClient, ServiceError, StitchService
from repro.service import client as client_module
from repro.service import server as server_module
from repro.synth import make_synthetic_dataset


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    ds = make_synthetic_dataset(
        tmp_path_factory.mktemp("lp-ds"), rows=2, cols=2,
        tile_height=32, tile_width=32, overlap=0.25, seed=5,
    )
    return str(ds.directory)


class CountingClient(ServiceClient):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests: list[str] = []

    def _request(self, method, path, body=None, timeout=None):
        self.requests.append(f"{method} {path}")
        return super()._request(method, path, body=body, timeout=timeout)


@pytest.fixture()
def service(tmp_path):
    svc = StitchService(tmp_path / "spool", workers=1)
    svc.start_http()  # HTTP only: submitted jobs stay queued
    yield svc
    svc.stop()


@pytest.fixture()
def client(service):
    return CountingClient(*service.address)


def in_thread(fn, *args):
    """Run ``fn(*args)`` on a thread; returns (thread, outcome dict)."""
    out: dict = {}

    def run():
        t0 = time.monotonic()
        try:
            out["value"] = fn(*args)
        except Exception as exc:
            out["error"] = exc
        out["seconds"] = time.monotonic() - t0

    thread = threading.Thread(target=run)
    thread.start()
    return thread, out


def wait_parked(service, job_id, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not service._waiters.get(job_id):
        assert time.monotonic() < deadline, "long-poll never parked"
        time.sleep(0.005)


def test_wait_on_a_running_job_is_one_request(tmp_path, dataset_dir):
    svc = StitchService(tmp_path / "spool", workers=1)
    svc.start()
    svc.start_http()
    try:
        client = CountingClient(*svc.address)
        # Slow reads keep the job running for a while.
        job_id = client.submit({"dataset": dataset_dir,
                                "inject_faults": "1:slow=3,latency=0.1"})["id"]
        client.requests.clear()
        record = client.wait(job_id, timeout=60.0, poll=0.001)
        assert record["state"] == "done", record.get("error")
        assert client.requests == [f"GET /jobs/{job_id}?wait=30.000"]
        # The job's journal counters reach /metrics: 2x2 grid, one fsync
        # for the header, one per step completing a pair (3), one per
        # milestone (phase 1, phase 2).
        counters = client.metrics()["counters"]
        assert counters["journal.fsyncs"] == 1 + 3 + 2
        assert counters["journal.pairs_recorded"] == 4
        assert "repro_journal_fsyncs 6" in client.metrics_text()
    finally:
        svc.stop()


def test_terminal_transition_answers_a_parked_wait(service, client,
                                                    dataset_dir):
    job_id = client.submit({"dataset": dataset_dir})["id"]
    thread, out = in_thread(client.watch, job_id, 10.0)
    wait_parked(service, job_id)
    client.cancel(job_id)
    thread.join(timeout=5.0)
    assert out["value"]["state"] == "cancelled"
    assert out["seconds"] < 5.0
    assert service._waiters == {}


def test_non_terminal_transition_keeps_it_parked(service, client,
                                                 dataset_dir):
    """A requeue after a worker death is not an answer."""
    job_id = client.submit({"dataset": dataset_dir})["id"]
    thread, out = in_thread(client.watch, job_id, 0.5)
    wait_parked(service, job_id)
    service._on_transition(service.get(job_id))  # still queued
    thread.join(timeout=5.0)
    assert out["value"]["state"] == "queued"
    assert out["seconds"] >= 0.5


def test_wait_above_the_cap_is_clamped(service, client, dataset_dir,
                                       monkeypatch):
    monkeypatch.setattr(server_module, "MAX_WAIT_SECONDS", 0.3)
    job_id = client.submit({"dataset": dataset_dir})["id"]
    t0 = time.monotonic()
    record = client._request("GET", f"/jobs/{job_id}?wait=100")
    elapsed = time.monotonic() - t0
    assert record["state"] == "queued"
    assert 0.3 <= elapsed < 5.0


def test_unknown_id_is_404_without_waiting(client):
    t0 = time.monotonic()
    with pytest.raises(ServiceError) as exc_info:
        client.watch("0123456789ab", 10.0)
    assert exc_info.value.status == 404
    assert time.monotonic() - t0 < 2.0


def test_other_routes_ignore_wait(service, client, dataset_dir):
    job_id = client.submit({"dataset": dataset_dir})["id"]
    t0 = time.monotonic()
    assert client._request("GET", "/jobs?wait=10")["jobs"]
    with pytest.raises(ServiceError) as exc_info:
        client._request("GET", f"/jobs/{job_id}/result?wait=10")
    assert exc_info.value.status == 409
    assert time.monotonic() - t0 < 2.0


def test_stop_releases_a_parked_waiter(service, client, dataset_dir):
    job_id = client.submit({"dataset": dataset_dir})["id"]
    thread, out = in_thread(client.watch, job_id, 20.0)
    wait_parked(service, job_id)
    t0 = time.monotonic()
    service.stop()
    assert time.monotonic() - t0 < 1.0
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert out["value"]["state"] == "queued"  # answered, not dropped


def test_many_parked_waiters_are_each_answered(tmp_path, dataset_dir):
    """Dispatcher threads resolve futures parked on the server loop: with
    more waiters than cores, terminal transitions racing the parking, and
    a short switch interval, every long-poll is answered and none stays
    parked."""
    svc = StitchService(tmp_path / "spool", workers=1, per_tenant_limit=1)
    svc.start_http()
    jobs = 16
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        client = ServiceClient(*svc.address)
        ids = [client.submit({"dataset": dataset_dir,
                              "tenant": f"t{k}"})["id"] for k in range(jobs)]
        watchers = [in_thread(client.watch, job_id, 20.0) for job_id in ids]
        cancellers = [in_thread(lambda part=ids[k::4]: [
            client.cancel(job_id) for job_id in part]) for k in range(4)]
        for thread, _ in cancellers + watchers:
            thread.join(timeout=15.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        svc.stop()
    for _, out in watchers:
        assert out["value"]["state"] == "cancelled", out
        assert out["seconds"] < 15.0
    assert svc._waiters == {}


class IgnoresWait(http.server.BaseHTTPRequestHandler):
    """A status endpoint with no long-poll: two ``running`` answers, then
    ``done``, each at once."""

    answers: list[str] = []

    def do_GET(self):
        IgnoresWait.answers.append(self.path)
        state = "running" if len(IgnoresWait.answers) < 3 else "done"
        body = json.dumps({"id": "abcdefabcdef", "state": state}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_wait_falls_back_to_polling_a_server_that_ignores_wait(monkeypatch):
    IgnoresWait.answers = []
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), IgnoresWait)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    sleeps: list[float] = []
    monkeypatch.setattr(client_module, "time", SimpleNamespace(
        monotonic=time.monotonic, sleep=sleeps.append))
    try:
        client = ServiceClient(*httpd.server_address)
        record = client.wait("abcdefabcdef", timeout=30.0, poll=0.25)
    finally:
        httpd.shutdown()
        httpd.server_close()
    assert record["state"] == "done"
    assert len(IgnoresWait.answers) == 3
    assert sleeps == [0.25, 0.25]  # one poll per early non-terminal answer
