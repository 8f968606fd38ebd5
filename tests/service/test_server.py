"""HTTP surface of the service: routing, validation, serialization.

The worker pool is deliberately *not* started here -- submitted jobs
stay queued, which makes every endpoint's behaviour deterministic.  The
running-pool lifecycle is covered by ``test_service_e2e.py``.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.service import (
    BackpressureError,
    BrownoutPolicy,
    ResilienceConfig,
    ServiceClient,
    ServiceError,
    StitchService,
)
from repro.synth import make_synthetic_dataset


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    ds = make_synthetic_dataset(
        tmp_path_factory.mktemp("srv-ds"), rows=2, cols=2,
        tile_height=32, tile_width=32, overlap=0.25, seed=3,
    )
    return str(ds.directory)


@pytest.fixture()
def service(tmp_path):
    svc = StitchService(tmp_path / "spool", workers=1, max_depth=4,
                        per_tenant_limit=2)
    svc.start_http()  # HTTP only; pool stays cold so jobs stay queued
    yield svc
    svc.stop_http()


@pytest.fixture()
def client(service):
    host, port = service.address
    return ServiceClient(host, port)


@pytest.fixture()
def cold_service(tmp_path):
    """``service``'s cold pool (browned out: no live workers) under a
    chosen :class:`ResilienceConfig`."""
    started = []

    def make(**resilience):
        svc = StitchService(tmp_path / "spool", workers=1, max_depth=4,
                            per_tenant_limit=2,
                            resilience=ResilienceConfig(**resilience))
        svc.start_http()
        started.append(svc)
        return svc

    yield make
    for svc in started:
        svc.stop_http()


def post_job(service, spec: dict) -> tuple[int, dict, dict]:
    """POST one job spec; return the status, JSON body and headers."""
    conn = http.client.HTTPConnection(*service.address, timeout=10)
    try:
        conn.request("POST", "/jobs", body=json.dumps(spec).encode(),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()


class TestSubmission:
    def test_submit_returns_accepted_record(self, client, dataset_dir):
        rec = client.submit({"dataset": dataset_dir, "tenant": "lab-a"})
        assert rec["state"] == "queued"
        assert rec["tenant"] == "lab-a"
        assert len(rec["id"]) == 12

    def test_unknown_keys_rejected_400(self, client, dataset_dir):
        with pytest.raises(ServiceError) as exc_info:
            client.submit({"dataset": dataset_dir, "shell": "rm -rf /"})
        assert exc_info.value.status == 400
        assert "unknown job spec keys" in str(exc_info.value)

    def test_missing_dataset_rejected_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.submit({"dataset": "/no/such/place"})
        assert exc_info.value.status == 400

    def test_malformed_json_rejected_400(self, service):
        host, port = service.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("POST", "/jobs", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        conn.close()
        assert resp.status == 400
        assert "bad JSON" in payload["error"]

    def test_backpressure_429_with_retry_after(self, client, dataset_dir):
        for i in range(2):
            client.submit({"dataset": dataset_dir, "tenant": f"t{i}",
                           "priority": i})
        client.submit({"dataset": dataset_dir, "tenant": "t2"})
        client.submit({"dataset": dataset_dir, "tenant": "t3"})
        with pytest.raises(BackpressureError) as exc_info:
            client.submit({"dataset": dataset_dir, "tenant": "t4"})
        assert exc_info.value.status == 429
        assert exc_info.value.reason == "queue_full"
        assert exc_info.value.retry_after > 0

    def test_tenant_limit_429(self, client, dataset_dir):
        client.submit({"dataset": dataset_dir, "tenant": "noisy"})
        client.submit({"dataset": dataset_dir, "tenant": "noisy"})
        with pytest.raises(BackpressureError) as exc_info:
            client.submit({"dataset": dataset_dir, "tenant": "noisy"})
        assert exc_info.value.reason == "tenant_limit"

    # Retry-After: the EWMA drain hint (1 s a job before any job has
    # finished, x (depth + 1), over 1 worker) for the gates that open as
    # jobs drain; fixed waits for a closed queue and a full spool.
    @pytest.mark.parametrize("reason,retry_after", [
        ("shed_load", "1.0"),
        ("spool_budget", "30.0"),
        ("shutting_down", "60.0"),
        ("queue_full", "5.0"),
        ("tenant_limit", "3.0"),
    ])
    def test_every_429_reason_through_the_service(
            self, cold_service, dataset_dir, reason, retry_after):
        svc = cold_service(
            brownout=BrownoutPolicy(mode="shed" if reason == "shed_load"
                                    else "off"),
            spool_budget_bytes=1 if reason == "spool_budget" else None,
        )
        spec = {"dataset": dataset_dir, "tenant": "t", "priority": 9}
        if reason == "shed_load":
            spec["priority"] = 0  # below the browned-out floor of 5
        elif reason == "shutting_down":
            svc.pool.stop()
        elif reason == "queue_full":
            for i in range(4):
                assert post_job(svc, {**spec, "tenant": f"t{i}"})[0] == 202
        elif reason == "tenant_limit":
            for _ in range(2):
                assert post_job(svc, spec)[0] == 202
        status, payload, headers = post_job(svc, spec)
        assert status == 429
        assert payload["reason"] == reason
        assert headers["Retry-After"] == retry_after
        assert payload["retry_after"] == float(retry_after)

    def test_shed_load_takes_precedence_over_a_full_queue(
            self, cold_service, dataset_dir):
        svc = cold_service(brownout=BrownoutPolicy(mode="shed"))
        for i in range(4):
            status, _, _ = post_job(
                svc, {"dataset": dataset_dir, "tenant": f"t{i}",
                      "priority": 5})
            assert status == 202
        status, payload, _ = post_job(
            svc, {"dataset": dataset_dir, "priority": 0})
        assert status == 429
        assert payload["reason"] == "shed_load"
        assert svc.metrics.counter("service.shed_requests").value == 1
        assert svc.queue.stats()["rejected_full"] == 0

    def test_degrade_removes_work_and_changes_no_option(
            self, cold_service, dataset_dir, tmp_path):
        svc = cold_service(brownout=BrownoutPolicy(mode="degrade"))
        options = {"memory_budget": 1 << 30, "subpixel": False}
        status, rec, _ = post_job(
            svc, {"dataset": dataset_dir, "priority": 5,
                  "output": str(tmp_path / "m.tif"), "options": options})
        assert status == 202
        assert rec["degraded_by_brownout"] == ["skip_compose"]
        assert rec["spec"]["options"] == options
        assert rec["spec"]["output"] is None
        assert svc.metrics.counter("service.jobs_degraded").value == 1

    def test_dataset_root_confinement(self, tmp_path, dataset_dir):
        svc = StitchService(tmp_path / "spool", workers=1,
                            dataset_root=tmp_path / "datasets")
        (tmp_path / "datasets").mkdir()
        svc.start_http()
        try:
            host, port = svc.address
            client = ServiceClient(host, port)
            with pytest.raises(ServiceError) as exc_info:
                client.submit({"dataset": dataset_dir})  # outside the root
            assert exc_info.value.status == 400
            assert "escapes" in str(exc_info.value)
            with pytest.raises(ServiceError) as exc_info:
                client.submit({"dataset": "../../etc"})
            assert exc_info.value.status == 400
        finally:
            svc.stop_http()


class TestStatusAndLifecycle:
    def test_status_roundtrip(self, client, dataset_dir):
        rec = client.submit({"dataset": dataset_dir})
        got = client.status(rec["id"])
        assert got["id"] == rec["id"]
        assert got["state"] == "queued"
        assert got["spec"]["dataset"] == dataset_dir

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.status("0123456789ab")
        assert exc_info.value.status == 404

    def test_malformed_job_id_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.status("..%2f..%2fetc")
        assert exc_info.value.status == 404

    def test_list_jobs_with_tenant_filter(self, client, dataset_dir):
        client.submit({"dataset": dataset_dir, "tenant": "aa"})
        client.submit({"dataset": dataset_dir, "tenant": "bb"})
        assert {j["tenant"] for j in client.list_jobs()} == {"aa", "bb"}
        only = client.list_jobs(tenant="aa")
        assert len(only) == 1 and only[0]["tenant"] == "aa"

    def test_cancel_queued_job(self, client, dataset_dir):
        rec = client.submit({"dataset": dataset_dir})
        cancelled = client.cancel(rec["id"])
        assert cancelled["state"] == "cancelled"
        # Idempotent: cancelling again reports the same terminal state.
        assert client.cancel(rec["id"])["state"] == "cancelled"

    def test_result_of_unfinished_job_409(self, client, dataset_dir):
        rec = client.submit({"dataset": dataset_dir})
        with pytest.raises(ServiceError) as exc_info:
            client.result(rec["id"])
        assert exc_info.value.status == 409
        assert exc_info.value.payload["state"] == "queued"

    def test_wrong_method_405(self, service, dataset_dir):
        host, port = service.address
        client = ServiceClient(host, port)
        rec = client.submit({"dataset": dataset_dir})
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("DELETE", f"/jobs/{rec['id']}")
        resp = conn.getresponse()
        resp.read()
        conn.close()
        assert resp.status == 405

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", "/api/v9/jobs")
        assert exc_info.value.status == 404


class TestMetricsEndpoints:
    def test_healthz(self, client, dataset_dir):
        client.submit({"dataset": dataset_dir})
        health = client.health()
        # The pool is deliberately cold in these tests, and /healthz is
        # honest about it: zero live workers is a brownout condition.
        assert health["ok"] is False
        assert health["status"] == "browned_out"
        assert any("no live workers" in r for r in health["reasons"])
        assert health["queue_depth"] == 1
        assert health["jobs"]["queued"] == 1
        assert health["breaker"]["state"] == "closed"

    def test_healthz_ok_with_live_workers(self, tmp_path, dataset_dir):
        svc = StitchService(tmp_path / "spool", workers=1)
        svc.start()
        svc.start_http()
        try:
            host, port = svc.address
            health = ServiceClient(host, port).health()
            assert health["ok"] is True
            assert health["status"] == "ok"
            assert health["reasons"] == []
        finally:
            svc.stop()

    def test_metrics_json_sections(self, client, dataset_dir):
        client.submit({"dataset": dataset_dir})
        snap = client.metrics()
        assert snap["counters"]["service.jobs_submitted"] == 1
        assert snap["counters"]["service.queue_accepted"] == 1
        assert snap["jobs"]["queued"] == 1
        assert snap["queue"]["accepted"] == 1

    def test_metrics_text_parses_as_prometheus(self, client, dataset_dir):
        """Every non-comment line must be `name[{labels}] value`."""
        client.submit({"dataset": dataset_dir})
        client.cancel(client.submit({"dataset": dataset_dir})["id"])
        text = client.metrics_text()
        assert text.endswith("\n")
        seen = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):
                parts = line.split()
                assert parts[1] == "TYPE" and parts[3] in (
                    "counter", "gauge", "summary"
                )
                continue
            name, value = line.rsplit(" ", 1)
            float(value)  # must parse
            seen[name] = float(value)
        assert seen["repro_service_jobs_submitted"] == 2.0
        assert seen['repro_service_jobs{state="queued"}'] == 1.0
        assert seen['repro_service_jobs{state="cancelled"}'] == 1.0

    def test_cancel_counts_balance(self, client, dataset_dir):
        ids = [client.submit({"dataset": dataset_dir, "tenant": f"t{i}"})["id"]
               for i in range(3)]
        client.cancel(ids[0])
        snap = client.metrics()
        jobs = snap["jobs"]
        assert snap["counters"]["service.jobs_submitted"] == (
            jobs["queued"] + jobs["cancelled"]
        )


def raw_exchange(service, request: bytes) -> tuple[int, dict]:
    """Send raw request bytes; return the status code and JSON body."""
    with socket.create_connection(service.address, timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


class TestMalformedRequests:
    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_400_naming_the_header(self, service,
                                                         length):
        status, payload = raw_exchange(
            service,
            b"POST /jobs HTTP/1.1\r\nContent-Length: " + length
            + b"\r\n\r\n{}",
        )
        assert status == 400
        assert "Content-Length" in payload["error"]

    @pytest.mark.parametrize("wait", [b"abc", b"-1", b"nan"])
    def test_bad_wait_is_400(self, service, client, dataset_dir, wait):
        job_id = client.submit({"dataset": dataset_dir})["id"]
        status, payload = raw_exchange(
            service,
            b"GET /jobs/" + job_id.encode() + b"?wait=" + wait
            + b" HTTP/1.1\r\n\r\n",
        )
        assert status == 400
        assert "wait" in payload["error"]
