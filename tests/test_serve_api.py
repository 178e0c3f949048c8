"""HTTP API end-to-end: real daemon on a background loop, stdlib
client, real simulation pool (tiny workloads).  Covers the PR's
acceptance demo: concurrent identical submissions coalesce onto one
execution, resubmission after restart is served from the disk cache,
and /metrics counters stay consistent throughout."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import trace as obs_trace
from repro.serve.api import BackgroundServer, ServeServer
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import JobSpec
from repro.serve.pool import JobCancelled
from repro.serve.scheduler import MAX_FINISHED_JOBS, Scheduler

RUN_PARAMS = {"kind": "srt", "benchmarks": ["gcc"], "instructions": 250}


@pytest.fixture()
def server(tmp_path):
    with BackgroundServer(workdir=str(tmp_path / "serve"),
                          max_queue=4, max_running=2) as handle:
        client = ServeClient(handle.url)
        client.ping()
        yield handle, client


class TestLifecycle:
    def test_submit_wait_fetch(self, server):
        _, client = server
        job = client.submit("run", RUN_PARAMS)["job"]
        assert job["state"] in ("queued", "running", "done")
        final = client.wait_for(job["id"], timeout=120)
        assert final["job"]["state"] == "done"
        result = client.result(job["id"])["job"]["result"]
        assert result["kind"] == "srt"
        assert result["cycles"] > 0
        assert "mean_efficiency" in result

    def test_envelope_shape(self, server):
        _, client = server
        payload = client.submit("run", RUN_PARAMS)
        assert payload["tool"] == "serve"
        assert payload["version"] >= 2
        assert payload["ok"] is True

    def test_health_and_metrics(self, server):
        _, client = server
        health = client.healthz()
        assert health["state"] == "serving"
        metrics = client.metrics()
        assert set(metrics["counters"]) >= {"accepted", "completed",
                                            "cache_hits", "coalesced"}
        assert metrics["queue"]["limit"] == 4

    def test_unknown_job_404(self, server):
        _, client = server
        with pytest.raises(ServeError) as exc:
            client.status("j999999")
        assert exc.value.status == 404

    def test_forgotten_job_404_result_still_cached(self, server):
        _, client = server
        first = client.submit("run", RUN_PARAMS)["job"]
        assert client.wait_for(first["id"], timeout=120)["job"]["state"] \
            == "done"
        for _ in range(MAX_FINISHED_JOBS):
            assert client.submit("run", RUN_PARAMS)["job"]["cache_hit"]
        with pytest.raises(ServeError) as exc:
            client.status(first["id"])
        assert exc.value.status == 404
        assert len(client.jobs()["jobs"]) == MAX_FINISHED_JOBS
        assert client.submit("run", RUN_PARAMS)["job"]["cache_hit"]

    def test_bad_spec_400(self, server):
        _, client = server
        with pytest.raises(ServeError) as exc:
            client.submit("run", {"kind": "warp-drive"})
        assert exc.value.status == 400

    def test_result_before_done_409(self, server):
        handle, client = server
        # A job that blocks forever until cancelled.
        job = client.submit("campaign", {
            "kinds": ["srt"], "workloads": ["gcc"],
            "models": ["transient-result"], "injections": 500,
            "instructions": 400})["job"]
        with pytest.raises(ServeError) as exc:
            client.result(job["id"])
        assert exc.value.status == 409
        client.cancel(job["id"])


class TestCacheOverHTTP:
    def test_resubmit_is_cache_hit_and_byte_identical(self, server):
        _, client = server
        first = client.submit("run", RUN_PARAMS)["job"]
        client.wait_for(first["id"], timeout=120)
        second = client.submit("run", RUN_PARAMS)["job"]
        assert second["state"] == "done"
        assert second["cache_hit"] is True
        blob1 = json.dumps(client.result(first["id"])["job"]["result"],
                           sort_keys=True)
        blob2 = json.dumps(client.result(second["id"])["job"]["result"],
                           sort_keys=True)
        assert blob1 == blob2
        metrics = client.metrics()
        assert metrics["counters"]["cache_hits"] == 1
        assert metrics["cache"]["entries"] == 1

    def test_cache_survives_daemon_restart(self, tmp_path):
        workdir = str(tmp_path / "serve")
        with BackgroundServer(workdir=workdir) as handle:
            client = ServeClient(handle.url)
            client.ping()
            job = client.submit("run", RUN_PARAMS)["job"]
            first = client.wait_for(job["id"], timeout=120)
            assert first["job"]["cache_hit"] is False
        # Fresh daemon, same workdir: served from disk, no recompute.
        with BackgroundServer(workdir=workdir) as handle:
            client = ServeClient(handle.url)
            client.ping()
            job = client.submit("run", RUN_PARAMS)["job"]
            assert job["state"] == "done"
            assert job["cache_hit"] is True


class FakePool:
    """Deterministic pool for coalescing/admission tests over HTTP."""

    def __init__(self):
        self.gate = threading.Event()
        self.executions = 0
        self.lock = threading.Lock()

    def execute(self, spec, cancel):
        with self.lock:
            self.executions += 1
        while not self.gate.wait(timeout=0.02):
            if cancel.is_set():
                raise JobCancelled("stopped")
        return {"echo": spec.params.get("instructions")}


@pytest.fixture()
def fake_server(tmp_path):
    pool = FakePool()
    scheduler = Scheduler(pool, ResultCache(tmp_path / "cache"),
                          max_queue=2, max_running=1)
    with BackgroundServer(scheduler=scheduler) as handle:
        client = ServeClient(handle.url)
        client.ping()
        yield handle, client, pool


class TestCoalescingOverHTTP:
    def test_concurrent_identical_submissions_one_execution(
            self, fake_server):
        _, client, pool = fake_server
        first = client.submit("run", RUN_PARAMS, client="a")["job"]
        second = client.submit("run", RUN_PARAMS, client="b")["job"]
        assert second["coalesced_with"] == first["id"]
        pool.gate.set()
        final1 = client.wait_for(first["id"], timeout=30)["job"]
        final2 = client.wait_for(second["id"], timeout=30)["job"]
        assert final1["state"] == final2["state"] == "done"
        assert pool.executions == 1
        metrics = client.metrics()
        assert metrics["counters"]["coalesced"] == 1
        assert metrics["counters"]["accepted"] == 2
        assert metrics["counters"]["completed"] == 2


class TestAdmissionOverHTTP:
    def test_429_with_retry_after_header(self, fake_server):
        handle, client, pool = fake_server
        specs = [dict(RUN_PARAMS, instructions=300 + i)
                 for i in range(4)]
        jobs = [client.submit("run", s)["job"] for s in specs[:3]]
        # One running (slot=1), two queued (queue=2): full.
        with pytest.raises(ServeError) as exc:
            client.submit("run", specs[3])
        assert exc.value.status == 429
        assert exc.value.retry_after >= 1
        # The actual HTTP header, not just the JSON payload.
        request = urllib.request.Request(
            handle.url + "/v1/jobs",
            data=json.dumps({"type": "run",
                             "params": specs[3]}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as http_exc:
            urllib.request.urlopen(request, timeout=10)
        assert http_exc.value.code == 429
        assert int(http_exc.value.headers["Retry-After"]) >= 1
        for job in jobs:
            client.cancel(job["id"])

    def test_cancel_frees_queue_slot(self, fake_server):
        _, client, pool = fake_server
        specs = [dict(RUN_PARAMS, instructions=300 + i)
                 for i in range(4)]
        jobs = [client.submit("run", s)["job"] for s in specs[:3]]
        with pytest.raises(ServeError):
            client.submit("run", specs[3])
        cancelled = client.cancel(jobs[-1]["id"])["job"]
        assert cancelled["state"] == "cancelled"
        late = client.submit("run", specs[3])["job"]  # admitted now
        assert late["state"] == "queued"
        for job in jobs[:2] + [late]:
            client.cancel(job["id"])


class TestRequestLimits:
    def test_oversized_headers_rejected(self, fake_server):
        """A client streaming headers forever is answered 400 at the
        cap instead of holding daemon memory without bound."""
        handle, _, _ = fake_server
        address = (handle.server.host, handle.server.port)
        response = b""
        with socket.create_connection(address, timeout=10) as sock:
            try:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                junk = b"X-Junk: " + b"a" * 500 + b"\r\n"
                for _ in range(40):  # ~20KB of headers, far past the cap
                    sock.sendall(junk)
                sock.sendall(b"\r\n")
            except (BrokenPipeError, ConnectionResetError):
                pass  # server already answered and closed
            while True:
                try:
                    chunk = sock.recv(4096)
                except ConnectionResetError:
                    break
                if not chunk:
                    break
                response += chunk
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        assert b"headers too large" in response

    def test_stalled_client_is_dropped(self, tmp_path, monkeypatch):
        """A connection that never finishes its request is closed at
        the read timeout and the daemon keeps serving."""
        import repro.serve.api as api_module
        monkeypatch.setattr(api_module, "REQUEST_READ_TIMEOUT", 0.3)
        with BackgroundServer(workdir=str(tmp_path / "serve")) as handle:
            address = (handle.server.host, handle.server.port)
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")  # then stall
                assert sock.recv(4096) == b""  # dropped, no response
            assert ServeClient(handle.url).ping()["ok"] is True


class TestWorkerPoolSpans:
    def test_job_span_parents_pool_span(self, tmp_path):
        """The handler runs in a worker process now; its ``pool.*``
        span still nests under the job's ``serve.job.*`` root."""
        path = tmp_path / "spans.jsonl"
        submitted = {"run": RUN_PARAMS,
                     "analyze": {"workload": "li", "seed": 2}}
        with obs_trace.traced(path):
            with BackgroundServer(workdir=str(tmp_path / "serve")) as handle:
                client = ServeClient(handle.url)
                for job_type, params in submitted.items():
                    job = client.submit(job_type, params)["job"]
                    final = client.wait_for(job["id"], timeout=120)["job"]
                    assert final["state"] == "done"
        records = obs_trace.read_spans(path)
        for job_type, params in submitted.items():
            key = JobSpec.build(job_type, params).cache_key()[:16]
            (root,) = [r for r in records
                       if r["name"] == f"serve.job.{job_type}"]
            (child,) = [r for r in records
                        if r["name"] == f"pool.{job_type}"]
            assert root["trace"] == child["trace"] == key
            assert root["key"] == child["key"] == key
            assert root["parent"] is None
            assert child["parent"] == root["span"]
            assert root["ok"] and child["ok"]

    def test_campaign_run_span_parents_under_pool_span(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        params = {"kinds": ["srt"], "workloads": ["gcc"],
                  "models": ["transient-result"], "injections": 3,
                  "instructions": 150, "warmup": 300}
        with obs_trace.traced(path):
            with BackgroundServer(workdir=str(tmp_path / "serve")) as handle:
                client = ServeClient(handle.url)
                job = client.submit("campaign", params)["job"]
                final = client.wait_for(job["id"], timeout=120)["job"]
                assert final["state"] == "done"
        records = obs_trace.read_spans(path)
        (pool_span,) = [r for r in records if r["name"] == "pool.campaign"]
        (run_span,) = [r for r in records if r["name"] == "campaign.run"]
        assert run_span["parent"] == pool_span["span"]
        assert run_span["trace"] == pool_span["trace"]
        tasks = [r for r in records if r["name"] == "campaign.task"]
        assert len(tasks) == 3
        assert {r["trace"] for r in tasks} == {pool_span["trace"]}


class TestCampaignCancel:
    def test_cancel_stops_running_campaign_at_chunk_boundary(
            self, tmp_path):
        workdir = tmp_path / "serve"
        params = {"kinds": ["srt"], "workloads": ["gcc"],
                  "models": ["transient-result"], "injections": 200,
                  "instructions": 300, "jobs": 1, "chunk_size": 1}
        with BackgroundServer(workdir=str(workdir)) as handle:
            client = ServeClient(handle.url)
            job = client.submit("campaign", params)["job"]
            artifact = (workdir / "artifacts"
                        / JobSpec.build("campaign", params).cache_key())
            results = artifact / "results.jsonl"
            for _ in range(600):  # until the first chunk is appended
                if results.exists() and results.read_text():
                    break
                threading.Event().wait(0.05)
            client.cancel(job["id"])
            final = client.wait_for(job["id"], timeout=120)["job"]
        assert final["state"] == "cancelled"
        assert final["error"].startswith("campaign stopped at ")
        indices = [json.loads(line)["index"]
                   for line in results.read_text().splitlines()]
        assert 0 < len(indices) < 200
        assert indices == list(range(len(indices)))


class TestDrain:
    def test_drain_leaves_no_torn_campaign_artifact(self, tmp_path):
        """SIGTERM mid-campaign: results.jsonl has no torn tail and
        the artifact resumes instead of restarting."""
        workdir = tmp_path / "serve"
        params = {"kinds": ["srt"], "workloads": ["gcc"],
                  "models": ["transient-result"], "injections": 200,
                  "instructions": 300}
        with BackgroundServer(workdir=str(workdir)) as handle:
            client = ServeClient(handle.url)
            client.ping()
            job = client.submit("campaign", params)["job"]
            client.status(job["id"], wait=0)
            handle.drain()  # the SIGTERM path, synchronously
        spec = JobSpec.build("campaign", params)
        artifact = workdir / "artifacts" / spec.cache_key()
        results = artifact / "results.jsonl"
        if results.exists():
            lines = results.read_text().splitlines()
            for line in lines:  # every line parses: no torn tail
                json.loads(line)
            indices = [json.loads(line)["index"] for line in lines]
            assert indices == list(range(len(indices)))

    def test_background_server_exits_cleanly(self, tmp_path):
        with BackgroundServer(workdir=str(tmp_path / "serve")) as handle:
            ServeClient(handle.url).ping()
        # __exit__ drained; a second context on the same dir works.
        with BackgroundServer(workdir=str(tmp_path / "serve")) as handle:
            assert ServeClient(handle.url).ping()["state"] == "serving"
