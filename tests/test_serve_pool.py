"""WorkerPool: execution-knob resolution onto the campaign engine, and
the worker processes that run every job type."""

import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro
from repro.analysis import checks
from repro.analysis.report import analysis_to_dict
from repro.chaos import ChaosPlan, ChaosRule
from repro.core.machine import Machine
from repro.isa import generator
from repro.isa.assembler import assemble
from repro.serve.api import BackgroundServer
from repro.serve.client import ServeClient
from repro.serve.jobs import JobSpec
from repro.serve.pool import WorkerPool, run_job

CAMPAIGN = {"kinds": ["srt"], "workloads": ["gcc"],
            "models": ["transient-result"], "injections": 4,
            "instructions": 200, "warmup": 500}

RUN = {"benchmarks": ["li"], "instructions": 200, "warmup": 500, "seed": 3}

#: One spec per process-job shape the daemon serves.
PROCESS_JOBS = [
    ("run", dict(RUN, kind="base")),
    ("run", dict(RUN, kind="srt")),
    ("run", dict(RUN, kind="crt")),
    ("analyze", {"workload": "compress", "seed": 7}),
    ("avf", {"workload": "m88ksim", "steps": 300}),
    # jobs=2 fans the figure out again, from inside the worker.
    ("experiment", {"experiment": "fig9", "instructions": 40,
                    "warmup": 0, "jobs": 1}),
    ("experiment", {"experiment": "fig9", "instructions": 40,
                    "warmup": 0, "jobs": 2}),
]


def blob(payload):
    return json.dumps(payload, sort_keys=True)


def new_children(before):
    return [child for child in multiprocessing.active_children()
            if child.pid not in before]


class TestCampaignJobsDefault:
    def test_daemon_default_used_when_jobs_omitted(self, tmp_path):
        """Regression: ``--campaign-jobs`` was dead code — the spec
        default ``jobs=1`` always won, so a daemon started with
        ``--campaign-jobs N`` silently ran campaigns single-process."""
        spec = JobSpec.build("campaign", CAMPAIGN)
        assert spec.params["jobs"] is None  # "let the daemon decide"
        pool = WorkerPool(tmp_path, campaign_jobs=2)
        try:
            result = pool.execute(spec)
        finally:
            pool.shutdown()
        assert result["summary"]["jobs"] == 2

    def test_explicit_jobs_overrides_daemon_default(self, tmp_path):
        spec = JobSpec.build("campaign", dict(CAMPAIGN, jobs=1))
        pool = WorkerPool(tmp_path, campaign_jobs=2)
        try:
            result = pool.execute(spec)
        finally:
            pool.shutdown()
        assert result["summary"]["jobs"] == 1

    def test_explicit_jobs_keys_differently_from_omitted(self):
        # Execution knobs stay part of the cache key when spelled out.
        omitted = JobSpec.build("campaign", CAMPAIGN)
        explicit = JobSpec.build("campaign", dict(CAMPAIGN, jobs=1))
        assert omitted.cache_key() != explicit.cache_key()

    def test_campaign_runs_on_the_calling_thread(self, tmp_path,
                                                 monkeypatch):
        """At jobs=1 the handler runs on its caller's thread, which in
        the daemon is a worker's main thread: each task arms its
        ``SIGALRM`` timeout there."""
        alarms = []
        monkeypatch.setattr(signal, "alarm",
                            lambda seconds: alarms.append(seconds) or 0)
        spec = JobSpec.build("campaign",
                             dict(CAMPAIGN, jobs=1, task_timeout=60))
        before = {child.pid for child in multiprocessing.active_children()}
        result = run_job("campaign", dict(
            spec.params, artifact_dir=str(tmp_path / "artifact")))
        assert new_children(before) == []
        assert result["summary"]["state"] == "complete"
        assert alarms.count(60) == CAMPAIGN["injections"]


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("serve")
    with BackgroundServer(workdir=str(workdir), max_queue=16,
                          max_running=2) as handle:
        client = ServeClient(handle.url)
        client.ping()
        yield handle, client


class TestProcessPayloads:
    @pytest.mark.parametrize("job_type,params", PROCESS_JOBS,
                             ids=[f"{t}-{p.get('kind', p.get('jobs', ''))}"
                                  for t, p in PROCESS_JOBS])
    def test_daemon_payload_equals_in_process_handler(self, daemon,
                                                      job_type, params):
        _, client = daemon
        job = client.submit(job_type, params)["job"]
        final = client.wait_for(job["id"], timeout=300)["job"]
        assert final["state"] == "done", final
        served = client.result(job["id"])["job"]["result"]
        spec = JobSpec.build(job_type, params)
        assert blob(served) == blob(run_job(job_type, spec.params))


class TestSingleBaseRun:
    def test_base_job_simulates_once(self, monkeypatch):
        """A base run is its own baseline: the SMT-efficiency
        denominator reuses it instead of simulating it again."""
        calls = []
        original = Machine.run

        def counting_run(machine, *args, **kwargs):
            calls.append(machine.kind)
            return original(machine, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", counting_run)
        params = JobSpec.build("run", dict(RUN, kind="base")).params
        payload = run_job("run", params)
        assert calls == ["base"]
        (thread,) = payload["threads"]
        assert payload["baseline_ipc"] == {thread["name"]: thread["ipc"]}
        assert payload["efficiency"] == {thread["name"]: 1.0}
        assert payload["mean_efficiency"] == 1.0

    def test_other_kinds_still_measure_their_baseline(self, monkeypatch):
        calls = []
        original = Machine.run

        def counting_run(machine, *args, **kwargs):
            calls.append(machine.kind)
            return original(machine, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", counting_run)
        run_job("run", JobSpec.build("run", dict(RUN, kind="srt")).params)
        assert calls == ["srt", "base"]


class TestAnalyzeGate:
    def test_clean_program_is_verified_once(self, monkeypatch):
        calls = []
        original = checks.verify_program

        def counting_verify(program, *args, **kwargs):
            calls.append(program.name)
            return original(program, *args, **kwargs)

        monkeypatch.setattr(checks, "verify_program", counting_verify)
        # A seed no other test generates, so the gate's memo is cold.
        params = {"workload": "go", "seed": 91_337}
        payload = run_job("analyze", params)
        assert len(calls) == 1
        assert payload["errors"] == 0
        program = generator.generate_benchmark("go", seed=91_337,
                                               verify=False)
        assert blob(payload) == blob(analysis_to_dict(original(program)))

    def test_failing_program_fails_the_job_with_the_gate_text(
            self, monkeypatch):
        bad = assemble("add r1, r2, r3\nhalt\n")
        monkeypatch.setattr(generator, "generate_benchmark",
                            lambda name, seed=0, verify=True: bad)
        with pytest.raises(checks.ProgramVerificationError) as caught:
            run_job("analyze", {"workload": "gcc", "seed": 0})
        with pytest.raises(checks.ProgramVerificationError) as gated:
            checks.gate_program(bad)
        assert str(caught.value) == str(gated.value)
        # The error must survive the trip back from a worker process.
        again = pickle.loads(pickle.dumps(caught.value))
        assert type(again) is checks.ProgramVerificationError
        assert str(again) == str(caught.value)


class TestPoolBreaks:
    def test_killed_worker_requeues_and_is_replaced(self, tmp_path):
        params = {"kind": "srt", "benchmarks": ["gcc"],
                  "instructions": 30_000, "warmup": 1000, "seed": 11}
        started = time.monotonic()
        expected = run_job("run", JobSpec.build("run", params).params)
        duration = time.monotonic() - started
        before = {child.pid for child in multiprocessing.active_children()}
        with BackgroundServer(workdir=str(tmp_path / "serve"),
                              max_running=1) as handle:
            client = ServeClient(handle.url)
            job = client.submit("run", params)["job"]
            worker = running_worker(client, job, before)
            # The worker still has to start up and run the whole job.
            time.sleep(duration / 2)
            os.kill(worker.pid, signal.SIGKILL)
            final = client.wait_for(job["id"], timeout=120)["job"]
            assert final["state"] == "done", final
            assert final["infra_retries"] == 1
            assert "BrokenProcessPool" in final["failure_chain"][0]
            served = client.result(job["id"])["job"]["result"]
            assert blob(served) == blob(expected)
            # Later jobs run normally, on the one replacement worker.
            later = client.submit("analyze", {"workload": "li",
                                              "seed": 5})["job"]
            final = client.wait_for(later["id"], timeout=120)["job"]
            assert final["state"] == "done", final
            assert "failure_chain" not in final
            assert handle.server.scheduler.pool.rebuilds == 1

    @pytest.mark.parametrize("site,jobs", [
        ("campaign.worker.task", 1),
        # The worker dies beside the pool it forked, which holds the
        # worker's pipe open: the daemon must not wait for EOF.
        ("campaign.store.append", 2),
    ])
    def test_campaign_crash_fails_the_job_not_the_daemon(self, tmp_path,
                                                         site, jobs):
        """A chaos crash in a served campaign's own process kills its
        worker, never the daemon: the job fails once its infra retries
        are spent, and the next job runs."""
        plan = tmp_path / "plan.json"
        ChaosPlan(seed=0, rules=(ChaosRule(site, "crash", p=1.0),)).save(
            plan)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        # A log file, not a pipe: processes the daemon's crash orphans
        # would hold a pipe open.
        log = tmp_path / "serve.log"
        with open(log, "w") as sink:
            daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workdir", str(tmp_path / "serve"),
                 "--max-running", "1", "--chaos", str(plan)],
                stdout=sink, env=env)
        try:
            wait_until(lambda: "listening on" in log.read_text(), 60,
                       "the daemon never listened")
            started = log.read_text()
            assert f"chaos: armed 1 rule(s) from {plan}" in started
            client = ServeClient(
                re.search(r"listening on (\S+)", started).group(1))
            job = client.submit("campaign", dict(CAMPAIGN, jobs=jobs))["job"]
            final = client.wait_for(job["id"], timeout=120)["job"]
            assert daemon.poll() is None, "the crash ended the daemon"
            assert final["state"] == "failed", final
            assert final["infra_retries"] == 2
            assert len(final["failure_chain"]) == 3
            assert all("BrokenProcessPool" in failure
                       for failure in final["failure_chain"])
            assert_slot_serves_next_job(client)
        finally:
            daemon.send_signal(signal.SIGTERM)  # its drain stops workers
            try:
                daemon.wait(timeout=60)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
                raise
        assert daemon.returncode == 0
        assert "drained cleanly" in log.read_text()

    def test_concurrent_breaks_replace_each_dead_worker_once(
            self, tmp_path):
        """Four executor threads share two workers, which are killed
        between rounds: each dead worker is replaced exactly once, and
        the pool never runs more than two."""
        spec = JobSpec.build("analyze", {"workload": "li", "seed": 1})
        pool = WorkerPool(tmp_path, workers=2)
        before = {child.pid for child in multiprocessing.active_children()}
        interval = sys.getswitchinterval()
        deadline = time.monotonic() + 120
        kills = killed = 0
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                assert time.monotonic() < deadline, "stress test too slow"
                outcomes = []

                def hammer():
                    try:
                        outcomes.append(pool.execute(spec)["errors"])
                    except BrokenProcessPool:
                        outcomes.append("died")

                threads = [threading.Thread(target=hammer)
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(outcomes) == 4
                live = [child for child in new_children(before)
                        if child.is_alive()]
                assert 1 <= len(live) <= 2
                # The idle dead workers go to the first jobs, once each.
                assert outcomes.count("died") == killed
                assert pool.rebuilds == kills
                for child in live:
                    os.kill(child.pid, signal.SIGKILL)
                    child.join(timeout=30)
                killed = len(live)
                kills += killed
            for _ in range(killed):
                with pytest.raises(BrokenProcessPool):
                    pool.execute(spec)
            assert pool.rebuilds == kills
            assert pool.execute(spec)["errors"] == 0
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert not any(child.is_alive() for child in new_children(before))


#: Process jobs that still run many seconds after they start.
LONG_JOBS = [
    ("run", {"kind": "srt", "benchmarks": ["gcc"],
             "instructions": 200_000, "warmup": 1000, "seed": 11}),
    ("avf", {"workload": "gcc", "steps": 2_000_000}),
    # The worker forks a two-process figure pool into its group.
    ("experiment", {"experiment": "fig9", "instructions": 20_000,
                    "warmup": 0, "jobs": 2}),
    # ... or a two-process campaign pool.
    ("campaign", {"kinds": ["srt"], "workloads": ["gcc"],
                  "models": ["transient-result"], "injections": 200,
                  "instructions": 6000, "jobs": 2}),
]

#: A short job for the slot after a cancel.
NEXT_JOB = ("analyze", {"workload": "li", "seed": 9})


def group_members(pgid):
    """Live (not zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


def wait_until(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.05)


def running_worker(client, job, before, group_size=1):
    """The new worker running ``job``, once its group has
    ``group_size`` live processes."""
    wait_until(lambda: client.status(job["id"])["job"]["state"]
               == "running" and new_children(before), 60,
               "the job never started in a worker")
    (worker,) = new_children(before)
    wait_until(lambda: len(group_members(worker.pid)) >= group_size, 60,
               "the worker's group never grew")
    return worker


def assert_slot_serves_next_job(client):
    job = client.submit(*NEXT_JOB)["job"]
    final = client.wait_for(job["id"], timeout=120)["job"]
    assert final["state"] == "done", final


class TestCancelRunning:
    """A cancelled or timed-out job stops within seconds: its worker's
    whole process group is killed, and the slot's next job runs on a
    replacement worker."""

    @pytest.mark.parametrize("job_type,params", LONG_JOBS,
                             ids=[job_type for job_type, _ in LONG_JOBS])
    def test_cancel_kills_the_worker_group(self, tmp_path, job_type,
                                           params):
        before = {child.pid for child in multiprocessing.active_children()}
        with BackgroundServer(workdir=str(tmp_path / "serve"),
                              max_running=1) as handle:
            client = ServeClient(handle.url)
            job = client.submit(job_type, params)["job"]
            worker = running_worker(
                client, job, before,
                group_size=1 + params.get("jobs", 0))
            time.sleep(0.5)  # into the job
            cancelled_at = time.monotonic()
            client.cancel(job["id"])
            final = client.wait_for(job["id"], timeout=30)["job"]
            assert final["state"] == "cancelled", final
            assert time.monotonic() - cancelled_at < 5
            wait_until(lambda: not group_members(worker.pid), 5,
                       "a process of the worker's group survived")
            assert_slot_serves_next_job(client)
            assert handle.server.scheduler.pool.rebuilds == 0
            counters = client.metrics()["counters"]
            assert counters["cancelled"] == 1
            assert counters["completed"] == 1

    def test_cancel_queued(self, tmp_path):
        before = {child.pid for child in multiprocessing.active_children()}
        with BackgroundServer(workdir=str(tmp_path / "serve"),
                              max_running=1) as handle:
            client = ServeClient(handle.url)
            running = client.submit(*LONG_JOBS[0])["job"]
            running_worker(client, running, before)
            queued = client.submit(*NEXT_JOB)["job"]
            assert queued["state"] == "queued"
            assert client.cancel(queued["id"])["job"]["state"] \
                == "cancelled"
            client.cancel(running["id"])
            assert client.wait_for(running["id"], timeout=30)["job"][
                "state"] == "cancelled"
            assert_slot_serves_next_job(client)
            assert handle.server.scheduler.pool.rebuilds == 0

    def test_job_timeout_kills_the_worker_group(self, tmp_path):
        before = {child.pid for child in multiprocessing.active_children()}
        with BackgroundServer(workdir=str(tmp_path / "serve"),
                              max_running=1, job_timeout=5) as handle:
            client = ServeClient(handle.url)
            job = client.submit(*LONG_JOBS[0])["job"]
            worker = running_worker(client, job, before)
            final = client.wait_for(job["id"], timeout=30)["job"]
            assert final["state"] == "cancelled", final
            assert final["error"] == "job timeout exceeded"
            wait_until(lambda: not group_members(worker.pid), 5,
                       "a process of the worker's group survived")
            assert client.metrics()["counters"]["timeouts"] == 1
            assert_slot_serves_next_job(client)
            assert handle.server.scheduler.pool.rebuilds == 0


class TestDrain:
    def test_no_worker_outlives_drain(self, tmp_path):
        before = {child.pid for child in multiprocessing.active_children()}
        with BackgroundServer(workdir=str(tmp_path / "serve"),
                              max_running=2) as handle:
            client = ServeClient(handle.url)
            jobs = [client.submit("analyze", {"workload": "li",
                                              "seed": seed})["job"]
                    for seed in (1, 2)]
            for job in jobs:
                final = client.wait_for(job["id"], timeout=120)["job"]
                assert final["state"] == "done"
            workers = new_children(before)
            assert workers
            handle.drain()
            assert not any(worker.is_alive() for worker in workers)
