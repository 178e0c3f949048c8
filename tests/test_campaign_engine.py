"""Engine integration: execution, cross-process determinism, resume,
and the program a worker process shares between its tasks."""

import sys
import threading
from pathlib import Path

import pytest

from repro.campaign import worker
from repro.campaign.engine import CampaignEngine, auto_chunk_size
from repro.campaign.sampler import enumerate_tasks
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.campaign.worker import execute_chunk, execute_task
from repro.core.faults import FaultOutcome
from repro.isa.executor import record_path
from repro.isa.generator import generate_benchmark

SPEC = CampaignSpec(kinds=("base", "srt"), workloads=("m88ksim",),
                    models=("transient-result",), injections=3,
                    instructions=150, warmup=400)


def run_into(tmp_path, name, jobs, spec=SPEC, **kwargs):
    out = tmp_path / name
    engine = CampaignEngine(spec, out, jobs=jobs, **kwargs)
    summary = engine.run()
    return out, summary


class TestExecution:
    def test_runs_every_task_once(self, tmp_path):
        out, summary = run_into(tmp_path, "a", jobs=1)
        assert summary["executed"] == SPEC.total_tasks() == 6
        records = CampaignStore(out).records()
        assert len(records) == 6
        assert [r["index"] for r in records] == list(range(6))
        valid = {outcome.value for outcome in FaultOutcome}
        assert all(r["outcome"] in valid for r in records)

    def test_progress_callback_reaches_total(self, tmp_path):
        seen = []
        engine = CampaignEngine(SPEC, tmp_path / "p", jobs=1)
        engine.run(progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (6, 6)

    def test_auto_chunk_size_bounds(self):
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(1, 4) == 1
        assert auto_chunk_size(1000, 4) == 16
        assert 1 <= auto_chunk_size(37, 8) <= 16


class TestCrossProcessDeterminism:
    def test_jobs_do_not_change_bytes(self, tmp_path):
        """Same config + seed ⇒ byte-identical JSONL at any --jobs."""
        seq, _ = run_into(tmp_path, "seq", jobs=1)
        par, _ = run_into(tmp_path, "par", jobs=2)
        assert (seq / "results.jsonl").read_bytes() \
            == (par / "results.jsonl").read_bytes()

    def test_chunk_size_does_not_change_bytes(self, tmp_path):
        a, _ = run_into(tmp_path, "c1", jobs=1, chunk_size=1)
        b, _ = run_into(tmp_path, "c5", jobs=1, chunk_size=5)
        assert (a / "results.jsonl").read_bytes() \
            == (b / "results.jsonl").read_bytes()


class TestResume:
    def test_kill_and_resume_skips_completed_work(self, tmp_path):
        reference, _ = run_into(tmp_path, "ref", jobs=1)
        reference_bytes = (reference / "results.jsonl").read_bytes()

        out, _ = run_into(tmp_path, "victim", jobs=1)
        results = Path(out / "results.jsonl")
        lines = results.read_bytes().splitlines(keepends=True)
        # Simulate a mid-run kill: two complete records + a torn write.
        results.write_bytes(b"".join(lines[:2]) + lines[2][:7])

        summary = CampaignEngine(SPEC, out, jobs=1).run()
        assert summary["already_complete"] == 2
        assert summary["executed"] == 4  # never re-runs the finished two
        assert results.read_bytes() == reference_bytes

    def test_completed_campaign_resumes_to_noop(self, tmp_path):
        out, _ = run_into(tmp_path, "done", jobs=1)
        summary = CampaignEngine(SPEC, out, jobs=1).run()
        assert summary["executed"] == 0
        assert summary["already_complete"] == 6


class TestWorker:
    def test_execute_task_matches_chunk_execution(self):
        from repro.campaign.sampler import enumerate_tasks
        task = enumerate_tasks(SPEC)[0].to_dict()
        solo = execute_task(task)
        chunked = execute_chunk({"tasks": [task], "config": None,
                                 "timeout": 0})
        assert chunked == [solo]

    def test_records_have_no_wall_clock_fields(self):
        from repro.campaign.sampler import enumerate_tasks
        task = enumerate_tasks(SPEC)[0].to_dict()
        record = execute_task(task)
        assert not any("time" in key or "stamp" in key for key in record
                       if key != "timed_out")


class TestCancellation:
    """Cooperative should_stop: clean prefix, resumable, both modes."""

    def stop_after(self, n):
        calls = {"count": 0}

        def should_stop():
            calls["count"] += 1
            return calls["count"] > n

        return should_stop

    def test_serial_stop_leaves_canonical_prefix(self, tmp_path):
        out = tmp_path / "c"
        engine = CampaignEngine(SPEC, out, jobs=1, chunk_size=1)
        summary = engine.run(should_stop=self.stop_after(2))
        assert summary["cancelled"] is True
        assert summary["state"] == "cancelled"
        records = CampaignStore(out).records()
        assert 0 < len(records) < SPEC.total_tasks()
        # The stored prefix is exactly canonical order: resumable.
        assert [r["index"] for r in records] == list(range(len(records)))

    def test_parallel_stop_leaves_canonical_prefix(self, tmp_path):
        # Enough tasks that the bounded submission window (jobs*4)
        # cannot swallow the whole campaign before the stop lands.
        big = CampaignSpec(kinds=("base", "srt"), workloads=("m88ksim",),
                           models=("transient-result",), injections=12,
                           instructions=150, warmup=400)
        out = tmp_path / "c"
        engine = CampaignEngine(big, out, jobs=2, chunk_size=1)
        summary = engine.run(should_stop=self.stop_after(2))
        assert summary["cancelled"] is True
        records = CampaignStore(out).records()
        assert 0 < len(records) < big.total_tasks()
        assert [r["index"] for r in records] == list(range(len(records)))

    def test_cancelled_campaign_resumes_to_completion(self, tmp_path):
        out = tmp_path / "c"
        CampaignEngine(SPEC, out, jobs=1, chunk_size=1).run(
            should_stop=self.stop_after(2))
        # Second run, no stop: picks up where the cancel left off.
        summary = CampaignEngine(SPEC, out, jobs=1).run()
        assert summary["cancelled"] is False
        assert summary["state"] == "complete"
        records = CampaignStore(out).records()
        assert len(records) == SPEC.total_tasks()
        assert [r["index"] for r in records] \
            == list(range(SPEC.total_tasks()))

    def test_cancelled_matches_uncancelled_prefix(self, tmp_path):
        # Determinism: a cancelled-then-resumed campaign is record-for-
        # record identical to one that never stopped.
        stopped = tmp_path / "stopped"
        CampaignEngine(SPEC, stopped, jobs=1, chunk_size=1).run(
            should_stop=self.stop_after(2))
        CampaignEngine(SPEC, stopped, jobs=1).run()
        straight = tmp_path / "straight"
        CampaignEngine(SPEC, straight, jobs=1).run()
        assert (CampaignStore(stopped).results_path.read_text()
                == CampaignStore(straight).results_path.read_text())

    def test_never_stopping_is_not_cancelled(self, tmp_path):
        out, summary = run_into(tmp_path, "c", jobs=1)
        assert summary["cancelled"] is False
        assert summary["state"] == "complete"

    def test_progress_sidecar_live_during_run(self, tmp_path):
        # The engine writes the sidecar after every chunk, so an
        # observer (campaign status) sees live progress mid-run.
        out = tmp_path / "c"
        seen = []
        store_holder = {}

        def spy_stop():
            store = store_holder.get("store")
            if store is not None:
                progress = store.load_progress()
                if progress is not None:
                    seen.append(progress["done"])
            return False

        engine = CampaignEngine(SPEC, out, jobs=1, chunk_size=1)
        store_holder["store"] = CampaignStore(out)
        engine.run(should_stop=spy_stop)
        assert seen  # sidecar observable while running
        assert seen == sorted(seen)
        final = CampaignStore(out).load_progress()
        assert final["state"] == "complete"
        assert final["already_complete"] + final["executed"] \
            == SPEC.total_tasks()


@pytest.fixture
def fresh_programs():
    """Empty worker program and reference caches, emptied again
    afterwards so no test leaves its programs (or stand-ins) or
    reference runs to the next."""
    worker.program_for.cache_clear()
    worker.clear_reference_runs()
    yield
    worker.program_for.cache_clear()
    worker.clear_reference_runs()


def count_generations(monkeypatch, make=None):
    """Record every program generation the worker asks for."""
    calls = []

    def generate(name, seed=0):
        calls.append((name, seed))
        return (make or generate_benchmark)(name, seed=seed)

    monkeypatch.setattr(worker, "generate_benchmark", generate)
    return calls


@pytest.mark.usefixtures("fresh_programs")
class TestProgramSharing:
    SPEC = CampaignSpec(kinds=("srt",), workloads=("m88ksim", "compress"),
                        models=("transient-result", "transient-register"),
                        injections=2, instructions=150, warmup=400)

    def test_generated_once_per_process_and_chunking_is_invisible(
            self, tmp_path, monkeypatch):
        calls = count_generations(monkeypatch)
        single, _ = run_into(tmp_path, "c1", jobs=1, spec=self.SPEC,
                             chunk_size=1)
        assert sorted(calls) == [("compress", 0), ("m88ksim", 0)]
        whole, _ = run_into(tmp_path, "c16", jobs=1, spec=self.SPEC,
                            chunk_size=16)
        assert len(calls) == 2
        assert (single / "results.jsonl").read_bytes() \
            == (whole / "results.jsonl").read_bytes()

    def test_tasks_leave_the_shared_program_unchanged(self):
        arch = CampaignSpec(kinds=("arch",), workloads=("m88ksim",),
                            models=("arch-destfield", "arch-memory",
                                    "arch-register"),
                            injections=3, instructions=200, warmup=0)
        transient = CampaignSpec(kinds=("srt",), workloads=("m88ksim",),
                                 models=("transient-result",),
                                 injections=2, instructions=150,
                                 warmup=400)
        tasks = [task.to_dict() for task in enumerate_tasks(arch)]
        tasks[1:1] = [task.to_dict() for task in enumerate_tasks(transient)]
        records = execute_chunk({"tasks": tasks, "config": None})
        assert {r["model"] for r in records} == {
            "arch-destfield", "arch-memory", "arch-register",
            "transient-result"}
        shared = worker.program_for("m88ksim", 0)
        pristine = generate_benchmark("m88ksim", seed=0)
        assert shared.instructions == pristine.instructions
        assert shared.initial_memory == pristine.initial_memory
        recorded = shared.recorded_path(1)
        assert recorded == record_path(pristine, len(recorded))

    def test_lru_evicts_the_oldest_entry_past_its_bound(self, monkeypatch):
        calls = count_generations(monkeypatch,
                                  make=lambda name, seed: (name, seed))
        bound = worker.program_for.cache_info().maxsize
        assert bound == 18
        for seed in range(bound + 1):
            worker.program_for("m88ksim", seed)
        assert len(calls) == bound + 1
        assert worker.program_for.cache_info().currsize == bound
        worker.program_for("m88ksim", bound)      # newest: kept
        worker.program_for("m88ksim", 1)          # kept, now newest
        assert len(calls) == bound + 1
        worker.program_for("m88ksim", 0)          # oldest: evicted
        assert calls[-1] == ("m88ksim", 0)
        worker.program_for("m88ksim", 2)          # pushed out by seed 0
        assert len(calls) == bound + 3

    def test_concurrent_in_process_campaigns_agree(self):
        """Serve executor threads may generate and record one program at
        once: every thread still gets the serial records."""
        tasks = [task.to_dict() for task in enumerate_tasks(self.SPEC)]
        reference = execute_chunk({"tasks": tasks, "config": None})
        worker.program_for.cache_clear()
        worker.clear_reference_runs()
        results, errors = {}, []

        def run(index):
            try:
                results[index] = execute_chunk(
                    {"tasks": tasks[index % 2::2] + tasks[1 - index % 2::2],
                     "config": None})
            except Exception as error:  # asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        by_id = {record["task_id"]: record for record in reference}
        for records in results.values():
            assert len(records) == len(reference)
            for record in records:
                assert record == by_id[record["task_id"]]
