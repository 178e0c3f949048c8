"""Scheduler lifecycle: admission control, fair share, coalescing,
cancellation, drain.  Uses a fake pool so tests control exactly when
each "job" finishes; everything runs on one asyncio loop."""

import asyncio
import threading

import pytest

from repro.obs.metrics import ServiceCounters
from repro.serve.cache import ResultCache
from repro.serve.jobs import JobSpec
from repro.serve.pool import JobCancelled
from repro.serve.scheduler import (CANCELLED, DONE, FAILED,
                                   MAX_FINISHED_JOBS, QUEUED, RUNNING,
                                   Draining, QueueFull, Scheduler)


def spec(tag=0, **overrides):
    params = {"kind": "srt", "benchmarks": ["gcc"],
              "instructions": 300 + tag}
    params.update(overrides)
    return JobSpec.build("run", params)


class FakePool:
    """Blocks each job on a gate the test releases; honors cancel."""

    #: Every pool built in the running test; ``release_gates`` opens them.
    built = []

    def __init__(self):
        self.gates = {}
        self.started = []
        self.executions = 0
        self.lock = threading.Lock()
        self.released = False
        FakePool.built.append(self)

    def gate(self, key):
        with self.lock:
            gate = self.gates.get(key)
            if gate is None:
                gate = self.gates[key] = threading.Event()
                if self.released:
                    gate.set()
            return gate

    def release(self):
        """Open every gate, now and later."""
        with self.lock:
            self.released = True
            gates = list(self.gates.values())
        for gate in gates:
            gate.set()

    def execute(self, job_spec, cancel):
        with self.lock:
            self.executions += 1
            self.started.append(job_spec.cache_key())
        gate = self.gate(job_spec.cache_key())
        while not gate.wait(timeout=0.02):
            if cancel.is_set():
                raise JobCancelled("stopped at chunk boundary")
        if cancel.is_set():
            raise JobCancelled("stopped at chunk boundary")
        return {"echo": job_spec.params["instructions"]}


@pytest.fixture(autouse=True)
def release_gates():
    """Open every FakePool gate when the test ends.  A scenario that
    fails before it opens its gates leaves the executor thread waiting
    in ``FakePool.execute``; the interpreter joins that thread at exit,
    so the run would hang there instead of reporting the failure."""
    yield
    while FakePool.built:
        FakePool.built.pop().release()


def make_scheduler(tmp_path, **kwargs):
    pool = FakePool()
    kwargs.setdefault("max_queue", 3)
    kwargs.setdefault("max_running", 1)
    scheduler = Scheduler(pool, ResultCache(tmp_path / "cache"), **kwargs)
    return scheduler, pool


async def wait_for(predicate, timeout=5.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while not predicate():
        if asyncio.get_event_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.01)


def run(coro):
    asyncio.run(coro)


class TestAdmission:
    def test_queue_full_raises_with_retry_after(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            first = scheduler.submit(spec(0))
            # Wait for dispatch so the queue slots are genuinely free.
            await wait_for(lambda: scheduler.queue_stats()["running"] == 1)
            jobs = [first] + [scheduler.submit(spec(i))
                              for i in range(1, 4)]
            # One running, three queued: the queue is now full.
            with pytest.raises(QueueFull) as exc:
                scheduler.submit(spec(99))
            assert exc.value.retry_after >= 1
            assert scheduler.counters.rejected == 1
            for i, job in enumerate(jobs):
                pool.gate(spec(i).cache_key()).set()
            await wait_for(lambda: all(j.finished for j in jobs))
            await scheduler.drain()

        run(scenario())

    def test_slot_freed_admits_again(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            first = scheduler.submit(spec(0))
            await wait_for(lambda: scheduler.queue_stats()["running"] == 1)
            jobs = [first] + [scheduler.submit(spec(i))
                              for i in range(1, 4)]
            with pytest.raises(QueueFull):
                scheduler.submit(spec(99))
            pool.gate(spec(0).cache_key()).set()  # finish the runner
            await wait_for(lambda: jobs[0].finished)
            late = scheduler.submit(spec(99))  # queue slot freed
            assert late.state == QUEUED
            for i in range(1, 4):
                pool.gate(spec(i).cache_key()).set()
            pool.gate(spec(99).cache_key()).set()
            await wait_for(lambda: late.finished)
            await scheduler.drain()

        run(scenario())

    def test_draining_rejects_submissions(self, tmp_path):
        async def scenario():
            scheduler, _ = make_scheduler(tmp_path)
            scheduler.start()
            await scheduler.drain()
            with pytest.raises(Draining):
                scheduler.submit(spec())

        run(scenario())


class TestFairShare:
    def test_least_served_client_wins(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path, max_queue=8)
            scheduler.start()
            first = scheduler.submit(spec(0), client="hog")
            await wait_for(lambda: first.state == RUNNING)
            hog = scheduler.submit(spec(1), client="hog")
            meek = scheduler.submit(spec(2), client="meek")
            pool.gate(spec(0).cache_key()).set()
            # meek arrived later but has been served less than hog.
            await wait_for(lambda: meek.state == RUNNING)
            assert hog.state == QUEUED
            for tag in (1, 2):
                pool.gate(spec(tag).cache_key()).set()
            await wait_for(lambda: hog.finished and meek.finished)
            await scheduler.drain()

        run(scenario())

    def test_priority_trumps_history(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path, max_queue=8)
            scheduler.start()
            first = scheduler.submit(spec(0), client="hog")
            await wait_for(lambda: first.state == RUNNING)
            urgent = scheduler.submit(spec(1), client="hog", priority=5)
            meek = scheduler.submit(spec(2), client="meek")
            pool.gate(spec(0).cache_key()).set()
            await wait_for(lambda: urgent.state == RUNNING)
            assert meek.state == QUEUED
            for tag in (1, 2):
                pool.gate(spec(tag).cache_key()).set()
            await wait_for(lambda: urgent.finished and meek.finished)
            await scheduler.drain()

        run(scenario())


class TestCoalescing:
    def test_identical_in_flight_submissions_share_one_execution(
            self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            primary = scheduler.submit(spec(), client="a")
            follower = scheduler.submit(spec(), client="b")
            assert follower.coalesced_with == primary.job_id
            assert scheduler.counters.coalesced == 1
            pool.gate(spec().cache_key()).set()
            await wait_for(lambda: primary.finished and follower.finished)
            assert pool.executions == 1
            assert primary.result == follower.result
            assert primary.state == follower.state == DONE
            await scheduler.drain()

        run(scenario())

    def test_cancelling_primary_promotes_follower(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            primary = scheduler.submit(spec(), client="a")
            await wait_for(lambda: primary.state == RUNNING)
            follower = scheduler.submit(spec(), client="b")
            scheduler.cancel(primary.job_id)
            assert primary.state == CANCELLED
            # The computation survives under the promoted follower.
            assert follower.coalesced_with is None
            pool.gate(spec().cache_key()).set()
            await wait_for(lambda: follower.finished)
            assert follower.state == DONE
            assert pool.executions == 1
            await scheduler.drain()

        run(scenario())

    def test_cancelling_follower_leaves_primary_running(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            primary = scheduler.submit(spec(), client="a")
            follower = scheduler.submit(spec(), client="b")
            scheduler.cancel(follower.job_id)
            assert follower.state == CANCELLED
            assert primary.followers == []
            pool.gate(spec().cache_key()).set()
            await wait_for(lambda: primary.finished)
            assert primary.state == DONE
            await scheduler.drain()

        run(scenario())


class TestCancellation:
    def test_cancel_running_frees_slot(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            stuck = scheduler.submit(spec(0))
            queued = scheduler.submit(spec(1))
            await wait_for(lambda: stuck.state == RUNNING)
            scheduler.cancel(stuck.job_id)  # cooperative: gate never set
            await wait_for(lambda: stuck.state == CANCELLED)
            # The freed slot dispatches the queued job.
            await wait_for(lambda: queued.state == RUNNING)
            pool.gate(spec(1).cache_key()).set()
            await wait_for(lambda: queued.finished)
            assert queued.state == DONE
            assert scheduler.counters.cancelled == 1
            await scheduler.drain()

        run(scenario())

    def test_cancel_queued_is_immediate(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            runner = scheduler.submit(spec(0))
            queued = scheduler.submit(spec(1))
            await wait_for(lambda: runner.state == RUNNING)
            scheduler.cancel(queued.job_id)
            assert queued.state == CANCELLED
            assert scheduler.queue_stats()["depth"] == 0
            pool.gate(spec(0).cache_key()).set()
            await wait_for(lambda: runner.finished)
            assert pool.executions == 1  # cancelled job never started
            await scheduler.drain()

        run(scenario())

    def test_resubmit_after_cancelling_running_primary_is_fresh(
            self, tmp_path):
        """Regression: an identical submission arriving while a
        follower-less cancelled primary was still winding down used to
        coalesce onto it and get spuriously CANCELLED."""
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            doomed = scheduler.submit(spec(), client="a")
            await wait_for(lambda: doomed.state == RUNNING)
            scheduler.cancel(doomed.job_id)  # cooperative: winds down
            fresh = scheduler.submit(spec(), client="b")
            assert fresh.coalesced_with is None  # not glued to the dying job
            await wait_for(lambda: doomed.state == CANCELLED)
            await wait_for(lambda: fresh.state == RUNNING)
            pool.gate(spec().cache_key()).set()
            await wait_for(lambda: fresh.finished)
            assert fresh.state == DONE
            assert pool.executions == 2
            assert scheduler.counters.consistent()
            await scheduler.drain()

        run(scenario())

    def test_timeout_counts_and_cancels(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path, job_timeout=0.1)
            scheduler.start()
            job = scheduler.submit(spec())
            # Gate never set: the job can only end via timeout.
            await wait_for(lambda: job.finished)
            assert job.state == CANCELLED
            assert "timeout" in job.error
            assert scheduler.counters.timeouts == 1
            await scheduler.drain()

        run(scenario())


class TestRetention:
    def test_oldest_finished_jobs_are_forgotten_first(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            gates = [pool.gate(spec(tag).cache_key()) for tag in (0, 1)]
            scheduler.start()
            try:
                running = scheduler.submit(spec(0))
                await wait_for(lambda: running.state == RUNNING)
                queued = scheduler.submit(spec(1))
                scheduler.cache.put(spec(2), {"echo": 302})
                hits = [scheduler.submit(spec(2))
                        for _ in range(MAX_FINISHED_JOBS + 5)]
                assert all(hit.cache_hit for hit in hits)
                assert set(scheduler.jobs) == (
                    {running.job_id, queued.job_id}
                    | {hit.job_id for hit in hits[5:]})
                with pytest.raises(KeyError):
                    scheduler.cancel(hits[0].job_id)
                for gate in gates:
                    gate.set()
                await wait_for(lambda: queued.finished)
                assert running.state == queued.state == DONE
                # Each of them pushed out the oldest-finished job left.
                assert {running.job_id, queued.job_id} <= set(scheduler.jobs)
                assert hits[6].job_id not in scheduler.jobs
                assert len(scheduler.jobs) == MAX_FINISHED_JOBS
                assert scheduler.counters.consistent()
            finally:
                for gate in gates:
                    gate.set()
                await scheduler.drain()

        run(scenario())


class TestCacheIntegration:
    def test_second_submit_after_done_is_cache_hit(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            first = scheduler.submit(spec())
            pool.gate(spec().cache_key()).set()
            await wait_for(lambda: first.finished)
            second = scheduler.submit(spec())
            assert second.state == DONE  # instantly, from disk
            assert second.cache_hit
            assert second.result == first.result
            assert pool.executions == 1
            assert scheduler.counters.cache_hits == 1
            await scheduler.drain()

        run(scenario())

    def test_failed_jobs_are_not_cached(self, tmp_path):
        class ExplodingPool:
            executions = 0

            def execute(self, job_spec, cancel):
                ExplodingPool.executions += 1
                raise RuntimeError("boom")

        async def scenario():
            scheduler = Scheduler(ExplodingPool(),
                                  ResultCache(tmp_path / "cache"),
                                  max_queue=3, max_running=1)
            scheduler.start()
            first = scheduler.submit(spec())
            await wait_for(lambda: first.finished)
            assert first.state == FAILED
            assert "boom" in first.error
            second = scheduler.submit(spec())  # recomputes, no poison
            await wait_for(lambda: second.finished)
            assert ExplodingPool.executions == 2
            await scheduler.drain()

        run(scenario())


class TestDrain:
    def test_drain_cancels_queued_and_running(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            runner = scheduler.submit(spec(0))
            queued = scheduler.submit(spec(1))
            await wait_for(lambda: runner.state == RUNNING)
            await scheduler.drain()  # returns only once all settled
            assert runner.state == CANCELLED
            assert queued.state == CANCELLED
            assert scheduler.counters.consistent()

        run(scenario())

    def test_drain_with_queued_follower_does_not_deadlock(self, tmp_path):
        """Regression: drain iterated a snapshot of the queue, so a
        queued primary's promoted follower landed back on the live
        queue and either deadlocked executor.shutdown or was left
        QUEUED forever."""
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path)
            scheduler.start()
            runner = scheduler.submit(spec(0))
            await wait_for(lambda: runner.state == RUNNING)
            queued = scheduler.submit(spec(1), client="a")
            follower = scheduler.submit(spec(1), client="b")
            chained = scheduler.submit(spec(1), client="c")
            assert follower.coalesced_with == queued.job_id
            await asyncio.wait_for(scheduler.drain(), timeout=10)
            for job in (runner, queued, follower, chained):
                assert job.state == CANCELLED
            assert scheduler.queue_stats()["depth"] == 0
            assert scheduler.counters.consistent()

        run(scenario())


class TestCounters:
    def test_consistency_invariant(self, tmp_path):
        async def scenario():
            scheduler, pool = make_scheduler(tmp_path, max_queue=8)
            scheduler.start()
            done = scheduler.submit(spec(0))
            follower = scheduler.submit(spec(0))  # coalesces
            doomed = scheduler.submit(spec(1))
            scheduler.cancel(doomed.job_id)
            pool.gate(spec(0).cache_key()).set()
            await wait_for(lambda: done.finished and follower.finished)
            hit = scheduler.submit(spec(0))  # cache hit
            counters = scheduler.counters
            assert counters.accepted == 4
            assert counters.completed == 3  # primary + follower + hit
            assert counters.cancelled == 1
            assert counters.coalesced == 1
            assert counters.cache_hits == 1
            assert counters.consistent()
            await scheduler.drain()

        run(scenario())

    def test_counters_shape(self):
        counters = ServiceCounters()
        payload = counters.to_dict()
        assert set(payload) == {"accepted", "completed", "failed",
                                "cancelled", "rejected", "cache_hits",
                                "coalesced", "timeouts"}
        assert counters.consistent()
