"""Bounded fair-share job scheduler with admission control.

Single-threaded asyncio core: ``submit``/``cancel``/status reads all
run on the event loop, so there are no locks; only the blocking
simulation work leaves the loop, onto a small
:class:`~concurrent.futures.ThreadPoolExecutor` with one thread per
slot, which waits while the pool's worker process for that slot runs
the job (see :mod:`repro.serve.pool`).

Lifecycle::

                      submit
                        │
          cache hit ────┼──── identical job in flight
          (DONE now)    │      (coalesce onto primary)
                        ▼
    429 QueueFull ◄── QUEUED ──cancel──► CANCELLED
                        │
                  fair-share pick
                        ▼
                     RUNNING ──cancel/timeout──► CANCELLED / FAILED
                        │
                        ▼
                   DONE (sealed into the result cache)

Admission control: the queue is bounded; a submission that finds it
full raises :class:`QueueFull` carrying a ``retry_after`` estimate
derived from observed job durations — the API layer turns that into
HTTP 429 + ``Retry-After``.

Fair share: among queued jobs the dispatcher picks by (priority,
fewest jobs already served for that client, arrival order), so one
chatty client cannot starve the rest no matter how fast it submits.

Cancelling a RUNNING job sets its ``threading.Event``, and the
executor thread waiting on the job kills its worker's process group
(see :mod:`repro.serve.pool`); a campaign leaves a resumable artifact,
never a torn one.  ``drain`` (SIGTERM) is cancel-everything + wait:
queued jobs are cancelled outright, running jobs get their events set,
and the call returns once every one has settled.

Retention: the scheduler remembers every queued and running job, and
the last :data:`MAX_FINISHED_JOBS` finished ones.  An older job's id
answers like an unknown one; its result stays in the disk cache.
"""

import asyncio
import logging
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from typing import Deque, Dict, List, Optional

from repro.chaos import chaos_point_async
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.cache import ResultCache
from repro.serve.jobs import JobSpec
from repro.serve.pool import JobCancelled

run_log = logging.getLogger("repro.run")

# Job states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Fallback Retry-After (seconds) before any job duration is observed.
DEFAULT_RETRY_AFTER = 2

#: Observed-duration window for the Retry-After estimate.
_DURATION_WINDOW = 32

#: Finished jobs kept for status and result reads; the oldest-finished
#: is forgotten first.
MAX_FINISHED_JOBS = 256

#: Per-job infrastructure retry budget: a job whose execution dies on
#: an infrastructure error (disk fault, broken executor) is requeued
#: this many times before settling FAILED with its failure chain.
DEFAULT_INFRA_RETRIES = 2

#: Exception families that indicate the infrastructure (not the job
#: spec) failed, and so are worth a bounded requeue.
INFRA_ERRORS = (OSError, BrokenExecutor)


class QueueFull(Exception):
    """Admission control refused the job (HTTP 429)."""

    def __init__(self, retry_after: int) -> None:
        super().__init__(
            f"job queue is full; retry after ~{retry_after}s")
        self.retry_after = retry_after


class Draining(Exception):
    """The server is shutting down and accepts no new work (HTTP 503)."""


class Job:
    """One submission's full lifecycle record.

    Every lifecycle field is written by the scheduler on the event
    loop; the one deliberate exception is ``cancel_event``, a
    ``threading.Event`` whose *set* side stays on the loop while the
    executor thread polls ``is_set()`` as it waits for the job's
    worker — Event is internally locked, so it needs no guard here.
    ``done_event`` is an ``asyncio.Event``: strictly loop-side.

    Concurrency:
        loop-confined: state, cache_hit, coalesced_with, result, error
        loop-confined: started_at, finished_at, infra_retries
        loop-confined: failure_chain, followers, superseded_by
        loop-confined: done_event
        unguarded-ok: job_id, spec, key, client, priority, seq
        unguarded-ok: submitted_at, cancel_event
    """

    def __init__(self, job_id: str, spec: JobSpec, client: str,
                 priority: int, seq: int) -> None:
        self.job_id = job_id
        self.spec = spec
        self.key = spec.cache_key()
        self.client = client
        self.priority = priority
        self.seq = seq
        self.state = QUEUED
        self.cache_hit = False
        self.coalesced_with: Optional[str] = None
        self.result: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cancel_event = threading.Event()
        self.done_event = asyncio.Event()
        #: Infrastructure retries consumed, and what each one survived.
        self.infra_retries = 0
        self.failure_chain: List[str] = []
        #: Jobs coalesced onto this one (primary only).
        self.followers: List["Job"] = []
        #: Set when a cancelled primary hands its computation to a
        #: promoted follower; the runner task follows this chain to
        #: settle whichever job currently owns the computation.
        self.superseded_by: Optional["Job"] = None

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED, CANCELLED)

    def to_dict(self, include_result: bool = False) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "id": self.job_id,
            "type": self.spec.type,
            "key": self.key,
            "state": self.state,
            "client": self.client,
            "priority": self.priority,
            "cache_hit": self.cache_hit,
            "coalesced_with": self.coalesced_with,
            "error": self.error,
            "submitted_at": round(self.submitted_at, 3),
            "started_at": (round(self.started_at, 3)
                           if self.started_at else None),
            "finished_at": (round(self.finished_at, 3)
                            if self.finished_at else None),
        }
        if self.failure_chain:
            payload["infra_retries"] = self.infra_retries
            payload["failure_chain"] = list(self.failure_chain)
        if include_result:
            payload["result"] = self.result
        return payload


class Scheduler:
    """Owns the queue, the running set, the counters, and the cache.

    Lock-free by construction: all mutable scheduler state is
    loop-confined — touched only from coroutines and callbacks running
    on the event loop.  The only work that leaves the loop is
    :meth:`_execute_job` (handed to the thread-pool executor), which
    touches the job's unguarded-ok fields and the thread-safe pool but
    no scheduler state.  The result cache is thread-safe internally
    (it is called from worker threads in other deployments), the
    counters group applies and snapshots its fields under its own lock
    (so ``/metrics`` reads one consistent picture from any thread),
    and the remaining references are immutable after ``__init__``.

    Concurrency:
        loop-confined: jobs, _queued, _running, _by_key, _served
        loop-confined: _finished
        loop-confined: _durations, _seq, _wake, _draining
        loop-confined: _dispatcher, _executor, infra_requeues
        unguarded-ok: pool, cache, max_queue, max_running
        unguarded-ok: job_timeout, infra_retry_budget, counters
    """

    def __init__(self, pool, cache: ResultCache, max_queue: int = 16,
                 max_running: int = 2, job_timeout: float = 0.0,
                 infra_retries: int = DEFAULT_INFRA_RETRIES) -> None:
        self.pool = pool
        self.cache = cache
        self.max_queue = max(1, int(max_queue))
        self.max_running = max(1, int(max_running))
        self.job_timeout = max(0.0, float(job_timeout))
        self.infra_retry_budget = max(0, int(infra_retries))
        self.infra_requeues = 0  # total across all jobs, for /metrics
        self.counters = obs_metrics.ServiceCounters()
        self.jobs: Dict[str, Job] = {}
        self._finished: Deque[str] = deque()  # ids, oldest-finished first
        self._queued: List[Job] = []
        self._running: Dict[str, Job] = {}
        self._by_key: Dict[str, Job] = {}  # in-flight primary per key
        self._served: Dict[str, int] = {}  # fair-share history per client
        self._durations: Deque[float] = deque(maxlen=_DURATION_WINDOW)
        self._seq = 0
        self._wake = asyncio.Event()
        self._draining = False
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor = None  # created lazily, on the loop thread

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Start the dispatcher task (call from inside the loop)."""
        from concurrent.futures import ThreadPoolExecutor
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_running,
                thread_name_prefix="repro-serve")
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def drain(self) -> None:
        """Stop admissions, cancel everything, wait for clean flushes."""
        self._draining = True
        # _cancel_queued promotes a coalesced follower back onto the
        # live queue, so a snapshot iteration would leave promoted jobs
        # queued (or worse, dispatched with a cancel event nobody sets,
        # deadlocking executor.shutdown below).  Drain until empty.
        while self._queued:
            self._cancel_queued(self._queued[0])
        waiters = []
        for job in list(self._running.values()):
            job.cancel_event.set()
            waiters.append(asyncio.create_task(job.done_event.wait()))
        if waiters:
            await asyncio.gather(*waiters)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            self._dispatcher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission --------------------------------------------------------
    def submit(self, spec: JobSpec, client: str = "anon",
               priority: int = 0) -> Job:
        """Admit one job: cache hit, coalesce, enqueue, or refuse.

        Synchronous entry (tests, tools): the cache probe reads the
        disk on the calling thread.  Event-loop callers must use
        :meth:`submit_async`, which probes off-loop.
        """
        if self._draining:
            raise Draining("server is draining; no new jobs accepted")
        cached = self.cache.get(spec.cache_key())
        return self._admit(spec, client, priority, cached)

    async def submit_async(self, spec: JobSpec, client: str = "anon",
                           priority: int = 0) -> Job:
        """:meth:`submit` for coroutines: the cache probe (a disk read
        and JSON parse) runs on a worker thread so the event loop
        keeps serving other connections while it seeks."""
        if self._draining:
            raise Draining("server is draining; no new jobs accepted")
        loop = asyncio.get_running_loop()
        cached = await loop.run_in_executor(None, self.cache.get,
                                            spec.cache_key())
        if self._draining:
            # Drain began while the probe was off-loop.
            raise Draining("server is draining; no new jobs accepted")
        return self._admit(spec, client, priority, cached)

    def _admit(self, spec: JobSpec, client: str, priority: int,
               cached) -> Job:
        """Admission decision, given the already-probed cache value."""
        self._seq += 1
        job = Job(f"j{self._seq:06d}", spec, client, int(priority),
                  self._seq)
        if cached is not None:
            self.jobs[job.job_id] = job
            self.counters.add(accepted=1, cache_hits=1)
            self._finish(job, DONE, result=cached, cache_hit=True)
            return job
        primary = self._by_key.get(job.key)
        if primary is not None:
            self.jobs[job.job_id] = job
            job.coalesced_with = primary.job_id
            job.state = primary.state  # queued or running, mirrors primary
            primary.followers.append(job)
            self.counters.add(accepted=1, coalesced=1)
            return job
        if len(self._queued) >= self.max_queue:
            self.counters.add(rejected=1)
            raise QueueFull(self.estimate_retry_after())
        self.jobs[job.job_id] = job
        self.counters.add(accepted=1)
        self._queued.append(job)
        self._by_key[job.key] = job
        self._wake.set()
        return job

    def estimate_retry_after(self) -> int:
        """Seconds until a queue slot plausibly frees up."""
        if not self._durations:
            return DEFAULT_RETRY_AFTER
        mean = sum(self._durations) / len(self._durations)
        backlog = len(self._queued) + len(self._running)
        estimate = mean * max(1, backlog) / self.max_running
        return max(1, min(300, round(estimate)))

    # -- cancellation ------------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Cancel one job; raises KeyError for an unknown id.

        Queued jobs leave the queue immediately (promoting a coalesced
        follower, if any, so the shared computation survives).  Running
        jobs get their cancel event, and free their slot once their
        worker is killed.
        Followers detach without disturbing the primary's computation.
        """
        job = self.jobs[job_id]
        if job.finished:
            return job
        if job.coalesced_with is not None:
            primary = self.jobs.get(job.coalesced_with)
            if primary is not None and job in primary.followers:
                primary.followers.remove(job)
            self._finish(job, CANCELLED, error="cancelled by client")
            return job
        if job in self._queued:
            self._cancel_queued(job)
            return job
        if job.job_id in self._running:
            if job.followers:
                # Others still want this computation: detach the
                # canceller, keep the work running for the followers.
                promoted = job.followers.pop(0)
                self._adopt(job, promoted)
                self._finish(job, CANCELLED, error="cancelled by client")
            else:
                job.cancel_event.set()
                # A fresh identical submission must not coalesce onto
                # this dying computation (it would be settled CANCELLED
                # without its client ever cancelling): release the key
                # so it enqueues new work instead.
                if self._by_key.get(job.key) is job:
                    del self._by_key[job.key]
        return job

    def _cancel_queued(self, job: Job) -> None:
        self._queued.remove(job)
        if job.followers:
            promoted = job.followers.pop(0)
            self._adopt(job, promoted)
            self._queued.append(promoted)
        else:
            self._by_key.pop(job.key, None)
        self._finish(job, CANCELLED, error="cancelled while queued")

    def _adopt(self, old: Job, promoted: Job) -> None:
        """Make ``promoted`` the primary for ``old``'s computation."""
        promoted.coalesced_with = None
        promoted.followers = old.followers
        old.followers = []
        for follower in promoted.followers:
            follower.coalesced_with = promoted.job_id
        promoted.cancel_event = old.cancel_event
        promoted.state = old.state
        promoted.started_at = old.started_at
        old.superseded_by = promoted
        self._by_key[old.key] = promoted
        if old.job_id in self._running:
            del self._running[old.job_id]
            self._running[promoted.job_id] = promoted

    # -- dispatch ----------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._draining:
                continue
            while self._queued and len(self._running) < self.max_running:
                job = self._pick_next()
                self._queued.remove(job)
                self._running[job.job_id] = job
                self._served[job.client] = \
                    self._served.get(job.client, 0) + 1
                asyncio.create_task(self._run_job(job))

    def _pick_next(self) -> Job:
        """Highest priority, then least-served client, then arrival."""
        return min(self._queued,
                   key=lambda j: (-j.priority,
                                  self._served.get(j.client, 0), j.seq))

    async def _run_job(self, job: Job) -> None:
        job.state = RUNNING
        job.started_at = time.time()
        obs_metrics.registry().histogram("serve.job.queue_wait_s") \
            .observe(job.started_at - job.submitted_at)
        for follower in job.followers:
            follower.state = RUNNING
            follower.started_at = job.started_at
        loop = asyncio.get_running_loop()
        timeout = self.job_timeout or None
        timed_out = False
        try:
            await chaos_point_async("serve.scheduler.dispatch",
                                    key=job.key,
                                    attempt=job.infra_retries)
            future = loop.run_in_executor(self._executor,
                                          self._execute_job, job,
                                          job.infra_retries)
            if timeout:
                try:
                    result = await asyncio.wait_for(
                        asyncio.shield(future), timeout)
                except asyncio.TimeoutError:
                    # Stop the job as a cancel would, and wait for it.
                    timed_out = True
                    job.cancel_event.set()
                    result = await future
            else:
                result = await future
        except JobCancelled as error:
            self._settle(self._owner(job), CANCELLED,
                         error=("job timeout exceeded" if timed_out
                                else str(error) or "cancelled"),
                         timed_out=timed_out)
            return
        except INFRA_ERRORS as error:
            # The infrastructure (disk, executor) failed, not the job:
            # requeue within a bounded budget, then settle FAILED
            # carrying the whole failure chain for the postmortem.
            owner = self._owner(job)
            owner.failure_chain.append(f"{type(error).__name__}: {error}")
            if (owner.infra_retries < self.infra_retry_budget
                    and not owner.cancel_event.is_set()
                    and not self._draining):
                owner.infra_retries += 1
                self.infra_requeues += 1
                run_log.warning(
                    "job %s hit an infrastructure error (%s); requeue "
                    "%d/%d", owner.job_id, error, owner.infra_retries,
                    self.infra_retry_budget)
                self._requeue(owner)
                return
            self._settle(owner, FAILED, error=(
                f"infrastructure failure after {owner.infra_retries} "
                f"retr{'y' if owner.infra_retries == 1 else 'ies'}: "
                f"{owner.failure_chain[-1]}"))
            return
        except Exception as error:  # surface, never crash the loop
            self._settle(self._owner(job), FAILED,
                         error=f"{type(error).__name__}: {error}")
            return
        # A cancel/timeout that landed after the worker replied still
        # yields a whole result — seal and serve it.  The seal is a
        # write + fsync + rename: off-loop, like every other disk
        # touch on the serving path.
        await loop.run_in_executor(None, self.cache.put, job.spec,
                                   result)
        self._settle(self._owner(job), DONE, result=result)

    def _execute_job(self, job: Job, attempt: int):
        """Executor-thread entry: root the job's trace, run the work.

        Runs *off-loop* (handed to ``run_in_executor``), touching only
        the job's unguarded-ok fields and the thread-safe pool
        (``attempt`` is the loop-confined retry count, captured on the
        loop at dispatch).  The root span's trace id derives from the
        job's cache key, so an identical resubmission — or a
        chaos-requeued retry — lands in the same trace; the pool's span
        nests under it via the ambient context of this executor thread,
        and the job's own spans under that one, in the worker.
        """
        short_key = job.key[:16]
        with obs_trace.span(f"serve.job.{job.spec.type}", key=short_key,
                            trace_id=short_key, attempt=attempt):
            return self.pool.execute(job.spec, job.cancel_event)

    def _requeue(self, job: Job) -> None:
        """Put a job that survived an infra failure back on the queue.

        The job keeps its key ownership (followers stay attached and
        fresh identical submissions keep coalescing onto it); it
        re-enters the fair-share pick with its original priority and
        arrival order.
        """
        del self._running[job.job_id]
        job.state = QUEUED
        for follower in job.followers:
            follower.state = QUEUED
        self._queued.append(job)
        self._wake.set()

    @staticmethod
    def _owner(job: Job) -> Job:
        """The job that currently owns the computation ``job`` started.

        A cancelled primary may have handed its slot to a promoted
        follower (possibly repeatedly) while the executor thread kept
        working; the chain leads to whoever should be settled.
        """
        while job.superseded_by is not None:
            job = job.superseded_by
        return job

    def _settle(self, job: Job, state: str,
                result: Optional[Dict[str, object]] = None,
                error: Optional[str] = None,
                timed_out: bool = False) -> None:
        """Finish a primary: free its slot, settle followers, rearm."""
        del self._running[job.job_id]
        # Cancelling a follower-less running primary already released
        # its key, and a fresh submission may own it now — only drop
        # the mapping if it is still ours.
        if self._by_key.get(job.key) is job:
            del self._by_key[job.key]
        if job.started_at is not None:
            duration = time.time() - job.started_at
            self._durations.append(duration)
            obs_metrics.registry().histogram("serve.job.duration_s") \
                .observe(duration)
        if timed_out:
            self.counters.add(timeouts=1)
        followers, job.followers = job.followers, []
        self._finish(job, state, result=result, error=error)
        for follower in followers:
            self._finish(follower, state, result=result, error=error)
        self._wake.set()

    def _finish(self, job: Job, state: str,
                result: Optional[Dict[str, object]] = None,
                error: Optional[str] = None,
                cache_hit: bool = False) -> None:
        job.state = state
        job.result = result
        job.error = error
        job.cache_hit = cache_hit
        job.finished_at = time.time()
        if state == DONE:
            self.counters.add(completed=1)
        elif state == FAILED:
            self.counters.add(failed=1)
        elif state == CANCELLED:
            self.counters.add(cancelled=1)
        job.done_event.set()
        self._finished.append(job.job_id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            del self.jobs[self._finished.popleft()]

    # -- introspection -----------------------------------------------------
    def get(self, job_id: str) -> Job:
        return self.jobs[job_id]

    def queue_stats(self) -> Dict[str, int]:
        return {
            "depth": len(self._queued),
            "limit": self.max_queue,
            "running": len(self._running),
            "slots": self.max_running,
            "infra_requeues": self.infra_requeues,
        }
