"""Executor bridge: serve jobs onto the existing simulation machinery.

No new run paths: a ``campaign`` job drives the
:class:`~repro.campaign.engine.CampaignEngine` (which in turn owns the
process-pool fan-out and the resumable artifact store), an
``experiment`` job drives the per-figure registry through
:func:`~repro.harness.parallel.run_experiment_parallel`, a ``run`` job
drives :class:`~repro.harness.runner.Runner`, and ``avf`` / ``analyze``
jobs drive the static analyzers.  The bridge's whole job is (a) to map
a normalized :class:`JobSpec` onto those entry points, (b) to stop a
job whose scheduler ``cancel`` event is set, and (c) to return a
JSON-able result payload the cache can seal.

Every job type's handler is an entry of :data:`PROCESS_HANDLERS`, and
runs in one of the pool's worker processes (:func:`run_job`), one per
``--max-running`` slot.  Jobs are CPU-bound Python: two slots get two
cores instead of taking turns under one interpreter lock, and the
event loop never waits behind them.  The scheduler's executor thread
only waits for the result, checking the job's cancel event every
:data:`_CANCEL_POLL_S`: once it is set, the worker is killed with its
process group (a figure's or a campaign's pool included), and the
slot's next job spawns a replacement.

Campaign artifacts live under ``<workdir>/artifacts/<cache-key>/`` —
the same content-addressed key as the result cache — so a job that is
cancelled mid-flight leaves a resumable campaign directory, and
resubmitting the identical spec *resumes* instead of restarting.  The
daemon resolves that directory and the job's ``jobs`` before it sends
the params, and after a kill it counts the artifact's records, which
drops a last line the kill tore.
"""

import os
import signal
import threading
from pathlib import Path
from typing import Dict, List, Optional

from repro.harness.fanout import pool_context
from repro.obs import trace as obs_trace
from repro.serve.jobs import JobSpec, campaign_spec

#: Keys of an engine summary that are wall-clock measurements or
#: infrastructure-event counters; they are stripped from cached
#: campaign payloads so identical work produces identical (cacheable,
#: byte-comparable) results whether or not chaos faults were ridden
#: out along the way.
_TIMING_KEYS = ("elapsed_s", "tasks_per_s", "infra", "unflushed_batches")


class JobCancelled(Exception):
    """The job's cancel event stopped it before it finished."""


# -- process-job handlers: params in, JSON payload out ---------------------

def _run_run(params: Dict[str, object]) -> Dict[str, object]:
    from repro.harness.runner import Runner

    runner = Runner(instructions=int(params["instructions"]),
                    warmup=int(params["warmup"]),
                    seed=int(params["seed"]))
    return runner.run_structured(params["kind"], list(params["benchmarks"]))


def _run_experiment(params: Dict[str, object]) -> Dict[str, object]:
    from repro.harness.experiments import EXPERIMENT_REGISTRY
    from repro.harness.parallel import run_experiment_parallel

    driver, _ = EXPERIMENT_REGISTRY[params["experiment"]]
    runner_kwargs = {
        "instructions": int(params["instructions"]),
        "warmup": int(params["warmup"]),
        "seed": int(params["seed"]),
    }
    return run_experiment_parallel(driver.__name__, runner_kwargs,
                                   jobs=int(params["jobs"])).to_dict()


def _run_avf(params: Dict[str, object]) -> Dict[str, object]:
    from repro.avf.analyzer import analyze_program
    from repro.avf.report import avf_payload
    from repro.isa.generator import generate_benchmark
    from repro.isa.profiles import split_workload

    name, seed = split_workload(params["workload"])
    program = generate_benchmark(name, seed=seed)
    summary = analyze_program(program, steps=int(params["steps"])).summary()
    return avf_payload([summary])


def _run_analyze(params: Dict[str, object]) -> Dict[str, object]:
    from repro.analysis.checks import (ProgramVerificationError,
                                       verify_program)
    from repro.analysis.report import analysis_to_dict
    from repro.isa.generator import generate_benchmark
    from repro.isa.profiles import split_workload

    name, base_seed = split_workload(params["workload"])
    # The report is the generator's gate: verify once, fail as it would.
    program = generate_benchmark(name, seed=base_seed + int(params["seed"]),
                                 verify=False)
    report = verify_program(program)
    if report.errors:
        raise ProgramVerificationError(report)
    return analysis_to_dict(report)


def _run_campaign(params: Dict[str, object]) -> Dict[str, object]:
    from repro.campaign.engine import CampaignEngine
    from repro.campaign.report import aggregate
    from repro.campaign.store import CampaignStore

    out_dir = Path(params["artifact_dir"])
    engine = CampaignEngine(
        campaign_spec(params), out_dir,
        jobs=int(params["jobs"]),
        task_timeout=int(params["task_timeout"]),
        chunk_size=params["chunk_size"])
    summary = engine.run()
    for key in _TIMING_KEYS:
        summary.pop(key, None)
    records = CampaignStore(out_dir).records()
    outcomes: Dict[str, Dict[str, object]] = {}
    for (kind, workload), stats in sorted(aggregate(records).items()):
        point, ci_low, ci_high = stats.coverage()
        outcomes[f"{kind}/{workload}"] = {
            "total": stats.total,
            "by_outcome": dict(sorted(stats.outcomes.items())),
            "detected": stats.detected,
            "unmasked": stats.unmasked,
            "coverage": point,
            "coverage_ci": [ci_low, ci_high],
        }
    return {
        "summary": summary,
        "strata": outcomes,
        "artifact_dir": str(out_dir),
    }


#: Every job type's handler; each runs in a worker process.
PROCESS_HANDLERS = {
    "run": _run_run,
    "experiment": _run_experiment,
    "avf": _run_avf,
    "analyze": _run_analyze,
    "campaign": _run_campaign,
}


def run_job(job_type: str, params: Dict[str, object]) -> Dict[str, object]:
    """Worker-process entry: run one job's handler, return its payload."""
    return PROCESS_HANDLERS[job_type](params)


#: Seconds a stopping worker gets to exit after its pipe closes.
_STOP_S = 10.0

#: Seconds between two checks of a running job's cancel event.
_CANCEL_POLL_S = 0.1


def _serve_jobs(conn) -> None:
    """Worker-process main loop: answer ``(type, params, trace carry)``
    requests on ``conn`` with ``(ok, payload or error)`` until the
    daemon closes it.

    The worker leads its own process group, so a cancel can kill it
    together with any pool it forked, and a terminal's Ctrl-C, sent to
    the daemon's group, does not reach it: the daemon's drain stops it.
    Its one thread runs every job, so a campaign's pool forks and its
    per-task ``SIGALRM`` timeouts apply.
    """
    os.setpgid(0, 0)
    while True:
        try:
            job_type, params, carried = conn.recv()
        except EOFError:
            return
        try:
            # The job's spans nest under the daemon's pool.<type> span.
            with obs_trace.adopt(carried):
                reply = (True, run_job(job_type, params))
        except Exception as error:  # the job failed, not the worker
            reply = (False, error)
        conn.send(reply)


class _Worker:
    """One worker process and the daemon's end of its pipe."""

    def __init__(self) -> None:
        # Imported here, not at module level: daemon start-up stays as
        # fast as before, and only the first job pays for it.
        import multiprocessing.util

        # The daemon runs threads, so this is spawn.
        context = pool_context()
        self.conn, child_conn = context.Pipe()
        # The worker reads EOF once every copy of the daemon's end is
        # closed, so a forked worker (or pool) must close its copy.
        multiprocessing.util.register_after_fork(self.conn,
                                                 type(self.conn).close)
        self.process = context.Process(target=_serve_jobs,
                                       args=(child_conn,),
                                       name="repro-serve-worker")
        self.process.start()
        child_conn.close()
        # At interpreter exit multiprocessing joins its live children;
        # closing the pipe first lets an undrained worker end its loop.
        multiprocessing.util.Finalize(self, self.conn.close,
                                      exitpriority=0)
        #: Set once a cancel killed this worker.
        self.cancelled = False

    def call(self, job_type: str, params: Dict[str, object],
             cancel: threading.Event) -> Dict[str, object]:
        """Run one job here; ``BrokenProcessPool`` if the worker died,
        ``JobCancelled`` (the worker killed) once ``cancel`` is set."""
        try:
            self.conn.send((job_type, params, obs_trace.carry()))
            while not self.conn.poll(_CANCEL_POLL_S):
                if cancel.is_set():
                    self.cancelled = True
                    self._kill()
                    raise JobCancelled(f"{job_type} job cancelled while "
                                       f"running; its worker was killed")
                if not self.process.is_alive():
                    # A pool it forked may hold the pipe open.
                    raise EOFError
            ok, value = self.conn.recv()
        except (EOFError, OSError) as error:
            from concurrent.futures.process import BrokenProcessPool

            self._kill()  # and any orphaned pool of its group
            raise BrokenProcessPool(
                f"serve worker {self.process.pid} died mid-job (exit "
                f"code {self.process.exitcode})") from error
        if not ok:
            raise value
        return value

    def _kill(self) -> None:
        """SIGKILL the worker's process group and reap the worker."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:  # not yet its group leader
            self.process.kill()
        self.process.join()

    def stop(self) -> None:
        self.conn.close()  # the worker reads EOF and returns
        self.process.join(_STOP_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


class WorkerPool:
    """Maps job specs onto the blocking simulation entry points.

    One instance per daemon; ``execute`` runs on a scheduler executor
    thread (never the event loop) and may block for the whole job.
    Every job borrows one of at most ``workers`` worker processes,
    spawned on first need rather than with the pool, so daemon
    readiness never waits for interpreter start-up.  Each worker serves
    one job at a time over its own pipe, so only the thread holding a
    worker can see it die: that thread raises ``BrokenProcessPool`` (an
    infrastructure error the scheduler requeues) and frees the slot,
    and the next job spawns the one replacement.  A cancel kills the
    worker the same way, but it is not counted in :attr:`rebuilds`.
    :meth:`shutdown` (the drain path) stops the idle workers.

    Concurrency:
        guarded-by _free: _idle, _live, rebuilds
        unguarded-ok: workdir, campaign_jobs, workers
    """

    def __init__(self, workdir, campaign_jobs: int = 1,
                 workers: int = 2) -> None:
        self.workdir = Path(workdir)
        #: Worker processes per campaign job unless the job says otherwise.
        self.campaign_jobs = max(1, int(campaign_jobs))
        #: Worker processes (the daemon's --max-running).
        self.workers = max(1, int(workers))
        #: Notified whenever a worker is returned or a slot is freed.
        self._free = threading.Condition()
        self._idle: List[_Worker] = []
        self._live = 0
        #: Dead workers replaced so far.
        self.rebuilds = 0

    def artifact_dir(self, spec: JobSpec) -> Path:
        return self.workdir / "artifacts" / spec.cache_key()

    # -- dispatch ----------------------------------------------------------
    def execute(self, spec: JobSpec,
                cancel: Optional[threading.Event] = None
                ) -> Dict[str, object]:
        """Run one job to completion; raises JobCancelled if stopped.

        A cancel that lands after the job's result is ready is too late
        to save any work: the result is returned (and cached).
        """
        cancel = cancel or threading.Event()
        if cancel.is_set():
            raise JobCancelled(f"{spec.type} job cancelled before start")
        params = spec.params
        if spec.type == "campaign":
            out_dir = self.artifact_dir(spec)
            params = dict(params, artifact_dir=str(out_dir),
                          jobs=params["jobs"] or self.campaign_jobs)
        with obs_trace.span(f"pool.{spec.type}",
                            key=spec.cache_key()[:16]):
            worker = self._acquire()
            try:
                return worker.call(spec.type, params, cancel)
            except JobCancelled:
                if spec.type != "campaign":
                    raise
                from repro.campaign.store import CampaignStore

                # Counting the records drops a last line the kill tore.
                done = CampaignStore(out_dir).completed_count()
                raise JobCancelled(
                    f"campaign stopped at {done}/"
                    f"{campaign_spec(params).total_tasks()} injections "
                    f"(artifact resumable at {out_dir})") from None
            finally:
                self._release(worker)

    def _acquire(self) -> _Worker:
        with self._free:
            while not self._idle and self._live >= self.workers:
                self._free.wait()
            if self._idle:
                return self._idle.pop()
            worker = _Worker()
            self._live += 1
            return worker

    def _release(self, worker: _Worker) -> None:
        with self._free:
            if worker.process.is_alive():
                self._idle.append(worker)
            else:  # dead or killed: its slot goes to one replacement
                self._live -= 1
                if not worker.cancelled:
                    self.rebuilds += 1
            self._free.notify()

    def shutdown(self) -> None:
        """Stop the worker processes (call once no job is running)."""
        with self._free:
            workers, self._idle = self._idle, []
            self._live -= len(workers)
        for worker in workers:
            worker.stop()
