"""Campaign engine: chunked parallel dispatch with resume.

The engine is the bridge between the deterministic world (spec →
task list → records) and the messy one (worker processes, mid-run
kills).  It runs the remaining tasks through the shared chunked-pool
runner (:func:`repro.harness.fanout.run_chunks`): in-process at
``jobs == 1`` (the reference output every parallel run must match
byte-for-byte), across a process pool above that.  Records come back
**in submission order**, so they land in ``results.jsonl`` in
canonical task order at any ``--jobs``, and resume's completed set is
a simple prefix.

Stopping: a run ends early only when something kills it, or when an
exception (a ``progress`` callback's, a Ctrl-C) leaves the loop.  The
records of chunks in flight are then lost, and the artifact is a
canonical-order prefix that ``resume`` completes later (a kill can
tear the last line; the store drops it on load).  The serve layer
stops a campaign job by killing its worker's process group.

Infrastructure faults: the runner rebuilds a pool that a crashed
worker broke and re-executes only the rows that never landed.  A task
that breaks the pool :data:`~repro.harness.fanout.QUARANTINE_AFTER`
consecutive times becomes a structured ``infra-failure`` record,
visible in ``campaign report``, rather than aborting everything else.
Every submission crosses the ``campaign.engine.submit`` chaos site,
keyed by the chunk's first task and its attempt count.
"""

import logging
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.campaign.sampler import InjectionTask, enumerate_tasks
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.campaign.worker import execute_chunk
from repro.chaos import chaos_point
from repro.harness.fanout import auto_chunk_size, run_chunks
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

run_log = logging.getLogger("repro.run")

ProgressFn = Callable[[int, int], None]

#: Outcome string of a quarantined task's structured record.
INFRA_FAILURE_OUTCOME = "infra-failure"

__all__ = ["CampaignEngine", "INFRA_FAILURE_OUTCOME", "auto_chunk_size",
           "infra_failure_record", "run_campaign"]


def infra_failure_record(task: Dict[str, object],
                         pool_kills: int) -> Dict[str, object]:
    """Structured row for a task quarantined after repeated pool kills.

    Shaped like every other result record (same identity fields, null
    measurement fields) so stores, reports, and resume treat it
    uniformly; the ``infra`` payload carries the forensics.
    """
    record = {
        "task_id": task["task_id"],
        "index": task["index"],
        "kind": task["kind"],
        "workload": task["workload"],
        "model": task["model"],
        "fault": task["fault"],
        "timed_out": False,
        "outcome": INFRA_FAILURE_OUTCOME,
        "struck_cycle": None,
        "detected_cycle": None,
        "latency": None,
        "termination": INFRA_FAILURE_OUTCOME,
        "infra": {
            "pool_kills": pool_kills,
            "reason": "worker process died executing this task "
                      f"{pool_kills} consecutive time(s); quarantined",
        },
    }
    if task.get("predicted") is not None:
        record["predicted"] = task["predicted"]
    return record


def _quarantined(task: InjectionTask,
                 pool_kills: int) -> List[Dict[str, object]]:
    return [infra_failure_record(task.to_dict(), pool_kills)]


class CampaignEngine:
    """Runs (or resumes) one campaign into one artifact directory."""

    def __init__(self, spec: CampaignSpec, out_dir, jobs: int = 1,
                 task_timeout: int = 0,
                 chunk_size: Optional[int] = None) -> None:
        self.spec = spec.validate()
        self.store = CampaignStore(out_dir)
        self.jobs = max(1, int(jobs))
        self.task_timeout = max(0, int(task_timeout))
        self.chunk_size = chunk_size
        #: Infrastructure-event counters for this run (summary-only —
        #: stripped from cached serve payloads to keep them
        #: byte-identical across faulty and clean runs).
        self.infra_stats: Dict[str, int] = {
            "pool_rebuilds": 0,
            "chunk_retries": 0,
            "quarantined": 0,
        }

    # -- planning ----------------------------------------------------------
    def plan(self, fresh: bool = False) -> List[InjectionTask]:
        """Initialize the store and return the tasks still to run."""
        resuming = self.store.initialize(self.spec, fresh=fresh)
        tasks = enumerate_tasks(self.spec)
        if not resuming:
            return tasks
        done = self.store.completed_ids()
        return [task for task in tasks if task.task_id not in done]

    # -- execution ---------------------------------------------------------
    def run(self, fresh: bool = False,
            progress: Optional[ProgressFn] = None) -> Dict[str, object]:
        """Execute every remaining task; returns a summary dict.

        Safe to invoke repeatedly: completed injections are never
        re-executed (their records are already in the store).
        ``progress(done, total)`` is called after every chunk append.
        """
        remaining = self.plan(fresh=fresh)
        total = self.spec.total_tasks()
        done_before = total - len(remaining)
        started = time.monotonic()
        executed = 0
        size = self.chunk_size or auto_chunk_size(len(remaining), self.jobs)
        registry = obs_metrics.registry()
        # ``jobs`` / chunking are deliberately NOT span attrs: the
        # normalized span log must be identical at any --jobs level,
        # exactly like results.jsonl.
        with obs_trace.span("campaign.run",
                            key=self.spec.content_hash()[:12],
                            total=total):
            carry = obs_trace.carry()

            def prepare(tasks: Sequence[InjectionTask],
                        attempt: int) -> Dict[str, object]:
                chaos_point("campaign.engine.submit",
                            key=tasks[0].task_id, attempt=attempt)
                payload: Dict[str, object] = {
                    "tasks": [task.to_dict() for task in tasks],
                    "config": self.spec.config,
                    "timeout": self.task_timeout,
                    "attempt": attempt,
                }
                if carry is not None:
                    # The worker adopts the carry, so its chunk and task
                    # spans nest under campaign.run across the pickle.
                    payload["trace"] = carry
                return payload

            for records in run_chunks(execute_chunk, remaining, size,
                                      self.jobs, prepare, _quarantined,
                                      name="campaign",
                                      stats=self.infra_stats):
                self.store.append(records)
                executed += len(records)
                registry.counter("campaign.records").inc(len(records))
                if progress is not None:
                    progress(done_before + executed, total)
                self.store.write_progress(self._progress_snapshot(
                    done_before + executed, total, started))
        flushed = self.store.flush()  # land any disk-error-deferred batches
        elapsed = time.monotonic() - started
        summary = {
            "campaign_hash": self.spec.content_hash(),
            "total_tasks": total,
            "already_complete": done_before,
            "executed": executed,
            "jobs": self.jobs,
            "chunk_size": size,
            "elapsed_s": round(elapsed, 3),
            "tasks_per_s": round(executed / elapsed, 3) if elapsed else None,
        }
        if any(self.infra_stats.values()):
            summary["infra"] = dict(self.infra_stats)
        # Unflushed records never reached disk; the artifact is then
        # an honest resume point, not a complete one.
        summary["state"] = "complete" if flushed else "partial"
        if not flushed:
            summary["unflushed_batches"] = self.store.pending_batches
            run_log.warning(
                "campaign finished computing but %d record batch(es) "
                "could not be persisted; re-run resume once the disk "
                "recovers", self.store.pending_batches)
        self.store.write_progress(summary)
        return summary

    def _progress_snapshot(self, done: int, total: int,
                           started: float) -> Dict[str, object]:
        """Advisory mid-run sidecar (read by status and /metrics)."""
        elapsed = time.monotonic() - started
        return {
            "state": "running",
            "campaign_hash": self.spec.content_hash(),
            "done": done,
            "total_tasks": total,
            "jobs": self.jobs,
            "elapsed_s": round(elapsed, 3),
        }


def run_campaign(spec: CampaignSpec, out_dir, jobs: int = 1,
                 task_timeout: int = 0, fresh: bool = False,
                 chunk_size: Optional[int] = None,
                 progress: Optional[ProgressFn] = None) -> Dict[str, object]:
    """One-call convenience wrapper around :class:`CampaignEngine`."""
    engine = CampaignEngine(spec, out_dir, jobs=jobs,
                            task_timeout=task_timeout, chunk_size=chunk_size)
    return engine.run(fresh=fresh, progress=progress)
