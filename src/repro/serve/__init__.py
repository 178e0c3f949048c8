"""repro.serve — async simulation-as-a-service layer.

A long-lived asyncio daemon (``python -m repro serve``) that accepts
simulation work — fault-injection campaigns, paper-figure experiments,
single runs, AVF/static analyses — over a stdlib HTTP/JSON API, with:

- a content-addressed result cache (same canonical-JSON/sha-256 scheme
  as the campaign store) so identical work is computed once and served
  from disk forever after, across daemon restarts;
- coalescing of identical in-flight submissions onto one execution;
- admission control: a bounded queue that rejects overload with
  HTTP 429 + ``Retry-After`` instead of degrading;
- per-client fair-share dispatch and priorities;
- per-job cancellation and timeouts that kill the job's worker
  process group, leaving a campaign's artifact resumable.

Module map: :mod:`jobs` (spec validation + cache keys), :mod:`cache`
(sealed on-disk results), :mod:`scheduler` (queue/dispatch/lifecycle),
:mod:`pool` (bridge onto the existing engines), :mod:`api` (HTTP
server), :mod:`client` (stdlib client), :mod:`cli` (verbs).
See ``docs/SERVING.md``.
"""

from repro.serve.api import BackgroundServer, ServeServer
from repro.serve.cache import ResultCache
from repro.serve.client import DEFAULT_URL, ServeClient, ServeError
from repro.serve.jobs import (JOB_FORMAT_VERSION, JobSpec,
                              JobValidationError, list_job_types)
from repro.serve.pool import JobCancelled, WorkerPool
from repro.serve.scheduler import Draining, Job, QueueFull, Scheduler

__all__ = [
    "BackgroundServer",
    "DEFAULT_URL",
    "Draining",
    "JOB_FORMAT_VERSION",
    "Job",
    "JobCancelled",
    "JobSpec",
    "JobValidationError",
    "QueueFull",
    "ResultCache",
    "Scheduler",
    "ServeClient",
    "ServeServer",
    "ServeError",
    "WorkerPool",
    "list_job_types",
]
