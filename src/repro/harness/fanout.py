"""One chunked process-pool runner for every fan-out in the tree.

The campaign engine (fault-injection tasks) and the figure fan-out
(workload slices of a driver, :mod:`repro.harness.parallel`) both call
:func:`run_chunks`.  At ``jobs == 1`` it runs each chunk in-process: no
pool, no pickling.  Above that it keeps a bounded window of chunks in
flight and yields results **in submission order**, so the caller sees
the sequential order at any ``jobs``.  It survives dying workers and
picks the start method (:func:`pool_context`).  A caller stops it by
closing the generator (an exception in the loop over it) or by killing
its process group; a worker whose starting process is killed alone
exits by itself (:func:`_exit_with_parent`).
"""

import logging
import os
import threading
import time
from collections import deque
from typing import (Callable, Deque, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, TypeVar)

from repro.obs import metrics as obs_metrics

run_log = logging.getLogger("repro.run")

T = TypeVar("T")
R = TypeVar("R")

#: Minimum chunks in flight per worker: keeps the pool from starving
#: near the tail when chunk runtimes are uneven.
MIN_CHUNKS_PER_WORKER = 4

#: Hard cap on units per chunk: bounds worker-side memory and the work
#: a broken pool or a stop throws away.
MAX_CHUNK_SIZE = 16

#: A unit whose chunk breaks the pool this many consecutive times is
#: quarantined instead of being retried forever.
QUARANTINE_AFTER = 3

#: Seconds between a pool worker's checks that its starting process is
#: still alive.
PARENT_POLL_S = 0.5


def auto_chunk_size(total: int, jobs: int) -> int:
    """Units per chunk for ``total`` units over ``jobs`` workers."""
    if total <= 0:
        return 1
    per_worker = max(1, jobs) * MIN_CHUNKS_PER_WORKER
    return max(1, min(MAX_CHUNK_SIZE, total // per_worker or 1))


def chunked(items: Sequence[T], size: int) -> List[List[T]]:
    """Split ``items`` into contiguous slices of at most ``size``."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    return [list(items[start:start + size])
            for start in range(0, len(items), size)]


def pool_context():
    """The multiprocessing context a new pool or worker starts from.

    Fork when the calling process runs a single thread (the CLI, the
    benchmark, a serve worker): a forked worker starts in milliseconds
    with every module already imported.  Spawn otherwise (the serve
    daemon): fork copies only the calling thread, so a lock another
    thread held at that moment stays held forever in the child.  Call
    it before creating the pool, whose own manager thread would make
    the next call read two threads.
    """
    import multiprocessing

    method = "fork" if threading.active_count() == 1 else "spawn"
    return multiprocessing.get_context(method)


def _exit_with_parent(parent: int) -> None:
    """Pool initializer: a daemon thread ends this worker once ``parent``,
    the process that started it, is gone (the worker was re-parented).
    Without it, a worker of a pool whose process was killed alone stays
    blocked on the call queue forever."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="pool-parent-watch",
                     daemon=True).start()


class _Chunk(NamedTuple):
    start: int            # index of its first unit in the caller's list
    units: List
    attempt: int          # resubmissions after pool breaks


def run_chunks(work: Callable[[object], R], units: Sequence, size: int,
               jobs: int, prepare: Callable[[List, int], object],
               quarantine: Callable[[object, int], R], *, name: str,
               stats: Optional[Dict[str, int]] = None) -> Iterator[R]:
    """Yield ``work(prepare(chunk, attempt))`` for each ``size``-unit
    chunk of ``units``, in order, over ``jobs`` worker processes.

    ``prepare`` runs right before each submission, so it is also where
    a caller crosses a per-submission hook.  Closing the generator
    cancels the unstarted chunks and waits for the running ones, whose
    results are dropped.

    A worker that dies breaks the whole pool.  The pool is rebuilt and
    every in-flight chunk is resubmitted in order with its ``attempt``
    bumped (so a hook that fails first attempts does not fire forever).
    The suspect, the oldest of them, is split into single units, and
    one chunk at a time runs until one completes, so the next break
    blames exactly one unit.  A unit blamed :data:`QUARANTINE_AFTER`
    times in a row is dropped, and ``quarantine(unit, kills)`` returns
    its stand-in result (or raises).  ``stats`` and the
    ``<name>.pool.rebuilds`` / ``<name>.quarantined`` counters record
    these events.
    """
    chunks = (_Chunk(index * size, chunk, 0)
              for index, chunk in enumerate(chunked(units, size)))
    if jobs <= 1:
        for chunk in chunks:
            yield work(prepare(chunk.units, 0))
        return
    # Imported on first use, like multiprocessing: loaded before a
    # caller's set-up, they raised a campaign process's peak RSS by
    # about 1 MB.
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    stats = stats if stats is not None else {}
    for key in ("pool_rebuilds", "chunk_retries", "quarantined"):
        stats.setdefault(key, 0)
    registry = obs_metrics.registry()
    context = pool_context()

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=jobs, mp_context=context,
                                   initializer=_exit_with_parent,
                                   initargs=(os.getpid(),))

    # Enough chunks in flight to keep every worker busy, few enough that
    # a rebuild only has to reclaim a short suffix.
    window = jobs * MIN_CHUNKS_PER_WORKER
    backlog: Deque[_Chunk] = deque()  # reclaimed chunks go first
    pending: Deque[Tuple[_Chunk, object]] = deque()  # (chunk, future)
    kills: Dict[int, int] = {}  # unit index -> consecutive pool breaks
    probation = False
    pool = new_pool()
    try:
        while True:
            head: Optional[_Chunk] = None
            broken = False
            while len(pending) < (1 if probation else window):
                chunk = backlog.popleft() if backlog else next(chunks, None)
                if chunk is None:
                    break
                payload = prepare(chunk.units, chunk.attempt)
                try:
                    pending.append((chunk, pool.submit(work, payload)))
                except BrokenExecutor:
                    # The break raced ahead of the result about to be
                    # read; reclaim this chunk with the rest.
                    backlog.appendleft(chunk)
                    broken = True
                    break
            if not broken:
                if not pending:
                    return
                head, future = pending.popleft()
                try:
                    result = future.result()
                except BrokenExecutor:
                    broken = True
            if broken:
                reclaimed = ([head] if head is not None else []) + [
                    chunk for chunk, _ in pending]
                pending.clear()
                backlog.extendleft(
                    chunk._replace(attempt=chunk.attempt + 1)
                    for chunk in reversed(reclaimed))
                stats["pool_rebuilds"] += 1
                stats["chunk_retries"] += len(reclaimed)
                registry.counter(f"{name}.pool.rebuilds").inc()
                run_log.warning(
                    "%s pool broken (worker died); rebuilt it and "
                    "reclaimed %d in-flight chunk(s)", name, len(reclaimed))
                # Join the broken pool's manager and queue-feeder
                # threads: left running, they would make the caller's
                # next pool_context() read two threads and spawn.
                pool.shutdown(wait=True, cancel_futures=True)
                pool = new_pool()
                probation = True
                suspect = backlog.popleft()
                if len(suspect.units) > 1:
                    backlog.extendleft(reversed([
                        _Chunk(suspect.start + offset, [unit],
                               suspect.attempt)
                        for offset, unit in enumerate(suspect.units)]))
                    continue
                kills[suspect.start] = blame = kills.get(suspect.start, 0) + 1
                if blame < QUARANTINE_AFTER:
                    backlog.appendleft(suspect)
                    continue
                del kills[suspect.start]
                stats["quarantined"] += 1
                registry.counter(f"{name}.quarantined").inc()
                run_log.warning("%s unit %d broke the pool %d times in a "
                                "row; quarantined", name, suspect.start,
                                blame)
                yield quarantine(suspect.units[0], blame)
                continue
            probation = False
            for index in range(head.start, head.start + len(head.units)):
                kills.pop(index, None)
            yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
