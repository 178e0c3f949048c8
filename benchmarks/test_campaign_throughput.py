"""Campaign engine scaling: a worker pool must actually buy wall-clock.

The acceptance shape: a campaign fanned across ``--jobs N`` workers
finishes meaningfully faster than the sequential run on a multi-core
host (>= 2.5x at jobs=4 on 4 cores), while producing a byte-identical
``results.jsonl``.  On single-core CI boxes the speedup assertion is
skipped — there is nothing to parallelise onto — but the determinism
half of the contract is always enforced.

Each timed run starts from an empty worker program cache
(:func:`repro.campaign.worker.program_for`) and no reference runs
(:func:`repro.campaign.worker.reference_run`), so neither run is handed
programs or fault-free reference runs the other computed.  Faults
strike inside the run (``strike_window``), so most tasks simulate their
faulty run instead of reusing a fault-free reference: with the default
window most faults were scheduled after the run had ended, and the
speedup was measured on pool start-up more than on simulation.
``campaign.chunked.tasks_per_s`` times an in-process run at two tasks
per chunk: the rate falls back if chunks stop sharing their process's
programs, recorded paths and reference runs.

Scale knobs: ``REPRO_CAMPAIGN_INJECTIONS`` (default 24; the acceptance
run uses 200) and ``REPRO_CAMPAIGN_JOBS`` (default min(4, cpu_count)).
"""

import os
import time
import timeit
from pathlib import Path
from typing import Optional

import pytest

from repro.campaign import CampaignEngine, CampaignSpec
from repro.campaign.worker import clear_reference_runs, program_for
from repro.chaos import chaos_point, controller
from repro.obs import bench
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


def env_int(name, default):
    return int(os.environ.get(name, default))


INJECTIONS = env_int("REPRO_CAMPAIGN_INJECTIONS", 24)
JOBS = env_int("REPRO_CAMPAIGN_JOBS", min(4, os.cpu_count() or 1))
#: Tasks per chunk of the chunked run (the campaign benchmark's size).
CHUNK_SIZE = 2

SPEC = CampaignSpec(
    kinds=("base", "srt"),
    workloads=("m88ksim",),
    models=("transient-result",),
    injections=INJECTIONS,
    instructions=300,
    warmup=900,
    strike_window=(20, 120),
)


def run_at(tmp_path: Path, name: str, jobs: int,
           chunk_size: Optional[int] = None) -> float:
    """Wall time of one campaign, every program generated and every
    reference run simulated afresh: a forked worker must not inherit
    what an earlier run computed."""
    program_for.cache_clear()
    clear_reference_runs()
    start = time.perf_counter()
    CampaignEngine(SPEC, tmp_path / name, jobs=jobs,
                   chunk_size=chunk_size).run()
    return time.perf_counter() - start


def test_parallel_campaign_speedup(tmp_path, benchmark):
    """jobs=N beats jobs=1 — and both produce identical artifacts."""
    sequential = run_at(tmp_path, "seq", 1)
    parallel = benchmark.pedantic(
        lambda: run_at(tmp_path, "par", JOBS), rounds=1, iterations=1)

    ref = (tmp_path / "seq" / "results.jsonl").read_bytes()
    par = (tmp_path / "par" / "results.jsonl").read_bytes()
    assert par == ref, "parallel artifact diverged from sequential"

    print()
    print(f"campaign {SPEC.total_tasks()} injections: "
          f"jobs=1 {sequential:.2f}s, jobs={JOBS} {parallel:.2f}s "
          f"({sequential / max(parallel, 1e-9):.2f}x)")

    # Bench trajectory (no-op unless REPRO_BENCH_OUT is set).
    bench.record("campaign.sequential.tasks_per_s",
                 ops_per_s=SPEC.total_tasks() / sequential,
                 meta={"injections": INJECTIONS})
    workers = max(1, min(JOBS, os.cpu_count() or 1))
    bench.record("campaign.parallel.tasks_per_worker_s",
                 ops_per_s=SPEC.total_tasks() / max(parallel, 1e-9) / workers,
                 meta={"injections": INJECTIONS, "jobs": JOBS,
                       "note": "per-worker rate (comparable across "
                               "hosts with different core counts)"})

    if (os.cpu_count() or 1) < 2 or JOBS < 2:
        pytest.skip("single-core host: no parallelism available")

    # Conservative floor scaled to the host: the acceptance criterion is
    # >= 2.5x at jobs=4 on 4 cores; demand >= half the ideal speedup,
    # capped by physical cores, minus pool-startup slack on tiny runs.
    effective = min(JOBS, os.cpu_count())
    floor = max(1.15, 0.5 * effective * (0.5 if INJECTIONS < 100 else 1.0))
    assert sequential / parallel >= floor, (
        f"speedup {sequential / parallel:.2f}x below floor {floor:.2f}x")


def test_chunked_campaign_throughput(tmp_path):
    """In-process tasks/s at two tasks per chunk: a worker that paid
    generation and path recording per chunk would show here."""
    seconds = run_at(tmp_path, "chunked", 1, chunk_size=CHUNK_SIZE)
    rate = SPEC.total_tasks() / seconds
    print(f"\ncampaign {SPEC.total_tasks()} injections in chunks of "
          f"{CHUNK_SIZE}: {rate:.1f} tasks/s")
    bench.record("campaign.chunked.tasks_per_s", ops_per_s=rate,
                 meta={"injections": INJECTIONS, "chunk_size": CHUNK_SIZE})


def test_unarmed_chaos_hook_overhead(tmp_path):
    """Disarmed ``chaos_point`` crossings must stay noise (< 1%).

    The resilience hooks are compiled into every hot path — worker
    task dispatch, pool submission, store appends, the progress
    sidecar — and stay there in production.  A campaign task crosses a
    handful of them (~6); this guard holds their combined disarmed
    cost under 1% of the cheapest real per-task campaign cost.
    """
    assert controller() is None, "a chaos plan leaked into the benchmark"

    crossings = 200_000
    hook_s = timeit.timeit(
        lambda: chaos_point("campaign.worker.task", key="t0000",
                            attempt=0),
        number=crossings) / crossings

    spec = CampaignSpec(kinds=("srt",), workloads=("compress",),
                        models=("transient-result",), injections=40,
                        instructions=150, warmup=20)
    start = time.perf_counter()
    CampaignEngine(spec, tmp_path / "ref", jobs=1).run()
    task_s = (time.perf_counter() - start) / spec.total_tasks()

    crossings_per_task = 6
    overhead = crossings_per_task * hook_s / task_s
    print(f"\nunarmed chaos_point: {hook_s * 1e9:.0f} ns/crossing, "
          f"{overhead * 100:.4f}% of a {task_s * 1e3:.1f} ms task")
    assert overhead < 0.01, (
        f"disarmed hook overhead {overhead * 100:.3f}% breaches the "
        f"1% budget ({hook_s * 1e9:.0f} ns/crossing)")


def test_disarmed_obs_overhead(tmp_path):
    """Disarmed tracing + metrics must cost < 2% of a campaign task.

    The observability hooks live on the same hot paths as the chaos
    hooks: every worker task opens a ``campaign.task`` span, every
    chunk a ``campaign.chunk`` span, and every store append bumps a
    registry counter.  With no tracer armed ``span()`` returns a
    shared no-op context manager; this guard holds the combined
    disarmed cost of a task's crossings under the 2% acceptance
    budget against the cheapest realistic per-task campaign cost.
    """
    assert obs_trace.tracer() is None, "a tracer leaked into the benchmark"

    def span_crossing():
        with obs_trace.span("campaign.task", key="t0000"):
            pass

    crossings = 200_000
    span_s = timeit.timeit(span_crossing, number=crossings) / crossings
    counter = obs_metrics.registry().counter("bench.overhead.probe")
    counter_s = timeit.timeit(counter.inc, number=crossings) / crossings

    spec = CampaignSpec(kinds=("srt",), workloads=("compress",),
                        models=("transient-result",), injections=40,
                        instructions=150, warmup=20)
    start = time.perf_counter()
    CampaignEngine(spec, tmp_path / "ref", jobs=1).run()
    task_s = (time.perf_counter() - start) / spec.total_tasks()

    # Per task: its own span, a share of the chunk + run spans, and a
    # share of the per-append counter bump — call it 3 span crossings
    # and 1 counter bump, rounded up.
    per_task_s = 3 * span_s + counter_s
    overhead = per_task_s / task_s
    print(f"\ndisarmed obs: {span_s * 1e9:.0f} ns/span, "
          f"{counter_s * 1e9:.0f} ns/counter-inc, "
          f"{overhead * 100:.4f}% of a {task_s * 1e3:.1f} ms task")
    assert overhead < 0.02, (
        f"disarmed observability overhead {overhead * 100:.3f}% "
        f"breaches the 2% budget")
