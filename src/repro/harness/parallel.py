"""Process-parallel execution of the per-figure experiment drivers.

``python -m repro fig6 --jobs 8`` fans the driver's per-workload rows
across a process pool: each worker rebuilds a fresh
:class:`~repro.harness.runner.Runner` from the same (instructions,
warmup, seed) recipe, runs the driver on a one-workload slice, and
ships the resulting :class:`ExperimentResult` back to be merged in the
original workload order.  Because the simulator is deterministic and a
single-workload slice computes exactly the rows (and baselines) it
needs, the merged table is identical to the sequential one.  The
slices run on the shared chunked-pool runner
(:func:`repro.harness.fanout.run_chunks`), which rebuilds a pool that a
dying worker broke and re-runs the lost slices.

A driver is splittable when it takes one of the workload-list
parameters (``benchmarks`` / ``workloads`` / ``pairs``); drivers that
sweep a hardware parameter over a *single* workload (sq-sweep, the
latency ablations) have nothing to split and fall back to sequential
execution.
"""

import inspect
from typing import Dict, List, Optional, Tuple

from repro.harness import experiments
from repro.harness.experiments import (ExperimentResult, fig8_default_pairs,
                                       fig11_default_workloads)
from repro.harness.fanout import auto_chunk_size, run_chunks
from repro.harness.runner import Runner
from repro.isa.profiles import SPEC95_NAMES

#: Parameter names (in priority order) through which a driver accepts
#: its workload list.
_SPLIT_PARAMS = ("benchmarks", "workloads", "pairs")

#: Default item lists for drivers whose ``None`` default is computed
#: internally from something other than SPEC95_NAMES.
_DEFAULT_ITEMS = {
    "fig8_srt_two_threads": fig8_default_pairs,
    "fig11_crt_multithread": fig11_default_workloads,
}


def split_param(driver) -> Optional[str]:
    """The workload-list parameter of ``driver``, or None."""
    for name in _SPLIT_PARAMS:
        if name in inspect.signature(driver).parameters:
            return name
    return None


def default_items(driver) -> Optional[List[object]]:
    """The items the driver would iterate by default, or None."""
    maker = _DEFAULT_ITEMS.get(driver.__name__)
    if maker is not None:
        return list(maker())
    if split_param(driver) == "benchmarks":
        return list(SPEC95_NAMES)
    return None


def _run_slice(payload: Tuple[str, Dict[str, object], str, List[object]]
               ) -> ExperimentResult:
    """Pool entry point: run one driver over a slice of its items."""
    driver_name, runner_kwargs, param, items = payload
    driver = getattr(experiments, driver_name)
    runner = Runner(**runner_kwargs)
    return driver(runner, **{param: items})


def merge_results(slices: List[ExperimentResult]) -> ExperimentResult:
    """Merge slice results (row order = submission order).

    ``mean.*`` summary scalars are recomputed over the merged rows;
    other scalars recombine by max for ``max.*`` keys and are dropped
    otherwise (nothing in the registry produces any other kind).
    """
    if not slices:
        raise ValueError("no slices to merge")
    first = slices[0]
    merged = ExperimentResult(first.experiment, first.description,
                              series=list(first.series))
    extremes: Dict[str, float] = {}
    for part in slices:
        for label, row in part.rows.items():
            merged.add_row(label, row)
        for key, value in part.summary.items():
            if key.startswith("max."):
                extremes[key] = max(extremes.get(key, value), value)
    merged.finish()
    merged.summary.update(extremes)
    return merged


def run_experiment_parallel(driver_name: str,
                            runner_kwargs: Dict[str, object],
                            jobs: int) -> ExperimentResult:
    """Run a registered driver with its rows fanned across ``jobs``
    processes; falls back to sequential for unsplittable drivers."""
    driver = getattr(experiments, driver_name)
    param = split_param(driver)
    items = default_items(driver) if param else None
    if jobs <= 1 or param is None or items is None or len(items) <= 1:
        return driver(Runner(**runner_kwargs))

    def prepare(chunk: List[object], attempt: int):
        return driver_name, runner_kwargs, param, chunk

    def quarantine(item: object, kills: int) -> ExperimentResult:
        # A figure has no failure row to stand in for a missing slice.
        raise RuntimeError(f"{driver_name}: the worker running {item!r} "
                           f"died {kills} consecutive times")

    # One slice per item for the typical figure-sized lists, larger
    # slices only when the item count dwarfs the worker pool.
    size = auto_chunk_size(len(items), jobs)
    return merge_results(list(run_chunks(
        _run_slice, items, size, min(jobs, len(items)), prepare,
        quarantine, name="experiment")))
