"""Worker-side task execution (runs inside pool processes).

Everything here must be importable at module top level and take only
primitive (pickled dict) arguments: the engine ships chunks of task
dicts across the process boundary and gets result-record dicts back.

Records are **deterministic by construction** — no timestamps, host
names, or wall-clock fields — so a campaign's JSONL artifact is
byte-identical at any ``--jobs`` level.  Timing lives engine-side, in
the (non-authoritative) progress sidecar.

Per-task timeout: a genuinely wedged simulation cannot be interrupted
cooperatively, so the worker arms ``SIGALRM`` around each task (POSIX
only; a zero timeout disables the alarm).  A task that trips the alarm
is recorded as ``HUNG`` with ``timed_out=true`` rather than poisoning
the pool.
"""

import functools
import signal
import threading
from typing import Dict, List, Optional

from repro.chaos import chaos_point
from repro.core.config import MachineConfig
from repro.obs import trace as obs_trace
from repro.core.faults import (ARCH_FAULT_MODELS, fault_from_dict,
                               run_arch_fault_experiment,
                               run_fault_experiment_detailed)
from repro.core.machine import make_machine
from repro.isa.generator import generate_benchmark
from repro.isa.profiles import SPEC95_NAMES, split_workload
from repro.isa.program import Program


class TaskTimeout(Exception):
    """Raised inside a worker when a task exceeds its wall-clock budget."""


def _alarm_handler(signum, frame):
    raise TaskTimeout()


@functools.lru_cache(maxsize=len(SPEC95_NAMES))
def program_for(workload: str, seed: int) -> Program:
    """The program of a task's ``(workload, seed)``, generated once per
    process and kept, least recently used first out, one per profile.

    Every task of the process shares it, and with it the path it
    records (:meth:`Program.recorded_path`): tasks only read a program.
    Threads that miss on one key at once (in-process campaigns on
    serve executor threads) each generate it, and the programs they
    get are equal.
    """
    name, workload_seed = split_workload(workload)
    return generate_benchmark(name, seed=workload_seed + seed)


def execute_task(task: Dict[str, object],
                 config: Optional[Dict[str, object]] = None,
                 _holder: Optional[List] = None) -> Dict[str, object]:
    """Run one injection and return its (deterministic) result record.

    ``_holder``, when given, receives the live machine right after
    construction so the SIGALRM timeout path can salvage the watchdog's
    last progress fingerprint from a wedged run.
    """
    program = program_for(task["workload"], task["seed"])
    fault = fault_from_dict(task["fault"])
    if task["model"] in ARCH_FAULT_MODELS:
        # Architectural oracle: no machine, no warmup — the functional
        # executor pair classifies the site directly.
        report = run_arch_fault_experiment(
            program, fault, instructions=task["instructions"])
    else:
        machine_config = (MachineConfig.from_dict(config) if config
                          else MachineConfig())
        machine = make_machine(task["kind"], machine_config, [program])
        if _holder is not None:
            _holder.append(machine)
        report = run_fault_experiment_detailed(
            machine, program, fault,
            instructions=task["instructions"], warmup=task["warmup"])
    record = {
        "task_id": task["task_id"],
        "index": task["index"],
        "kind": task["kind"],
        "workload": task["workload"],
        "model": task["model"],
        "fault": task["fault"],
        "timed_out": False,
    }
    if task.get("predicted") is not None:
        record["predicted"] = task["predicted"]
    record.update(report.to_dict())
    return record


def _timed_out_record(task: Dict[str, object],
                      machine=None) -> Dict[str, object]:
    """Failure row for a task that tripped the wall-clock alarm.

    The row carries the watchdog's last progress fingerprint (queue
    occupancies, head-of-ROB blockers, stall counters) salvaged from the
    interrupted machine.  Timeout rows are the one deliberately
    nondeterministic record kind — they depend on wall-clock speed — so
    the extra forensic detail costs no reproducibility that was not
    already lost.
    """
    record = {
        "task_id": task["task_id"],
        "index": task["index"],
        "kind": task["kind"],
        "workload": task["workload"],
        "model": task["model"],
        "fault": task["fault"],
        "timed_out": True,
        "outcome": "hung",
        **({"predicted": task["predicted"]}
           if task.get("predicted") is not None else {}),
        "struck_cycle": None,
        "detected_cycle": None,
        "latency": None,
        "termination": "hung",
    }
    if machine is not None and machine.watchdog is not None:
        fingerprint = machine.watchdog.last_fingerprint
        if fingerprint is None:
            fingerprint = machine.watchdog.fingerprint(machine.now)
        record["fingerprint"] = fingerprint.to_dict()
    return record


def execute_chunk(payload: Dict[str, object]) -> List[Dict[str, object]]:
    """Pool entry point: run a chunk of tasks, one record each.

    ``payload`` = ``{"tasks": [task dicts], "config": dict|None,
    "timeout": seconds}`` plus an ``"attempt"`` count the engine bumps
    each time it resubmits the chunk after a pool break — chaos rules
    key on it so an injected crash does not re-fire on the retry.  A
    process generates each program once (:func:`program_for`) and
    records its path once, whatever the chunking: later tasks, in this
    chunk or the next, replay that path to warm up and to classify.
    """
    tasks: List[Dict[str, object]] = payload["tasks"]
    config = payload.get("config")
    timeout = int(payload.get("timeout") or 0)
    attempt = int(payload.get("attempt") or 0)
    # SIGALRM can only be armed from the main thread; in-process
    # execution on a serve executor thread silently loses the per-task
    # timeout (the scheduler's job-level timeout still applies there).
    use_alarm = (timeout > 0 and hasattr(signal, "SIGALRM")
                 and threading.current_thread() is threading.main_thread())
    records: List[Dict[str, object]] = []
    # Adopt the engine's trace carry (shipped in the pickled payload)
    # so chunk/task spans nest under the campaign.run root even in a
    # spawned pool process.  The chunk span is infrastructure-shaped
    # (chaos recovery legitimately re-chunks work), so it is tagged
    # ``infra`` and stripped from normalized span logs; the per-task
    # spans are the semantic, byte-comparable record.
    with obs_trace.adopt(payload.get("trace")), \
         obs_trace.span("campaign.chunk",
                        key=str(tasks[0]["task_id"]) if tasks else None,
                        attempt=attempt, infra=True, tasks=len(tasks)):
        for task in tasks:
            # Infrastructure fault injection: a `crash` rule hard-kills
            # this worker (the engine rebuilds the pool and re-executes
            # the chunk), a `stall` rule simulates a slow/overloaded
            # host.
            chaos_point("campaign.worker.task", key=task["task_id"],
                        attempt=attempt)
            with obs_trace.span("campaign.task", key=task["task_id"]):
                if not use_alarm:
                    records.append(execute_task(task, config))
                    continue
                holder: List = []
                previous = signal.signal(signal.SIGALRM, _alarm_handler)
                signal.alarm(timeout)
                try:
                    records.append(execute_task(task, config, holder))
                except TaskTimeout:
                    records.append(_timed_out_record(
                        task, machine=holder[-1] if holder else None))
                finally:
                    signal.alarm(0)
                    signal.signal(signal.SIGALRM, previous)
    return records
