"""Parent side of the benchmark: child processes, set-up timing, output.

Every workload runs in a fresh child process (``python3 bench/run.py
child``), so the program's in-process memos — the generator's gate
cache, runner baselines, program caches — never carry from one
workload, or one set-up sample, to the next.  The parent times each
child from spawn until it reports ready: that is one ``setup_s``
sample.  Untraced runs take three samples (two children that only set
up, then the measuring child) and report their median, each put at the
reference host speed by the probes the child took during its set-up
(see :mod:`bench.probe`).
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench import ROOT, SRC, WORK, CheckoutError, use_checkout_sources

#: The command line script; children and repeated runs start it too.
SCRIPT = ROOT / "bench" / "run.py"

READY = "BENCH-READY"
RESULT = "BENCH-RESULT "

#: Set-up samples per untraced run (the median is reported).
SETUP_SAMPLES = 3

#: A run whose children take longer than this in total is killed and
#: fails, so that every run ends within three minutes.
RUN_BUDGET_S = 170.0

#: Printed for a per-layer metric the workload does not exercise.
NOT_APPLICABLE = 0.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def declared() -> Dict[str, object]:
    """Workloads, metrics and bounds from ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as source:
        spec = json.load(source)
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "run_seconds": spec["run_seconds"],
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("REPRO_TRACE", None)
    return env


def spawn_child(workload: str, seed: int, seconds: float, trace: bool,
                setup_only: bool, deadline: float
                ) -> Tuple[float, float, Optional[Dict[str, object]]]:
    """Run one child, killing it at ``deadline`` (``time.monotonic``);
    returns (spawn-to-ready seconds, the same at the reference host
    speed, its result)."""
    command = [sys.executable, str(SCRIPT), "child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)),
               "--trace", str(int(trace))]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                             stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                            child.kill)
    timer.start()
    ready: Optional[float] = None
    reference = 0.0
    result = None
    try:
        for line in child.stdout:
            if line.startswith(READY):
                ready = time.perf_counter() - start
                # The child's speed relative to the reference host over
                # its set-up; the time it spent probing is not set-up.
                speed, probing_s = map(float, line.split()[1:])
                reference = (ready - probing_s) * speed
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        child.wait()
    finally:
        timer.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or ready is None or (
            result is None and not setup_only):
        raise BenchError(f"{workload} child exited {child.returncode} "
                         f"({'ready' if ready else 'not ready'})")
    return ready, reference, result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: Dict[str, object]) -> Dict[str, object]:
    """One workload run: the result object the command prints."""
    deadline = time.monotonic() + RUN_BUDGET_S
    samples: List[Tuple[float, float]] = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        samples.append(spawn_child(workload, seed, seconds, trace, True,
                                   deadline)[:2])
    ready, reference, result = spawn_child(workload, seed, seconds, trace,
                                           False, deadline)
    samples.append((ready, reference))
    metrics = dict(result["metrics"])
    if not trace:
        metrics["setup_s"] = statistics.median(
            reference for _, reference in samples)
    names = spec["per_layer"] if trace else spec["end_to_end"]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        raise BenchError(f"undeclared metrics {unknown}")
    if not trace and set(metrics) != set(names):
        raise BenchError(f"missing metrics {sorted(set(names) - set(metrics))}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics.get(name, NOT_APPLICABLE),
                           "unit": names[name]["unit"]}
                    for name in names},
        "problems": result["problems"],
        "report": result["report"],
        "measured": sorted(metrics),
        "as_measured": dict(result["as_measured"], setup_samples=[
            ready for ready, _ in samples]),
    }


def _print_result(workload: str, outcome: Dict[str, object]) -> None:
    for line in outcome["report"]:
        print(line)
    print(f"{workload}: attempted {outcome['attempted']}, "
          f"failed {outcome['failed']}")
    for name, metric in outcome["metrics"].items():
        value = (f"{metric['value']:.6g}" if name in outcome["measured"]
                 else "n/a")
        print(f"  {name:<40s} {value:>14s} {metric['unit']}")
    for problem in outcome["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)


def run_command(workload: Optional[str], seed: int,
                seconds: Optional[float], trace: bool,
                out: Optional[str]) -> int:
    """``run``: print every metric, then one JSON result line.

    Without ``workload``, runs every declared workload in turn; the
    result line then prefixes each metric with its workload's name.
    """
    try:
        use_checkout_sources()
        spec = declared()
        if workload and workload not in spec["workloads"]:
            raise BenchError(f"unknown workload {workload!r}; expected "
                             f"one of {spec['workloads']}")
        workloads = [workload] if workload else spec["workloads"]
        seconds = spec["run_seconds"] if seconds is None else seconds
        outcomes = {name: measure(name, seed, seconds, trace, spec)
                    for name in workloads}
    except (BenchError, CheckoutError, OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for name, outcome in outcomes.items():
        _print_result(name, outcome)
    if len(outcomes) == 1:
        (outcome,) = outcomes.values()
        metrics = outcome["metrics"]
    else:
        metrics = {f"{name}.{metric_name}": metric
                   for name, outcome in outcomes.items()
                   for metric_name, metric in outcome["metrics"].items()}
    line = {"correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": metrics}
    if out:
        details = {name: {key: outcome[key] for key in
                          ("as_measured", "problems")}
                   for name, outcome in outcomes.items()}
        Path(out).write_text(json.dumps({"result": line,
                                         "details": details}, indent=1))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def child_command(workload: str, seed: int, seconds: float, trace: bool,
                  setup_only: bool) -> int:
    """``child``: set up, say ready, measure, print the result line.

    The ready line carries the child's speed relative to the reference
    host over its set-up (from the probes set-up took, and one taken at
    its end) and the time it spent probing.
    """
    start = time.perf_counter()
    use_checkout_sources()
    from bench.oracle import Oracle
    from bench.workloads import INPUT_SETS, WORKLOADS, execute

    seed %= INPUT_SETS
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        instance = WORKLOADS[workload](seed, work,
                                       Oracle.load(workload, seed), seconds)
        try:
            instance.setup()
            probe = instance.probe
            probe.take()
            ready = time.perf_counter()
            speed = probe.reference_seconds(start, ready) / (ready - start)
            print(f"{READY} {speed!r} {probe.probing_s!r}", flush=True)
            if setup_only:
                return 0
            result = execute(instance, seconds, trace)
        finally:
            instance.teardown()
        print(RESULT + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def repeat_command(runs: int, first_seed: int) -> int:
    """``repeat``: run each workload ``runs`` times (seeds first_seed,
    first_seed+1, ...), alternating the workload order, and print the
    median and quartiles of every end-to-end metric."""
    spec = declared()
    workloads = spec["workloads"]
    seconds = spec["run_seconds"]
    values: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    failures = 0
    for run in range(runs):
        order = workloads if run % 2 == 0 else workloads[::-1]
        for workload in order:
            out = WORK / "repeat-run.json"
            out.unlink(missing_ok=True)
            command = [sys.executable, str(SCRIPT), "run", "--workload",
                       workload, "--seed", str(first_seed + run),
                       "--seconds", str(seconds), "--trace", "0",
                       "--out", str(out)]
            subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                           timeout=600)
            if not out.exists():
                print(f"error: run {run} of {workload} gave no result",
                      file=sys.stderr)
                return 2
            data = json.loads(out.read_text())
            line = data["result"]
            failures += line["failed"]
            for name, metric in line["metrics"].items():
                values[workload][name].append(metric["value"])
            for name, value in data["details"][workload][
                    "as_measured"].items():
                if name != "setup_samples":
                    values[workload][f"({name})"].append(value)
            print(f"run {run} {workload}: " + ", ".join(
                f"{name}={series[-1]:.4g}"
                for name, series in values[workload].items()), flush=True)
    print(f"\n{'workload':<16s} {'metric':<18s} {'median':>11s} "
          f"{'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}")
    for workload in workloads:
        for name, series in values[workload].items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            # "(name)": as measured, before the host-speed correction.
            bound = spec["end_to_end"].get(name, {}).get("bound", 0.0)
            share = (q3 - q1) / median
            flag = "" if not bound or share < bound / 3 else "  <-- wide"
            print(f"{workload:<16s} {name:<18s} {median:11.5g} {q1:11.5g} "
                  f"{q3:11.5g} {share:7.3f} {bound:6.2f}{flag}")
    print(f"\nfailed operations: {failures}")
    return 0 if failures == 0 else 1


def regen_command(seeds: Optional[List[int]]) -> int:
    """``regen-expected``: recompute and rewrite ``bench/expected.json``
    for ``seeds`` (default: every input set)."""
    use_checkout_sources()
    from repro.isa.profiles import SPEC95_NAMES

    from bench.oracle import Oracle, digest, write_expected
    from bench.workloads import (INPUT_SETS, POPULAR, WORKLOADS, PaperSmoke,
                                 popular_payload)

    if seeds is None:
        seeds = list(range(INPUT_SETS))
    # Every paper-smoke row, one campaign (all repeats are identical),
    # and three passes over the profiles for static-analysis: more than
    # a run reaches today, so a faster program is still fully checked.
    counts = {"paper-smoke": len(PaperSmoke.rows), "campaign": 1,
              "static-analysis": 3 * len(SPEC95_NAMES)}
    table: Dict[int, Dict[str, Dict[str, str]]] = {}
    work = WORK / f"regen-{os.getpid()}"
    for seed in seeds:
        table[seed] = {}
        for workload, count in counts.items():
            oracle = Oracle(None, announce=False)
            work.mkdir(parents=True, exist_ok=True)
            instance = WORKLOADS[workload](seed, work, oracle)
            instance.setup()
            try:
                phase = instance.measure(count=count)
            finally:
                instance.teardown()
                shutil.rmtree(work, ignore_errors=True)
            problems = [p for op in phase.ops for p in op.problems]
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            table[seed][workload] = oracle.seen
        table[seed]["serve-mixed"] = {
            f"popular/{which}": digest(popular_payload(seed, which))
            for which in range(len(POPULAR))}
        print(f"seed {seed}: " + ", ".join(
            f"{w} {len(d)}" for w, d in sorted(table[seed].items())),
            flush=True)
    write_expected(table)
    return 0
