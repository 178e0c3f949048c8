"""Golden run digests: committed behaviour that refactors must reproduce.

Each entry of ``fixtures/golden_runs.json`` is the content hash of one
run's canonical ``RunResult.to_dict()``, its floats rounded to
:data:`FLOAT_DIGITS` significant digits so every supported Python
computes the same digest.  Every run is repeated through each of the
three drivers of the cycle loop — ``Machine.run``,
:class:`~repro.obs.profile.StageProfiler` and
:class:`~repro.harness.tracing.OccupancySampler` — and each must land
on the one recorded digest; the sampler's sample series has its own.

The test only reads the fixture.  After a deliberate behaviour change,
rewrite it with::

    PYTHONPATH=src python3 tests/test_golden_runs.py regenerate

and justify the digest diff in the change that carries it.
"""

import functools
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.core.config import MachineConfig
from repro.core.faults import (TransientResultFault,
                               run_fault_experiment_detailed)
from repro.core.machine import make_machine
from repro.harness.tracing import OccupancySampler
from repro.isa.generator import generate_benchmark
from repro.obs.profile import StageProfiler
from repro.util.canonical import content_hash

FIXTURE = Path(__file__).parent / "fixtures" / "golden_runs.json"

#: Significant digits a float keeps in a digest: ``sum`` of floats is
#: compensated from Python 3.12 on, so derived ratios may differ in
#: their last bit between versions; simulated counts never do.
FLOAT_DIGITS = 12

SEED = 1
INSTRUCTIONS = 300
WARMUP = 500
SAMPLE_INTERVAL = 16

#: name -> (machine kind, MachineConfig overrides, make_machine kwargs).
CONFIGS: Dict[str, Tuple[str, Dict[str, object], Dict[str, object]]] = {
    "base": ("base", {}, {}),
    "base2": ("base2", {}, {}),
    "srt": ("srt", {}, {}),
    "srt+ptsq": ("srt", {"per_thread_store_queues": True}, {}),
    "srt+nosc": ("srt", {"store_comparison": False}, {}),
    "srt+recovery": ("srt", {"recovery_enabled": True}, {}),
    "lockstep": ("lockstep", {}, {}),
    "lockstep+mirrored": ("lockstep", {}, {"mirrored": True}),
    "crt": ("crt", {}, {}),
}
PROGRAMS = ("gcc", "m88ksim")
#: CRT also runs a partner program so both cores lead one thread.
CRT_PARTNER = "compress"

#: Fault runs on srt/gcc: case -> (MachineConfig overrides, outcome).
FAULT_RUNS = {
    "srt-detected": ({}, "detected"),
    "srt-recovered": ({"recovery_enabled": True}, "recovered"),
}
FAULT = dict(cycle=40, core_index=0, bit=5, thread=0)

DRIVERS = ("run", "profile", "sample")
RUN_CASES = [f"{config}/{program}" for config in CONFIGS
             for program in PROGRAMS]


def rounded(data: object) -> object:
    """``data`` with every float rounded to FLOAT_DIGITS digits."""
    if isinstance(data, float):
        return float(f"{data:.{FLOAT_DIGITS}g}")
    if isinstance(data, dict):
        return {key: rounded(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [rounded(value) for value in data]
    return data


def digest(data: object) -> str:
    return content_hash(rounded(data))


@functools.lru_cache(maxsize=None)
def program(name: str):
    return generate_benchmark(name, seed=SEED)


def build(case: str):
    config_name, program_name = case.split("/")
    kind, overrides, kwargs = CONFIGS[config_name]
    programs = [program(program_name)]
    if kind == "crt":
        programs.append(program(CRT_PARTNER))
    return make_machine(kind, MachineConfig(**overrides), programs, **kwargs)


def drive(case: str, driver: str) -> Tuple[str, List[object]]:
    """(run digest, sample series) of ``case`` through ``driver``."""
    machine = build(case)
    samples: List[object] = []
    if driver == "run":
        result = machine.run(max_instructions=INSTRUCTIONS, warmup=WARMUP)
    elif driver == "profile":
        result = StageProfiler().run(machine, max_instructions=INSTRUCTIONS,
                                     warmup=WARMUP)
    else:
        sampler = OccupancySampler(machine, interval=SAMPLE_INTERVAL)
        result = sampler.run(INSTRUCTIONS, warmup=WARMUP)
        samples = [[sample.cycle, sample.values]
                   for sample in sampler.samples]
    return digest(result.to_dict()), samples


def fault_run(case: str) -> Tuple[str, str]:
    """(digest, outcome) of one fault run."""
    overrides, _ = FAULT_RUNS[case]
    machine = make_machine("srt", MachineConfig(**overrides),
                           [program("gcc")])
    report = run_fault_experiment_detailed(
        machine, program("gcc"), TransientResultFault(**FAULT),
        instructions=INSTRUCTIONS, warmup=WARMUP)
    run_digest = digest({"report": report.to_dict(), "cycles": machine.now,
                         "stats": machine.machine_stats(),
                         "fault_events": [vars(event) for event
                                          in machine.fault_events]})
    return run_digest, report.outcome.value


@functools.lru_cache(maxsize=None)
def golden() -> Dict[str, Dict[str, str]]:
    with open(FIXTURE, "r", encoding="utf-8") as source:
        return json.load(source)


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("case", RUN_CASES)
def test_run_digest(case, driver):
    run_digest, samples = drive(case, driver)
    assert run_digest == golden()["runs"][case]
    if driver == "sample":
        assert digest(samples) == golden()["samples"][case]


@pytest.mark.parametrize("case", sorted(FAULT_RUNS))
def test_fault_run_digest(case):
    run_digest, outcome = fault_run(case)
    assert outcome == FAULT_RUNS[case][1]
    assert run_digest == golden()["faults"][case]


def regenerate() -> None:
    """Rewrite the fixture from ``Machine.run`` (the reference driver)."""
    runs, samples = {}, {}
    for case in RUN_CASES:
        runs[case] = drive(case, "run")[0]
        samples[case] = digest(drive(case, "sample")[1])
    payload = {
        "seed": SEED, "instructions": INSTRUCTIONS, "warmup": WARMUP,
        "runs": runs, "samples": samples,
        "faults": {case: fault_run(case)[0] for case in sorted(FAULT_RUNS)},
    }
    with open(FIXTURE, "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=1, sort_keys=True)
        sink.write("\n")
    print(f"wrote {len(runs)} run, {len(samples)} sample and "
          f"{len(payload['faults'])} fault digests to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} regenerate")
    regenerate()
