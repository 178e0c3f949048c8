"""Stage profiler: the profiled run loop must be an exact stand-in for
``Machine.run`` (same RunResult, byte for byte), with plausible stage
attribution on top."""

import pytest

from repro.core.config import MachineConfig
from repro.core.machine import make_machine
from repro.isa.generator import generate_benchmark
from repro.isa.profiles import split_workload
from repro.obs.profile import STAGES, StageProfiler, phase_name

#: Every machine's phases, each named after its method.
PHASES = {"inject", "writeback", "retire", "drain", "issue", "insert",
          "rename", "deliver", "fetch", "verify", "tick", "advance"}


def program_for(workload):
    name, seed = split_workload(workload)
    return generate_benchmark(name, seed=seed)


@pytest.mark.parametrize("kind", ["base", "srt", "crt"])
def test_profiled_run_identical_to_plain_run(kind):
    """The whole contract: fences only, never a behaviour change."""
    programs = [program_for("compress")]
    if kind == "crt":
        programs.append(program_for("gcc"))

    plain = make_machine(kind, MachineConfig(), list(programs))
    expected = plain.run(max_instructions=400, warmup=50)

    profiled_machine = make_machine(kind, MachineConfig(), list(programs))
    profiler = StageProfiler()
    actual = profiler.run(profiled_machine, max_instructions=400,
                          warmup=50)

    assert actual.to_dict() == expected.to_dict()
    assert profiler.cycles > 0


def test_stage_attribution_shape():
    program = program_for("gcc")
    machine = make_machine("srt", MachineConfig(), [program])
    profiler = StageProfiler()
    profiler.run(machine, max_instructions=300, warmup=20)

    assert set(profiler.seconds) == set(STAGES)
    assert all(seconds >= 0.0 for seconds in profiler.seconds.values())
    assert profiler.attributed_s > 0.0
    assert profiler.total_s >= profiler.attributed_s

    shares = profiler.shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    # The queue group (issue/rename/writeback) dominates every machine
    # kind we ship; a profiler bug that misattributes stages shows up
    # here as a wildly different split.
    assert shares["queue"] == max(shares.values())


def test_report_and_to_dict():
    program = program_for("compress")
    machine = make_machine("base", MachineConfig(), [program])
    profiler = StageProfiler()
    profiler.run(machine, max_instructions=200, warmup=10)

    text = profiler.report()
    assert "stage profile:" in text
    for stage in STAGES:
        assert stage in text

    assert "phase profile" in text
    for name in PHASES:
        assert f"  {name} " in text

    payload = profiler.to_dict()
    assert payload["cycles"] == profiler.cycles
    assert set(payload["seconds"]) == set(STAGES)
    assert set(payload["phases"]) == PHASES
    assert payload["phases"]["retire"]["stage"] == "commit"
    assert payload["overhead_s"] >= 0.0


@pytest.mark.parametrize("kind", ["base", "srt", "crt"])
def test_phase_times_sum_to_stage_times(kind):
    """One row per phase name, summed over cores, and each stage's time
    is the sum of its phases' times."""
    programs = [program_for("gcc")]
    if kind == "crt":
        programs.append(program_for("swim"))
    machine = make_machine(kind, MachineConfig(), programs)
    profiler = StageProfiler()
    profiler.run(machine, max_instructions=200, warmup=20)

    assert set(profiler.phase_seconds) == PHASES
    assert {phase_name(phase) for _, phase in machine.phases} == PHASES
    for stage in STAGES:
        assert profiler.seconds[stage] == pytest.approx(sum(
            seconds for name, seconds in profiler.phase_seconds.items()
            if profiler.phase_stages[name] == stage))
    assert profiler.attributed_s == pytest.approx(
        sum(profiler.seconds.values()))
    assert [row[0] for row in profiler.phase_rows()] == list(
        profiler.phase_seconds)


def test_phases_accumulate_over_runs():
    profiler = StageProfiler()
    totals = []
    for _ in range(2):
        machine = make_machine("base", MachineConfig(),
                               [program_for("compress")])
        profiler.run(machine, max_instructions=100)
        totals.append(dict(profiler.phase_seconds))
    first, both = totals
    assert set(first) == set(both) == PHASES
    assert all(both[name] >= first[name] for name in PHASES)
    assert profiler.total_s >= profiler.attributed_s


def test_empty_profiler_shares_are_zero():
    profiler = StageProfiler()
    assert profiler.shares() == {stage: 0.0 for stage in STAGES}
    assert profiler.overhead_s == 0.0
