"""The pipeline's retired stream must equal the architectural executor.

This is the repository's strongest correctness property: for every
synthetic benchmark, the out-of-order, speculating, forwarding pipeline
must retire exactly the instruction stream — same PCs, same load values,
same store addresses and data — that the simple in-order functional
executor produces.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.faults import FaultInjector
from repro.core.machine import BaseMachine, make_machine
from repro.isa.executor import FunctionalExecutor
from repro.isa.generator import generate_benchmark
from repro.isa.profiles import SPEC95_NAMES
from repro.pipeline.thread import ThreadRole

INSTRUCTIONS = 1200


def check_equivalence(program, machine, core, tid=0):
    trace = core.retire_trace[tid]
    reference = FunctionalExecutor(program).run(len(trace))
    assert len(trace) > 0
    for index, (uop, ref) in enumerate(zip(trace, reference)):
        assert uop.pc == ref.pc, (
            f"pc diverged at retired instruction {index}: "
            f"{uop.pc} != {ref.pc} ({uop.instr} vs {ref.instr})")
        if ref.load is not None:
            assert uop.mem_addr == ref.load[0], f"load address @{index}"
            assert uop.result == ref.load[1], f"load value @{index}"
        if ref.store is not None:
            assert uop.mem_addr == ref.store[0], f"store address @{index}"


@pytest.mark.parametrize("name", SPEC95_NAMES)
def test_base_machine_matches_functional_executor(name):
    program = generate_benchmark(name)
    machine = BaseMachine(MachineConfig(), [program])
    core = machine.cores[0]
    core.retire_trace[0] = []
    result = machine.run(max_instructions=INSTRUCTIONS, warmup=3000)
    assert result.threads[0].retired == INSTRUCTIONS, "stalled before target"
    check_equivalence(program, machine, core)


@pytest.mark.parametrize("name", ["gcc", "swim", "li", "fpppp"])
def test_base_machine_matches_with_different_seeds(name):
    program = generate_benchmark(name, seed=7)
    machine = BaseMachine(MachineConfig(), [program])
    core = machine.cores[0]
    core.retire_trace[0] = []
    machine.run(max_instructions=800, warmup=2000)
    check_equivalence(program, machine, core)


def test_two_threads_both_match():
    """Coscheduled threads must not corrupt each other's state."""
    programs = [generate_benchmark("gcc"), generate_benchmark("swim")]
    machine = BaseMachine(MachineConfig(), programs)
    core = machine.cores[0]
    core.retire_trace[0] = []
    core.retire_trace[1] = []
    machine.run(max_instructions=800, warmup=2000)
    for tid, program in enumerate(programs):
        trace = core.retire_trace[tid]
        reference = FunctionalExecutor(program).run(len(trace))
        for uop, ref in zip(trace, reference):
            assert uop.pc == ref.pc
            if ref.load is not None:
                assert uop.result == ref.load[1]


def test_srt_leading_and_trailing_match_reference():
    """Both redundant threads retire the identical correct stream."""
    from repro.core.machine import make_machine

    program = generate_benchmark("vortex")
    machine = make_machine("srt", MachineConfig(), [program])
    core = machine.cores[0]
    core.retire_trace[0] = []
    core.retire_trace[1] = []
    result = machine.run(max_instructions=800, warmup=2000)
    assert result.faults_detected == 0
    lead, trail = core.retire_trace[0], core.retire_trace[1]
    reference = FunctionalExecutor(program).run(len(lead))
    for uop, ref in zip(lead, reference):
        assert uop.pc == ref.pc
    for lead_uop, trail_uop in zip(lead, trail):
        assert lead_uop.pc == trail_uop.pc
        if lead_uop.instr.is_store:
            assert lead_uop.mem_addr == trail_uop.mem_addr
            assert lead_uop.store_value == trail_uop.store_value


#: Machines beyond base and srt, each run against the executor.  A
#: lockstep machine with no injector simulates core 0 and mirrors core
#: 1; an attached (empty) injector keeps both cores simulated.
KINDS = ["base2", "crt", "lockstep-mirrored", "lockstep-dual"]


def build(kind, program):
    if kind.startswith("lockstep"):
        machine = make_machine("lockstep", MachineConfig(), [program])
        if kind == "lockstep-dual":
            FaultInjector(machine, [])
        return machine
    return make_machine(kind, MachineConfig(), [program])


def golden_stores(program, steps):
    """The executor's store stream, ``(opcode, word address, word
    stored)``: what a fault-free run drains through the sphere."""
    return [(ref.instr.op.name, *ref.store)
            for ref in FunctionalExecutor(program).run(steps)
            if ref.store is not None]


@pytest.mark.parametrize("name", ["gcc", "swim", "m88ksim"])
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_matches_functional_executor(kind, name):
    """Every thread of every simulated core retires the executor's
    stream, and drains a prefix of its store stream."""
    program = generate_benchmark(name)
    machine = build(kind, program)
    for core in machine.cores:
        for thread in core.threads:
            core.retire_trace[thread.tid] = []
            core.drain_log[thread.tid] = []
    result = machine.run(max_instructions=800, warmup=2000)
    assert result.faults_detected == 0
    assert len(machine.cores) == (1 if kind in ("base2", "lockstep-mirrored")
                                  else 2)
    golden = golden_stores(program, 4 * 800)
    drained_by_core = []
    for core in machine.cores:
        drained_by_core.append([])
        for thread in core.threads:
            assert thread.program is program
            check_equivalence(program, machine, core, thread.tid)
            drained = core.drain_log[thread.tid]
            assert drained == golden[:len(drained)]
            if thread.role is ThreadRole.TRAILING:
                assert drained == []  # compared, never drained
            drained_by_core[-1].append(drained)
        # (Base2's unmeasured copy may not reach its first store.)
        if any(thread.role is not ThreadRole.TRAILING
               for thread in core.threads):
            assert any(drained_by_core[-1])
    if kind == "lockstep-dual":
        assert drained_by_core[0] == drained_by_core[1]
