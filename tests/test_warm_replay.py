"""Warm-up replay leaves every cache and predictor as re-execution did.

``Machine.warm`` replays the path :meth:`Program.recorded_path`
recorded once per program, handing each cache and each predictor its
whole stream in one call.  The reference below is the warm-up as it ran
before replay: a fresh :class:`FunctionalExecutor` per measured thread,
every cache level warmed one block at a time per step in hierarchy
order, every predictor trained per step.  The two must leave identical
state — cache sets with their LRU stamps and statistics, every
predictor table — because re-warming a resident block in a full set
evicts another way, so even the call count matters.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.faults import FaultInjector
from repro.core.machine import Machine, make_machine
from repro.isa.assembler import assemble
from repro.isa.executor import FunctionalExecutor
from repro.isa.generator import generate_benchmark

STEPS = 1500


def reference_warm(machine: Machine, instructions: int) -> None:
    for hw in machine._measured.values():
        executor = FunctionalExecutor(hw.program)
        cores = [core for core in machine.cores
                 if any(t.program is hw.program for t in core.threads)]
        for step in executor.run(instructions):
            code_addr = hw.phys_addr(hw.program.pc_to_addr(step.pc))
            data_addr = None
            if step.load is not None:
                data_addr = hw.phys_addr(step.load[0])
            elif step.store is not None:
                data_addr = hw.phys_addr(step.store[0])
            for hierarchy in machine.hierarchies:
                for index in range(hierarchy.num_cores):
                    hierarchy.l1i[index].warm([code_addr])
                    if data_addr is not None:
                        hierarchy.l1d[index].warm([data_addr])
                hierarchy.l2.warm([code_addr])
                if data_addr is not None:
                    hierarchy.l2.warm([data_addr])
            if step.instr.is_conditional:
                for core in cores:
                    for thread in core.threads:
                        if (thread.program is hw.program
                                and not thread.is_trailing):
                            predictor = core.branch_predictor
                            predicted = predictor.predict_conditional(
                                thread.tid, step.pc)
                            predictor.update_conditional(
                                thread.tid, step.pc, step.taken, predicted)


def warm_state(machine: Machine) -> list:
    state = []
    for hierarchy in machine.hierarchies:
        for cache in (*hierarchy.l1i, *hierarchy.l1d, hierarchy.l2):
            state.append((cache.name, cache._use_stamp, vars(cache.stats),
                          {index: list(ways.items())
                           for index, ways in cache._sets.items()}))
    for core in machine.cores:
        predictor = core.branch_predictor
        state.append((predictor._gshare, predictor._bimodal,
                      predictor._chooser, predictor._history,
                      vars(predictor.stats)))
    return state


@pytest.mark.parametrize("kind", ["base", "base2", "srt", "crt", "lockstep"])
def test_replay_matches_reexecution(kind):
    programs = [generate_benchmark("gcc", seed=4),
                generate_benchmark("li", seed=4)]
    # An attached injector builds a lockstep machine's core 1 and its
    # hierarchy and keeps them simulated, so both are warmed and compared.
    reference = make_machine(kind, MachineConfig(), programs)
    FaultInjector(reference, [])
    reference_warm(reference, STEPS)
    # The first warm-up records each program's path, the second replays.
    for _ in range(2):
        machine = make_machine(kind, MachineConfig(), programs)
        FaultInjector(machine, [])
        machine.warm(STEPS)
        assert warm_state(machine) == warm_state(reference)


def test_path_recorded_once_and_extended_on_demand():
    program = generate_benchmark("compress", seed=4)
    first = program.recorded_path(300)
    assert len(first) == 300
    assert program.recorded_path(200) is first
    assert program.recorded_path(300) is first
    longer = program.recorded_path(600)
    assert len(longer) == 600
    assert list(longer.pcs[:300]) == list(first.pcs)
    assert longer.kinds[:300] == first.kinds
    assert list(longer.addrs[:300]) == list(first.addrs)
    assert list(longer.values[:300]) == list(first.values)


def test_halted_path_is_not_recorded_again():
    program = assemble("ldi r1, 7\naddi r1, r1, 1\nhalt")
    path = program.recorded_path(100)
    assert path.halted and len(path) == 3
    assert program.recorded_path(10_000) is path
    machine = make_machine("base", MachineConfig(), [program])
    reference = make_machine("base", MachineConfig(), [program])
    machine.warm(100)
    reference_warm(reference, 100)
    assert warm_state(machine) == warm_state(reference)
