"""The wakeup/select scheduler issues exactly what polling issued.

:class:`PollingQBox` is the QBOX scheduler as it was before wakeup:
every cycle it filters each queue half down to its queued uops and
asks, for each of them in insertion order, whether all its physical
source registers are ready.  Every machine kind runs once with it and
once with the shipped :class:`~repro.pipeline.qbox.QBox`; the two runs
must retire the same uops, each issued in the same cycle, and produce
the same ``RunResult``.

Two paths leave *stale* waiters behind — squashed uops still registered
on a register that is later reallocated and written: a memory-order
violation squashing younger uops during issue, and a recovery rollback
(``squash_from(0)`` followed by ``regfile.write`` of the checkpointed
registers).  The runs must take both, and wake a stale waiter.
"""

import functools
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.faults import (TransientResultFault,
                               run_fault_experiment_detailed)
from repro.core.machine import Machine, make_machine
from repro.isa.generator import generate_benchmark
from repro.isa.instructions import FuClass, Instruction, Op
from repro.isa.profiles import SPEC95_NAMES
from repro.isa.program import Program
from repro.pipeline import core as core_module
from repro.pipeline.qbox import QBox
from repro.pipeline.uop import UopState
from repro.util.canonical import content_hash


class PollingQBox(QBox):
    """The reference: the polling scheduler, with list-backed halves."""

    def __init__(self, core) -> None:
        super().__init__(core)
        self.halves: List[list] = [[], []]

    def occupancy(self, half: int) -> int:
        return len(self.halves[half])

    def insert_chunk(self, thread, uops, now: int) -> None:
        for position, uop in enumerate(uops):
            if uop.state is UopState.SQUASHED:
                continue
            default_half = position % 2
            half = self.core.hooks.queue_half_for(
                self.core, thread, uop, default_half)
            if len(self.halves[half]) >= self.half_capacity:
                half = 1 - half
            uop.queue_half = half
            uop.state = UopState.QUEUED
            uop.queue_cycle = now
            self.halves[half].append(uop)

    def issue(self, now: int) -> None:
        core = self.core
        mem_issued = loads_issued = stores_issued = 0
        for half in (0, 1):
            entries = [u for u in self.halves[half]
                       if u.state is UopState.QUEUED]
            self.halves[half] = entries
            issued_this_half = 0
            for uop in entries:
                if issued_this_half >= self.config.issue_width // 2:
                    break
                if uop.state is not UopState.QUEUED:
                    continue
                if now < uop.queue_cycle + self.min_queue_wait:
                    continue
                if not self._sources_ready(uop):
                    continue
                instr = uop.instr
                is_mem = instr.fu_class is FuClass.MEM
                if is_mem:
                    if mem_issued >= self.config.max_mem_issue:
                        continue
                    if (instr.is_load
                            and loads_issued >= self.config.max_load_issue):
                        continue
                    if (instr.is_store
                            and stores_issued >= self.config.max_store_issue):
                        continue
                thread = core.threads[uop.thread]
                plan = None
                if instr.is_load:
                    plan = core.mbox.plan_load(thread, uop, now)
                    if plan is None:
                        continue
                fu = core.fus.acquire(instr.fu_class, half, now)
                if fu is None:
                    continue
                self._do_issue(thread, uop, fu, plan, now)
                issued_this_half += 1
                if is_mem:
                    mem_issued += 1
                    loads_issued += int(instr.is_load)
                    stores_issued += int(instr.is_store)
            self.halves[half] = [u for u in self.halves[half]
                                 if u.state is UopState.QUEUED]

    def _sources_ready(self, uop) -> bool:
        regfile = self.core.regfile
        return all(regfile.is_ready(reg) for reg in uop.phys_srcs)


class CountingQBox(QBox):
    """The shipped scheduler, counting woken waiters no longer queued."""

    def __init__(self, core) -> None:
        super().__init__(core)
        self.stale_wakes = 0

    def wake(self, reg: int) -> None:
        self.stale_wakes += sum(
            uop.state is not UopState.QUEUED for uop in self.waiters[reg])
        super().wake(reg)


SCHEDULERS = {"polling": PollingQBox, "wakeup": CountingQBox}

INSTRUCTIONS = 150
WARMUP = 300
#: name -> (machine kind, MachineConfig overrides).
CONFIGS = {
    "base": ("base", {}),
    "base2": ("base2", {}),
    "srt": ("srt", {}),
    "srt+ptsq": ("srt", {"per_thread_store_queues": True}),
    "srt+nosc": ("srt", {"store_comparison": False}),
    "lockstep": ("lockstep", {}),
    "crt": ("crt", {}),
}


@functools.lru_cache(maxsize=None)
def program(name: str) -> Program:
    return generate_benchmark(name, seed=1)


def build(scheduler: str, kind: str, config: MachineConfig,
          programs: List[Program]) -> Machine:
    with mock.patch.object(core_module, "QBox", SCHEDULERS[scheduler]):
        machine = make_machine(kind, config, programs)
    for core in machine.cores:
        for thread in core.threads:
            core.retire_trace[thread.tid] = []
    return machine


def issue_cycles(machine: Machine) -> Dict[Tuple[int, int],
                                           List[Tuple[int, int, int]]]:
    """(core, thread) -> [(seq, pc, issue cycle)] of every retired uop."""
    return {(core.core_id, tid): [(u.seq, u.pc, u.issue_cycle)
                                  for u in trace]
            for core in machine.cores
            for tid, trace in core.retire_trace.items()}


def violations(machine: Machine) -> int:
    return sum(thread.stats.memory_violations
               for core in machine.cores for thread in core.threads)


def stale_wakes(machine: Machine) -> int:
    return sum(core.qbox.stale_wakes for core in machine.cores)


def run_both(kind: str, overrides: Dict[str, object],
             programs: List[Program], **run) -> Dict[str, Machine]:
    machines = {}
    outputs = {}
    for scheduler in SCHEDULERS:
        machine = build(scheduler, kind, MachineConfig(**overrides),
                        programs)
        result = machine.run(**run)
        machines[scheduler] = machine
        outputs[scheduler] = (content_hash(result.to_dict()),
                              issue_cycles(machine))
    assert outputs["wakeup"][1] == outputs["polling"][1]
    assert outputs["wakeup"][0] == outputs["polling"][0]
    return machines


@pytest.mark.parametrize("name", SPEC95_NAMES)
@pytest.mark.parametrize("config", CONFIGS)
def test_same_issue_cycles_as_polling(config, name):
    kind, overrides = CONFIGS[config]
    machines = run_both(kind, overrides, [program(name)],
                        max_instructions=INSTRUCTIONS, warmup=WARMUP)
    retired = issue_cycles(machines["wakeup"])
    assert sum(len(trace) for trace in retired.values()) >= INSTRUCTIONS


def test_violation_squash_during_issue_leaves_stale_waiters():
    machines = run_both("base", {}, [program("fpppp")],
                        max_instructions=1500, warmup=WARMUP)
    assert violations(machines["wakeup"]) > 0
    assert stale_wakes(machines["wakeup"]) > 0


def test_recovery_rollback_leaves_stale_waiters():
    gcc = program("gcc")
    outputs = {}
    machines = {}
    for scheduler in SCHEDULERS:
        machine = machines[scheduler] = build(
            scheduler, "srt", MachineConfig(recovery_enabled=True), [gcc])
        report = run_fault_experiment_detailed(
            machine, gcc,
            TransientResultFault(cycle=40, core_index=0, bit=5, thread=0),
            instructions=300, warmup=500)
        assert machine.recovery.stats.rollbacks >= 1
        outputs[scheduler] = (content_hash(report.to_dict()),
                              issue_cycles(machine))
    assert outputs["wakeup"] == outputs["polling"]
    assert stale_wakes(machines["wakeup"]) > 0


# -- random programs -----------------------------------------------------------

DATA_BASE = 0x4000
ADDR = 30                  # address base register
COUNTER = 31               # loop counter
POOL = list(range(1, 12))  # few registers: dense dependences


@st.composite
def scheduling_program(draw):
    """A terminating loop of dependent ALU ops and aliasing loads and
    stores over a four-word window (order violations, forwarding)."""
    body = []
    for _ in range(draw(st.integers(4, 40))):
        kind = draw(st.sampled_from(["alu", "alu", "fma", "load", "store",
                                     "partial", "skip"]))
        rd, ra, rb = (draw(st.sampled_from(POOL)) for _ in range(3))
        offset = 8 * draw(st.integers(0, 3))
        if kind == "alu":
            op = draw(st.sampled_from([Op.ADD, Op.MUL, Op.XOR, Op.FDIV]))
            body.append(Instruction(op, rd=rd, ra=ra, rb=rb))
        elif kind == "fma":
            body.append(Instruction(Op.FMA, rd=rd, ra=ra, rb=ra))
        elif kind == "load":
            body.append(Instruction(Op.LD, rd=rd, ra=ADDR, imm=offset))
        elif kind == "store":
            body.append(Instruction(Op.ST, ra=ADDR, imm=offset, rb=rb))
        elif kind == "partial":
            body.append(Instruction(Op.STH, ra=ADDR, imm=offset + 4, rb=rb))
        else:
            body.append(("skip", ra))
    prologue = [Instruction(Op.LDI, rd=ADDR, imm=DATA_BASE),
                Instruction(Op.LDI, rd=COUNTER,
                            imm=draw(st.integers(2, 6)))]
    prologue += [Instruction(Op.LDI, rd=reg, imm=17 * reg + 3)
                 for reg in POOL]
    head = len(prologue)
    tail = head + len(body)
    code = list(prologue)
    for index, item in enumerate(body):
        if isinstance(item, tuple):
            item = Instruction(Op.BEQZ, ra=item[1],
                               target=min(head + index + 2, tail))
        code.append(item)
    code += [Instruction(Op.ADDI, rd=COUNTER, ra=COUNTER, imm=-1),
             Instruction(Op.BNEZ, ra=COUNTER, target=head),
             Instruction(Op.HALT)]
    return Program(name="sched", instructions=code)


@settings(max_examples=20, deadline=None)
@given(scheduling_program(), st.sampled_from(["base", "srt", "crt"]))
def test_random_programs_issue_as_polling(program, kind):
    run_both(kind, {}, [program], max_instructions=5_000,
             max_cycles=100_000)
