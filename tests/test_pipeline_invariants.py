"""Facts the cycle core works out once and then reads as attributes: a
uop's opcode record and defaults, each hardware thread's role flags,
program length and redundant pair, the phase calls of one cycle, and
which hooks act on the per-uop paths."""

import dataclasses

import pytest

from repro.core.config import MachineConfig
from repro.core.machine import make_machine
from repro.isa.generator import generate_benchmark
from repro.isa.instructions import Instruction, Op
from repro.pipeline.config import CoreConfig
from repro.pipeline.hooks import CoreHooks, acting
from repro.pipeline.thread import ThreadRole
from repro.pipeline.uop import Uop


class TestUop:
    def test_constructor_stores_every_declared_default(self):
        instr = Instruction(Op.FMA, rd=3, ra=1, rb=2)
        uop = Uop(7, 1, 12, instr)
        assert (uop.seq, uop.thread, uop.pc, uop.instr) == (7, 1, 12, instr)
        assert uop.info is instr.op.info
        defaults = [field for field in dataclasses.fields(Uop)
                    if field.default is not dataclasses.MISSING]
        assert {field.name for field in dataclasses.fields(Uop)} - {
            field.name for field in defaults} == {
                "seq", "thread", "pc", "instr", "info"}
        for field in defaults:
            assert getattr(uop, field.name) == field.default, field.name

    def test_fetch_arguments(self):
        uop = Uop(1, 0, 0, Instruction(Op.BR, target=0), fetch_cycle=9,
                  outcome_known=True)
        assert uop.fetch_cycle == 9 and uop.outcome_known


def threads_of(machine):
    return [thread for core in machine.cores for thread in core.threads]


@pytest.fixture(scope="module")
def programs():
    return [generate_benchmark("gcc"), generate_benchmark("swim")]


class TestThreadAttributes:
    @pytest.mark.parametrize("kind", ["base", "base2", "lockstep"])
    def test_unpaired_machines(self, kind, programs):
        machine = make_machine(kind, MachineConfig(), programs)
        for thread in threads_of(machine):
            assert thread.role is ThreadRole.SINGLE
            assert not thread.is_leading and not thread.is_trailing
            assert thread.pair is None
            assert thread.program_length == len(thread.program)

    @pytest.mark.parametrize("kind", ["srt", "crt"])
    def test_each_redundant_thread_holds_its_pair(self, kind, programs):
        machine = make_machine(kind, MachineConfig(), programs)
        pairs = machine.controller.pairs
        assert [pair.name for pair in pairs] == ["gcc", "swim"]
        for pair in pairs:
            leading, trailing = pair.leading, pair.trailing
            assert leading.pair is pair and trailing.pair is pair
            assert leading.role is ThreadRole.LEADING
            assert leading.is_leading and not leading.is_trailing
            assert trailing.role is ThreadRole.TRAILING
            assert trailing.is_trailing and not trailing.is_leading
            assert leading.program is trailing.program
            same_core = leading.core is trailing.core
            assert same_core == (kind == "srt")
        assert len(threads_of(machine)) == 2 * len(pairs)
        for thread in threads_of(machine):
            # Plain attributes, fixed at construction.
            for name in ("is_leading", "is_trailing", "program_length",
                         "pair"):
                assert name in vars(thread), name
            assert thread.program_length == len(thread.program)
        # The pair lives on its threads, not in a side table.
        assert not hasattr(machine.controller, "pair_of")
        assert not hasattr(machine.controller, "_by_thread")


@pytest.mark.parametrize("kind", ["base", "srt", "lockstep", "crt"])
def test_step_calls_the_phase_table(kind, programs):
    machine = make_machine(kind, MachineConfig(), programs[:1])
    assert machine._phase_calls == tuple(
        phase for _, phase in machine.phases)


class RetireCounter(CoreHooks):
    def __init__(self):
        self.retired = 0

    def on_uop_retired(self, core, thread, uop, now):
        self.retired += 1


class TestHooks:
    def test_acting_skips_defaults_only(self):
        counter = RetireCounter()
        assert acting(CoreHooks(), "on_uop_retired") is None
        assert acting(counter, "on_uop_retired") == counter.on_uop_retired
        assert acting(counter, "can_retire_load") is None
        hooks = CoreHooks()
        hooks.on_store_retired = print
        assert acting(hooks, "on_store_retired") is print

    def test_hooks_replaced_after_construction_are_called(self, programs):
        machine = make_machine("base", MachineConfig(), programs[:1])
        machine.run(max_instructions=50)
        counter = RetireCounter()
        core = machine.cores[0]
        before = core.stats.retired_total
        core.hooks = counter
        for _ in range(200):
            machine.step()
        assert counter.retired == core.stats.retired_total - before > 0

    @pytest.mark.parametrize("kind", ["srt", "crt"])
    def test_queue_half_asked_for_trailing_uops_only(self, kind, programs):
        machine = make_machine(kind, MachineConfig(
            preferential_space_redundancy=True), programs[:1])
        controller = machine.controller
        asked = []

        def queue_half_for(core, thread, uop, default_half):
            asked.append(thread.is_trailing)
            return type(controller).queue_half_for(
                controller, core, thread, uop, default_half)

        controller.queue_half_for = queue_half_for
        machine.run(max_instructions=200)
        assert asked and all(asked)


def test_negative_writeback_latencies_are_rejected():
    for field in ("rbox_latency", "mbox_latency"):
        with pytest.raises(ValueError, match=field):
            CoreConfig(**{field: -1})
