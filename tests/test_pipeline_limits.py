"""Structural-limit tests: issue widths, memory ports, IQ reservation."""

from collections import Counter, defaultdict

import pytest

from repro.core.config import MachineConfig
from repro.core.machine import BaseMachine, make_machine
from repro.isa.assembler import assemble
from repro.isa.generator import generate_benchmark
from repro.pipeline.uop import UopState


def instrumented_run(programs, cycles=3000, warmup=5000):
    machine = BaseMachine(MachineConfig(), programs)
    machine.warm(warmup)
    core = machine.cores[0]
    per_cycle = []
    issued_loads = []
    issued_stores = []
    original = core.qbox._do_issue

    def wrapped(thread, uop, fu, plan, now):
        per_cycle.append((now, uop))
        return original(thread, uop, fu, plan, now)

    core.qbox._do_issue = wrapped
    for thread in core.threads:
        thread.target_instructions = 10**9
    for _ in range(cycles):
        machine.step()
    return machine, per_cycle


class TestIssueLimits:
    def test_issue_width_respected(self):
        machine, issued = instrumented_run([generate_benchmark("mgrid")])
        by_cycle = Counter(now for now, _ in issued)
        assert by_cycle, "nothing issued"
        assert max(by_cycle.values()) <= MachineConfig().core.issue_width

    def test_per_half_issue_limit(self):
        machine, issued = instrumented_run([generate_benchmark("mgrid")])
        by_cycle_half = Counter((now, uop.queue_half) for now, uop in issued)
        assert max(by_cycle_half.values()) <= \
            MachineConfig().core.issue_width // 2

    def test_memory_port_limits(self):
        config = MachineConfig().core
        machine, issued = instrumented_run([generate_benchmark("swim")])
        loads = Counter(now for now, uop in issued if uop.instr.is_load)
        stores = Counter(now for now, uop in issued if uop.instr.is_store)
        mems = Counter(now for now, uop in issued
                       if uop.instr.fu_class.value == "mem")
        if loads:
            assert max(loads.values()) <= config.max_load_issue
        if stores:
            assert max(stores.values()) <= config.max_store_issue
        if mems:
            assert max(mems.values()) <= config.max_mem_issue


class TestUnitClaims:
    """Every unit is pipelined: within a cycle, a (class, half) slot's
    claims take its units in order, and the pools' statistics count
    every issued uop on the unit it took."""

    @pytest.mark.parametrize("kind,name", [("base", "mgrid"),
                                           ("srt", "gcc"),
                                           ("crt", "swim")])
    def test_claims_and_statistics(self, kind, name):
        programs = [generate_benchmark(name)]
        if kind == "crt":
            programs.append(generate_benchmark("m88ksim"))
        machine = make_machine(kind, MachineConfig(), programs)
        machine.warm(2000)
        claims = defaultdict(list)      # (core, cycle, class, half) -> units
        for core in machine.cores:
            original = core.qbox._do_issue

            def wrapped(thread, uop, fu, plan, now, core=core,
                        original=original):
                claims[core.core_id, now, fu[0], uop.queue_half].append(fu)
                return original(thread, uop, fu, plan, now)

            core.qbox._do_issue = wrapped
        machine.run(max_instructions=800)
        assert claims, "nothing issued"
        for core in machine.cores:
            fus = core.fus
            issued = Counter(fu for (core_id, *_), units in claims.items()
                             if core_id == core.core_id for fu in units)
            stats = fus.stats
            assert stats.per_unit_issues == dict(issued)
            assert stats.issues == sum(issued.values())
        for (_, _, fu_class, half), units in claims.items():
            reachable = machine.cores[0].fus.units_for_half(fu_class, half)
            assert units == [(fu_class, index)
                             for index in reachable[:len(units)]]


class TestIqReservation:
    def test_one_thread_cannot_take_every_entry(self):
        """Section 4.3: each thread keeps a reserved chunk so a stalled
        thread cannot wedge the others out of the queue."""
        # A thread that stalls hard (dependent FDIV chain) plus a nimble one.
        stall = assemble("\n".join(
            ["ldi r1, 1", "ldi r2, 3"]
            + ["fdiv r1, r1, r2"] * 120
            + ["br 2"]), name="staller")
        nimble = assemble("""
            ldi r1, 0
        loop:
            addi r1, r1, 1
            br loop
        """, name="nimble")
        machine = BaseMachine(MachineConfig(), [stall, nimble])
        for thread in machine.cores[0].threads:
            thread.target_instructions = 10**9
        for _ in range(3000):
            machine.step()
        core = machine.cores[0]
        config = MachineConfig().core
        total = sum(t.iq_occupancy for t in core.threads)
        assert total <= config.iq_entries
        # The nimble thread kept retiring despite the staller.
        assert core.threads[1].stats.retired > 500

    def test_queue_halves_never_overflow(self):
        machine, _ = instrumented_run([generate_benchmark("fpppp")],
                                      cycles=2000)
        qbox = machine.cores[0].qbox
        assert qbox.occupancy(0) <= qbox.half_capacity
        assert qbox.occupancy(1) <= qbox.half_capacity
