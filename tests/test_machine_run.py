"""Tests for the machine run loop: warmup, drain, targets, stats."""

from repro.core.config import MachineConfig
from repro.core.faults import FaultInjector
from repro.core.machine import BaseMachine, make_machine
from repro.isa.assembler import assemble
from repro.isa.generator import generate_benchmark


class TestWarmup:
    def test_warmup_improves_performance(self):
        program = generate_benchmark("m88ksim")
        cold = BaseMachine(MachineConfig(), [program]).run(
            max_instructions=1000)
        warm = BaseMachine(MachineConfig(), [program]).run(
            max_instructions=1000, warmup=15_000)
        assert warm.threads[0].ipc > cold.threads[0].ipc

    def test_warmup_touches_caches(self):
        program = generate_benchmark("swim")
        machine = BaseMachine(MachineConfig(), [program])
        machine.warm(5000)
        hierarchy = machine.hierarchies[0]
        assert hierarchy.l1i[0].contains(
            machine.cores[0].threads[0].code_addr(program.entry))

    def test_warmup_counts_no_stats(self):
        program = generate_benchmark("gcc")
        machine = BaseMachine(MachineConfig(), [program])
        machine.warm(5000)
        assert machine.cores[0].stats.retired_total == 0
        assert machine.hierarchies[0].l1i[0].stats.accesses == 0

    def test_lockstep_warms_both_hierarchies(self):
        program = generate_benchmark("gcc")
        machine = make_machine("lockstep", MachineConfig(), [program])
        # An attached injector keeps core 1 and its hierarchy simulated.
        FaultInjector(machine, [])
        machine.warm(3000)
        addr = machine.cores[0].threads[0].code_addr(program.entry)
        assert machine.hierarchies[0].l1i[0].contains(addr)
        assert machine.hierarchies[1].l1i[0].contains(addr)


class TestDrain:
    def test_stores_drain_after_halt(self):
        program = assemble("""
            ldi r1, 0x2000
            ldi r2, 123
            st r1, 0, r2
            halt
        """)
        machine = BaseMachine(MachineConfig(), [program])
        machine.run(max_instructions=100)
        thread = machine.cores[0].threads[0]
        assert machine.memory[thread.phys_addr(0x2000)] == 123
        assert not thread.store_queue

    def test_srt_drains_verified_stores_after_halt(self):
        program = assemble("""
            ldi r1, 0x2000
            ldi r2, 55
            st r1, 0, r2
            st r1, 8, r2
            halt
        """)
        machine = make_machine("srt", MachineConfig(), [program])
        machine.run(max_instructions=100)
        leading = machine.cores[0].threads[0]
        assert machine.memory[leading.phys_addr(0x2000)] == 55
        assert not leading.store_queue
        pair = machine.controller.pairs[0]
        assert pair.comparator.stats.comparisons == 2


class TestTargets:
    def test_per_thread_done_cycles_frozen(self):
        programs = [generate_benchmark("swim"), generate_benchmark("gcc")]
        machine = BaseMachine(MachineConfig(), programs)
        result = machine.run(max_instructions=500, warmup=3000)
        cycles = [t.cycles for t in result.threads]
        # The two programs finish at different cycles; each IPC is frozen
        # at its own completion point (Section 6.4 methodology).
        assert cycles[0] != cycles[1]
        assert all(t.retired == 500 for t in result.threads)

    def test_max_cycles_bounds_runaway(self):
        program = assemble("spin: br spin")  # infinite, retires plenty
        machine = BaseMachine(MachineConfig(), [program])
        result = machine.run(max_instructions=10**9, max_cycles=500)
        assert result.cycles <= 520  # bounded (+ drain grace is store-free)

    def test_machine_stats_include_threads(self):
        program = generate_benchmark("gcc")
        machine = BaseMachine(MachineConfig(), [program])
        result = machine.run(max_instructions=300, warmup=1000)
        assert "core0.t0.retired" in result.stats
        assert result.stats["core0.t0.retired"] >= 300
        assert "core0.line_mispredict_rate" in result.stats

    def test_fault_events_surface_in_result(self):
        program = generate_benchmark("gcc")
        machine = BaseMachine(MachineConfig(), [program])
        machine.report_fault(5, "test-kind", 0, detail="synthetic")
        result = machine.run(max_instructions=100, warmup=500)
        assert result.faults_detected == 1
        assert result.fault_events[0].kind == "test-kind"
