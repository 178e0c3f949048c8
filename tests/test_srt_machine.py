"""Integration tests for the SRT machine (Section 4)."""

import pytest

from repro.core.config import MachineConfig
from repro.core.machine import make_machine
from repro.isa.assembler import assemble
from repro.isa.generator import generate_benchmark


def run_srt(programs, config=None, instructions=600, warmup=2000,
            max_cycles=200_000):
    machine = make_machine("srt", config or MachineConfig(), programs)
    result = machine.run(max_instructions=instructions, warmup=warmup,
                         max_cycles=max_cycles)
    return machine, result


class TestBasicRedundancy:
    def test_no_false_faults(self):
        machine, result = run_srt([generate_benchmark("gcc")])
        assert result.faults_detected == 0

    def test_trailing_keeps_pace(self):
        """The trailing thread lags by at most the decoupling-queue depth
        (LPQ chunks x chunk size) plus pipeline contents."""
        machine, result = run_srt([generate_benchmark("swim")])
        leading, trailing = machine.cores[0].threads
        max_slack = machine.config.lpq_entries * 8 + 150
        assert trailing.stats.retired > 0
        assert trailing.stats.retired >= leading.stats.retired - max_slack
        assert trailing.stats.retired <= leading.stats.retired

    def test_every_store_compared(self):
        machine, result = run_srt([generate_benchmark("vortex")])
        pair = machine.controller.pairs[0]
        assert pair.comparator.stats.comparisons > 0
        assert pair.comparator.stats.mismatches == 0
        # Every drained (forwarded) store was verified first.
        assert pair.sphere.outputs_forwarded <= pair.comparator.stats.comparisons

    def test_every_load_replicated(self):
        machine, result = run_srt([generate_benchmark("swim")])
        pair = machine.controller.pairs[0]
        assert pair.lvq.stats.writes > 0
        assert pair.lvq.stats.reads > 0
        assert pair.lvq.stats.address_mismatches == 0

    def test_trailing_never_misfetches(self):
        machine, result = run_srt([generate_benchmark("go")])
        trailing = machine.cores[0].threads[1]
        assert trailing.stats.misfetches == 0
        assert trailing.stats.branch_mispredicts == 0

    def test_trailing_bypasses_load_queue(self):
        machine, result = run_srt([generate_benchmark("swim")])
        trailing = machine.cores[0].threads[1]
        assert trailing.lq_capacity == 0
        assert len(trailing.load_queue) == 0


@pytest.mark.parametrize("kind, name, seed, cycles", [
    ("srt", "m88ksim", 5, 2704), ("crt", "m88ksim", 5, 2648),
    ("srt", "li", 27, 2966), ("crt", "li", 27, 2870),
])
def test_jump_to_own_fall_through_is_no_fault(kind, name, seed, cycles):
    """m88ksim#5 (pc 870) and li#27 (pc 1438) execute a JMP whose target
    is its own fall-through.  The LPQ hands the trailing thread that
    path as straight-line code; matching targets are agreement, not a
    control-flow divergence, and timing is unchanged."""
    machine = make_machine(kind, MachineConfig(),
                           [generate_benchmark(name, seed=seed)])
    result = machine.run(max_instructions=2000, warmup=500)
    assert result.fault_events == []
    assert result.cycles == cycles


class TestStoreQueueBehaviour:
    def test_leading_store_lifetime_extended(self):
        """Section 7.1: leading stores wait ~39 extra cycles for their
        trailing twins."""
        program = generate_benchmark("m88ksim")
        base = make_machine("base", MachineConfig(), [program])
        base.run(max_instructions=800, warmup=2000)
        srt, _ = run_srt([generate_benchmark("m88ksim")], instructions=800)

        def lifetime(machine):
            stats = machine.cores[0].threads[0].stats
            return stats.store_lifetime_sum / max(stats.store_lifetime_count, 1)

        assert lifetime(srt) > lifetime(base) + 10

    def test_partitioning_without_ptsq(self):
        machine, _ = run_srt([generate_benchmark("gcc")], instructions=50)
        leading, trailing = machine.cores[0].threads
        assert leading.sq_capacity == 32
        assert trailing.sq_capacity == 32
        assert leading.lq_capacity == 64  # trailing frees its share

    def test_per_thread_store_queues(self):
        config = MachineConfig(per_thread_store_queues=True)
        machine, _ = run_srt([generate_benchmark("gcc")], config=config,
                             instructions=50)
        leading, trailing = machine.cores[0].threads
        assert leading.sq_capacity == 64
        assert trailing.sq_capacity == 64

    def test_nosc_skips_comparison(self):
        config = MachineConfig(store_comparison=False)
        machine, result = run_srt([generate_benchmark("gcc")], config=config)
        pair = machine.controller.pairs[0]
        assert pair.comparator.stats.comparisons == 0
        assert result.threads[0].retired == 600


class TestDeadlockAvoidance:
    def test_membar_heavy_program_completes(self):
        """Section 4.4.2 rule 1: a store before a membar in the same chunk
        must not deadlock the pair."""
        source_lines = ["ldi r1, 0x2000", "ldi r5, 40"]
        source_lines += ["loop:",
                         "addi r2, r2, 1",
                         "st r1, 0, r2",
                         "membar",
                         "st r1, 8, r2",
                         "membar",
                         "addi r5, r5, -1",
                         "bnez r5, loop",
                         "halt"]
        program = assemble("\n".join(source_lines), name="membar-heavy")
        machine, result = run_srt([program], instructions=300, warmup=0,
                                  max_cycles=60_000)
        assert machine.cores[0].threads[0].done
        assert result.faults_detected == 0

    def test_partial_store_forwarding_completes(self):
        """Section 4.4.2 rule 2: a partial store followed by a load of the
        same word must not deadlock (the chunk is force-terminated)."""
        program = assemble("""
            ldi r1, 0x2000
            ldi r5, 40
        loop:
            addi r2, r2, 3
            sth r1, 0, r2
            ld r3, r1, 0
            addi r5, r5, -1
            bnez r5, loop
            halt
        """, name="partial-heavy")
        machine, result = run_srt([program], instructions=250, warmup=0,
                                  max_cycles=60_000)
        assert machine.cores[0].threads[0].done
        assert result.faults_detected == 0
        pair = machine.controller.pairs[0]
        flushes = pair.lpq.stats.flush_partial_store
        assert flushes > 0

    def test_tiny_store_queue_no_deadlock(self):
        """Extreme store-queue pressure exercises the pressure flush."""
        config = MachineConfig()
        config.core.store_queue_entries = 8
        machine, result = run_srt([generate_benchmark("vortex")],
                                  config=config, instructions=400)
        assert result.threads[0].retired == 400


class TestTwoLogicalThreads:
    def test_two_programs_redundant(self):
        programs = [generate_benchmark("gcc"), generate_benchmark("swim")]
        machine, result = run_srt(programs, instructions=400)
        assert len(machine.cores[0].threads) == 4
        assert result.faults_detected == 0
        assert all(t.retired == 400 for t in result.threads)

    def test_partitioning_four_contexts(self):
        programs = [generate_benchmark("gcc"), generate_benchmark("swim")]
        machine, _ = run_srt(programs, instructions=50)
        threads = machine.cores[0].threads
        assert [t.sq_capacity for t in threads] == [16, 16, 16, 16]
        leaders = [t for t in threads if t.is_leading]
        assert all(t.lq_capacity == 32 for t in leaders)

    def test_three_logical_threads_rejected(self):
        programs = [generate_benchmark(n) for n in ("gcc", "go", "swim")]
        with pytest.raises(ValueError, match="contexts"):
            make_machine("srt", MachineConfig(), programs)


class TestPsrIntegration:
    def test_psr_steers_to_opposite_units(self):
        machine, _ = run_srt([generate_benchmark("fpppp")], instructions=500)
        tracker = machine.controller.pairs[0].tracker
        assert tracker.stats.pairs > 100
        assert tracker.stats.same_unit_fraction < 0.05

    def test_without_psr_units_shared(self):
        config = MachineConfig(preferential_space_redundancy=False)
        machine, _ = run_srt([generate_benchmark("fpppp")], config=config,
                             instructions=500)
        tracker = machine.controller.pairs[0].tracker
        assert tracker.stats.same_unit_fraction > 0.3
