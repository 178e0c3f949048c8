"""Integration tests for the lockstepped dual-core machine (Section 5)."""

from repro.core.config import MachineConfig
from repro.core.faults import FaultInjector
from repro.core.machine import make_machine
from repro.isa.generator import generate_benchmark


def run_lockstep(names, checker_latency=8, instructions=500, warmup=2000,
                 dual=False):
    """Run a lockstep machine; ``dual`` attaches an empty fault injector,
    which keeps core 1 simulated instead of mirrored from core 0."""
    programs = [generate_benchmark(n) for n in names]
    machine = make_machine("lockstep", MachineConfig(), programs,
                           checker_latency=checker_latency)
    if dual:
        FaultInjector(machine, [])
    result = machine.run(max_instructions=instructions, warmup=warmup)
    return machine, result


class TestLockstepExecution:
    def test_cores_stay_in_lockstep(self):
        """Identical deterministic cores: retirement counts match."""
        machine, result = run_lockstep(["gcc"], dual=True)
        core0, core1 = machine.cores
        assert core0.stats.retired_total == core1.stats.retired_total
        assert core0.stats.squashes == core1.stats.squashes
        stats = machine.machine_stats()
        assert stats["core0.cycles"] == stats["core1.cycles"] == result.cycles

    def test_checker_compares_all_outputs(self):
        machine, result = run_lockstep(["vortex"])
        assert machine.checker.comparisons > 0
        assert machine.checker.mismatches == 0
        assert result.faults_detected == 0

    def test_store_streams_fully_consumed(self):
        """Neither core's output stream runs ahead unmatched forever."""
        machine, _ = run_lockstep(["swim"])
        for key, stream in machine.checker._streams.items():
            assert len(stream) < 50

    def test_private_memory_images_identical(self):
        machine, _ = run_lockstep(["m88ksim"], dual=True)
        assert machine.memories[0] == machine.memories[1]


class TestCheckerLatency:
    def test_lock8_slower_than_lock0(self):
        _, lock0 = run_lockstep(["swim"], checker_latency=0)
        _, lock8 = run_lockstep(["swim"], checker_latency=8)
        assert lock8.threads[0].ipc < lock0.threads[0].ipc

    def test_lock0_matches_base(self):
        """An ideal zero-latency checker costs nothing vs the base."""
        program = generate_benchmark("gcc")
        base = make_machine("base", MachineConfig(), [program]).run(
            max_instructions=500, warmup=2000)
        _, lock0 = run_lockstep(["gcc"], checker_latency=0)
        assert abs(lock0.threads[0].ipc - base.threads[0].ipc) < 0.02

    def test_checker_latency_in_stats(self):
        machine, result = run_lockstep(["gcc"], checker_latency=8)
        assert result.stats["checker.latency"] == 8

    def test_default_latency_from_config(self):
        program = generate_benchmark("gcc")
        config = MachineConfig(checker_latency=16)
        machine = make_machine("lockstep", config, [program])
        assert machine.checker_latency == 16


class TestMultiprogrammed:
    def test_two_programs_both_duplicated(self):
        machine, result = run_lockstep(["gcc", "swim"], instructions=300,
                                       dual=True)
        assert len(machine.cores[0].threads) == 2
        assert len(machine.cores[1].threads) == 2
        assert all(t.retired == 300 for t in result.threads)
        assert machine.checker.mismatches == 0

    def test_partitioning_matches_thread_count(self):
        machine, _ = run_lockstep(["gcc", "swim"], instructions=50)
        for core in machine.cores:
            for thread in core.threads:
                assert thread.sq_capacity == 32
                assert thread.lq_capacity == 32
