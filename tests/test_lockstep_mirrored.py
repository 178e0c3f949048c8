"""The mirrored lockstep fast mode must time exactly like dual mode."""

from repro.core.config import MachineConfig
from repro.core.machine import make_machine
from repro.isa.generator import generate_benchmark


class TestMirroredMode:
    def test_timing_identical_to_dual(self):
        """Core 1 is a deterministic mirror: simulating it must not
        change any timing observable."""
        for checker_latency in (0, 8):
            dual = make_machine(
                "lockstep", MachineConfig(), [generate_benchmark("gcc")],
                checker_latency=checker_latency)
            dual_result = dual.run(max_instructions=600, warmup=3000)
            mirrored = make_machine(
                "lockstep", MachineConfig(), [generate_benchmark("gcc")],
                checker_latency=checker_latency, mirrored=True)
            mirrored_result = mirrored.run(max_instructions=600, warmup=3000)
            assert mirrored_result.threads[0].cycles == \
                dual_result.threads[0].cycles
            assert mirrored_result.threads[0].ipc == dual_result.threads[0].ipc

    def test_mirrored_has_one_core(self):
        machine = make_machine("lockstep", MachineConfig(),
                               [generate_benchmark("gcc")], mirrored=True)
        assert len(machine.cores) == 1

    def test_mirrored_is_faster_to_simulate(self):
        import time

        def wall(mirrored):
            machine = make_machine(
                "lockstep", MachineConfig(), [generate_benchmark("swim")],
                mirrored=mirrored)
            start = time.perf_counter()
            machine.run(max_instructions=1000, warmup=3000)
            return time.perf_counter() - start

        # Best of alternating samples: load from other processes only
        # ever slows a sample down, so each mode's fastest run is its
        # cost.  Not a strict 2x (shared overheads; about 0.6x on an idle
        # host), but clearly cheaper: a tie fails.
        best = {True: float("inf"), False: float("inf")}
        for _ in range(3):
            for mirrored in (True, False):
                best[mirrored] = min(best[mirrored], wall(mirrored))
        assert best[True] < 0.85 * best[False]

    def test_dual_mode_still_compares(self):
        machine = make_machine("lockstep", MachineConfig(),
                               [generate_benchmark("gcc")])
        machine.run(max_instructions=400, warmup=2000)
        assert machine.checker.comparisons > 0

    def test_mirrored_mode_skips_comparison(self):
        machine = make_machine("lockstep", MachineConfig(),
                               [generate_benchmark("gcc")], mirrored=True)
        machine.run(max_instructions=400, warmup=2000)
        assert machine.checker.comparisons == 0


class TestMultiSeedRunner:
    def test_efficiency_over_seeds(self):
        from repro.harness.runner import Runner

        runner = Runner(instructions=300, warmup=1500)
        stats = runner.efficiency_over_seeds("srt", ["m88ksim"],
                                             seeds=[0, 1])
        assert 0 < stats["min"] <= stats["mean"] <= stats["max"] <= 1.3
