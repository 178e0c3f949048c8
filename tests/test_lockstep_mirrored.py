"""A fault-free lockstep machine mirrors core 1 from core 0 and must time
exactly like dual simulation, which an attached fault injector keeps."""

from repro.core.config import MachineConfig
from repro.core.faults import FaultInjector
from repro.core.machine import make_machine
from repro.isa.generator import generate_benchmark


def lockstep(name, dual, checker_latency=8):
    """A lockstep machine running ``name``; ``dual`` attaches an empty
    fault injector, which keeps core 1 simulated."""
    machine = make_machine("lockstep", MachineConfig(),
                           [generate_benchmark(name)],
                           checker_latency=checker_latency)
    if dual:
        FaultInjector(machine, [])
    return machine


class TestMirroredMode:
    def test_timing_identical_to_dual(self):
        """Core 1 is a deterministic mirror: simulating it must not
        change any timing observable."""
        for checker_latency in (0, 8):
            dual_result = lockstep("gcc", True, checker_latency).run(
                max_instructions=600, warmup=3000)
            mirrored_result = lockstep("gcc", False, checker_latency).run(
                max_instructions=600, warmup=3000)
            assert mirrored_result.threads[0].cycles == \
                dual_result.threads[0].cycles
            assert mirrored_result.threads[0].ipc == dual_result.threads[0].ipc

    def test_mirrored_has_one_core(self):
        machine = lockstep("gcc", dual=False)
        machine.warm(500)
        assert len(machine.cores) == 1
        assert len(machine.hierarchies) == 1
        assert [core_id for core_id, _ in machine.reported_cores] == [0, 1]
        dual = lockstep("gcc", dual=True)
        dual.warm(500)
        assert len(dual.cores) == 2
        assert len(dual.hierarchies) == 2

    def test_mirrored_is_faster_to_simulate(self):
        import time

        def wall(mirrored):
            machine = lockstep("swim", dual=not mirrored)
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
        machine = lockstep("gcc", dual=True)
        machine.run(max_instructions=400, warmup=2000)
        assert machine.checker.comparisons > 0
        assert set(machine.checker._streams) == {(0, 0), (1, 0)}

    def test_mirrored_mode_skips_comparison(self):
        """Nothing is queued to compare, yet every drained store counts
        as the comparison dual simulation makes."""
        dual = lockstep("gcc", dual=True)
        dual.run(max_instructions=400, warmup=2000)
        machine = lockstep("gcc", dual=False)
        machine.run(max_instructions=400, warmup=2000)
        assert machine.checker._streams == {}
        assert machine.checker.comparisons == dual.checker.comparisons


class TestMultiSeedRunner:
    def test_efficiency_over_seeds(self):
        from repro.harness.runner import Runner

        runner = Runner(instructions=300, warmup=1500)
        stats = runner.efficiency_over_seeds("srt", ["m88ksim"],
                                             seeds=[0, 1])
        assert 0 < stats["min"] <= stats["mean"] <= stats["max"] <= 1.3
