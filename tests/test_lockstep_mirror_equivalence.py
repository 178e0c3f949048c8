"""A fault-free lockstep run reports exactly what dual simulation reports.

With no fault injector a lockstep machine simulates core 0 and reports
it as core 1 as well; an attached :class:`FaultInjector`, even one with
no faults, keeps both cores simulated.  Each case here runs both ways,
on one, two and four programs at checker latency 0 and 8, and compares
every observable: the ``RunResult``, the occupancy sampler's series,
the checker's comparison count, and the hang report of a run the
watchdog stops.
"""

import functools

import pytest

from repro.core.config import MachineConfig
from repro.core.faults import FaultInjector, TransientResultFault
from repro.core.machine import make_machine
from repro.harness.tracing import OccupancySampler
from repro.isa.generator import generate_benchmark

WORKLOADS = ("gcc", "gcc+swim", "gcc+go+ijpeg+fpppp")
LATENCIES = (0, 8)
INSTRUCTIONS = 300
WARMUP = 1000

#: A watchdog this tight declares the first multi-cycle retirement gap
#: a hang, so every run below ends with a hang report.
TIGHT_WATCHDOG = dict(watchdog_interval=2, watchdog_window=4)

CASES = [(workload, latency) for workload in WORKLOADS
         for latency in LATENCIES]


def lockstep(workload, checker_latency, dual, **config):
    """A lockstep machine running ``workload`` (programs joined by
    ``+``); ``dual`` attaches an empty fault injector."""
    programs = [generate_benchmark(name) for name in workload.split("+")]
    machine = make_machine("lockstep", MachineConfig(**config), programs,
                           checker_latency=checker_latency)
    if dual:
        FaultInjector(machine, [])
    return machine


@functools.lru_cache(maxsize=None)
def sampled(workload, checker_latency, dual):
    """(result dict, sample series, comparisons, simulated cores) of one
    run through the occupancy sampler."""
    machine = lockstep(workload, checker_latency, dual)
    sampler = OccupancySampler(machine, interval=8)
    result = sampler.run(INSTRUCTIONS, warmup=WARMUP)
    series = [(sample.cycle, sample.values) for sample in sampler.samples]
    return (result.to_dict(), series, machine.checker.comparisons,
            len(machine.cores))


@pytest.mark.parametrize("workload,latency", CASES)
def test_run_result_identical(workload, latency):
    mirrored = sampled(workload, latency, dual=False)
    dual = sampled(workload, latency, dual=True)
    assert (mirrored[3], dual[3]) == (1, 2)
    assert mirrored[0] == dual[0]
    assert mirrored[0]["stats"]["core1.retired"] == \
        mirrored[0]["stats"]["core0.retired"] > 0


@pytest.mark.parametrize("workload,latency", CASES)
def test_sampler_series_identical(workload, latency):
    mirrored = sampled(workload, latency, dual=False)[1]
    assert mirrored == sampled(workload, latency, dual=True)[1]
    assert any(key.startswith("core1.") for key in mirrored[0][1])


@pytest.mark.parametrize("workload,latency", CASES)
def test_checker_comparisons_identical(workload, latency):
    comparisons = sampled(workload, latency, dual=False)[2]
    assert comparisons == sampled(workload, latency, dual=True)[2] > 0


@pytest.mark.parametrize("workload,latency", CASES)
def test_hang_report_identical(workload, latency):
    results = []
    for dual in (False, True):
        machine = lockstep(workload, latency, dual, **TIGHT_WATCHDOG)
        results.append(machine.run(max_instructions=INSTRUCTIONS,
                                   warmup=WARMUP).to_dict())
    mirrored, dual = results
    assert mirrored["hang_report"] is not None
    assert mirrored == dual


class TestInjectorAttach:
    def test_attach_after_warm_raises(self):
        machine = lockstep("gcc", 8, dual=False)
        machine.warm(500)
        fault = TransientResultFault(cycle=40, core_index=1, bit=5)
        with pytest.raises(RuntimeError, match="before its first warm-up"):
            FaultInjector(machine, [fault])
        assert machine.injector is None
        assert machine.cores[0].result_corruptor is None

    def test_attach_after_first_cycle_raises(self):
        machine = lockstep("gcc", 8, dual=False)
        machine.step()
        with pytest.raises(RuntimeError):
            FaultInjector(machine, [])

    def test_attach_before_warm_keeps_both_cores(self):
        machine = lockstep("gcc", 8, dual=True)
        machine.warm(500)
        assert len(machine.cores) == 2
        assert not machine.mirroring
