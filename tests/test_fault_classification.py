"""FaultOutcome classification edge cases and the fault wire format.

The classifier boundaries matter for campaign statistics: LATENT vs SDC
decides whether corruption *left the sphere of replication*, and HUNG
vs MASKED decides whether a short trace means a wedged machine or just
a fault that never fired.

The classifier reads its fault-free references off the program's
recorded path; :func:`golden_store_stream` and :func:`reference_steps`
re-execute the program the way it once did, and are the oracle that
recorded path is checked against.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.faults import (FAULT_MODELS, FaultOutcome, FaultReport,
                               StuckFunctionalUnit, TransientRegisterFault,
                               TransientResultFault, classify_outcome,
                               fault_from_dict, fault_model_name,
                               fault_to_dict, run_fault_experiment_detailed)
from repro.core.machine import make_machine
from repro.isa.assembler import assemble
from repro.isa.executor import FunctionalExecutor
from repro.isa.generator import generate_benchmark
from repro.isa.instructions import FuClass
from repro.isa.profiles import SPEC95_NAMES

PROGRAM = generate_benchmark("m88ksim")


def golden_store_stream(program, instructions):
    """The (op, addr, value) store stream of a fault-free execution."""
    executor = FunctionalExecutor(program)
    stores = []
    for step in executor.run(instructions):
        if step.store is not None:
            stores.append((step.instr.op.name, step.store[0], step.store[1]))
    return stores


def reference_steps(program, instructions):
    """(pc, value loaded or None) of each fault-free step."""
    return [(step.pc, None if step.load is None else step.load[1])
            for step in FunctionalExecutor(program).run(instructions)]


class StubMachine:
    """classify_outcome only consults ``fault_events``."""

    def __init__(self, fault_events=()):
        self.fault_events = list(fault_events)


class TraceEntry:
    def __init__(self, pc, result):
        self.pc = pc
        self.result = result


def faithful_trace_of(program, length):
    """A retired-stream stand-in that matches the functional executor."""
    return [TraceEntry(pc, result)
            for pc, result in reference_steps(program, length)]


def faithful_trace(length):
    return faithful_trace_of(PROGRAM, length)


def golden_drain(instructions):
    return golden_store_stream(PROGRAM, instructions)


class TestClassificationBoundaries:
    # Long enough to retire past the store-free prologue of the
    # generated benchmarks (first stores land around instruction ~100).
    TARGET = 200

    def test_faithful_run_is_masked(self):
        trace = faithful_trace(self.TARGET)
        drained = golden_drain(self.TARGET)
        assert classify_outcome(StubMachine(), PROGRAM, trace, drained,
                                self.TARGET) is FaultOutcome.MASKED

    def test_detection_beats_everything(self):
        """A raised fault event wins even over a corrupted drain."""
        trace = faithful_trace(self.TARGET - 10)  # would be HUNG
        drained = [("ST", 0xDEAD, 0xBEEF)]        # would be SDC
        machine = StubMachine(fault_events=[object()])
        assert classify_outcome(machine, PROGRAM, trace, drained,
                                self.TARGET) is FaultOutcome.DETECTED

    def test_short_trace_is_hung_even_with_clean_drain(self):
        trace = faithful_trace(self.TARGET - 1)  # one short of target
        drained = golden_drain(self.TARGET - 1)
        assert classify_outcome(StubMachine(), PROGRAM, trace, drained,
                                self.TARGET) is FaultOutcome.HUNG

    def test_exact_target_is_not_hung(self):
        trace = faithful_trace(self.TARGET)
        outcome = classify_outcome(StubMachine(), PROGRAM, trace,
                                   golden_drain(self.TARGET), self.TARGET)
        assert outcome is not FaultOutcome.HUNG

    def test_wrong_drained_store_is_sdc(self):
        trace = faithful_trace(self.TARGET)
        drained = golden_drain(self.TARGET)
        assert drained, "need at least one store in the window"
        op, addr, value = drained[0]
        drained[0] = (op, addr, value ^ 1)
        assert classify_outcome(StubMachine(), PROGRAM, trace, drained,
                                self.TARGET) is FaultOutcome.SDC

    def test_pc_divergence_with_clean_drain_is_latent(self):
        trace = faithful_trace(self.TARGET)
        trace[-1].pc += 1  # retired path diverged, nothing escaped
        assert classify_outcome(StubMachine(), PROGRAM, trace,
                                golden_drain(self.TARGET),
                                self.TARGET) is FaultOutcome.LATENT

    def test_wrong_load_value_with_clean_drain_is_latent(self):
        trace = faithful_trace(self.TARGET)
        loads = [entry for entry in trace if entry.result is not None]
        assert loads, "need at least one load in the window"
        loads[0].result ^= 0x10
        assert classify_outcome(StubMachine(), PROGRAM, trace,
                                golden_drain(self.TARGET),
                                self.TARGET) is FaultOutcome.LATENT

    def test_sdc_beats_latent(self):
        """The drained stream is decisive: escape trumps divergence."""
        trace = faithful_trace(self.TARGET)
        trace[0].pc += 1
        drained = golden_drain(self.TARGET)
        op, addr, value = drained[0]
        drained[0] = (op, addr, value ^ 1)
        assert classify_outcome(StubMachine(), PROGRAM, trace, drained,
                                self.TARGET) is FaultOutcome.SDC

    def test_zero_instruction_run_is_masked(self):
        """target=0: nothing ran, nothing diverged — not HUNG."""
        assert classify_outcome(StubMachine(), PROGRAM, [], [],
                                0) is FaultOutcome.MASKED


class TestRecordedReference:
    """The recorded path yields the oracle's store stream and per-step
    (pc, loaded value), whatever was recorded before."""

    HORIZONS = (1, 200, 1600, 5000)

    @staticmethod
    def check(program, horizon):
        path = program.recorded_path(horizon)
        assert path.stores(horizon) == golden_store_stream(program, horizon)
        assert (list(path.retired(horizon))
                == reference_steps(program, horizon))

    @pytest.mark.parametrize("profile", SPEC95_NAMES)
    def test_every_profile_at_every_horizon(self, profile):
        program = generate_benchmark(profile, verify=False)
        # Rising horizons make each request longer than the path
        # recorded so far; the falling pass reads prefixes of the longest.
        for horizon in self.HORIZONS + self.HORIZONS[::-1]:
            self.check(program, horizon)
        assert len(program.recorded_path(1)) == self.HORIZONS[-1]

    def test_program_that_halts_before_the_horizon(self):
        program = assemble("""
            .data 48 5
                ldi   r1, 40
                ldi   r2, 7
                st    r1, 0, r2
                ld    r3, r1, 0
                sth   r1, 12, r3
                beqz  r0, done
                addi  r2, r2, 1
            done:
                ld    r4, r1, 8
                halt
        """)
        for horizon in (3, 100, 10_000):
            self.check(program, horizon)
        path = program.recorded_path(10_000)
        assert path.halted and len(path) == 8  # the branch skips addi
        assert [op for op, _, _ in path.stores(100)] == ["ST", "STH"]

    def test_longer_request_than_recorded_records_again(self):
        program = generate_benchmark("gcc", seed=3, verify=False)
        short = program.recorded_path(150)
        longer = program.recorded_path(900)
        assert len(short) == 150 and len(longer) == 900
        assert longer.stores(150) == short.stores(150)
        self.check(program, 900)

    def test_classifier_reads_a_warmup_recording_longer_than_horizon(self):
        program = generate_benchmark("m88ksim", seed=2, verify=False)
        program.recorded_path(3000)
        target = 200
        trace = faithful_trace_of(program, target)
        drained = golden_store_stream(program, 4 * target)
        assert classify_outcome(StubMachine(), program, trace, drained,
                                target) is FaultOutcome.MASKED
        # A store beyond the horizon did not leave a fault-free run.
        beyond = golden_store_stream(program, 3000)[len(drained)]
        assert classify_outcome(StubMachine(), program, trace,
                                drained + [beyond],
                                target) is FaultOutcome.SDC


class TestLateFault:
    def test_fault_after_retirement_window_never_fires(self):
        """A strike scheduled beyond the run is a non-event: MASKED,
        no struck cycle, no latency."""
        machine = make_machine("srt", MachineConfig(), [PROGRAM])
        fault = TransientResultFault(cycle=10**9, core_index=0, bit=1)
        report = run_fault_experiment_detailed(
            machine, PROGRAM, fault, instructions=120, warmup=300)
        assert report.outcome is FaultOutcome.MASKED
        assert not fault.fired
        assert report.struck_cycle is None
        assert report.detection_latency is None


class TestFaultWireFormat:
    FAULTS = [
        TransientRegisterFault(cycle=120, core_index=0, reg=77, bit=5),
        TransientResultFault(cycle=90, core_index=1, bit=12, thread=2,
                             target_loads=True),
        StuckFunctionalUnit(core_index=0, fu_class=FuClass.LOGIC,
                            unit_index=3, bit=9),
    ]

    @pytest.mark.parametrize("fault", FAULTS,
                             ids=lambda f: type(f).__name__)
    def test_round_trip(self, fault):
        clone = fault_from_dict(fault_to_dict(fault))
        assert clone == fault

    def test_runtime_state_never_survives(self):
        fault = TransientResultFault(cycle=1, core_index=0, bit=0)
        fault.fired = True
        fault.struck_cycle = 42
        clone = fault_from_dict(fault_to_dict(fault))
        assert not clone.fired
        assert clone.struck_cycle is None

    def test_enum_serialized_by_value(self):
        data = fault_to_dict(self.FAULTS[2])
        assert data["fu_class"] == "logic"
        assert data["model"] == "stuck-unit"

    # Minimal constructor payload per registered model (machine faults
    # address cycles/cores; architectural faults address golden steps).
    MINIMAL_PAYLOADS = {
        "transient-result": {"cycle": 1, "core_index": 0, "bit": 0},
        "transient-register": {"cycle": 1, "core_index": 0, "bit": 0,
                               "reg": 70},
        "stuck-unit": {"core_index": 0, "fu_class": "int",
                       "unit_index": 0},
        "arch-register": {"step": 1, "reg": 7, "bit": 0},
        "arch-memory": {"step": 1, "addr": 0x1000, "bit": 0},
        "arch-destfield": {"step": 1, "bit": 0},
    }

    def test_every_registered_model_has_a_name(self):
        assert set(self.MINIMAL_PAYLOADS) == set(FAULT_MODELS), \
            "new fault model: add a minimal payload above"
        for name, cls in FAULT_MODELS.items():
            instance = fault_from_dict(
                {"model": name, **self.MINIMAL_PAYLOADS[name]})
            assert isinstance(instance, cls)
            assert fault_model_name(instance) == name

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            fault_from_dict({"model": "bitrot"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown transient-result"):
            fault_from_dict({"model": "transient-result", "cycle": 1,
                             "core_index": 0, "bit": 0, "wobble": True})


class TestFaultReportSerialization:
    def test_round_trip_with_latency(self):
        report = FaultReport(outcome=FaultOutcome.DETECTED,
                             struck_cycle=100, detected_cycle=180)
        data = report.to_dict()
        assert data["latency"] == 80
        clone = FaultReport.from_dict(data)
        assert clone == report
        assert clone.detection_latency == 80

    def test_undetected_has_null_latency(self):
        report = FaultReport(outcome=FaultOutcome.MASKED)
        assert report.to_dict()["latency"] is None
