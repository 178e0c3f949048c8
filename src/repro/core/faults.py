"""Fault injection and detection-coverage classification.

The paper's motivation is detecting *transient* faults (particle
strikes) and, with preferential space redundancy, many *permanent*
faults (manufacturing defects, electromigration, stuck boot-time
latches).  The injector models both:

- :class:`TransientRegisterFault` — flip one bit of one physical
  register at one cycle (a struck latch);
- :class:`TransientResultFault` — flip one bit of the next result
  computed on a core at/after a cycle (a struck ALU/latch in flight);
- :class:`StuckFunctionalUnit` — a permanent fault: every result
  produced by one specific functional-unit instance is corrupted.
  Without preferential space redundancy, corresponding leading and
  trailing instructions frequently execute on the *same* unit, so both
  copies are corrupted identically and the fault escapes detection;
  PSR forces them apart (Section 4.5).

Outcomes are classified against the golden architectural model:

- ``DETECTED`` — the machine raised a fault event (store mismatch, LVQ
  address mismatch, control-flow divergence, lockstep mismatch);
- ``MASKED``   — no detection, and the retired instruction stream of the
  measured thread still matches the functional executor (the corrupted
  value was architecturally dead or overwritten);
- ``SDC``      — silent data corruption: no detection, wrong stream;
- ``HUNG``     — the run stopped making progress (fault corrupted
  control state beyond recovery); the forward-progress watchdog
  (:mod:`repro.recovery.watchdog`) renders the verdict and its
  forensics travel on the report;
- ``RECOVERED`` — detection fired *and* SRTR-style rollback-and-replay
  (:mod:`repro.recovery.checkpoint`) completed the run with a correct
  final state;
- ``UNRECOVERABLE`` — detection fired but every retained checkpoint
  replayed back into a detection (permanent fault, or corruption older
  than the checkpoint ring).
"""

import dataclasses
import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.machine import Machine
from repro.core.metrics import Termination
from repro.isa.executor import FunctionalExecutor
from repro.isa.instructions import FuClass
from repro.pipeline.uop import Uop
from repro.util.bits import flip_bit


class FaultOutcome(enum.Enum):
    DETECTED = "detected"
    MASKED = "masked"
    LATENT = "latent"             # execution diverged, but no wrong value
    SDC = "silent-data-corruption"  # has left the sphere undetected (yet)
    HUNG = "hung"
    RECOVERED = "recovered"          # detected + replayed clean (SRTR)
    UNRECOVERABLE = "unrecoverable"  # detected, checkpoint ring exhausted


class Fault:
    """Base class; faults attach themselves to a machine."""

    #: Cycle the fault actually struck (set by subclasses when they fire).
    struck_cycle: Optional[int] = None

    def attach(self, machine: Machine) -> None:
        raise NotImplementedError

    def tick(self, machine: Machine, now: int) -> None:
        """Called every cycle before the cores tick."""


@dataclass
class TransientRegisterFault(Fault):
    """Flip ``bit`` of physical register ``reg`` on ``core_index`` at
    ``cycle``."""

    cycle: int
    core_index: int
    reg: int
    bit: int
    fired: bool = False

    def attach(self, machine: Machine) -> None:
        pass

    def tick(self, machine: Machine, now: int) -> None:
        if self.fired or now < self.cycle:
            return
        regfile = machine.cores[self.core_index].regfile
        regfile.values[self.reg] = flip_bit(regfile.values[self.reg], self.bit)
        self.fired = True
        self.struck_cycle = now


@dataclass
class TransientResultFault(Fault):
    """Flip ``bit`` of the first result computed on ``core_index`` at or
    after ``cycle`` (optionally only for hardware thread ``thread``).

    Loads are skipped unless ``target_loads`` is set: a flip on a load's
    incoming value strikes *before* the load value queue captures it, so
    both redundant threads consume the identical wrong value — that path
    is outside the sphere of replication and is protected by ECC in the
    paper's design, not by redundant execution.  Setting ``target_loads``
    demonstrates exactly that coverage hole.
    """

    cycle: int
    core_index: int
    bit: int
    thread: Optional[int] = None
    target_loads: bool = False
    fired: bool = False

    def attach(self, machine: Machine) -> None:
        core = machine.cores[self.core_index]
        previous = core.result_corruptor

        def corrupt(uop: Uop, now: int) -> None:
            if previous is not None:
                previous(uop, now)
            if self.fired or now < self.cycle:
                return
            if self.thread is not None and uop.thread != self.thread:
                return
            if self._corrupt_uop(uop):
                self.fired = True
                self.struck_cycle = now

        core.result_corruptor = corrupt

    def _corrupt_uop(self, uop: Uop) -> bool:
        if uop.instr.is_load and not self.target_loads:
            return False
        if uop.instr.is_store:
            uop.store_value = flip_bit(uop.store_value, self.bit)
            return True
        if uop.result is not None:
            uop.result = flip_bit(uop.result, self.bit)
            return True
        return False


@dataclass
class StuckFunctionalUnit(Fault):
    """Permanent fault: every result from one functional-unit instance is
    corrupted by flipping ``bit``."""

    core_index: int
    fu_class: FuClass
    unit_index: int
    bit: int = 0
    corrupted: int = 0

    def attach(self, machine: Machine) -> None:
        core = machine.cores[self.core_index]
        previous = core.result_corruptor
        target = (self.fu_class, self.unit_index)

        def corrupt(uop: Uop, now: int) -> None:
            if previous is not None:
                previous(uop, now)
            if uop.fu != target:
                return
            if uop.instr.is_store and uop.store_value is not None:
                uop.store_value = flip_bit(uop.store_value, self.bit)
                self.corrupted += 1
            elif uop.result is not None:
                uop.result = flip_bit(uop.result, self.bit)
                self.corrupted += 1
            if self.corrupted and self.struck_cycle is None:
                self.struck_cycle = now

        core.result_corruptor = corrupt


# ---------------------------------------------------------------------------
# Wire format: JSON/pickle-safe fault descriptors.
#
# Campaign workers run in separate processes; faults cross the process
# boundary as plain dicts (model name + primitive site parameters), not
# as live objects carrying machine references.  ``fault_to_dict`` /
# ``fault_from_dict`` are the single source of truth for that format.
# ---------------------------------------------------------------------------

class ArchFault(Fault):
    """Base for *architectural* fault models.

    These are injected into the functional executor by
    :func:`run_arch_fault_experiment` (the oracle that cross-validates
    the static AVF analyzer), not into a pipeline machine: pipeline
    state is speculative and renamed, so "register r at step s" is only
    well-defined architecturally.  ``attach`` therefore refuses.
    """

    def attach(self, machine: Machine) -> None:
        raise TypeError(
            f"{type(self).__name__} is an architectural fault model; "
            "use run_arch_fault_experiment, not a machine injector")


@dataclass
class ArchRegisterFault(ArchFault):
    """Flip ``bit`` of architectural register ``reg`` just before the
    instruction at dynamic step ``step`` executes."""

    step: int
    reg: int
    bit: int
    fired: bool = False


@dataclass
class ArchMemoryFault(ArchFault):
    """Flip ``bit`` of the memory word holding ``addr`` just before
    dynamic step ``step``."""

    step: int
    addr: int
    bit: int
    fired: bool = False


@dataclass
class ArchDestFieldFault(ArchFault):
    """Flip ``bit`` (0..5) of the destination-register *field* of the
    instruction executed at dynamic step ``step`` — a decoded-opcode
    latch strike: the result is written to the wrong register."""

    step: int
    bit: int
    fired: bool = False


#: model-name -> fault class.  Keys are the public names used by the
#: campaign CLI (``--models``) and the JSONL artifact records.
FAULT_MODELS = {
    "transient-register": TransientRegisterFault,
    "transient-result": TransientResultFault,
    "stuck-unit": StuckFunctionalUnit,
    "arch-register": ArchRegisterFault,
    "arch-memory": ArchMemoryFault,
    "arch-destfield": ArchDestFieldFault,
}

#: The architectural models (classified by the AVF oracle, not a machine).
ARCH_FAULT_MODELS = ("arch-register", "arch-memory", "arch-destfield")

#: Transient state per fault instance that must never survive a round
#: trip (a deserialized fault is always un-fired).
_RUNTIME_FIELDS = {"fired", "corrupted"}


def fault_model_name(fault: Fault) -> str:
    """The registry name for a fault instance."""
    for name, cls in FAULT_MODELS.items():
        if type(fault) is cls:
            return name
    raise ValueError(f"unregistered fault type {type(fault).__name__}")


def fault_to_dict(fault: Fault) -> Dict[str, object]:
    """Serialize a fault's *site* (not its runtime state) to primitives."""
    data: Dict[str, object] = {"model": fault_model_name(fault)}
    for field_info in dataclasses.fields(fault):
        if field_info.name in _RUNTIME_FIELDS:
            continue
        value = getattr(fault, field_info.name)
        if isinstance(value, enum.Enum):
            value = value.value
        data[field_info.name] = value
    return data


def fault_from_dict(data: Dict[str, object]) -> Fault:
    """Rebuild a pristine (un-fired) fault from :func:`fault_to_dict`."""
    payload = dict(data)
    model = payload.pop("model", None)
    cls = FAULT_MODELS.get(model)
    if cls is None:
        raise ValueError(
            f"unknown fault model {model!r}; expected one of "
            f"{sorted(FAULT_MODELS)}")
    known = {f.name for f in dataclasses.fields(cls)
             if f.name not in _RUNTIME_FIELDS}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown {model} fields: {unknown}")
    if cls is StuckFunctionalUnit and "fu_class" in payload:
        payload["fu_class"] = FuClass(payload["fu_class"])
    return cls(**payload)


class FaultInjector:
    """Drives a list of faults against a machine run."""

    def __init__(self, machine: Machine, faults: Iterable[Fault]) -> None:
        self.machine = machine
        self.faults: List[Fault] = list(faults)
        machine.attach_injector(self)
        for fault in self.faults:
            fault.attach(machine)

    def tick(self, now: int) -> None:
        for fault in self.faults:
            fault.tick(self.machine, now)


#: The fault-free stores a drained stream is compared against come from
#: this many steps of the program per target instruction.
GOLDEN_STEPS_PER_INSTRUCTION = 4


def classify_outcome(machine: Machine, program, trace: List[Uop],
                     drained: List[tuple],
                     target_instructions: int,
                     termination: Optional[Termination] = None
                     ) -> FaultOutcome:
    """Classify a finished fault run (see module docstring).

    The decisive stream is what *left the sphere of replication*: the
    drained stores.  A retired-path divergence with no wrong drained
    store is LATENT — detection is still possible before damage is done.
    Both are compared against the program's fault-free path
    (:meth:`~repro.isa.program.Program.recorded_path`): its stores in
    the first :data:`GOLDEN_STEPS_PER_INSTRUCTION` steps per target
    instruction, and the pc and loaded value of each retired step.

    ``termination`` (the run's :class:`~repro.core.metrics.Termination`)
    refines the verdict: a watchdog HUNG/LIVELOCK is HUNG even if a
    detection fired first, and a recovery-enabled machine reports
    RECOVERED / UNRECOVERABLE instead of bare DETECTED.
    """
    if termination is Termination.UNRECOVERABLE:
        return FaultOutcome.UNRECOVERABLE
    if termination is not None and termination.is_wedged:
        return FaultOutcome.HUNG
    if termination is Termination.RECOVERED:
        return FaultOutcome.RECOVERED
    if machine.fault_events:
        return FaultOutcome.DETECTED
    if len(trace) < target_instructions:
        return FaultOutcome.HUNG
    horizon = GOLDEN_STEPS_PER_INSTRUCTION * target_instructions
    path = program.recorded_path(max(horizon, len(trace)))
    if drained != path.stores(horizon)[:len(drained)]:
        return FaultOutcome.SDC
    for uop, (pc, loaded) in zip(trace, path.retired(len(trace))):
        if uop.pc != pc:
            return FaultOutcome.LATENT
        if loaded is not None and uop.result != loaded:
            return FaultOutcome.LATENT
    return FaultOutcome.MASKED


@dataclass
class FaultReport:
    """Outcome plus timing and robustness detail of one fault run."""

    outcome: FaultOutcome
    struck_cycle: Optional[int] = None
    detected_cycle: Optional[int] = None
    #: The run's Termination verdict value ("done", "hung", ...).
    termination: Optional[str] = None
    #: Cycles from rollback until the replay re-reached the detection
    #: point (recovery-enabled machines only).
    recovery_latency: Optional[int] = None
    #: Instructions rewound by the deepest rollback.
    rollback_depth: Optional[int] = None
    #: Last watchdog fingerprint / hang forensics for wedged runs.
    fingerprint: Optional[Dict[str, object]] = None

    @property
    def detection_latency(self) -> Optional[int]:
        """Cycles from strike to first detection (None if undetected)."""
        if self.struck_cycle is None or self.detected_cycle is None:
            return None
        return self.detected_cycle - self.struck_cycle

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (outcome by value, latency included)."""
        data: Dict[str, object] = {
            "outcome": self.outcome.value,
            "struck_cycle": self.struck_cycle,
            "detected_cycle": self.detected_cycle,
            "latency": self.detection_latency,
        }
        if self.termination is not None:
            data["termination"] = self.termination
        if self.recovery_latency is not None:
            data["recovery_latency"] = self.recovery_latency
        if self.rollback_depth is not None:
            data["rollback_depth"] = self.rollback_depth
        if self.fingerprint is not None:
            data["fingerprint"] = self.fingerprint
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultReport":
        return cls(outcome=FaultOutcome(data["outcome"]),
                   struck_cycle=data.get("struck_cycle"),
                   detected_cycle=data.get("detected_cycle"),
                   termination=data.get("termination"),
                   recovery_latency=data.get("recovery_latency"),
                   rollback_depth=data.get("rollback_depth"),
                   fingerprint=data.get("fingerprint"))


def run_fault_experiment_detailed(machine: Machine, program, fault: Fault,
                                  instructions: int = 1500,
                                  warmup: int = 5000) -> FaultReport:
    """Like :func:`run_fault_experiment`, also reporting detection latency."""
    measured = machine._measured[program.name]
    measured.core.retire_trace[measured.tid] = []
    measured.core.drain_log[measured.tid] = []
    FaultInjector(machine, [fault])
    # One recording serves the warm-up and the classifier.
    program.recorded_path(max(warmup,
                              GOLDEN_STEPS_PER_INSTRUCTION * instructions))
    result = machine.run(max_instructions=instructions, warmup=warmup)
    trace = measured.core.retire_trace[measured.tid]
    drained = measured.core.drain_log[measured.tid]
    outcome = classify_outcome(machine, program, trace, drained, instructions,
                               termination=result.termination)
    detected_cycle = (machine.fault_events[0].cycle
                      if machine.fault_events else None)
    report = FaultReport(outcome=outcome, struck_cycle=fault.struck_cycle,
                         detected_cycle=detected_cycle,
                         termination=result.termination.value)
    if result.recovery is not None:
        report.recovery_latency = int(
            result.recovery.get("recovery_latency_last", 0)) or None
        report.rollback_depth = int(
            result.recovery.get("rollback_depth_max", 0)) or None
    if result.hang_report is not None:
        report.fingerprint = result.hang_report
    elif (result.termination in (Termination.CYCLE_LIMIT,
                                 Termination.UNRECOVERABLE)
          and machine.watchdog is not None
          and machine.watchdog.last_fingerprint is not None):
        report.fingerprint = machine.watchdog.last_fingerprint.to_dict()
    return report


# ---------------------------------------------------------------------------
# Architectural oracle (AVF cross-validation)
# ---------------------------------------------------------------------------

def _arch_snapshot(executor: FunctionalExecutor) -> tuple:
    """Comparable end-state: pc, halt flag, registers, non-zero memory.

    Zero-valued words are dropped so a word that was never materialized
    compares equal to one explicitly holding zero, and ``r0`` is
    normalized (it is hardwired; its backing slot is unobservable).
    """
    state = executor.state
    regs = list(state.regs)
    regs[0] = 0
    memory = {addr: value for addr, value in state.memory.items() if value}
    return (state.pc, state.halted, regs, memory)


def _arch_golden(program, max_steps: int):
    """Golden stores [(step, op, addr, value)] + end snapshot.

    Kept on the program for the last horizon asked for, which is sound
    because a program never changes after construction: the oracle's
    tasks on one program share one golden run.  Threads that miss at
    once each compute it, and the runs they get are equal.
    """
    kept = program._golden
    if kept is not None and kept[0] == max_steps:
        return kept[1]
    executor = FunctionalExecutor(program)
    stores = []
    for step in range(max_steps):
        if executor.state.halted:
            break
        try:
            result = executor.step()
        except RuntimeError:
            break
        if result.store is not None:
            stores.append((step, result.instr.op.name,
                           result.store[0], result.store[1]))
    golden = (stores, _arch_snapshot(executor))
    program._golden = (max_steps, golden)
    return golden


def _inject_arch_fault(executor: FunctionalExecutor, fault: "ArchFault"
                       ) -> None:
    """Flip the fault's site in the architectural state (pre-step)."""
    state = executor.state
    if isinstance(fault, ArchRegisterFault):
        if fault.reg != 0:  # r0 has no architectural storage
            state.regs[fault.reg] = flip_bit(state.regs[fault.reg],
                                             fault.bit)
    elif isinstance(fault, ArchMemoryFault):
        from repro.isa.executor import align_word
        word = align_word(fault.addr)
        state.memory[word] = flip_bit(state.memory.get(word, 0), fault.bit)
    fault.fired = True
    fault.struck_cycle = fault.step


def run_arch_fault_experiment(program, fault: "ArchFault",
                              instructions: int = 1500) -> FaultReport:
    """Inject an architectural fault and classify against the golden run.

    DETECTED — the (op, addr, value) store stream diverges from the
    golden stream within the horizon, or the run crashes (control left
    the code region: an output comparator / watchdog catch).
    MASKED — stream identical *and* final architectural state identical.
    LATENT — stream identical but the flipped bit is still resident in
    the end state (it could still be consumed beyond the horizon).

    The static analyzer's soundness contract is one-directional: a site
    it predicts masked must never come back DETECTED here (LATENT is
    allowed — dead state legitimately retains the flip).
    """
    golden_stores, golden_end = _arch_golden(program, instructions)
    code = program
    if isinstance(fault, ArchDestFieldFault):
        # The faulty decode runs against a private copy of the code: the
        # caller's program is immutable (and memoized as such).
        code = dataclasses.replace(program,
                                   instructions=list(program.instructions))
    executor = FunctionalExecutor(code)
    faulty_stores = []
    detected_step: Optional[int] = None
    crashed = False
    for step in range(instructions):
        if executor.state.halted:
            break
        if step == fault.step and not fault.fired:
            _inject_arch_fault(executor, fault)
        swapped = None
        if (isinstance(fault, ArchDestFieldFault) and step == fault.step
                and code.in_range(executor.state.pc)):
            pc = executor.state.pc
            swapped = (pc, code.instructions[pc])
            original = swapped[1]
            code.instructions[pc] = dataclasses.replace(
                original, rd=original.rd ^ (1 << fault.bit))
        try:
            result = executor.step()
        except RuntimeError:
            crashed = True
            detected_step = step
            break
        finally:
            if swapped is not None:
                code.instructions[swapped[0]] = swapped[1]
        if result.store is not None:
            index = len(faulty_stores)
            faulty_stores.append((step, result.instr.op.name,
                                  result.store[0], result.store[1]))
            if detected_step is None and (
                    index >= len(golden_stores)
                    or golden_stores[index][1:] != faulty_stores[index][1:]):
                detected_step = step

    if detected_step is None and len(faulty_stores) < len(golden_stores):
        # Stream truncated: the missing store is the divergence point.
        detected_step = golden_stores[len(faulty_stores)][0]
    if crashed or detected_step is not None:
        outcome = FaultOutcome.DETECTED
    elif _arch_snapshot(executor) == golden_end:
        outcome = FaultOutcome.MASKED
    else:
        outcome = FaultOutcome.LATENT
    return FaultReport(outcome=outcome, struck_cycle=fault.struck_cycle,
                       detected_cycle=detected_step,
                       termination=Termination.DONE.value
                       if executor.state.halted
                       else Termination.CYCLE_LIMIT.value)


def run_fault_experiment(machine: Machine, program,
                         fault: Fault, instructions: int = 1500,
                         warmup: int = 5000) -> FaultOutcome:
    """Inject ``fault`` into ``machine`` running ``program`` and classify.

    The machine must have been built for exactly one logical thread of
    ``program``; the measured hardware thread's retired stream and
    drained-store stream are traced.
    """
    return run_fault_experiment_detailed(
        machine, program, fault, instructions=instructions,
        warmup=warmup).outcome
