"""Static ACE/AVF classification of architectural fault sites.

Given a RISC-R program, this module classifies every single-bit fault
site — architectural register bits at each dynamic step, memory word
bits between accesses, and bits of an instruction's destination-register
field — as either **un-ACE (masked)** or **ACE** (potentially visible at
the sphere-of-replication outputs, i.e. the store stream).

The analysis composes three ingredients:

- the PR-3 CFG (:mod:`repro.analysis.cfg`),
- the bit-level demand/known-bits fixpoints
  (:mod:`repro.analysis.valueflow`), and
- one golden architectural trace (:class:`GoldenTrace`) that pins which
  pc executes at each step and how each memory word is accessed.

Masking-class taxonomy (``MASKED_CLASSES`` + ``ACE_CLASS``):

``dead``
    The faulted storage is never read again (dead register value, never-
    loaded memory word, destination field of an instruction that ignores
    it).
``overwritten``
    The storage is written before it is next read (register redefined on
    every path; memory word fully overwritten by a store).
``no-output``
    The value *is* read later, but no bit of it can reach a store or a
    control decision (bit demand is empty at the injection point).
``logic-masked``
    Some bits of the value are demanded, but not the faulted one — it is
    logically masked (e.g. by an ``AND`` with known zeros, a shift, or a
    branch whose outcome is pinned by a known-one bit).
``ace``
    Everything else: the bit may propagate to the store stream and is
    counted toward the AVF estimate.

Soundness contract: any site classified into ``MASKED_CLASSES`` must
never be observed DETECTED (or SDC) by the architectural fault-injection
oracle in :mod:`repro.core.faults` over the same step horizon.  A
``latent`` observation is allowed — a flipped bit may stay resident in
dead state.  The campaign's ``validate-avf`` mode cross-checks this
contract empirically.
"""

from collections import Counter
from dataclasses import dataclass, field
from operator import mul
from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.valueflow import (BitLiveness, nonzero_lanes, pack,
                                      solve_bit_liveness)
from repro.isa.executor import FunctionalExecutor, align_word
from repro.isa.instructions import NUM_ARCH_REGS, ZERO_REG, Op
from repro.isa.program import Program
from repro.util.bits import MASK64, to_unsigned

#: Classes whose sites the analyzer guarantees cannot be DETECTED.
MASKED_CLASSES = ("dead", "overwritten", "no-output", "logic-masked")

#: The complement: sites that may reach the sphere outputs.
ACE_CLASS = "ace"

#: All classes, in report order.
ALL_CLASSES = MASKED_CLASSES + (ACE_CLASS,)

#: Default step horizon; matches the campaign spec default.
DEFAULT_STEPS = 800

#: Bits in the rd instruction field (64 architectural registers).
DEST_FIELD_BITS = 6

#: Bits in a register, and the register mask of r1..r63.
_REG_BITS = 64
_REGS_1_63 = ((1 << NUM_ARCH_REGS) - 1) & ~(1 << ZERO_REG)

#: Bit mask of the half-word written by an STH at the given raw address.
_STH_HIGH = 0xFFFF_FFFF_0000_0000
_STH_LOW = 0x0000_0000_FFFF_FFFF


@dataclass
class MemAccess:
    """One dynamic access to an (aligned) memory word."""

    step: int
    kind: str       # "ld" | "st" | "sth"
    pc: int
    rd: int = 0     # destination register of a load
    halfmask: int = 0  # bits written by an sth


@dataclass
class GoldenTrace:
    """Fault-free architectural trace of one program.

    ``pcs[s]`` is the pc executed at step ``s``; faults are injected
    *before* the instruction at that step runs.  ``accesses`` maps each
    aligned word address to its time-ordered access list, and
    ``footprint`` is the sampling universe for memory faults (words in
    the initial image plus every word touched dynamically).
    """

    pcs: List[int]
    pc_counts: Dict[int, int]
    accesses: Dict[int, List[MemAccess]]
    footprint: List[int]
    halted: bool
    crashed: bool = False

    @property
    def steps(self) -> int:
        return len(self.pcs)


def collect_trace(program: Program, max_steps: int = DEFAULT_STEPS
                  ) -> GoldenTrace:
    """Run the functional executor and record pcs and memory accesses."""
    ex = FunctionalExecutor(program)
    pcs: List[int] = []
    accesses: Dict[int, List[MemAccess]] = {}
    crashed = False
    for step in range(max_steps):
        if ex.state.halted:
            break
        pc = ex.state.pc
        halfmask = 0
        if program.in_range(pc):
            instr = program.fetch(pc)
            if instr.op is Op.STH:
                raw = to_unsigned(ex.state.read_reg(instr.ra) + instr.imm)
                halfmask = _STH_HIGH if raw & 4 else _STH_LOW
        try:
            result = ex.step()
        except RuntimeError:
            crashed = True
            break
        pcs.append(result.pc)
        if result.load is not None:
            addr, _ = result.load
            accesses.setdefault(addr, []).append(
                MemAccess(step=step, kind="ld", pc=result.pc,
                          rd=result.instr.rd))
        if result.store is not None:
            addr, _ = result.store
            if result.instr.op is Op.STH:
                accesses.setdefault(addr, []).append(
                    MemAccess(step=step, kind="sth", pc=result.pc,
                              halfmask=halfmask))
            else:
                accesses.setdefault(addr, []).append(
                    MemAccess(step=step, kind="st", pc=result.pc))
    footprint = sorted(set(program.initial_memory) | set(accesses))
    return GoldenTrace(pcs=pcs, pc_counts=dict(Counter(pcs)),
                       accesses=accesses, footprint=footprint,
                       halted=ex.state.halted, crashed=crashed)


@dataclass
class ComponentAVF:
    """Per-component AVF estimate with a class breakdown.

    ``class_bits`` counts bit-units (bit-steps for dynamic components,
    bit-points for the static register view) per masking class.
    """

    name: str
    class_bits: Dict[str, int] = field(default_factory=dict)
    total: int = 0

    def add(self, cls: str, count: int = 1) -> None:
        self.class_bits[cls] = self.class_bits.get(cls, 0) + count
        self.total += count

    @property
    def ace_bits(self) -> int:
        return self.class_bits.get(ACE_CLASS, 0)

    @property
    def avf(self) -> float:
        return self.ace_bits / self.total if self.total else 0.0

    @property
    def masked_fraction(self) -> float:
        return 1.0 - self.avf if self.total else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "total": self.total,
            "avf": self.avf,
            "classes": {cls: self.class_bits.get(cls, 0)
                        for cls in ALL_CLASSES},
        }


class ProgramAVF:
    """Static vulnerability analysis of one program.

    Classification entry points mirror the three architectural fault
    models used by the campaign oracle:

    - :meth:`classify_register_site` for ``arch-register`` faults,
    - :meth:`classify_memory_site` for ``arch-memory`` faults,
    - :meth:`classify_dest_field_site` for ``arch-destfield`` faults.
    """

    def __init__(self, program: Program, steps: int = DEFAULT_STEPS,
                 cfg: Optional[CFG] = None,
                 bitlive: Optional[BitLiveness] = None,
                 trace: Optional[GoldenTrace] = None) -> None:
        self.program = program
        self.cfg = cfg if cfg is not None else build_cfg(program)
        self.bitlive = (bitlive if bitlive is not None
                        else solve_bit_liveness(self.cfg))
        self.trace = (trace if trace is not None
                      else collect_trace(program, steps))
        self._reg_counts: Dict[int, Tuple[int, ...]] = {}
        self._dest_counts: Dict[int, Dict[str, int]] = {}
        self._memory_component: Optional[ComponentAVF] = None

    # -- register sites ---------------------------------------------------

    def classify_register(self, pc: int, reg: int, bit: int) -> str:
        """Class of a flip of ``reg`` bit ``bit`` just before ``pc``."""
        if reg == ZERO_REG:
            return "dead"  # hardwired zero: no architectural storage
        demand = self.bitlive.before[pc][reg]
        if (demand >> bit) & 1:
            return ACE_CLASS
        if demand:
            return "logic-masked"
        if (self.bitlive.live_before[pc] >> reg) & 1:
            return "no-output"
        if (self.bitlive.defined_later[pc] >> reg) & 1:
            return "overwritten"
        return "dead"

    def classify_register_site(self, step: int, reg: int, bit: int) -> str:
        return self.classify_register(self.trace.pcs[step], reg, bit)

    def register_class_counts(self, pc: int) -> Dict[str, int]:
        """Bit counts per class over registers 1..63 at one pc."""
        return dict(zip(ALL_CLASSES, self._register_counts(pc)))

    def _register_counts(self, pc: int) -> Tuple[int, ...]:
        """:meth:`register_class_counts` as a tuple in ``ALL_CLASSES``
        order (cached).

        Whole register sets at once: a demanded register splits its
        bits between ``ace`` and ``logic-masked``, the others fall in
        one class each by the first of live / defined-later that holds.
        """
        counts = self._reg_counts.get(pc)
        if counts is None:
            row = self.bitlive.before[pc]
            demanded = nonzero_lanes(row) & _REGS_1_63
            free = _REGS_1_63 & ~demanded
            no_output = free & self.bitlive.live_before[pc]
            overwritten = free & ~no_output & self.bitlive.defined_later[pc]
            dead = free & ~no_output & ~overwritten
            ace = (pack(row) >> _REG_BITS).bit_count()  # lanes 1..63
            counts = self._reg_counts[pc] = (
                _REG_BITS * dead.bit_count(),
                _REG_BITS * overwritten.bit_count(),
                _REG_BITS * no_output.bit_count(),
                _REG_BITS * demanded.bit_count() - ace,
                ace)
        return counts

    # -- destination-field sites ------------------------------------------

    def classify_dest_field(self, pc: int, bit: int) -> str:
        """Class of a flip of bit ``bit`` of the rd field at ``pc``."""
        instr = self.program.fetch(pc)
        if not instr.op.info.writes:
            return "dead"  # the opcode ignores its rd field
        rd = instr.rd
        alt = rd ^ (1 << bit)
        after = self.bitlive.after[pc]
        rd_ok = rd == ZERO_REG or after[rd] == 0
        alt_ok = alt == ZERO_REG or after[alt] == 0
        if rd_ok and alt_ok:
            return "no-output"
        return ACE_CLASS

    def classify_dest_field_site(self, step: int, bit: int) -> str:
        return self.classify_dest_field(self.trace.pcs[step], bit)

    def dest_field_class_counts(self, pc: int) -> Dict[str, int]:
        cached = self._dest_counts.get(pc)
        if cached is not None:
            return cached
        counts = {cls: 0 for cls in ALL_CLASSES}
        for bit in range(DEST_FIELD_BITS):
            counts[self.classify_dest_field(pc, bit)] += 1
        self._dest_counts[pc] = counts
        return counts

    # -- memory sites ------------------------------------------------------

    def classify_memory_site(self, step: int, addr: int, bit: int) -> str:
        """Class of a flip of bit ``bit`` of the word holding ``addr``,
        injected just before ``step``."""
        word = align_word(addr)
        seen_load = False
        for access in self.trace.accesses.get(word, ()):
            if access.step < step:
                continue
            if access.kind == "st":
                return "overwritten"
            if access.kind == "sth":
                if (access.halfmask >> bit) & 1:
                    return "overwritten"
                continue
            # Load: the corrupted bit lands in access.rd.
            if (access.rd != ZERO_REG
                    and (self.bitlive.after[access.pc][access.rd]
                         >> bit) & 1):
                return ACE_CLASS
            seen_load = True
        return "no-output" if seen_load else "dead"

    def _memory_class_bits(self) -> ComponentAVF:
        """Aggregate memory AVF over all (word, bit, step) sites.

        One backward sweep per word over its access list keeps this
        linear in accesses instead of quadratic in steps: between two
        consecutive accesses the class of every bit is constant, so
        intervals are weighted by their step count.  The four class
        masks and the per-class totals are plain ints; the component
        is built once from the totals.
        """
        steps = self.trace.steps
        if steps == 0:
            return ComponentAVF(name="memory")
        after = self.bitlive.after
        dead_bits = overwritten_bits = no_output_bits = ace_bits = 0
        for word in self.trace.footprint:
            # Class masks for an injection in the interval *after* the
            # access currently being processed (backward walk).
            dead, overwritten, no_output, ace = MASK64, 0, 0, 0
            prev_step = steps  # exclusive upper bound of current interval
            for access in reversed(self.trace.accesses.get(word, ())):
                width = prev_step - (access.step + 1)
                if width:
                    dead_bits += dead.bit_count() * width
                    overwritten_bits += overwritten.bit_count() * width
                    no_output_bits += no_output.bit_count() * width
                    ace_bits += ace.bit_count() * width
                prev_step = access.step + 1
                if access.kind == "st":
                    dead, overwritten, no_output, ace = 0, MASK64, 0, 0
                elif access.kind == "sth":
                    half = access.halfmask
                    dead &= ~half
                    overwritten = (overwritten | half) & MASK64
                    no_output &= ~half
                    ace &= ~half
                else:  # ld
                    demand = (after[access.pc][access.rd]
                              if access.rd != ZERO_REG else 0)
                    no_output = (no_output | dead) & ~demand & MASK64
                    dead = 0
                    overwritten &= ~demand
                    ace = (ace | demand) & MASK64
            # The interval before the first access: [0, t0].
            dead_bits += dead.bit_count() * prev_step
            overwritten_bits += overwritten.bit_count() * prev_step
            no_output_bits += no_output.bit_count() * prev_step
            ace_bits += ace.bit_count() * prev_step
        totals = {"dead": dead_bits, "overwritten": overwritten_bits,
                  "no-output": no_output_bits, ACE_CLASS: ace_bits}
        return ComponentAVF(
            name="memory",
            class_bits={cls: bits for cls, bits in totals.items() if bits},
            total=sum(totals.values()))

    # -- summaries ---------------------------------------------------------

    def register_component(self, dynamic: bool = True) -> ComponentAVF:
        """Register bits per class: each executed pc's counts weighted by
        its step count, or each reachable pc's counts once."""
        if dynamic:
            pcs = list(self.trace.pc_counts)
            weights = list(self.trace.pc_counts.values())
        else:
            pcs = [pc for index in self.cfg.reachable()
                   for pc in self.cfg.blocks[index].pcs()]
            weights = [1] * len(pcs)
        columns = zip(*map(self._register_counts, pcs))
        totals = [sum(map(mul, column, weights)) for column in columns]
        return ComponentAVF(
            name="register" if dynamic else "register-static",
            class_bits={cls: bits for cls, bits in zip(ALL_CLASSES, totals)
                        if bits},
            total=sum(totals))

    def memory_component(self) -> ComponentAVF:
        if self._memory_component is None:
            self._memory_component = self._memory_class_bits()
        return self._memory_component

    def dest_field_component(self) -> ComponentAVF:
        component = ComponentAVF(name="dest-field")
        for pc, count in self.trace.pc_counts.items():
            for cls, bits in self.dest_field_class_counts(pc).items():
                if bits:
                    component.add(cls, bits * count)
        return component

    def summary(self) -> "AVFSummary":
        return AVFSummary(
            program=self.program.name,
            steps=self.trace.steps,
            halted=self.trace.halted,
            components=[
                self.register_component(dynamic=True),
                self.register_component(dynamic=False),
                self.memory_component(),
                self.dest_field_component(),
            ],
        )


@dataclass
class AVFSummary:
    """Per-program AVF rollup across site components."""

    program: str
    steps: int
    halted: bool
    components: List[ComponentAVF]

    def component(self, name: str) -> ComponentAVF:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(name)

    def to_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "steps": self.steps,
            "halted": self.halted,
            "components": [comp.to_dict() for comp in self.components],
        }


def analyze_program(program: Program, steps: int = DEFAULT_STEPS
                    ) -> ProgramAVF:
    """Build the full static AVF analysis for ``program``."""
    return ProgramAVF(program, steps=steps)
