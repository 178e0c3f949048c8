"""Architectural (functional) executor for RISC-R.

This is the golden reference model: it defines the ISA's semantics.
The out-of-order pipeline must retire exactly the state this executor
produces (tests assert that), and the redundant threads of an RMT
machine must produce outputs identical to it in the absence of faults.
"""

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.isa.instructions import NUM_ARCH_REGS, ZERO_REG, Instruction, Op
from repro.isa.program import Program
from repro.util.bits import MASK64, to_unsigned

WORD_BYTES = 8
WORD_MASK = ~(WORD_BYTES - 1) & MASK64


def align_word(addr: int) -> int:
    """Clamp an arbitrary 64-bit value to a word-aligned address."""
    return addr & WORD_MASK


def alu_result(instr: Instruction, a: int, b: int, c: int = 0) -> int:
    """Compute the 64-bit result of a register-writing instruction.

    ``a``/``b`` are the ra/rb source values, ``c`` the old rd value (only
    FMA reads it).  The semantics are the opcode's ``OpInfo.alu``, which
    the pipeline's execute stage computes with too.
    """
    alu = instr.op.info.alu
    if alu is None:
        raise ValueError(f"alu_result called for non-ALU op {instr.op.name}")
    return alu(a, b, c, instr.imm)


def merge_partial_store(unaligned_addr: int, old_word: int, value: int) -> int:
    """Merge a 4-byte STH value into an 8-byte memory word.

    Bit 2 of the (pre-alignment) address selects the high or low half;
    the low 32 bits of ``value`` are written there.
    """
    half = (value & 0xFFFF_FFFF)
    if unaligned_addr & 4:
        return (old_word & 0x0000_0000_FFFF_FFFF) | (half << 32)
    return (old_word & 0xFFFF_FFFF_0000_0000) | half


def branch_taken(instr: Instruction, a: int) -> bool:
    """Resolve a conditional/unconditional control instruction."""
    taken = instr.op.info.taken
    if taken is None:
        raise ValueError(
            f"branch_taken called for non-control op {instr.op.name}")
    return taken(a)


@dataclass(slots=True)
class StepResult:
    """What one architecturally-executed instruction did."""

    pc: int
    instr: Instruction
    next_pc: int
    taken: bool = False
    load: Optional[Tuple[int, int]] = None   # (address, value)
    store: Optional[Tuple[int, int]] = None  # (address, value)
    halted: bool = False


@dataclass
class ArchState:
    """Architectural register file, memory image, and PC of one thread."""

    pc: int = 0
    regs: List[int] = field(default_factory=lambda: [0] * NUM_ARCH_REGS)
    memory: Dict[int, int] = field(default_factory=dict)
    halted: bool = False

    def read_reg(self, index: int) -> int:
        return 0 if index == ZERO_REG else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != ZERO_REG:
            self.regs[index] = to_unsigned(value)

    def read_mem(self, addr: int) -> int:
        return self.memory.get(align_word(addr), 0)

    def write_mem(self, addr: int, value: int) -> None:
        self.memory[align_word(addr)] = to_unsigned(value)


class FunctionalExecutor:
    """Executes a :class:`Program` one instruction at a time."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.state = ArchState(pc=program.entry,
                               memory=dict(program.initial_memory))
        self.retired = 0

    def step(self) -> StepResult:
        """Execute and retire one instruction; return what it did.

        Dispatches on the opcode's :class:`~repro.isa.instructions.OpInfo`
        and reads ``r0`` as zero whatever its backing slot holds.
        """
        state = self.state
        if state.halted:
            raise RuntimeError(f"program {self.program.name!r} already halted")
        pc = state.pc
        instructions = self.program.instructions
        if not 0 <= pc < len(instructions):
            raise RuntimeError(
                f"program {self.program.name!r} ran off code at pc={pc}")
        instr = instructions[pc]
        info = instr.op.info
        regs = state.regs
        result = StepResult(pc, instr, pc + 1)
        alu = info.alu
        if alu is not None:
            rd = instr.rd
            if rd:
                ra, rb = instr.ra, instr.rb
                regs[rd] = alu(regs[ra] if ra else 0, regs[rb] if rb else 0,
                               regs[rd], instr.imm) & MASK64
        elif info.is_load:
            ra = instr.ra
            addr = ((regs[ra] if ra else 0) + instr.imm) & WORD_MASK
            value = state.memory.get(addr, 0)
            if instr.rd:
                regs[instr.rd] = value & MASK64
            result.load = (addr, value)
        elif info.is_store:
            ra, rb = instr.ra, instr.rb
            raw_addr = ((regs[ra] if ra else 0) + instr.imm) & MASK64
            addr = raw_addr & WORD_MASK
            value = regs[rb] if rb else 0
            if info.is_partial_store:
                value = merge_partial_store(
                    raw_addr, state.memory.get(addr, 0), value)
            state.memory[addr] = value & MASK64
            result.store = (addr, value)
        elif info.is_control:
            ra = instr.ra
            a = regs[ra] if ra else 0
            taken = result.taken = info.taken(a)
            if info.is_call:
                if instr.rd:
                    regs[instr.rd] = (pc + 1) & MASK64
                result.next_pc = instr.target
            elif info.is_indirect:
                result.next_pc = a % len(instructions)
            elif taken:
                result.next_pc = instr.target
        elif info.is_halt:
            state.halted = True
            result.halted = True
            result.next_pc = pc
        # NOP and MEMBAR change no architectural state.

        state.pc = result.next_pc
        self.retired += 1
        return result

    def run(self, max_instructions: int) -> List[StepResult]:
        """Execute up to ``max_instructions`` (stops early on HALT)."""
        results: List[StepResult] = []
        state, step = self.state, self.step
        for _ in range(max_instructions):
            if state.halted:
                break
            results.append(step())
        return results


#: What one step of a :class:`RecordedPath` did, one byte per step (a
#: step is at most one of a conditional branch, a load and a store).
_OTHER, _FELL_THROUGH, _TAKEN, _LOAD, _ST, _STH = range(6)
#: Step kind of a store -> the opcode name a drained-store log records.
_STORE_OPS = {_ST: Op.ST.name, _STH: Op.STH.name}


@dataclass(frozen=True)
class RecordedPath:
    """The first steps of a program's fault-free architectural path,
    stored as compact arrays.  A machine's warm-up replays it
    (``Machine.warm``) and the fault classifier compares a run against
    it (``classify_outcome``).
    """

    pcs: array
    #: One step kind per step: other, conditional fell through or
    #: taken, load, ST, STH.
    kinds: bytes
    #: The word address a load or store accessed (0 for other steps).
    addrs: array
    #: The word a load read or a store left in memory (0 otherwise).
    values: array
    #: The path ends at a HALT: no longer run records more steps.
    halted: bool

    def __len__(self) -> int:
        return len(self.pcs)

    def data(self, count: int) -> Iterator[Optional[int]]:
        """The word address each of the first ``count`` steps loaded or
        stored, or ``None``."""
        for kind, addr in zip(self.kinds[:count], self.addrs):
            yield addr if kind >= _LOAD else None

    def branches(self, count: int) -> List[Tuple[int, bool]]:
        """(pc, taken) of each conditional branch in the first ``count``
        steps."""
        return [(pc, kind == _TAKEN)
                for pc, kind in zip(self.pcs, self.kinds[:count])
                if kind == _FELL_THROUGH or kind == _TAKEN]

    def stores(self, count: int) -> List[Tuple[str, int, int]]:
        """(opcode name, word address, word stored) of each store in the
        first ``count`` steps: the stream a fault-free run drains."""
        return [(_STORE_OPS[kind], addr, value) for kind, addr, value
                in zip(self.kinds[:count], self.addrs, self.values)
                if kind >= _ST]

    def retired(self, count: int) -> Iterator[Tuple[int, Optional[int]]]:
        """The first ``count`` steps as (pc, value loaded, or ``None``)."""
        for pc, kind, value in zip(self.pcs, self.kinds[:count],
                                   self.values):
            yield pc, value if kind == _LOAD else None


def record_path(program: Program, steps: int) -> RecordedPath:
    """Execute up to ``steps`` instructions of ``program`` (stopping on
    HALT) and keep what a warm-up replays and a classifier compares."""
    executor = FunctionalExecutor(program)
    state, execute = executor.state, executor.step
    pcs = array("I")
    kinds = bytearray()
    addrs = array("Q")
    values = array("Q")
    for _ in range(steps):
        if state.halted:
            break
        step = execute()
        info = step.instr.op.info
        if step.load is not None:
            kind, (addr, value) = _LOAD, step.load
        elif step.store is not None:
            kind = _STH if info.is_partial_store else _ST
            addr, value = step.store
        else:
            kind = ((_TAKEN if step.taken else _FELL_THROUGH)
                    if info.is_conditional else _OTHER)
            addr = value = 0
        pcs.append(step.pc)
        kinds.append(kind)
        addrs.append(addr)
        values.append(value)
    return RecordedPath(pcs, bytes(kinds), addrs, values,
                        executor.state.halted)
