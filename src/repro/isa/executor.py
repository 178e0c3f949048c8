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
from repro.util.bits import MASK64, to_signed, to_unsigned

WORD_BYTES = 8
WORD_MASK = ~(WORD_BYTES - 1) & MASK64


def align_word(addr: int) -> int:
    """Clamp an arbitrary 64-bit value to a word-aligned address."""
    return addr & WORD_MASK


def alu_result(instr: Instruction, a: int, b: int, c: int = 0) -> int:
    """Compute the 64-bit result of a register-writing instruction.

    ``a``/``b`` are the ra/rb source values, ``c`` the old rd value (only
    FMA reads it).  Shared between the functional executor and the
    pipeline's execute stage so both use identical semantics.
    """
    op = instr.op
    if op is Op.ADD:
        return to_unsigned(a + b)
    if op is Op.SUB:
        return to_unsigned(a - b)
    if op is Op.MUL:
        return to_unsigned(a * b)
    if op is Op.ADDI:
        return to_unsigned(a + instr.imm)
    if op is Op.LDI:
        return to_unsigned(instr.imm)
    if op is Op.CMPLT:
        return 1 if to_signed(a) < to_signed(b) else 0
    if op is Op.CMPEQ:
        return 1 if a == b else 0
    if op is Op.AND:
        return a & b
    if op is Op.OR:
        return a | b
    if op is Op.XOR:
        return a ^ b
    if op is Op.SHL:
        return to_unsigned(a << (b & 63))
    if op is Op.SHR:
        return (a & MASK64) >> (b & 63)
    if op is Op.ANDI:
        return a & to_unsigned(instr.imm)
    if op is Op.XORI:
        return a ^ to_unsigned(instr.imm)
    if op is Op.FADD:
        return to_unsigned(a + b)
    if op is Op.FMUL:
        return to_unsigned(a * b)
    if op is Op.FMA:
        return to_unsigned(a * b + c)
    if op is Op.FDIV:
        return to_unsigned(a // (b | 1))
    raise ValueError(f"alu_result called for non-ALU op {op.name}")


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
    op = instr.op
    if op is Op.BEQZ:
        return a == 0
    if op is Op.BNEZ:
        return a != 0
    if op in (Op.BR, Op.JMP, Op.CALL, Op.RET):
        return True
    raise ValueError(f"branch_taken called for non-control op {op.name}")


@dataclass
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
        """Execute and retire one instruction; return what it did."""
        state = self.state
        if state.halted:
            raise RuntimeError(f"program {self.program.name!r} already halted")
        pc = state.pc
        if not self.program.in_range(pc):
            raise RuntimeError(
                f"program {self.program.name!r} ran off code at pc={pc}")
        instr = self.program.fetch(pc)
        result = StepResult(pc=pc, instr=instr, next_pc=pc + 1)
        op = instr.op

        if op in (Op.NOP, Op.MEMBAR):
            pass
        elif op is Op.HALT:
            state.halted = True
            result.halted = True
            result.next_pc = pc
        elif op is Op.LD:
            addr = align_word(state.read_reg(instr.ra) + instr.imm)
            value = state.read_mem(addr)
            state.write_reg(instr.rd, value)
            result.load = (addr, value)
        elif op is Op.ST:
            addr = align_word(state.read_reg(instr.ra) + instr.imm)
            value = state.read_reg(instr.rb)
            state.write_mem(addr, value)
            result.store = (addr, value)
        elif op is Op.STH:
            raw_addr = to_unsigned(state.read_reg(instr.ra) + instr.imm)
            addr = align_word(raw_addr)
            merged = merge_partial_store(raw_addr, state.read_mem(addr),
                                         state.read_reg(instr.rb))
            state.write_mem(addr, merged)
            result.store = (addr, merged)
        elif instr.is_control:
            a = state.read_reg(instr.ra)
            taken = branch_taken(instr, a)
            result.taken = taken
            if op is Op.CALL:
                state.write_reg(instr.rd, pc + 1)
                result.next_pc = instr.target
            elif op in (Op.JMP, Op.RET):
                result.next_pc = a % len(self.program)
            elif taken:
                result.next_pc = instr.target
        else:
            a = state.read_reg(instr.ra)
            b = state.read_reg(instr.rb)
            c = state.read_reg(instr.rd)
            state.write_reg(instr.rd, alu_result(instr, a, b, c))

        state.pc = result.next_pc
        self.retired += 1
        return result

    def run(self, max_instructions: int) -> List[StepResult]:
        """Execute up to ``max_instructions`` (stops early on HALT)."""
        results: List[StepResult] = []
        for _ in range(max_instructions):
            if self.state.halted:
                break
            results.append(self.step())
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
    pcs = array("I")
    kinds = bytearray()
    addrs = array("Q")
    values = array("Q")
    for _ in range(steps):
        if executor.state.halted:
            break
        step = executor.step()
        if step.load is not None:
            kind, (addr, value) = _LOAD, step.load
        elif step.store is not None:
            kind = _STH if step.instr.op is Op.STH else _ST
            addr, value = step.store
        else:
            kind = ((_TAKEN if step.taken else _FELL_THROUGH)
                    if step.instr.is_conditional else _OTHER)
            addr = value = 0
        pcs.append(step.pc)
        kinds.append(kind)
        addrs.append(addr)
        values.append(value)
    return RecordedPath(pcs, bytes(kinds), addrs, values,
                        executor.state.halted)
