"""Architectural (functional) executor for RISC-R.

This is the golden reference model: it defines the ISA's semantics.
The out-of-order pipeline must retire exactly the state this executor
produces (tests assert that), and the redundant threads of an RMT
machine must produce outputs identical to it in the absence of faults.
"""

from array import array
from dataclasses import dataclass, field
from itertools import islice
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


#: Encoding of ``WarmPath.data`` for a step that touched no memory (data
#: addresses are word-aligned, so never odd) and of ``WarmPath.branches``.
_NO_DATA = 1
_NOT_CONDITIONAL, _FELL_THROUGH, _TAKEN = 0, 1, 2


@dataclass(frozen=True)
class WarmPath:
    """The first steps of a program's architectural path, stored as
    compact arrays: what a machine's warm-up replays (``Machine.warm``).
    """

    pcs: array
    data: array
    branches: bytes
    #: The path ends at a HALT: no longer run records more steps.
    halted: bool

    def __len__(self) -> int:
        return len(self.pcs)

    def steps(self, count: int
              ) -> Iterator[Tuple[int, Optional[int], Optional[bool]]]:
        """The first ``count`` steps as (pc, word address loaded or
        stored or ``None``, taken for a conditional branch or ``None``)."""
        for pc, data, branch in islice(
                zip(self.pcs, self.data, self.branches), count):
            yield (pc, None if data == _NO_DATA else data,
                   None if branch == _NOT_CONDITIONAL else branch == _TAKEN)


def record_warm_path(program: Program, steps: int) -> WarmPath:
    """Execute up to ``steps`` instructions of ``program`` (stopping on
    HALT) and keep what a warm-up replays of each."""
    executor = FunctionalExecutor(program)
    pcs = array("I")
    data = array("Q")
    branches = bytearray()
    for step in executor.run(steps):
        pcs.append(step.pc)
        access = step.load or step.store
        data.append(_NO_DATA if access is None else access[0])
        if step.instr.is_conditional:
            branches.append(_TAKEN if step.taken else _FELL_THROUGH)
        else:
            branches.append(_NOT_CONDITIONAL)
    return WarmPath(pcs, data, bytes(branches), executor.state.halted)
