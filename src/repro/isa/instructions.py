"""The RISC-R instruction set.

A small 64-bit RISC ISA standing in for Alpha.  The RMT mechanisms in
the paper never depend on opcode semantics beyond the load / store /
control-flow / memory-barrier classification, so the set below is chosen
to exercise every pipeline structure: integer and logic units, the
floating-point pool (modelled as long-latency integer arithmetic so
results stay exactly comparable between redundant threads), loads,
stores, conditional branches, calls/returns (return-address stack), and
indirect jumps (jump target predictor).

Register convention: 64 architectural registers per thread; ``r0`` is
hardwired to zero.
"""

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Optional, Tuple

from repro.util.bits import MASK64

NUM_ARCH_REGS = 64
ZERO_REG = 0
INSTRUCTION_BYTES = 4


class Op(enum.Enum):
    """Opcodes, grouped by the functional-unit class that executes them.

    Each member carries its decoded :class:`OpInfo` as ``info``.
    """

    info: "OpInfo"

    # Integer arithmetic (integer unit pool).
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    ADDI = enum.auto()
    LDI = enum.auto()       # rd <- imm
    CMPLT = enum.auto()     # rd <- (ra <s rb)
    CMPEQ = enum.auto()     # rd <- (ra == rb)
    # Logic / shift (logic unit pool).
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SHL = enum.auto()
    SHR = enum.auto()
    ANDI = enum.auto()
    XORI = enum.auto()
    NOP = enum.auto()
    # Floating point (FP unit pool; integer-exact semantics).
    FADD = enum.auto()
    FMUL = enum.auto()
    FMA = enum.auto()       # rd <- ra * rb + rd  (reads rd as third source)
    FDIV = enum.auto()
    # Memory (memory unit pool).
    LD = enum.auto()        # rd <- MEM[ra + imm]
    ST = enum.auto()        # MEM[ra + imm] <- rb (full 8-byte word)
    STH = enum.auto()       # 4-byte store into half of the word at ra + imm
    MEMBAR = enum.auto()
    # Control flow.
    BEQZ = enum.auto()      # if ra == 0: pc <- target
    BNEZ = enum.auto()      # if ra != 0: pc <- target
    BR = enum.auto()        # pc <- target (unconditional)
    JMP = enum.auto()       # pc <- ra (indirect)
    CALL = enum.auto()      # rd <- pc + 1; pc <- target
    RET = enum.auto()       # pc <- ra (return, pops RAS)
    HALT = enum.auto()


class FuClass(enum.Enum):
    """Functional-unit pools of the EBOX/FBOX/MBOX (Table 1).

    Each member carries its position in declaration order as
    ``ordinal``, so a table indexed by class needs no enum hashing.
    """

    ordinal: int

    INT = "int"
    LOGIC = "logic"
    MEM = "mem"
    FP = "fp"


for _ordinal, _fu_class in enumerate(FuClass):
    _fu_class.ordinal = _ordinal


DEFAULT_EXEC_LATENCY = 1

#: ``alu(a, b, c, imm)``: the result of a register-writing ALU opcode
#: from its ra/rb values ``a``/``b``, the old rd value ``c`` (only FMA
#: reads it) and the immediate.
AluFunction = Callable[[int, int, int, int], int]


@dataclass(frozen=True)
class OpInfo:
    """Everything the machines and the analyses ask of one opcode.

    Decoded once, at import: each :class:`Op` member carries its record
    as ``op.info``, so an instruction reaches it with an attribute read
    instead of hashing the enum into a table.  The record holds the
    opcode's semantics too: ``alu`` computes an ALU result and ``taken``
    resolves a control instruction (see :mod:`repro.isa.executor`).
    """

    mnemonic: str
    fu_class: FuClass
    #: Execute latency in the EBOX/FBOX; memory latency is modelled by
    #: the MBOX, so LD/ST carry only their issue latency here.
    exec_latency: int = DEFAULT_EXEC_LATENCY
    is_load: bool = False
    is_store: bool = False
    #: Sub-word stores cannot fully forward to a word load.
    is_partial_store: bool = False
    is_membar: bool = False
    is_control: bool = False
    is_conditional: bool = False
    is_indirect: bool = False
    is_call: bool = False
    is_return: bool = False
    is_halt: bool = False
    #: Writes ``rd`` (unless ``rd`` is the hardwired ``r0``).
    writes: bool = True
    #: Reads the first ``source_count`` of (ra, rb, rd).
    source_count: int = 2
    #: Operand text after the mnemonic (and ``rd``), for ``__str__``.
    operands: str = "r{ra} r{rb}"
    #: The ALU result (see :data:`AluFunction`); ``None`` for loads,
    #: stores, control flow and the no-result opcodes.
    alu: Optional[AluFunction] = None
    #: Control flow: whether the instruction is taken, from its ra
    #: value; ``None`` for every other opcode.
    taken: Optional[Callable[[int], bool]] = None


def _decode(op: Op, fu_class: FuClass, **fields: object) -> None:
    op.info = OpInfo(op.name.lower(), fu_class, **fields)


_IMM = dict(source_count=1, operands="r{ra} {imm}")
_NO_OPERANDS = dict(writes=False, source_count=0, operands="")
_BRANCH = dict(is_control=True, writes=False)
#: Flipping the sign bit maps signed 64-bit order onto unsigned order.
_SIGN = 1 << 63


def _always_taken(a: int) -> bool:
    return True


# The ALU semantics are the ISA's definition: the functional executor,
# the pipeline's execute stage and the analyses all compute with them.
_decode(Op.ADD, FuClass.INT, alu=lambda a, b, c, imm: (a + b) & MASK64)
_decode(Op.SUB, FuClass.INT, alu=lambda a, b, c, imm: (a - b) & MASK64)
_decode(Op.MUL, FuClass.INT, exec_latency=7,
        alu=lambda a, b, c, imm: (a * b) & MASK64)
_decode(Op.ADDI, FuClass.INT, **_IMM,
        alu=lambda a, b, c, imm: (a + imm) & MASK64)
_decode(Op.LDI, FuClass.INT, source_count=0, operands="{imm}",
        alu=lambda a, b, c, imm: imm & MASK64)
_decode(Op.CMPLT, FuClass.INT, alu=lambda a, b, c, imm: (
    1 if (a & MASK64) ^ _SIGN < (b & MASK64) ^ _SIGN else 0))
_decode(Op.CMPEQ, FuClass.INT, alu=lambda a, b, c, imm: 1 if a == b else 0)
_decode(Op.AND, FuClass.LOGIC, alu=lambda a, b, c, imm: a & b)
_decode(Op.OR, FuClass.LOGIC, alu=lambda a, b, c, imm: a | b)
_decode(Op.XOR, FuClass.LOGIC, alu=lambda a, b, c, imm: a ^ b)
_decode(Op.SHL, FuClass.LOGIC,
        alu=lambda a, b, c, imm: (a << (b & 63)) & MASK64)
_decode(Op.SHR, FuClass.LOGIC,
        alu=lambda a, b, c, imm: (a & MASK64) >> (b & 63))
_decode(Op.ANDI, FuClass.LOGIC, **_IMM,
        alu=lambda a, b, c, imm: a & (imm & MASK64))
_decode(Op.XORI, FuClass.LOGIC, **_IMM,
        alu=lambda a, b, c, imm: a ^ (imm & MASK64))
_decode(Op.NOP, FuClass.LOGIC, **_NO_OPERANDS)
_decode(Op.FADD, FuClass.FP, exec_latency=4,
        alu=lambda a, b, c, imm: (a + b) & MASK64)
_decode(Op.FMUL, FuClass.FP, exec_latency=4,
        alu=lambda a, b, c, imm: (a * b) & MASK64)
_decode(Op.FMA, FuClass.FP, exec_latency=4, source_count=3,
        alu=lambda a, b, c, imm: (a * b + c) & MASK64)
_decode(Op.FDIV, FuClass.FP, exec_latency=12,
        alu=lambda a, b, c, imm: (a // (b | 1)) & MASK64)
_decode(Op.LD, FuClass.MEM, is_load=True, source_count=1,
        operands="r{ra}+{imm}")
_decode(Op.ST, FuClass.MEM, is_store=True, writes=False,
        operands="r{ra}+{imm} r{rb}")
_decode(Op.STH, FuClass.MEM, is_store=True, is_partial_store=True,
        writes=False, operands="r{ra}+{imm} r{rb}")
_decode(Op.MEMBAR, FuClass.MEM, is_membar=True, **_NO_OPERANDS)
# Control flow resolves on the integer pool.
_decode(Op.BEQZ, FuClass.INT, is_conditional=True, source_count=1,
        operands="r{ra} @{target}", taken=lambda a: a == 0, **_BRANCH)
_decode(Op.BNEZ, FuClass.INT, is_conditional=True, source_count=1,
        operands="r{ra} @{target}", taken=lambda a: a != 0, **_BRANCH)
_decode(Op.BR, FuClass.INT, source_count=0, operands="@{target}",
        taken=_always_taken, **_BRANCH)
_decode(Op.JMP, FuClass.INT, is_indirect=True, source_count=1,
        operands="r{ra}", taken=_always_taken, **_BRANCH)
_decode(Op.CALL, FuClass.INT, is_control=True, is_call=True, source_count=0,
        operands="@{target}", taken=_always_taken)
_decode(Op.RET, FuClass.INT, is_indirect=True, is_return=True,
        source_count=1, operands="r{ra}", taken=_always_taken, **_BRANCH)
_decode(Op.HALT, FuClass.INT, is_halt=True, **_NO_OPERANDS)

#: One shared tuple per distinct source list: programs repeat the same
#: few register combinations thousands of times.
_SOURCE_REGS: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


def _classified(name: str) -> property:
    """An :class:`Instruction` property answered by its opcode's record."""
    return property(attrgetter("op.info." + name),
                    doc=f"``{name}`` of the opcode's :class:`OpInfo`.")


@dataclass(frozen=True, slots=True, init=False)
class Instruction:
    """A static RISC-R instruction.

    ``target`` is an instruction index (the ISA's PCs count instructions;
    byte addresses are derived as ``pc * INSTRUCTION_BYTES``).

    Construction decodes the two operand-dependent facts once and stores
    them: ``writes_reg`` and ``source_regs`` (the architectural
    registers read, one interned tuple per distinct list).  Everything
    else comes from the opcode's :class:`OpInfo`.
    """

    op: Op
    rd: int = ZERO_REG
    ra: int = ZERO_REG
    rb: int = ZERO_REG
    imm: int = 0
    target: Optional[int] = None
    label: str = field(default="", compare=False)
    writes_reg: bool = field(init=False, repr=False, compare=False)
    source_regs: Tuple[int, ...] = field(init=False, repr=False,
                                         compare=False)

    def __new__(cls, op: Op, rd: int = ZERO_REG, ra: int = ZERO_REG,
                rb: int = ZERO_REG, imm: int = 0,
                target: Optional[int] = None, label: str = ""
                ) -> "Instruction":
        info = op.info
        if not (0 <= rd < NUM_ARCH_REGS and 0 <= ra < NUM_ARCH_REGS
                and 0 <= rb < NUM_ARCH_REGS):
            for name, reg in (("rd", rd), ("ra", ra), ("rb", rb)):
                if not 0 <= reg < NUM_ARCH_REGS:
                    raise ValueError(f"{op.name}: {name} out of range: {reg}")
        if info.is_control and not info.is_indirect and target is None:
            raise ValueError(f"{op.name} requires a target")
        sources = (ra, rb, rd)[:info.source_count]
        # A frozen instance refuses attribute stores, and storing through
        # object.__setattr__ costs a name lookup per field.  So the fields
        # go into an instance of _InstructionFields, a plain class with
        # the same slots, one plain store each, and that instance then
        # becomes a ``cls``.
        instr = _new_fields(_InstructionFields)
        instr.op = op
        instr.rd = rd
        instr.ra = ra
        instr.rb = rb
        instr.imm = imm
        instr.target = target
        instr.label = label
        instr.writes_reg = info.writes and rd != ZERO_REG
        instr.source_regs = _SOURCE_REGS.setdefault(sources, sources)
        instr.__class__ = cls
        return instr

    def __reduce__(self):
        # Rebuilt through the constructor, so an unpickled instruction is
        # decoded (and its source tuple interned) like a fresh one.
        return (type(self), (self.op, self.rd, self.ra, self.rb, self.imm,
                             self.target, self.label))

    # -- classification (the opcode's record) ----------------------------
    fu_class = _classified("fu_class")
    exec_latency = _classified("exec_latency")
    is_load = _classified("is_load")
    is_store = _classified("is_store")
    is_partial_store = _classified("is_partial_store")
    is_membar = _classified("is_membar")
    is_control = _classified("is_control")
    is_conditional = _classified("is_conditional")
    is_indirect = _classified("is_indirect")
    is_call = _classified("is_call")
    is_return = _classified("is_return")
    is_halt = _classified("is_halt")

    def __str__(self) -> str:
        info = self.op.info
        parts = [info.mnemonic]
        if self.writes_reg or info.source_count == 3:  # FMA reads rd
            parts.append(f"r{self.rd}")
        if info.operands:
            parts.append(info.operands.format(
                ra=self.ra, rb=self.rb, imm=self.imm, target=self.target))
        return " ".join(parts)


class _InstructionFields:
    """An :class:`Instruction` under construction (see its ``__new__``)."""

    __slots__ = Instruction.__slots__


_new_fields = object.__new__
