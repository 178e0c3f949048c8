"""Decode-once classification against the per-call reference.

``Instruction`` answers its classification from one :class:`OpInfo`
record per opcode and stores ``writes_reg`` / ``source_regs`` at
construction.  The reference below is the property bodies the class
used to recompute on every call; every opcode, with operands that
exercise ``rd = r0``, FMA's third source and duplicate sources, must
decode to exactly what they return — also after a pickle or a
``dataclasses.replace`` round trip, which must re-decode.
"""

import copy
import dataclasses
import itertools
import pickle

import pytest

from repro.isa.instructions import (NUM_ARCH_REGS, FuClass, Instruction,
                                    Op)

# -- the reference: per-call classification --------------------------------

REF_FU_CLASS = {
    Op.ADD: FuClass.INT, Op.SUB: FuClass.INT, Op.MUL: FuClass.INT,
    Op.ADDI: FuClass.INT, Op.LDI: FuClass.INT, Op.CMPLT: FuClass.INT,
    Op.CMPEQ: FuClass.INT,
    Op.AND: FuClass.LOGIC, Op.OR: FuClass.LOGIC, Op.XOR: FuClass.LOGIC,
    Op.SHL: FuClass.LOGIC, Op.SHR: FuClass.LOGIC, Op.ANDI: FuClass.LOGIC,
    Op.XORI: FuClass.LOGIC, Op.NOP: FuClass.LOGIC,
    Op.FADD: FuClass.FP, Op.FMUL: FuClass.FP, Op.FMA: FuClass.FP,
    Op.FDIV: FuClass.FP,
    Op.LD: FuClass.MEM, Op.ST: FuClass.MEM, Op.STH: FuClass.MEM,
    Op.MEMBAR: FuClass.MEM,
    Op.BEQZ: FuClass.INT, Op.BNEZ: FuClass.INT, Op.BR: FuClass.INT,
    Op.JMP: FuClass.INT, Op.CALL: FuClass.INT, Op.RET: FuClass.INT,
    Op.HALT: FuClass.INT,
}
REF_EXEC_LATENCY = {Op.MUL: 7, Op.FADD: 4, Op.FMUL: 4, Op.FMA: 4,
                    Op.FDIV: 12}
CONTROL = {Op.BEQZ, Op.BNEZ, Op.BR, Op.JMP, Op.CALL, Op.RET}
CONDITIONAL = {Op.BEQZ, Op.BNEZ}
INDIRECT = {Op.JMP, Op.RET}


def reference(instr: Instruction) -> dict:
    """Every classification, computed the per-call way."""
    op = instr.op
    if op in (Op.ST, Op.STH, Op.MEMBAR, Op.NOP, Op.HALT, Op.BEQZ,
              Op.BNEZ, Op.BR, Op.JMP, Op.RET):
        writes_reg = False
    else:
        writes_reg = instr.rd != 0
    if op in (Op.LDI, Op.NOP, Op.HALT, Op.BR, Op.CALL, Op.MEMBAR):
        source_regs = ()
    elif op in (Op.ADDI, Op.ANDI, Op.XORI, Op.LD, Op.BEQZ, Op.BNEZ,
                Op.JMP, Op.RET):
        source_regs = (instr.ra,)
    elif op in (Op.ST, Op.STH):
        source_regs = (instr.ra, instr.rb)
    elif op is Op.FMA:
        source_regs = (instr.ra, instr.rb, instr.rd)
    else:
        source_regs = (instr.ra, instr.rb)
    return {
        "fu_class": REF_FU_CLASS[op],
        "exec_latency": REF_EXEC_LATENCY.get(op, 1),
        "is_load": op is Op.LD,
        "is_store": op in (Op.ST, Op.STH),
        "is_partial_store": op is Op.STH,
        "is_membar": op is Op.MEMBAR,
        "is_control": op in CONTROL,
        "is_conditional": op in CONDITIONAL,
        "is_indirect": op in INDIRECT,
        "is_call": op is Op.CALL,
        "is_return": op is Op.RET,
        "is_halt": op is Op.HALT,
        "writes_reg": writes_reg,
        "source_regs": source_regs,
    }


def reference_str(instr: Instruction) -> str:
    op = instr.op
    parts = [op.name.lower()]
    if reference(instr)["writes_reg"] or op is Op.FMA:
        parts.append(f"r{instr.rd}")
    if op in (Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.SHL,
              Op.SHR, Op.CMPLT, Op.CMPEQ, Op.FADD, Op.FMUL, Op.FMA,
              Op.FDIV):
        parts += [f"r{instr.ra}", f"r{instr.rb}"]
    elif op in (Op.ADDI, Op.ANDI, Op.XORI):
        parts += [f"r{instr.ra}", str(instr.imm)]
    elif op is Op.LDI:
        parts.append(str(instr.imm))
    elif op is Op.LD:
        parts.append(f"r{instr.ra}+{instr.imm}")
    elif op in (Op.ST, Op.STH):
        parts += [f"r{instr.ra}+{instr.imm}", f"r{instr.rb}"]
    elif op in (Op.BEQZ, Op.BNEZ):
        parts += [f"r{instr.ra}", f"@{instr.target}"]
    elif op in (Op.BR, Op.CALL):
        parts.append(f"@{instr.target}")
    elif op in (Op.JMP, Op.RET):
        parts.append(f"r{instr.ra}")
    return " ".join(parts)


def decoded(instr: Instruction) -> dict:
    return {name: getattr(instr, name) for name in reference(instr)}


#: (rd, ra, rb): r0 destinations, distinct and duplicate sources, the
#: top register, and rd doubling as a source (FMA's third operand).
OPERANDS = [(0, 0, 0), (5, 6, 7), (0, 6, 7), (5, 5, 5), (5, 6, 6),
            (6, 6, 7), (7, 6, 7), (63, 62, 61), (1, 63, 0)]


def cases():
    for op, (rd, ra, rb) in itertools.product(Op, OPERANDS):
        yield Instruction(op, rd=rd, ra=ra, rb=rb, imm=-12, target=3)


ALL = list(cases())


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_decode_matches_reference(op):
    for instr in (i for i in ALL if i.op is op):
        assert decoded(instr) == reference(instr), instr
        assert str(instr) == reference_str(instr), instr


def test_indirect_ops_need_no_target():
    for op in (Op.JMP, Op.RET, Op.ADD, Op.LD, Op.HALT):
        instr = Instruction(op, rd=2, ra=3, rb=4)
        assert decoded(instr) == reference(instr)
        assert str(instr) == reference_str(instr)


def test_source_tuples_are_interned():
    first = Instruction(Op.ADD, rd=1, ra=9, rb=10)
    second = Instruction(Op.ST, ra=9, rb=10, imm=8)
    assert first.source_regs is second.source_regs


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip_redecodes(protocol):
    for instr in ALL:
        clone = pickle.loads(pickle.dumps(instr, protocol=protocol))
        assert clone == instr and clone.label == instr.label
        assert decoded(clone) == reference(clone)
    labelled = Instruction(Op.ADDI, rd=1, ra=2, imm=3, label="loop")
    assert pickle.loads(pickle.dumps(labelled)).label == "loop"


def test_copies_redecode():
    for instr in ALL[::7]:
        for clone in (copy.copy(instr), copy.deepcopy(instr)):
            assert clone == instr
            assert decoded(clone) == reference(clone)


def test_replace_redecodes():
    fma = Instruction(Op.FMA, rd=5, ra=6, rb=7)
    moved = dataclasses.replace(fma, rd=9)
    assert moved.source_regs == (6, 7, 9)
    assert dataclasses.replace(fma, rd=0).writes_reg is False
    for instr in ALL[::5]:
        for changes in ({"rd": instr.rd ^ 1}, {"ra": 0}, {"op": Op.LD},
                        {"op": Op.FMA, "rd": 3}, {"target": 0}):
            clone = dataclasses.replace(instr, **changes)
            assert decoded(clone) == reference(clone), (instr, changes)


def test_decoded_fields_cannot_be_passed_or_assigned():
    instr = Instruction(Op.ADD, rd=1, ra=2, rb=3)
    with pytest.raises(ValueError):
        dataclasses.replace(instr, writes_reg=False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        instr.rd = 4  # type: ignore[misc]


@pytest.mark.parametrize("field_name", ["rd", "ra", "rb"])
@pytest.mark.parametrize("value", [-1, NUM_ARCH_REGS])
def test_out_of_range_register_raises(field_name, value):
    with pytest.raises(ValueError, match=f"{field_name} out of range"):
        Instruction(Op.ADD, **{field_name: value})
    valid = Instruction(Op.ADD, rd=1, ra=2, rb=3)
    with pytest.raises(ValueError, match=f"{field_name} out of range"):
        dataclasses.replace(valid, **{field_name: value})


@pytest.mark.parametrize("op", [Op.BEQZ, Op.BNEZ, Op.BR, Op.CALL],
                         ids=lambda op: op.name)
def test_missing_branch_target_raises(op):
    with pytest.raises(ValueError, match="requires a target"):
        Instruction(op, rd=1, ra=2)
    with pytest.raises(ValueError, match="requires a target"):
        dataclasses.replace(Instruction(op, ra=2, target=0), target=None)
