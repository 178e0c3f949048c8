"""Unit tests for the bit-level lattices behind the AVF analyzer:
known-bits transfer functions and the backward demand solver."""

from array import array

import pytest
from valueflow_reference import assert_known_fixpoint

from repro.analysis import valueflow
from repro.analysis.cfg import build_cfg
from repro.analysis.valueflow import (ENTRY_STATE, KB_TOP, KB_ZERO, kb_add,
                                      kb_and, kb_const, kb_join, kb_mul,
                                      kb_not, kb_or, kb_shl, kb_shr, kb_sub,
                                      kb_xor, nonzero_lanes, pack,
                                      solve_bit_liveness, solve_known_bits,
                                      transfer_known_bits, unpack)
from repro.isa.assembler import assemble
from repro.isa.executor import alu_result
from repro.isa.instructions import NUM_ARCH_REGS, Instruction, Op
from repro.util.bits import MASK64

ALL64 = MASK64

#: Every hand-written program below, by name (the reference-solver
#: comparison in test_valueflow_reference.py runs them all).
SOURCES = {
    "constants": """
        ldi r1, 12
        addi r2, r1, 30
        st  r0, 0x1000, r2
        halt
    """,
    "counted-loop": """
        ldi r1, 8
    loop:
        addi r1, r1, -1
        bnez r1, loop
        halt
    """,
    "andi-masks-demand": """
        ldi  r1, 0xFF
        andi r2, r1, 0x0F
        st   r0, 0x1000, r2
        halt
    """,
    "store-value": """
        ldi r1, 1
        st  r0, 0x1000, r1
        halt
    """,
    "store-address": """
        ldi r1, 0x1000
        st  r1, 0, r0
        halt
    """,
    "branch-known-one": """
        ldi  r1, 4
        bnez r1, out
        ldi  r2, 1
    out:
        halt
    """,
    "branch-unknown": """
        .data 0x1000 3
        ldi  r1, 0x1000
        ld   r2, r1, 0
        bnez r2, out
        nop
    out:
        halt
    """,
    "shift-demand": """
        ldi r1, 0xFF
        ldi r2, 8
        shl r3, r1, r2
        st  r0, 0x1000, r3
        halt
    """,
    "dead-value": """
        ldi r1, 7
        halt
    """,
}


def cfg_of(name):
    return build_cfg(assemble(SOURCES[name]))


def drain_chain_source(stages=11):
    """A 3-block loop, branching on a loaded word, whose known bits drain
    one bit per trip through ``stages`` chained registers: ``r1`` counts
    up, and each ``r{i}`` adds the top bit of ``r{i-1}``.  Its fixpoint
    needs more block visits than the solver's cap allows."""
    lines = [".data 0x1000 1", "ldi r60, 63"]
    lines += [f"ldi r{i}, 0" for i in range(1, stages + 2)]
    lines += ["loop:", "addi r1, r1, 1"]
    for i in range(2, stages + 2):
        lines += [f"shr r40, r{i - 1}, r60", f"add r{i}, r{i}, r40"]
    lines += ["ld r50, r0, 0x1000", "bnez r50, loop", "halt"]
    return "\n".join(lines) + "\n"


def partial_operands(width):
    """Every known-bits operand over the low ``width`` bits (the bits
    above known zero), each with all the values it stands for."""
    for unknown in range(1 << width):
        for value in range(1 << width):
            if value & unknown == 0:
                concrete = [value | bits for bits in range(1 << width)
                            if bits & ~unknown == 0]
                yield (MASK64 ^ unknown, value), concrete


def exhaustive_check(op, kb_op, width=4):
    """Every abstract result must cover every concrete result pair: exact
    on constant operands, and sound when operand bits are unknown."""
    values = range(1 << width)
    for av in values:
        for bv in values:
            mask, value = kb_op(*kb_const(av), *kb_const(bv))
            # Constant inputs => constant (sound and precise) output.
            assert mask == MASK64
            assert value == op(av, bv) & MASK64
    operands = list(partial_operands(width))
    for a, a_values in operands:
        for b, b_values in operands:
            mask, value = kb_op(*a, *b)
            assert value & ~mask == 0
            for av in a_values:
                for bv in b_values:
                    assert op(av, bv) & mask == value


class TestKnownBitsLattice:
    def test_const_is_fully_known(self):
        mask, value = kb_const(0xDEAD)
        assert mask == MASK64
        assert value == 0xDEAD
        assert mask & ~value == MASK64 ^ 0xDEAD

    def test_results_keep_value_inside_mask(self):
        ops = (kb_add, kb_sub, kb_mul, kb_and, kb_or, kb_xor, kb_shl,
               kb_shr, kb_join)
        operands = [a for a, _ in partial_operands(3)] + [KB_TOP, KB_ZERO]
        for kb_op in ops:
            for a in operands:
                for b in operands:
                    mask, value = kb_op(*a, *b)
                    assert 0 <= mask <= MASK64
                    assert value & ~mask == 0

    def test_join_keeps_agreeing_bits(self):
        mask, value = kb_join(*kb_const(0b1100), *kb_const(0b1010))
        # Bits 0 (both 0) and 3 (both 1) agree; bits 1, 2 disagree.
        assert value == 0b1000
        assert (mask & ~value & 0b0111) == 0b0001

    def test_join_with_top_is_top(self):
        assert kb_join(*kb_const(7), *KB_TOP)[0] == 0

    def test_join_of_packed_vectors_is_per_register(self):
        a = [kb_const(reg * 0x9E37_79B9) for reg in range(NUM_ARCH_REGS)]
        b = [kb_const(reg * 0x85EB_CA6B) if reg % 3 else KB_TOP
             for reg in range(NUM_ARCH_REGS)]
        packed = kb_join(pack(array("Q", [m for m, _ in a])),
                         pack(array("Q", [v for _, v in a])),
                         pack(array("Q", [m for m, _ in b])),
                         pack(array("Q", [v for _, v in b])))
        masks, values = unpack(packed[0]), unpack(packed[1])
        for reg in range(NUM_ARCH_REGS):
            assert (masks[reg], values[reg]) == kb_join(*a[reg], *b[reg])

    def test_pack_round_trips_rows(self):
        row = array("Q", [(reg * 0x0123_4567_89AB_CDEF) & MASK64
                          for reg in range(NUM_ARCH_REGS)])
        vector = pack(row)
        assert (vector >> 64 * 5) & MASK64 == row[5]  # lane r = register r
        assert unpack(vector) == row

    def test_nonzero_lanes(self):
        row = array("Q", [0] * NUM_ARCH_REGS)
        assert nonzero_lanes(row) == 0
        for reg, value in ((1, 1), (7, 1 << 63), (40, 0x100), (63, MASK64)):
            row[reg] = value
        assert nonzero_lanes(row) == (1 << 1) | (1 << 7) | (1 << 40) | (1 << 63)


class TestTransferFunctions:
    def test_add_constants_exact(self):
        exhaustive_check(lambda a, b: a + b, kb_add)

    def test_sub_constants_exact(self):
        exhaustive_check(lambda a, b: a - b, kb_sub)

    def test_mul_constants_exact(self):
        exhaustive_check(lambda a, b: a * b, kb_mul, width=3)

    def test_bitwise_constants_exact(self):
        exhaustive_check(lambda a, b: a & b, kb_and)
        exhaustive_check(lambda a, b: a | b, kb_or)
        exhaustive_check(lambda a, b: a ^ b, kb_xor)

    def test_shift_constants_exact(self):
        exhaustive_check(lambda a, b: a << (b & 63), kb_shl)
        exhaustive_check(lambda a, b: a >> (b & 63), kb_shr)

    def test_and_with_partial_knowledge(self):
        # unknown & known-zero = known-zero, regardless of the unknown.
        mask, value = kb_and(*KB_TOP, *kb_const(0x0F))
        assert mask & ~value & ~0x0F == MASK64 & ~0x0F

    def test_or_with_partial_knowledge(self):
        assert kb_or(*KB_TOP, *kb_const(0xF0))[1] == 0xF0

    def test_not_flips_knowledge(self):
        assert kb_not(*kb_const(0)) == (MASK64, MASK64)

    def test_add_soundness_with_unknowns(self):
        # a = xxxx1000 (low 4 bits known), b = 1: the low three result
        # bits are knowable, bits above the unknown region are not.
        mask, value = kb_add(0xF, 0x8, *kb_const(1))
        assert mask & 0x7 == 0x7
        assert value & 0x7 == 0x1  # 8 + 1 = 9 -> low bits 001

    def test_shifts_with_known_amount(self):
        assert kb_shl(*kb_const(1), *kb_const(4))[1] == 16
        assert kb_shr(*kb_const(16), *kb_const(4))[1] == 1

    def test_shift_with_unknown_amount_is_top_or_sound(self):
        mask, value = kb_shl(*kb_const(1), *KB_TOP)
        for amount in range(64):
            concrete = (1 << amount) & MASK64
            assert concrete & mask & ~value == 0
            assert value & ~concrete == 0

    def test_zero_identities(self):
        assert kb_add(*KB_ZERO, *KB_TOP)[0] == 0
        assert kb_and(*KB_ZERO, *KB_TOP)[1] == 0
        # 0 * unknown: the abstraction may lose precision but must
        # never claim a one bit.
        assert kb_mul(*KB_ZERO, *KB_TOP)[1] == 0

    @pytest.mark.parametrize("op", [
        Op.ADD, Op.SUB, Op.MUL, Op.ADDI, Op.CMPLT, Op.CMPEQ, Op.AND, Op.OR,
        Op.XOR, Op.SHL, Op.SHR, Op.ANDI, Op.XORI, Op.FADD, Op.FMUL, Op.FMA])
    def test_instruction_transfer_matches_executor(self, op):
        """The solver's per-instruction transfer, every ALU opcode: exact
        on constant operands (width 4) and sound on partial ones (width
        3); FMA's old ``rd`` is the addend."""
        def run(a, b, c):
            masks = unpack(ENTRY_STATE[0])
            values = unpack(ENTRY_STATE[1])
            for reg, (mask, value) in ((1, a), (2, b), (3, c)):
                masks[reg], values[reg] = mask, value
            instr = Instruction(op, rd=3, ra=1, rb=2, imm=b[1])
            transfer_known_bits(masks, values, instr)
            return instr, masks[3], values[3]

        addend = kb_const(5)
        for av in range(16):
            for bv in range(16):
                instr, mask, value = run(kb_const(av), kb_const(bv), addend)
                assert mask == MASK64
                assert value == alu_result(instr, av, bv, addend[1])
        operands = list(partial_operands(3))
        for a, a_values in operands:
            for b, b_values in operands:
                if op in (Op.ADDI, Op.ANDI, Op.XORI) and b[0] != MASK64:
                    continue  # an immediate is always known
                instr, mask, value = run(a, b, addend)
                for av in a_values:
                    for bv in b_values:
                        concrete = alu_result(instr, av, bv, addend[1])
                        assert concrete & mask == value

    @pytest.mark.parametrize("source", ["ld r3, r1, 0", "fdiv r3, r1, r2",
                                        "call r3, 0"])
    def test_opaque_results_are_unknown(self, source):
        masks = unpack(ENTRY_STATE[0])
        values = unpack(ENTRY_STATE[1])
        masks[3], values[3] = kb_const(9)
        transfer_known_bits(masks, values, assemble(source).instructions[0])
        assert (masks[3], values[3]) == KB_TOP


class TestKnownBitsSolver:
    def test_constants_propagate_through_blocks(self):
        cfg = cfg_of("constants")
        states = solve_known_bits(cfg)
        assert states[cfg.entry] == ENTRY_STATE

    def test_loop_reaches_fixpoint(self):
        cfg = cfg_of("counted-loop")
        states = solve_known_bits(cfg)
        assert all(states[i] is not None for i in cfg.reachable())
        assert_known_fixpoint(cfg, states)

    def test_iteration_cap_is_fixpoint_or_raises(self):
        """Hitting the visit cap must not return states that claim bits
        the fixpoint does not know."""
        cfg = build_cfg(assemble(drain_chain_source()))
        assert len(cfg.blocks) == 3
        try:
            states = solve_known_bits(cfg)
        except RuntimeError:
            return
        assert_known_fixpoint(cfg, states)

    def test_shorter_chain_converges_under_the_cap(self):
        cfg = build_cfg(assemble(drain_chain_source(stages=4)))
        assert_known_fixpoint(cfg, solve_known_bits(cfg))


class TestDemandSolver:
    def test_fact_rules_are_the_fact_opcodes(self):
        """The rules that read forward facts are exactly those of AND,
        OR, SHL, SHR, BEQZ and BNEZ."""
        consulting = {op for op in Op
                      if valueflow._SOURCE_RULES.get(op) in
                      valueflow._FACT_RULES
                      or valueflow._USE_RULES.get(op) in
                      valueflow._FACT_RULES}
        assert consulting == {Op.AND, Op.OR, Op.SHL, Op.SHR, Op.BEQZ,
                              Op.BNEZ}

    def test_andi_masks_demand(self):
        liveness = solve_bit_liveness(cfg_of("andi-masks-demand"))
        # Before the andi (pc 1), only r1's low nibble is demanded.
        assert liveness.before[1][1] == 0x0F

    def test_store_demands_all_value_bits(self):
        liveness = solve_bit_liveness(cfg_of("store-value"))
        assert liveness.before[1][1] == ALL64

    def test_address_registers_fully_demanded(self):
        liveness = solve_bit_liveness(cfg_of("store-address"))
        assert liveness.before[1][1] == ALL64

    def test_branch_with_known_one_demands_anchor_bit(self):
        liveness = solve_bit_liveness(cfg_of("branch-known-one"))
        # r1 is the constant 4: bit 2 alone pins the branch outcome.
        assert liveness.before[1][1] == 0x4

    def test_branch_with_unknown_operand_demands_all(self):
        liveness = solve_bit_liveness(cfg_of("branch-unknown"))
        assert liveness.before[2][2] == ALL64

    def test_shift_translates_demand(self):
        liveness = solve_bit_liveness(cfg_of("shift-demand"))
        # r3 fully demanded; r1 contributes bits 0..55 (shifted left 8).
        assert liveness.before[2][1] == MASK64 >> 8

    def test_dead_value_has_no_demand(self):
        liveness = solve_bit_liveness(cfg_of("dead-value"))
        assert liveness.before[1][1] == 0
        assert liveness.after[0][1] == 0
