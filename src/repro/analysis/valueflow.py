"""Bit-level value propagation for ACE/AVF analysis.

Two cooperating fixpoints over the RISC-R CFG, layered on top of the
set-level solvers in :mod:`repro.analysis.dataflow`:

- :func:`solve_known_bits` — a *forward* known-bits lattice (the
  classic ``(mask, value)`` pair per register: bit *i* of ``mask`` set
  means bit *i* of the register provably equals bit *i* of ``value`` on
  every fault-free path).  This generalizes the must-constant solver:
  an ``ANDI r, x, 0xFF`` yields 56 known-zero high bits even when ``x``
  is entirely unknown.

- :func:`solve_bit_liveness` — a *backward* per-bit demand analysis.
  ``demand[r]`` bit *b* is set at a program point iff flipping bit *b*
  of register *r* there could alter an output that crosses the sphere
  of replication (a store address/value, or control flow, which decides
  *which* stores execute).  Un-demanded bits are exactly the un-ACE
  (masked) fault sites the AVF analyzer reports.

Soundness contract (what :mod:`repro.avf` and its campaign
cross-validation lean on): under the single-transient-fault model, if a
bit is un-demanded at the point a flip is injected, the architectural
store stream of the faulty run is identical to the golden run.  The
per-opcode demand transfer functions below are each justified by the
*deviation-confinement* invariant: if the deviation of every input
value is confined to that input's un-demanded bits, the deviation of
the output is confined to the output's un-demanded bits.  Forward
known-bits facts are only consulted about operand bits that the same
rule *demands* (hence that carry golden values in any masked scenario)
— see the asymmetric AND/OR rules and the one-known-one-bit branch
rule.

Packed states.  Each block-boundary state holds all 64 registers as
64-bit lanes of one Python int, register *r* in bits ``[64r, 64r +
64)``: a known-bits state is a ``(mask, value)`` pair of such vectors,
a demand state is one vector.  A CFG merge is then a few whole-vector
integer operations however many predecessors or successors meet there
(:func:`kb_join` is bitwise, so it joins one register or 64 alike; a
demand merge is an OR).  Inside a block a vector is unpacked into an
``array('Q')`` row (:func:`unpack`), the transfers rewrite the lanes
they touch as plain ``(mask, value)`` ints, and the row is packed back
(:func:`pack`).  Lane 0 (``r0``, hardwired to zero) is the known
constant 0 in every known-bits state and is never demanded.

Both solvers skip a block whose input is unchanged since its last
visit: its transfer depends on that input alone, so its output cannot
change.  Both visit blocks in the order of the CFG's depth-first walk
(:meth:`~repro.analysis.cfg.CFG.depth_first`).  The forward solver's
worklist pops the lowest reverse-postorder rank first, and it raises
``RuntimeError`` when it has not converged within ``130 * n + 256``
block visits (``n`` blocks) instead of returning states that are not a
fixpoint.  The backward solver sweeps the reachable blocks in
postorder until a sweep changes nothing.  It decodes each
instruction's demand rule once per solve, with the forward facts the
rule reads.
"""

import sys
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from typing import Callable, Iterable, List, Optional, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import solve_liveness
from repro.isa.instructions import NUM_ARCH_REGS, ZERO_REG, Instruction, Op
from repro.util.bits import MASK64, to_unsigned

ALL_BITS = MASK64

#: Bytes of a 64-lane row: one 64-bit lane per architectural register.
_ROW_BYTES = 8 * NUM_ARCH_REGS

#: Packed vectors are little-endian lane order on every host; rows hold
#: native-order words.
_SWAP_ROWS = sys.byteorder != "little"


def unpack(vector: int) -> array:
    """The 64 lanes of a packed vector as a fresh ``array('Q')`` row."""
    row = array("Q", vector.to_bytes(_ROW_BYTES, "little"))
    if _SWAP_ROWS:
        row.byteswap()
    return row


def pack(row: array) -> int:
    """The packed vector of a 64-lane ``array('Q')`` row."""
    if _SWAP_ROWS:
        row = array("Q", row)
        row.byteswap()
    return int.from_bytes(row, "little")


#: ``1 << r`` per lane r.
_LANE_BITS = tuple(1 << lane for lane in range(NUM_ARCH_REGS))


def nonzero_lanes(row: array) -> int:
    """Register mask of the non-zero lanes of ``row``."""
    return sum(compress(_LANE_BITS, row))


# ---------------------------------------------------------------------------
# Known bits (forward)
# ---------------------------------------------------------------------------

#: Partial knowledge of a value, ``(mask, value)``: ``mask`` selects the
#: known bit positions and ``value`` holds their values (``value & ~mask
#: == 0``).  ``mask == 0`` is the lattice top (nothing known);
#: ``mask == MASK64`` is a constant.  The transfers below take and
#: return the two ints of each operand.
KnownBits = Tuple[int, int]

KB_TOP: KnownBits = (0, 0)
KB_ZERO: KnownBits = (MASK64, 0)

#: The packed known-bits state at program entry: nothing is known but
#: lane 0, the hardwired zero.
ENTRY_STATE: KnownBits = KB_ZERO


def kb_const(value: int) -> KnownBits:
    return MASK64, to_unsigned(value)


def kb_join(am: int, av: int, bm: int, bv: int) -> KnownBits:
    """Lattice meet at a CFG merge: keep agreeing known bits.

    Bitwise, so it joins two registers or two packed vectors alike.
    """
    mask = am & bm & ~(av ^ bv)
    return mask, av & mask


def kb_not(am: int, av: int) -> KnownBits:
    return am, am & ~av & MASK64


def kb_add(am: int, av: int, bm: int, bv: int,
           carry_in: int = 0) -> KnownBits:
    """Known bits of ``a + b + carry_in`` (the LLVM carry-extremes rule).

    ``possible_sum_one``/``possible_sum_zero`` are the sums with every
    unknown bit set to its minimum / maximum; a result bit is known
    where both operand bits and the incoming carry are known, which is
    exactly where the two extreme sums agree.
    """
    a_zero = am & ~av & MASK64
    b_zero = bm & ~bv & MASK64
    a_max = (av | ~am) & MASK64
    b_max = (bv | ~bm) & MASK64
    possible_sum_zero = (a_max + b_max + carry_in) & MASK64
    possible_sum_one = (av + bv + carry_in) & MASK64
    carry_known_zero = ~(possible_sum_zero ^ a_zero ^ b_zero) & MASK64
    carry_known_one = (possible_sum_one ^ av ^ bv) & MASK64
    known = am & bm & (carry_known_zero | carry_known_one)
    # Belt and braces: only keep bits where both extreme sums agree.
    known &= ~(possible_sum_zero ^ possible_sum_one) & MASK64
    return known, possible_sum_one & known


def kb_sub(am: int, av: int, bm: int, bv: int) -> KnownBits:
    return kb_add(am, av, *kb_not(bm, bv), carry_in=1)


def kb_mul(am: int, av: int, bm: int, bv: int) -> KnownBits:
    """Low bits of a product: ``a*b mod 2**k`` depends only on the low
    ``k`` bits of each operand, so the longest fully-known low runs of
    the operands pin the same run of the product."""
    if am == MASK64 and bm == MASK64:
        return kb_const(av * bv)
    k = min(_trailing_known(am), _trailing_known(bm))
    if k == 0:
        return KB_TOP
    low = (1 << k) - 1
    return low, (av * bv) & low


def _trailing_known(mask: int) -> int:
    """Length of the contiguous known run starting at bit 0."""
    inverted = ~mask & MASK64
    if inverted == 0:
        return 64
    return (inverted & -inverted).bit_length() - 1


def kb_and(am: int, av: int, bm: int, bv: int) -> KnownBits:
    one = av & bv
    zero = (am & ~av | bm & ~bv) & MASK64
    return one | zero, one


def kb_or(am: int, av: int, bm: int, bv: int) -> KnownBits:
    one = (av | bv) & MASK64
    zero = am & ~av & bm & ~bv & MASK64
    return one | zero, one


def kb_xor(am: int, av: int, bm: int, bv: int) -> KnownBits:
    mask = am & bm
    return mask, (av ^ bv) & mask


def _known_shift(bm: int, bv: int) -> Optional[int]:
    """The shift amount ``b & 63`` when its low six bits are known."""
    if bm & 63 == 63:
        return bv & 63
    return None


def kb_shl(am: int, av: int, bm: int, bv: int) -> KnownBits:
    shift = _known_shift(bm, bv)
    if shift is None:
        return KB_TOP
    mask = ((am << shift) | ((1 << shift) - 1)) & MASK64
    return mask, (av << shift) & mask


def kb_shr(am: int, av: int, bm: int, bv: int) -> KnownBits:
    shift = _known_shift(bm, bv)
    if shift is None:
        return KB_TOP
    high = ~(MASK64 >> shift) & MASK64
    return (am >> shift) | high, av >> shift


# One transfer per register-writing opcode: each sets the lane of rd.

def _kb_constant(masks: array, values: array, instr: Instruction) -> None:
    masks[instr.rd], values[instr.rd] = kb_const(instr.imm)


def _kb_opaque(masks: array, values: array, instr: Instruction) -> None:
    # Loaded and divided values are unknown; link values are treated
    # opaque, mirroring the constant solver.
    masks[instr.rd] = values[instr.rd] = 0


def _kb_registers(kb_op):
    """The transfer of ``rd <- ra op rb``."""
    def transfer(masks: array, values: array, instr: Instruction) -> None:
        ra, rb = instr.ra, instr.rb
        masks[instr.rd], values[instr.rd] = kb_op(
            masks[ra], values[ra], masks[rb], values[rb])
    return transfer


def _kb_immediate(kb_op):
    """The transfer of ``rd <- ra op imm``."""
    def transfer(masks: array, values: array, instr: Instruction) -> None:
        ra = instr.ra
        masks[instr.rd], values[instr.rd] = kb_op(
            masks[ra], values[ra], *kb_const(instr.imm))
    return transfer


def _kb_compare(masks: array, values: array, instr: Instruction) -> None:
    ra, rb = instr.ra, instr.rb
    if masks[ra] == MASK64 and masks[rb] == MASK64:
        result = kb_const(instr.op.info.alu(values[ra], values[rb], 0,
                                            instr.imm))
    else:
        result = (MASK64 & ~1, 0)  # result is 0 or 1
    masks[instr.rd], values[instr.rd] = result


def _kb_fma(masks: array, values: array, instr: Instruction) -> None:
    ra, rb, rd = instr.ra, instr.rb, instr.rd
    product = kb_mul(masks[ra], values[ra], masks[rb], values[rb])
    masks[rd], values[rd] = kb_add(*product, masks[rd], values[rd])


#: Known-bits transfer of every register-writing opcode.
_KB_TRANSFERS = {
    Op.LDI: _kb_constant,
    Op.LD: _kb_opaque, Op.FDIV: _kb_opaque, Op.CALL: _kb_opaque,
    Op.ADD: _kb_registers(kb_add), Op.FADD: _kb_registers(kb_add),
    Op.SUB: _kb_registers(kb_sub),
    Op.MUL: _kb_registers(kb_mul), Op.FMUL: _kb_registers(kb_mul),
    Op.AND: _kb_registers(kb_and),
    Op.OR: _kb_registers(kb_or),
    Op.XOR: _kb_registers(kb_xor),
    Op.SHL: _kb_registers(kb_shl),
    Op.SHR: _kb_registers(kb_shr),
    Op.ADDI: _kb_immediate(kb_add),
    Op.ANDI: _kb_immediate(kb_and),
    Op.XORI: _kb_immediate(kb_xor),
    Op.CMPLT: _kb_compare, Op.CMPEQ: _kb_compare,
    Op.FMA: _kb_fma,
}


def transfer_known_bits(masks: array, values: array,
                        instr: Instruction) -> None:
    """Apply one instruction to a known-bits row pair, in place."""
    if instr.writes_reg:
        _KB_TRANSFERS[instr.op](masks, values, instr)


#: A block's register writes, each with its transfer.
_BlockCode = List[Tuple[Callable[[array, array, Instruction], None],
                        Instruction]]


def _block_code(instructions: Iterable[Instruction]) -> _BlockCode:
    return [(_KB_TRANSFERS[instr.op], instr) for instr in instructions
            if instr.writes_reg]


def _transfer_block(state: KnownBits, code: _BlockCode) -> KnownBits:
    if not code:
        return state
    masks, values = unpack(state[0]), unpack(state[1])
    for transfer, instr in code:
        transfer(masks, values, instr)
    return pack(masks), pack(values)


def solve_known_bits(cfg: CFG) -> List[Optional[KnownBits]]:
    """Per-block IN known-bits states, each a packed ``(mask, value)``
    vector pair (``None`` for unreached blocks).

    Raises ``RuntimeError`` when the iteration cap is hit before the
    fixpoint.
    """
    blocks = cfg.blocks
    n = len(blocks)
    entry = cfg.entry
    walk = cfg.depth_first()
    order, rank = walk.order, walk.rank
    in_states: List[Optional[KnownBits]] = [None] * n
    out_states: List[Optional[KnownBits]] = [None] * n
    code = [_block_code(block.instructions) for block in blocks]
    worklist = [rank[entry]]
    on_list = [False] * n
    on_list[entry] = True
    visits = 0
    # A safety net, not the lattice height: a loop whose facts drain one
    # bit per trip through a chain of registers can need more.
    limit = 130 * n + 256
    while worklist:
        if visits == limit:
            raise RuntimeError(f"known bits: no fixpoint after {limit} "
                               f"block visits ({n} blocks)")
        visits += 1
        index = order[heappop(worklist)]
        on_list[index] = False
        block = blocks[index]
        state: Optional[KnownBits] = None
        if index == entry:
            # Whatever flows back into the entry is joined with the
            # nothing-known entry state, which absorbs it.
            state = ENTRY_STATE
        else:
            for pred in block.predecessors:
                out = out_states[pred]
                if out is None:
                    continue
                if state is None:
                    state = out
                else:  # kb_join of the two vector pairs
                    mask = state[0] & out[0] & ~(state[1] ^ out[1])
                    state = mask, state[1] & mask
        if state == in_states[index] and out_states[index] is not None:
            continue  # same input as the last visit: same output
        in_states[index] = state
        out = _transfer_block(state, code[index])
        if out != out_states[index]:
            out_states[index] = out
            for succ in block.successors:
                if not on_list[succ]:
                    heappush(worklist, rank[succ])
                    on_list[succ] = True
    return in_states


# ---------------------------------------------------------------------------
# Bit liveness (backward demand)
# ---------------------------------------------------------------------------

def _up_to_msb(demand: int) -> int:
    """All bits at or below the highest demanded bit (carry closure)."""
    if demand == 0:
        return 0
    return (1 << demand.bit_length()) - 1


def _above_lsb(demand: int) -> int:
    """All bits at or above the lowest demanded bit."""
    if demand == 0:
        return 0
    return MASK64 & ~((demand & -demand) - 1)


#: Demand on the low half of a partially-stored (STH) value.
STH_VALUE_DEMAND = 0xFFFF_FFFF

#: Demand on the low six (shift-amount) bits of a shift's rb operand.
_SHIFT_AMOUNT_BITS = 0x3F


#: The forward facts a demand rule may consult: the known bits of ra
#: and rb just before the instruction, ``(ra mask, ra value, rb mask,
#: rb value)``.  Only facts about *demanded* operand bits are consulted
#: (see module docstring).
Facts = Tuple[int, int, int, int]

#: The facts of an instruction whose operands are not known at all.
_NO_FACTS: Facts = KB_TOP + KB_TOP


# Demand rules.  A use rule adds the demand of an instruction that
# writes no register; a source rule turns the demand ``d`` that a
# register write kills on rd into demand on the write's sources.

def _every_source_bit(dem: array, instr: Instruction, facts: Facts,
                      d: int = ALL_BITS) -> None:
    # A use rule (store address and value; indirect targets, where
    # ra % len mixes every bit) and a source rule (a load address, where
    # any bit redirects the load; FDIV operands) whatever ``d`` is.
    for reg in instr.source_regs:
        dem[reg] |= ALL_BITS


def _half_store_uses(dem: array, instr: Instruction, facts: Facts) -> None:
    dem[instr.ra] |= ALL_BITS  # address: carries cross word boundaries
    dem[instr.rb] |= STH_VALUE_DEMAND  # only the low half is stored


def _branch_uses(dem: array, instr: Instruction, facts: Facts) -> None:
    ko = facts[1]  # known-one bits of ra
    if ko:
        # The outcome is pinned by known-one bits.  Demanding one of
        # them keeps it golden, so every other bit of ra is free: no
        # single remaining deviation can zero the register.
        dem[instr.ra] |= ko & -ko
    else:
        dem[instr.ra] |= ALL_BITS


_USE_RULES = {
    Op.ST: _every_source_bit, Op.STH: _half_store_uses,
    Op.BEQZ: _branch_uses, Op.BNEZ: _branch_uses,
    Op.JMP: _every_source_bit, Op.RET: _every_source_bit,
}


def _no_sources(dem: array, instr: Instruction, facts: Facts,
                d: int) -> None:
    pass  # an immediate, or a call's link value pc+1: no data sources


def _carry_sources(dem: array, instr: Instruction, facts: Facts,
                   d: int) -> None:
    # Add, subtract, multiply: a source bit reaches result bits at and
    # above it (FMA's old rd is the addend).
    up = _up_to_msb(d)
    for reg in instr.source_regs:
        dem[reg] |= up


def _xor_sources(dem: array, instr: Instruction, facts: Facts,
                 d: int) -> None:
    for reg in instr.source_regs:
        dem[reg] |= d


def _and_sources(dem: array, instr: Instruction, facts: Facts,
                 d: int) -> None:
    # Asymmetric masking: a bit of one operand may ride free on the
    # *other* operand's known zero, but when both are known zero one
    # side stays demanded to anchor the golden 0.
    am, av, bm, bv = facts
    kz_a = am & ~av & MASK64
    kz_b = bm & ~bv & MASK64
    dem[instr.ra] |= d & ((~kz_b | kz_a) & MASK64)
    dem[instr.rb] |= d & (~kz_a & MASK64)


def _andi_sources(dem: array, instr: Instruction, facts: Facts,
                  d: int) -> None:
    dem[instr.ra] |= d & to_unsigned(instr.imm)


def _or_sources(dem: array, instr: Instruction, facts: Facts,
                d: int) -> None:
    ko_a, ko_b = facts[1], facts[3]  # known-one bits
    dem[instr.ra] |= d & ((~ko_b | ko_a) & MASK64)
    dem[instr.rb] |= d & (~ko_a & MASK64)


def _compare_sources(dem: array, instr: Instruction, facts: Facts,
                     d: int) -> None:
    if d & 1:  # result is 0/1; higher demanded bits never change
        _every_source_bit(dem, instr, facts)


def _shl_sources(dem: array, instr: Instruction, facts: Facts,
                 d: int) -> None:
    dem[instr.rb] |= _SHIFT_AMOUNT_BITS
    shift = _known_shift(facts[2], facts[3])
    if shift is not None:
        dem[instr.ra] |= d >> shift
    else:
        dem[instr.ra] |= _up_to_msb(d)


def _shr_sources(dem: array, instr: Instruction, facts: Facts,
                 d: int) -> None:
    dem[instr.rb] |= _SHIFT_AMOUNT_BITS
    shift = _known_shift(facts[2], facts[3])
    if shift is not None:
        dem[instr.ra] |= (d << shift) & MASK64
    else:
        dem[instr.ra] |= _above_lsb(d)


_SOURCE_RULES = {
    Op.LDI: _no_sources, Op.CALL: _no_sources,
    Op.LD: _every_source_bit, Op.FDIV: _every_source_bit,
    Op.ADD: _carry_sources, Op.SUB: _carry_sources, Op.FADD: _carry_sources,
    Op.MUL: _carry_sources, Op.FMUL: _carry_sources,
    Op.ADDI: _carry_sources, Op.FMA: _carry_sources,
    Op.XOR: _xor_sources, Op.XORI: _xor_sources,
    Op.AND: _and_sources, Op.ANDI: _andi_sources, Op.OR: _or_sources,
    Op.CMPLT: _compare_sources, Op.CMPEQ: _compare_sources,
    Op.SHL: _shl_sources, Op.SHR: _shr_sources,
}


#: The demand rules that consult forward facts: those of AND, OR, SHL,
#: SHR, BEQZ and BNEZ.
_FACT_RULES = frozenset({_and_sources, _or_sources, _shl_sources,
                         _shr_sources, _branch_uses})

#: One instruction decoded for the demand fixpoint, ``(instr, rule,
#: facts)``: ``rule`` is its source rule when it writes a register and
#: its use rule (or ``None``) when it does not.
_DemandStep = Tuple[Instruction, Optional[Callable[..., None]], Facts]


def _run_demand(dem: array, steps: Iterable[_DemandStep]) -> None:
    """Backward per-bit demand transfer through ``steps``, last
    instruction first.

    ``dem`` (mutated in place) holds the demand masks *after* the steps
    on entry and *before* them on exit.  A write to ``r0`` is
    discarded, so its sources are never observed through it.
    """
    for instr, rule, facts in steps:
        if instr.writes_reg:
            rd = instr.rd
            d = dem[rd]
            dem[rd] = 0  # the write kills rd's demand...
            if d:  # ...and passes it on to the sources
                rule(dem, instr, facts, d)
        elif rule is not None:
            rule(dem, instr, facts)
        dem[ZERO_REG] = 0  # r0 is hardwired; demands on it are vacuous


@dataclass
class BitLiveness:
    """Per-pc bit-demand and liveness facts for one program.

    ``before[pc]`` / ``after[pc]`` are 64-lane ``array('Q')`` rows: the
    demand mask of each architectural register immediately before /
    after the instruction at ``pc``.  Inside a block ``after[pc]`` is
    the same row object as ``before[pc + 1]``; treat rows as read-only.
    ``live_before[pc]`` and ``defined_later[pc]`` are set-level register
    masks used to name the masking class (dead vs overwritten vs
    no-output).
    """

    cfg: CFG
    before: List[array]
    after: List[array]
    live_before: List[int]
    defined_later: List[int]


def _demand_code(cfg: CFG, known_in: List[Optional[KnownBits]]
                 ) -> List[List[_DemandStep]]:
    """Per block, the demand step of each instruction, last one first.

    Each instruction's rule is decoded once, and its facts are fixed
    once the forward solution is known (an unreached block starts from
    the entry state).
    """
    code = []
    for block in cfg.blocks:
        state = known_in[block.index] or ENTRY_STATE
        masks, values = unpack(state[0]), unpack(state[1])
        steps: List[_DemandStep] = []
        for instr in block.instructions:
            rule = (_SOURCE_RULES[instr.op] if instr.writes_reg
                    else _USE_RULES.get(instr.op))
            if rule in _FACT_RULES:
                ra, rb = instr.ra, instr.rb
                steps.append((instr, rule, (masks[ra], values[ra],
                                            masks[rb], values[rb])))
            else:
                steps.append((instr, rule, _NO_FACTS))
            transfer_known_bits(masks, values, instr)
        steps.reverse()
        code.append(steps)
    return code


def solve_bit_liveness(cfg: CFG,
                       known_in: Optional[List[Optional[KnownBits]]] = None
                       ) -> BitLiveness:
    """Solve the backward per-bit demand fixpoint for ``cfg``."""
    if known_in is None:
        known_in = solve_known_bits(cfg)
    code = _demand_code(cfg, known_in)
    blocks = cfg.blocks
    n = len(blocks)

    # Block-level backward fixpoint on packed demand vectors.
    demand_in = [0] * n
    demand_out = [0] * n
    order = cfg.reachable()[::-1]
    first_sweep = True
    changed = True
    while changed:
        changed = False
        for index in order:
            block = blocks[index]
            out = 0
            for succ in block.successors:
                out |= demand_in[succ]
            if out != demand_out[index]:
                demand_out[index] = out
                changed = True
            elif not first_sweep:
                continue  # same output as the last visit: same input
            dem = unpack(out)
            _run_demand(dem, code[index])
            merged = demand_in[index] | pack(dem)
            if merged != demand_in[index]:
                demand_in[index] = merged
                changed = True
        first_sweep = False

    # Materialize per-pc demand rows, one backward sweep per block (every
    # pc lies in exactly one block, so every slot gets a row).
    before = [None] * len(cfg.program)
    after = [None] * len(cfg.program)
    for block in blocks:
        out = 0
        for succ in block.successors:
            out |= demand_in[succ]
        dem = unpack(out)
        pc = block.end
        for step in code[block.index]:
            pc -= 1
            after[pc] = dem
            dem = dem[:]
            _run_demand(dem, (step,))
            before[pc] = dem

    live_before, defined_later = _per_pc_liveness(cfg)
    return BitLiveness(cfg=cfg, before=before, after=after,
                       live_before=live_before, defined_later=defined_later)


def _per_pc_liveness(cfg: CFG) -> Tuple[List[int], List[int]]:
    """Per-pc (live-before, defined-at-or-after) register masks."""
    live_in, _ = solve_liveness(cfg)
    n = len(cfg.blocks)
    program_len = len(cfg.program)

    # defined-later: backward union of def masks, swept in postorder.
    def_in = [0] * n
    def_out = [0] * n
    order = cfg.reachable()[::-1]
    changed = True
    while changed:
        changed = False
        for index in order:
            block = cfg.blocks[index]
            out = 0
            for succ in block.successors:
                out |= def_in[succ]
            new_in = out | block.def_mask
            if out != def_out[index] or new_in != def_in[index]:
                def_out[index] = out
                def_in[index] = new_in
                changed = True

    live_before = [0] * program_len
    defined_later = [0] * program_len
    for block in cfg.blocks:
        live = 0
        defined = def_out[block.index]
        for succ in block.successors:
            live |= live_in[succ]
        reads, writes = block.read_masks, block.write_masks
        for offset in range(len(writes) - 1, -1, -1):
            write = writes[offset]
            defined |= write
            # r0 is never meaningfully live.
            live = (live & ~write | reads[offset]) & ~1
            pc = block.start + offset
            live_before[pc] = live
            defined_later[pc] = defined
    return live_before, defined_later
