"""Reference solver for the bit-level valueflow lattices.

A verbatim copy of :mod:`repro.analysis.valueflow` as it stood before
its fixpoints moved to packed 64x64-bit states: one ``KnownBits``
dataclass per register, dict states joined register by register, and
64-entry demand lists.  It is slow on purpose — nothing here was tuned
— and the packed solver must reproduce every in-state, demand row and
liveness mask it computes (``tests/test_valueflow_reference.py``).

:func:`canonical_known` turns either solver's known-bits in-states
into one comparable form, :func:`assert_known_fixpoint` checks either
solver's in-states against this module's transfer and join, and
:func:`register_class_counts` is the AVF analyzer's per-pc class count
as it stood beside this solver.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import CFG
from repro.analysis.dataflow import solve_liveness
from repro.analysis.valueflow import unpack
from repro.isa.executor import alu_result
from repro.isa.instructions import (NUM_ARCH_REGS, ZERO_REG, Instruction, Op)
from repro.util.bits import MASK64, to_unsigned


def written_reg(instr: Instruction) -> Optional[int]:
    """The architectural register defined by ``instr`` (None if none):
    ``repro.analysis.dataflow.written_reg`` as it stood beside this
    solver."""
    return instr.rd if instr.writes_reg else None


ALL_BITS = MASK64

#: Registers per thread; demand states are lists of this length.
_REGS = NUM_ARCH_REGS


# ---------------------------------------------------------------------------
# Known bits (forward)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnownBits:
    """Partial knowledge of a 64-bit value.

    ``mask`` selects the known bit positions; ``value`` holds their
    values (``value & ~mask == 0`` invariant).  ``mask == 0`` is the
    lattice top (nothing known); ``mask == MASK64`` is a constant.
    """

    mask: int
    value: int

    def __post_init__(self) -> None:
        if self.value & ~self.mask & MASK64:
            raise ValueError("KnownBits value outside mask")

    @property
    def known_zero(self) -> int:
        return self.mask & ~self.value & MASK64

    @property
    def known_one(self) -> int:
        return self.value

    @property
    def is_constant(self) -> bool:
        return self.mask == MASK64

    def join(self, other: "KnownBits") -> "KnownBits":
        """Lattice meet at a CFG merge: keep agreeing known bits."""
        mask = self.mask & other.mask & ~(self.value ^ other.value) & MASK64
        return KnownBits(mask, self.value & mask)


KB_TOP = KnownBits(0, 0)
KB_ZERO = KnownBits(MASK64, 0)


def kb_const(value: int) -> KnownBits:
    return KnownBits(MASK64, to_unsigned(value))


def kb_not(a: KnownBits) -> KnownBits:
    return KnownBits(a.mask, a.known_zero)


def kb_add(a: KnownBits, b: KnownBits, carry_in: int = 0) -> KnownBits:
    """Known bits of ``a + b + carry_in`` (the LLVM carry-extremes rule).

    ``possible_sum_one``/``possible_sum_zero`` are the sums with every
    unknown bit set to its minimum / maximum; a result bit is known
    where both operand bits and the incoming carry are known, which is
    exactly where the two extreme sums agree.
    """
    a_zero, a_one = a.known_zero, a.known_one
    b_zero, b_one = b.known_zero, b.known_one
    a_max = (a.value | ~a.mask) & MASK64
    b_max = (b.value | ~b.mask) & MASK64
    possible_sum_zero = (a_max + b_max + carry_in) & MASK64
    possible_sum_one = (a.value + b.value + carry_in) & MASK64
    carry_known_zero = ~(possible_sum_zero ^ a_zero ^ b_zero) & MASK64
    carry_known_one = (possible_sum_one ^ a_one ^ b_one) & MASK64
    known = a.mask & b.mask & (carry_known_zero | carry_known_one)
    # Belt and braces: only keep bits where both extreme sums agree.
    known &= ~(possible_sum_zero ^ possible_sum_one) & MASK64
    return KnownBits(known, possible_sum_one & known)


def kb_sub(a: KnownBits, b: KnownBits) -> KnownBits:
    return kb_add(a, kb_not(b), carry_in=1)


def kb_mul(a: KnownBits, b: KnownBits) -> KnownBits:
    """Low bits of a product: ``a*b mod 2**k`` depends only on the low
    ``k`` bits of each operand, so the longest fully-known low runs of
    the operands pin the same run of the product."""
    if a.is_constant and b.is_constant:
        return kb_const(a.value * b.value)
    ka = _trailing_known(a.mask)
    kb = _trailing_known(b.mask)
    k = min(ka, kb)
    if k == 0:
        return KB_TOP
    low = (1 << k) - 1
    return KnownBits(low, (a.value * b.value) & low)


def _trailing_known(mask: int) -> int:
    """Length of the contiguous known run starting at bit 0."""
    inverted = ~mask & MASK64
    if inverted == 0:
        return 64
    return (inverted & -inverted).bit_length() - 1


def kb_and(a: KnownBits, b: KnownBits) -> KnownBits:
    one = a.known_one & b.known_one
    zero = (a.known_zero | b.known_zero) & MASK64
    return KnownBits(one | zero, one)


def kb_or(a: KnownBits, b: KnownBits) -> KnownBits:
    one = (a.known_one | b.known_one) & MASK64
    zero = a.known_zero & b.known_zero
    return KnownBits(one | zero, one)


def kb_xor(a: KnownBits, b: KnownBits) -> KnownBits:
    mask = a.mask & b.mask
    return KnownBits(mask, (a.value ^ b.value) & mask)


def _known_shift(b: KnownBits) -> Optional[int]:
    """The shift amount ``b & 63`` when its low six bits are known."""
    if b.mask & 63 == 63:
        return b.value & 63
    return None


def kb_shl(a: KnownBits, b: KnownBits) -> KnownBits:
    shift = _known_shift(b)
    if shift is None:
        return KB_TOP
    mask = ((a.mask << shift) | ((1 << shift) - 1)) & MASK64
    return KnownBits(mask, (a.value << shift) & mask)


def kb_shr(a: KnownBits, b: KnownBits) -> KnownBits:
    shift = _known_shift(b)
    if shift is None:
        return KB_TOP
    high = ~(MASK64 >> shift) & MASK64
    mask = (a.mask >> shift) | high
    return KnownBits(mask, a.value >> shift)


#: ALU result lattice transfers, keyed by opcode.  ``imm`` operands are
#: folded into a constant second argument by :func:`transfer_known_bits`.
_KB_BINOPS = {
    Op.ADD: kb_add, Op.FADD: kb_add,
    Op.SUB: kb_sub,
    Op.MUL: kb_mul, Op.FMUL: kb_mul,
    Op.AND: kb_and, Op.ANDI: kb_and,
    Op.OR: kb_or,
    Op.XOR: kb_xor, Op.XORI: kb_xor,
    Op.SHL: kb_shl,
    Op.SHR: kb_shr,
}

KnownState = Dict[int, KnownBits]  # reg -> KnownBits (absent = TOP)


def _kb_read(state: KnownState, reg: int) -> KnownBits:
    if reg == ZERO_REG:
        return KB_ZERO
    return state.get(reg, KB_TOP)


def transfer_known_bits(state: KnownState, instr: Instruction) -> KnownState:
    """Apply one instruction to a known-bits state (mutates ``state``)."""
    reg = written_reg(instr)
    if instr.is_call and instr.rd != ZERO_REG:
        # Mirrors the constant solver: link values are treated opaque.
        state.pop(instr.rd, None)
        return state
    if reg is None:
        return state
    op = instr.op
    if op is Op.LD or op is Op.FDIV:
        state.pop(reg, None)
        return state
    a = _kb_read(state, instr.ra)
    if op is Op.LDI:
        result = kb_const(instr.imm)
    elif op in (Op.ADDI, Op.ANDI, Op.XORI):
        fn = kb_add if op is Op.ADDI else _KB_BINOPS[op]
        result = fn(a, kb_const(instr.imm))
    elif op in (Op.CMPLT, Op.CMPEQ):
        b = _kb_read(state, instr.rb)
        if a.is_constant and b.is_constant:
            result = kb_const(alu_result(instr, a.value, b.value))
        else:
            result = KnownBits(MASK64 & ~1, 0)  # result is 0 or 1
    elif op is Op.FMA:
        b = _kb_read(state, instr.rb)
        c = _kb_read(state, instr.rd)
        result = kb_add(kb_mul(a, b), c)
    elif op in _KB_BINOPS:
        result = _KB_BINOPS[op](a, _kb_read(state, instr.rb))
    else:  # pragma: no cover - every reg-writing op is handled above
        result = KB_TOP
    if result.mask:
        state[reg] = result
    else:
        state.pop(reg, None)
    return state


def _join_known(states: List[Optional[KnownState]]) -> KnownState:
    live = [s for s in states if s is not None]
    if not live:
        return {}
    result = dict(live[0])
    for other in live[1:]:
        for reg in list(result):
            merged = result[reg].join(other.get(reg, KB_TOP))
            if merged.mask:
                result[reg] = merged
            else:
                del result[reg]
    return result


def solve_known_bits(cfg: CFG) -> List[Optional[KnownState]]:
    """Per-block IN known-bits states (``None`` for unreached blocks)."""
    n = len(cfg.blocks)
    in_states: List[Optional[KnownState]] = [None] * n
    out_states: List[Optional[KnownState]] = [None] * n
    in_states[cfg.entry] = {}
    worklist = [cfg.entry]
    on_list = [False] * n
    on_list[cfg.entry] = True
    iterations = 0
    limit = 130 * n + 256  # chain height is 64 bits/reg; ample safety net
    while worklist and iterations < limit:
        iterations += 1
        index = worklist.pop(0)
        on_list[index] = False
        block = cfg.blocks[index]
        if index != cfg.entry or block.predecessors:
            preds = [out_states[p] for p in block.predecessors]
            merged = _join_known(preds)
            if index == cfg.entry:
                merged = _join_known([merged, in_states[index] or {}])
            in_states[index] = merged
        state = dict(in_states[index] or {})
        for instr in block.instructions:
            transfer_known_bits(state, instr)
        if out_states[index] != state:
            out_states[index] = state
            for succ in block.successors:
                if not on_list[succ]:
                    worklist.append(succ)
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


class _PcContext:
    """Forward facts the backward transfer needs at one pc.

    Only facts about *demanded* operand bits are consulted (see module
    docstring), so storing a handful of masks per pc is enough.
    """

    __slots__ = ("kz_a", "kz_b", "ko_a", "ko_b", "shift")

    def __init__(self, kz_a: int = 0, kz_b: int = 0, ko_a: int = 0,
                 ko_b: int = 0, shift: Optional[int] = None) -> None:
        self.kz_a = kz_a
        self.kz_b = kz_b
        self.ko_a = ko_a
        self.ko_b = ko_b
        self.shift = shift


_EMPTY_CTX = _PcContext()


def _context_for(instr: Instruction, state: KnownState) -> _PcContext:
    op = instr.op
    if op is Op.AND:
        a, b = _kb_read(state, instr.ra), _kb_read(state, instr.rb)
        return _PcContext(kz_a=a.known_zero, kz_b=b.known_zero)
    if op is Op.ANDI:
        a = _kb_read(state, instr.ra)
        return _PcContext(kz_a=a.known_zero)
    if op is Op.OR:
        a, b = _kb_read(state, instr.ra), _kb_read(state, instr.rb)
        return _PcContext(ko_a=a.known_one, ko_b=b.known_one)
    if op in (Op.SHL, Op.SHR):
        return _PcContext(shift=_known_shift(_kb_read(state, instr.rb)))
    if op in (Op.BEQZ, Op.BNEZ):
        a = _kb_read(state, instr.ra)
        return _PcContext(ko_a=a.known_one)
    return _EMPTY_CTX


def demand_transfer(dem: List[int], instr: Instruction,
                    ctx: _PcContext = _EMPTY_CTX) -> None:
    """Backward per-bit demand transfer for one instruction.

    ``dem`` (mutated in place) holds the demand masks *after* the
    instruction on entry and *before* it on exit.
    """
    op = instr.op
    if op in (Op.NOP, Op.MEMBAR, Op.HALT, Op.BR):
        return
    if op is Op.ST:
        dem[instr.ra] |= ALL_BITS  # address: carries cross word boundaries
        dem[instr.rb] |= ALL_BITS  # value crosses the sphere as-is
    elif op is Op.STH:
        dem[instr.ra] |= ALL_BITS
        dem[instr.rb] |= STH_VALUE_DEMAND  # only the low half is stored
    elif op in (Op.BEQZ, Op.BNEZ):
        ko = ctx.ko_a
        if ko:
            # The outcome is pinned by known-one bits.  Demanding one of
            # them keeps it golden, so every other bit of ra is free: no
            # single remaining deviation can zero the register.
            dem[instr.ra] |= ko & -ko
        else:
            dem[instr.ra] |= ALL_BITS
    elif op in (Op.JMP, Op.RET):
        dem[instr.ra] |= ALL_BITS  # target = ra % len mixes every bit
    elif op is Op.CALL:
        if instr.rd != ZERO_REG:
            dem[instr.rd] = 0  # link value is pc+1: no data sources
    else:
        # Register-writing ALU/load ops: kill the dest, then add source
        # demands derived from the killed demand.
        rd = instr.rd
        if rd == ZERO_REG:
            return  # write discarded; sources never observed through it
        d = dem[rd]
        dem[rd] = 0
        if d == 0:
            return
        if op is Op.LD:
            dem[instr.ra] |= ALL_BITS  # any address bit redirects the load
        elif op in (Op.ADD, Op.SUB, Op.FADD):
            up = _up_to_msb(d)
            dem[instr.ra] |= up
            dem[instr.rb] |= up
        elif op is Op.ADDI:
            dem[instr.ra] |= _up_to_msb(d)
        elif op in (Op.MUL, Op.FMUL):
            up = _up_to_msb(d)
            dem[instr.ra] |= up
            dem[instr.rb] |= up
        elif op is Op.FMA:
            up = _up_to_msb(d)
            dem[instr.ra] |= up
            dem[instr.rb] |= up
            dem[rd] |= up  # old rd is the addend
        elif op is Op.FDIV:
            dem[instr.ra] |= ALL_BITS
            dem[instr.rb] |= ALL_BITS
        elif op is Op.AND:
            # Asymmetric masking: a bit of one operand may ride free on
            # the *other* operand's known zero, but when both are known
            # zero one side stays demanded to anchor the golden 0.
            dem[instr.ra] |= d & ((~ctx.kz_b | ctx.kz_a) & MASK64)
            dem[instr.rb] |= d & (~ctx.kz_a & MASK64)
        elif op is Op.ANDI:
            dem[instr.ra] |= d & to_unsigned(instr.imm)
        elif op is Op.OR:
            dem[instr.ra] |= d & ((~ctx.ko_b | ctx.ko_a) & MASK64)
            dem[instr.rb] |= d & (~ctx.ko_a & MASK64)
        elif op is Op.XOR:
            dem[instr.ra] |= d
            dem[instr.rb] |= d
        elif op is Op.XORI:
            dem[instr.ra] |= d
        elif op in (Op.CMPLT, Op.CMPEQ):
            if d & 1:  # result is 0/1; higher demanded bits never change
                dem[instr.ra] |= ALL_BITS
                dem[instr.rb] |= ALL_BITS
        elif op is Op.SHL:
            dem[instr.rb] |= _SHIFT_AMOUNT_BITS
            if ctx.shift is not None:
                dem[instr.ra] |= d >> ctx.shift
            else:
                dem[instr.ra] |= _up_to_msb(d)
        elif op is Op.SHR:
            dem[instr.rb] |= _SHIFT_AMOUNT_BITS
            if ctx.shift is not None:
                dem[instr.ra] |= (d << ctx.shift) & MASK64
            else:
                dem[instr.ra] |= _above_lsb(d)
        elif op is Op.LDI:
            pass  # immediate: no data sources
        else:  # pragma: no cover - exhaustive over reg-writing ops
            dem[instr.ra] |= ALL_BITS
            dem[instr.rb] |= ALL_BITS
    dem[ZERO_REG] = 0  # r0 is hardwired; demands on it are vacuous


@dataclass
class BitLiveness:
    """Per-pc bit-demand and liveness facts for one program.

    ``before[pc]`` / ``after[pc]`` are 64-entry lists: the demand mask
    of each architectural register immediately before / after the
    instruction at ``pc``.  ``live_before[pc]`` and
    ``defined_later[pc]`` are set-level register masks used to name the
    masking class (dead vs overwritten vs no-output).
    """

    cfg: CFG
    before: List[List[int]]
    after: List[List[int]]
    live_before: List[int]
    defined_later: List[int]


def _or_lists(target: List[int], source: List[int]) -> bool:
    changed = False
    for index, value in enumerate(source):
        merged = target[index] | value
        if merged != target[index]:
            target[index] = merged
            changed = True
    return changed


def solve_bit_liveness(cfg: CFG,
                       known_in: Optional[List[Optional[KnownState]]] = None
                       ) -> BitLiveness:
    """Solve the backward per-bit demand fixpoint for ``cfg``."""
    if known_in is None:
        known_in = solve_known_bits(cfg)
    n = len(cfg.blocks)
    program_len = len(cfg.program)

    # Per-pc forward contexts (fixed once the forward solution is known).
    contexts: List[_PcContext] = [_EMPTY_CTX] * program_len
    for block in cfg.blocks:
        state = dict(known_in[block.index] or {})
        for pc, instr in zip(block.pcs(), block.instructions):
            contexts[pc] = _context_for(instr, state)
            transfer_known_bits(state, instr)

    # Block-level backward fixpoint on 64-entry demand vectors.
    demand_in: List[List[int]] = [[0] * _REGS for _ in range(n)]
    demand_out: List[List[int]] = [[0] * _REGS for _ in range(n)]
    order = list(reversed(cfg.reachable()))
    changed = True
    while changed:
        changed = False
        for index in order:
            block = cfg.blocks[index]
            out = demand_out[index]
            for succ in block.successors:
                if _or_lists(out, demand_in[succ]):
                    changed = True
            dem = list(out)
            for pc in range(block.end - 1, block.start - 1, -1):
                demand_transfer(dem, cfg.program.instructions[pc],
                                contexts[pc])
            if _or_lists(demand_in[index], dem):
                changed = True

    # Materialize per-pc demand vectors (one backward sweep per block).
    before: List[List[int]] = [[0] * _REGS for _ in range(program_len)]
    after: List[List[int]] = [[0] * _REGS for _ in range(program_len)]
    for block in cfg.blocks:
        dem = [0] * _REGS
        for succ in block.successors:
            _or_lists(dem, demand_in[succ])
        for pc in range(block.end - 1, block.start - 1, -1):
            after[pc] = list(dem)
            demand_transfer(dem, cfg.program.instructions[pc], contexts[pc])
            before[pc] = list(dem)

    live_before, defined_later = _per_pc_liveness(cfg)
    return BitLiveness(cfg=cfg, before=before, after=after,
                       live_before=live_before, defined_later=defined_later)


def _per_pc_liveness(cfg: CFG) -> Tuple[List[int], List[int]]:
    """Per-pc (live-before, defined-at-or-after) register masks."""
    live_in, _ = solve_liveness(cfg)
    n = len(cfg.blocks)
    program_len = len(cfg.program)

    # defined-later: backward union of def masks.
    def_in = [0] * n
    def_out = [0] * n
    order = list(reversed(cfg.reachable()))
    changed = True
    while changed:
        changed = False
        for index in order:
            block = cfg.blocks[index]
            out = 0
            for succ in block.successors:
                out |= def_in[succ]
            new_in = out
            for instr in block.instructions:
                reg = written_reg(instr)
                if reg is not None:
                    new_in |= 1 << reg
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
        for pc in range(block.end - 1, block.start - 1, -1):
            instr = cfg.program.instructions[pc]
            reg = written_reg(instr)
            if reg is not None:
                live &= ~(1 << reg)
                defined |= 1 << reg
            for src in instr.source_regs:
                live |= 1 << src
            live &= ~1  # r0 is never meaningfully live
            live_before[pc] = live
            defined_later[pc] = defined
    return live_before, defined_later


def canonical_known(states: List[Optional[object]]
                    ) -> List[Optional[List[List[int]]]]:
    """Per block: ``None`` (unreached) or the ``[reg, mask, value]`` row
    of every register with a known bit, in register order.

    Takes this module's dict states or the packed ``(mask, value)``
    vector pairs of :func:`repro.analysis.valueflow.solve_known_bits`,
    whose lane 0 (the hardwired ``r0``) is left out like the absent
    ``r0`` of a dict state.
    """
    rows: List[Optional[List[List[int]]]] = []
    for state in states:
        if state is None:
            rows.append(None)
        elif isinstance(state, dict):
            rows.append([[reg, kb.mask, kb.value]
                         for reg, kb in sorted(state.items())])
        else:
            masks, values = unpack(state[0]), unpack(state[1])
            rows.append([[reg, masks[reg], values[reg]]
                         for reg in range(1, NUM_ARCH_REGS) if masks[reg]])
    return rows


def assert_known_fixpoint(cfg: CFG, states: List[Optional[object]]) -> None:
    """``states`` (from either solver) are a fixpoint of this module's
    transfer and join: the entry starts from nothing known, every
    successor of a reached block is reached, and every other reached
    block starts from the join of its reached predecessors' outputs."""
    known = [None if rows is None else
             {reg: KnownBits(mask, value) for reg, mask, value in rows}
             for rows in canonical_known(states)]
    assert known[cfg.entry] == {}
    outs: List[Optional[KnownState]] = []
    for block, state in zip(cfg.blocks, known):
        out = None
        if state is not None:
            out = dict(state)
            for instr in block.instructions:
                transfer_known_bits(out, instr)
            for succ in block.successors:
                assert known[succ] is not None, f"block {succ} unreached"
        outs.append(out)
    for block, state in zip(cfg.blocks, known):
        if state is not None and block.index != cfg.entry:
            joined = _join_known([outs[pred] for pred in block.predecessors])
            assert state == joined, f"block {block.index}: not a fixpoint"


def register_class_counts(bitlive: BitLiveness, pc: int) -> Dict[str, int]:
    """``ProgramAVF.register_class_counts`` as it stood with this solver:
    bit counts per masking class over registers 1..63 at one pc, one
    register at a time."""
    counts = {cls: 0 for cls in
              ("dead", "overwritten", "no-output", "logic-masked", "ace")}
    before = bitlive.before[pc]
    live = bitlive.live_before[pc]
    later = bitlive.defined_later[pc]
    for reg in range(1, NUM_ARCH_REGS):
        demand = before[reg]
        if demand:
            ace = demand.bit_count()
            counts["ace"] += ace
            counts["logic-masked"] += 64 - ace
        elif (live >> reg) & 1:
            counts["no-output"] += 64
        elif (later >> reg) & 1:
            counts["overwritten"] += 64
        else:
            counts["dead"] += 64
    return counts
