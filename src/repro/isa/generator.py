"""Synthetic benchmark generator.

Turns a :class:`~repro.isa.profiles.WorkloadProfile` into a concrete
RISC-R :class:`~repro.isa.program.Program`.  Programs are *real code*:
branch outcomes come from an in-program linear congruential generator
(so they are deterministic yet genuinely hard to predict), memory
addresses from strided or pseudo-random cursors over a working set, and
every value is actually computed — which is what lets redundant threads
be compared instruction-for-instruction and lets injected faults
propagate realistically.

Program shape::

    prologue            (register initialisation, runs once)
    main block 0..N-1   (loops, conditional branches, calls, indirect
                         jumps between them; last block branches back
                         to block 0, so programs run indefinitely)
    subroutines         (leaf code reached by CALL, ending in RET)

All randomness comes from the (profile, seed) pair.
"""

from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instructions import ZERO_REG, Instruction, Op
from repro.isa.profiles import WorkloadProfile
from repro.isa.program import Program
from repro.util.rng import DeterministicRng

# -- register conventions -------------------------------------------------
R_LCG = 1        # linear congruential generator state
R_BASE = 2       # data-region base address
R_CURSOR = 3     # strided byte cursor into the working set
R_MASK = 4       # working-set byte mask (size - 1)
R_SHIFT = 5      # constant shift amount for extracting LCG bits
R_COND = 6       # scratch register for branch conditions
R_LCGMUL = 7     # LCG multiplier constant
R_ADDR = (8, 9, 10, 11)   # load/store address registers
R_LOOP = (12, 13, 14)     # nested loop counters
R_JTARGET = 15   # indirect-jump target
MAIN_POOL = tuple(range(16, 40))  # main-region computation registers
R_CURSORS = (40, 41, 42, 43)      # independent working-set byte cursors,
                                  # paired 1:1 with R_ADDR (ILP: four
                                  # independent address chains)
R_LCGS = (1, 44, 45, 46)          # independent LCG states (r1 doubles as
                                  # the branch-condition state)
SUB_POOL = tuple(range(48, 56))   # subroutine computation registers
R_TABLE = 56     # jump-table base address
R_C3 = 57        # constant 3 (shift for word indexing)
R_SHIFTS = (5, 58, 59, 60, 61)    # constant shift amounts (bit windows)
SHIFT_VALUES = (29, 17, 41, 7, 51)
R_LINK = 62      # call/return link register

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 40507
LCG_SHIFT = 29

DATA_BASE = 0x2000_0000
TABLE_BASE = 0x1F00_0000
JUMP_TABLE_SLOTS = 8
MAX_LOAD_OFFSET_WORDS = 32
INIT_DATA_WORDS = 4096

_INT_ALU_OPS = (Op.ADD, Op.SUB, Op.CMPLT, Op.CMPEQ)
_LOGIC_OPS = (Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR)
_FP_OPS = (Op.FADD, Op.FMUL, Op.FMA)
#: The block bodies' other opcodes, read once: on Python 3.11 reading an
#: ``Op`` member costs about ten times a global read.
_LD, _ST, _STH, _MUL, _FDIV, _MEMBAR = (Op.LD, Op.ST, Op.STH, Op.MUL,
                                        Op.FDIV, Op.MEMBAR)

#: A symbolic branch target: ``('main'|'sub'|'loop', block index)``.
_SymTarget = Tuple[str, int]


class _Block:
    """One block's instructions.  A block that ends in a branch to a
    symbolic target keeps that branch as ``exit``, ``(op, rd, ra,
    target)``, until the layout fixes where its target starts."""

    __slots__ = ("key", "items", "emit", "exit", "loop_init_len")

    def __init__(self, key: _SymTarget) -> None:
        self.key = key
        self.items: List[Instruction] = []
        self.emit = self.items.append
        self.exit: Optional[Tuple[Op, int, int, _SymTarget]] = None
        #: Instructions before the loop-back target.
        self.loop_init_len = 0

    def branch(self, op: Op, target: _SymTarget, rd: int = ZERO_REG,
               ra: int = ZERO_REG) -> None:
        """End the block with ``op`` to the symbolic ``target``."""
        self.exit = (op, rd, ra, target)

    def __len__(self) -> int:
        return len(self.items) + (self.exit is not None)


class _PoolAllocator:
    """Rotating destination allocator that remembers recent results."""

    def __init__(self, pool: Tuple[int, ...], rng: DeterministicRng,
                 dep_density: float) -> None:
        self._pool = pool
        self._random = rng.random
        self._choice = rng.choice
        self._dep_density = dep_density
        self._cursor = 0
        self._recent: List[int] = list(pool[:3])

    def next_dest(self) -> int:
        reg = self._pool[self._cursor % len(self._pool)]
        self._cursor += 1
        recent = self._recent
        recent.append(reg)
        if len(recent) > 3:
            recent.pop(0)
        return reg

    def source(self) -> int:
        if self._random() < self._dep_density:
            return self._choice(self._recent)
        return self._choice(self._pool)


class ProgramGenerator:
    """Generates one synthetic benchmark from a profile and seed."""

    def __init__(self, profile: WorkloadProfile, seed: int = 0) -> None:
        self.profile = profile
        self.rng = DeterministicRng("workload", profile.name, seed)
        self.seed = seed
        self._addr_rotation = 0
        self._mixed_toggle = 0

    # -- public entry point ------------------------------------------
    def generate(self, verify: bool = True) -> Program:
        """Generate the program; by default, statically verify it.

        The verifier (:func:`repro.analysis.checks.gate_program`) is the
        generator's mandatory validity gate: a program with
        ERROR-severity findings (definitely-uninitialized reads,
        statically out-of-bounds stores, control running off the end)
        raises :class:`~repro.analysis.checks.ProgramVerificationError`
        instead of being handed to a machine.  ``verify=False`` skips
        the gate for callers that run the full verifier themselves.
        """
        profile = self.profile
        main_pool = _PoolAllocator(MAIN_POOL, self.rng.derive("main-pool"),
                                   profile.dep_density)
        sub_pool = _PoolAllocator(SUB_POOL, self.rng.derive("sub-pool"),
                                  profile.dep_density)

        prologue = self._build_prologue()
        main_blocks = [_Block(("main", i)) for i in range(profile.blocks)]
        sub_blocks = [_Block(("sub", i)) for i in range(profile.subroutines)]

        self._fill_subroutines(sub_blocks, sub_pool)
        self._fill_main_blocks(main_blocks, main_pool,
                               n_subs=len(sub_blocks))

        program = self._link(prologue, main_blocks, sub_blocks)
        program.metadata.update(profile=profile.name, seed=self.seed,
                                description=profile.description)
        if verify:
            _gate(program)
        return program

    # -- prologue -----------------------------------------------------
    def _build_prologue(self) -> List[Instruction]:
        profile = self.profile
        randint = self.rng.derive("prologue").randint
        ws_bytes = profile.working_set_words * 8
        instrs = [
            Instruction(Op.LDI, rd=R_LCGMUL, imm=LCG_MULTIPLIER),
        ]
        for reg in R_LCGS:
            instrs.append(
                Instruction(Op.LDI, rd=reg, imm=randint(1, (1 << 62))))
        instrs += [
            Instruction(Op.LDI, rd=R_BASE, imm=DATA_BASE),
            Instruction(Op.LDI, rd=R_CURSOR, imm=0),
            Instruction(Op.LDI, rd=R_MASK, imm=ws_bytes - 1),
            Instruction(Op.LDI, rd=R_TABLE, imm=TABLE_BASE),
            Instruction(Op.LDI, rd=R_C3, imm=3),
        ]
        for reg, value in zip(R_SHIFTS, SHIFT_VALUES):
            instrs.append(Instruction(Op.LDI, rd=reg, imm=value))
        for offset, (reg, cursor) in enumerate(zip(R_ADDR, R_CURSORS)):
            start = (offset * ws_bytes // len(R_ADDR)) & (ws_bytes - 1)
            instrs.append(Instruction(Op.LDI, rd=reg, imm=DATA_BASE + start))
            instrs.append(Instruction(Op.LDI, rd=cursor, imm=start))
        for reg in (*MAIN_POOL, *SUB_POOL):
            instrs.append(
                Instruction(Op.LDI, rd=reg, imm=randint(0, (1 << 32))))
        for reg in R_LOOP:
            # Zero the loop counters so the guarded loop tails (cmplt
            # against zero) are well-defined even when a forward branch or
            # indirect jump enters a loop body without passing the counter
            # initialisation: a zero counter fails the guard and exits the
            # loop immediately.  This also makes the dataflow verifier's
            # A1 (definitely-uninitialized read) check hold on every path.
            instrs.append(Instruction(Op.LDI, rd=reg, imm=0))
        instrs.append(Instruction(Op.LDI, rd=R_LINK, imm=0))
        return instrs

    # -- block bodies ---------------------------------------------------
    def _body_kinds(self, size: int,
                    random: Callable[[], float]) -> List[str]:
        profile = self.profile
        # Cumulative thresholds, summed in the order the draws compare.
        load = profile.load_frac
        store = load + profile.store_frac
        fp = store + profile.fp_frac
        mul = fp + profile.mul_frac
        membar = profile.membar_frac
        kinds: List[str] = []
        append = kinds.append
        for _ in range(size):
            draw = random()
            if draw < load:
                append("load")
            elif draw < store:
                append("store")
            elif draw < fp:
                append("fp")
            elif draw < mul:
                append("mul")
            else:
                append("alu")
            if random() < membar:
                append("membar")
        # Stencil-style ordering within small windows: gather loads early,
        # compute, write results back — producing the short store bursts
        # that pressure the store queue (uniformly spread stores would
        # understate Section 7.1's effect, while sorting the whole block
        # would overstate it into runs real code never has).
        order = {"load": 0, "alu": 1, "mul": 1, "fp": 1, "membar": 2,
                 "store": 3}
        window = 10
        clustered: List[str] = []
        for start in range(0, len(kinds), window):
            chunk = kinds[start:start + window]
            chunk.sort(key=order.__getitem__)
            clustered.extend(chunk)
        return clustered

    def _emit_addr_refresh(self, block: _Block, rng: DeterministicRng) -> int:
        """Advance a working-set cursor and point an address register at it.

        Four independent cursor/address register pairs rotate, so address
        arithmetic forms four short dependence chains instead of one long
        serial one — matching the independent array streams of the codes
        being modelled.
        """
        profile = self.profile
        slot = self._addr_rotation % len(R_ADDR)
        self._addr_rotation += 1
        reg = R_ADDR[slot]
        cursor = R_CURSORS[slot]
        pattern = profile.access_pattern
        if pattern == "mixed":
            self._mixed_toggle += 1
            pattern = "strided" if self._mixed_toggle % 2 else "random"
        if pattern == "strided":
            stride = profile.stride_words * 8
            block.emit(Instruction(Op.ADDI, rd=cursor, ra=cursor, imm=stride))
            block.emit(Instruction(Op.AND, rd=cursor, ra=cursor, rb=R_MASK))
            block.emit(Instruction(Op.ADD, rd=reg, ra=R_BASE, rb=cursor))
        else:
            state = R_LCGS[slot]
            self._emit_lcg_step(block, state)
            block.emit(Instruction(Op.SHR, rd=cursor, ra=state,
                                   rb=self._shift_reg(rng)))
            block.emit(Instruction(Op.AND, rd=cursor, ra=cursor, rb=R_MASK))
            block.emit(Instruction(Op.ADD, rd=reg, ra=R_BASE, rb=cursor))
        return reg

    def _emit_lcg_step(self, block: _Block, state: int = R_LCG) -> None:
        block.emit(Instruction(Op.MUL, rd=state, ra=state, rb=R_LCGMUL))
        block.emit(Instruction(Op.ADDI, rd=state, ra=state, imm=LCG_INCREMENT))

    def _emit_body(self, block: _Block, pool: _PoolAllocator, size: int,
                   rng: DeterministicRng) -> None:
        randint, random, choice = rng.randint, rng.random, rng.choice
        kinds = self._body_kinds(size, random)
        addr_reg = R_ADDR[self._addr_rotation % len(R_ADDR)]
        if "load" in kinds or "store" in kinds:
            # Refresh the cursor only some of the time; reusing a previous
            # address register models spatial locality and keeps address
            # arithmetic from dominating the mix.
            if random() < 0.6:
                addr_reg = self._emit_addr_refresh(block, rng)
        emit = block.emit
        next_dest, source = pool.next_dest, pool.source
        partial_store_frac = self.profile.partial_store_frac
        for kind in kinds:
            if kind == "load":
                offset = 8 * randint(0, MAX_LOAD_OFFSET_WORDS - 1)
                emit(Instruction(_LD, rd=next_dest(), ra=addr_reg,
                                 imm=offset))
            elif kind == "store":
                offset = 8 * randint(0, MAX_LOAD_OFFSET_WORDS - 1)
                op = _STH if random() < partial_store_frac else _ST
                if op is _STH and random() < 0.5:
                    offset += 4  # store into the high half of the word
                emit(Instruction(op, ra=addr_reg, imm=offset, rb=source()))
            elif kind == "fp":
                op = _FDIV if random() < 0.05 else choice(_FP_OPS)
                emit(Instruction(op, rd=next_dest(), ra=source(),
                                 rb=source()))
            elif kind == "mul":
                emit(Instruction(_MUL, rd=next_dest(), ra=source(),
                                 rb=source()))
            elif kind == "membar":
                emit(Instruction(_MEMBAR))
            else:
                use_logic = random() < 0.45
                op = choice(_LOGIC_OPS if use_logic else _INT_ALU_OPS)
                emit(Instruction(op, rd=next_dest(), ra=source(),
                                 rb=source()))

    # -- terminators ----------------------------------------------------
    def _shift_reg(self, rng: DeterministicRng) -> int:
        return rng.choice(R_SHIFTS)

    def _emit_random_branch(self, block: _Block, target: _SymTarget,
                            rng: DeterministicRng) -> None:
        """A genuinely 50/50 LCG-driven forward branch."""
        self._emit_lcg_step(block)
        block.emit(Instruction(Op.SHR, rd=R_COND, ra=R_LCG,
                               rb=self._shift_reg(rng)))
        block.emit(Instruction(Op.ANDI, rd=R_COND, ra=R_COND, imm=1))
        block.branch(Op.BNEZ, target, ra=R_COND)

    def _emit_biased_branch(self, block: _Block, target: _SymTarget,
                            rng: DeterministicRng) -> None:
        """A rarely-taken (~1/16) forward branch reading current LCG bits."""
        block.emit(Instruction(Op.SHR, rd=R_COND, ra=R_LCG,
                               rb=self._shift_reg(rng)))
        block.emit(Instruction(Op.ANDI, rd=R_COND, ra=R_COND, imm=15))
        block.branch(Op.BEQZ, target, ra=R_COND)

    def _emit_indirect_jump(self, block: _Block,
                            rng: DeterministicRng) -> None:
        """Jump through the table at R_TABLE, index driven by the LCG."""
        self._emit_lcg_step(block)
        block.emit(Instruction(Op.SHR, rd=R_COND, ra=R_LCG,
                               rb=self._shift_reg(rng)))
        block.emit(Instruction(Op.ANDI, rd=R_COND, ra=R_COND,
                               imm=JUMP_TABLE_SLOTS - 1))
        block.emit(Instruction(Op.SHL, rd=R_COND, ra=R_COND, rb=R_C3))
        block.emit(Instruction(Op.ADD, rd=R_COND, ra=R_TABLE, rb=R_COND))
        block.emit(Instruction(Op.LD, rd=R_JTARGET, ra=R_COND, imm=0))
        block.emit(Instruction(Op.JMP, ra=R_JTARGET))

    def _emit_loop_tail(self, block: _Block, head: int, reg: int) -> None:
        """Decrement-and-branch with a signed guard.

        The guard (``0 < counter``) rather than a plain non-zero test makes
        the loop safe even when control arrives via an indirect jump without
        passing the counter initialisation: any non-positive stale counter
        exits immediately instead of wrapping around 2^64.
        """
        block.emit(Instruction(Op.ADDI, rd=reg, ra=reg, imm=-1))
        block.emit(Instruction(Op.CMPLT, rd=R_COND, ra=0, rb=reg))
        block.branch(Op.BNEZ, ("loop", head), ra=R_COND)

    # -- main region ------------------------------------------------------
    def _fill_main_blocks(self, blocks: List[_Block], pool: _PoolAllocator,
                          n_subs: int) -> None:
        """Emit bodies and control flow for the main region.

        Loops are properly nested: a stack of open loops is maintained and a
        new loop may only open if its tail falls strictly inside the
        innermost open loop.  The loop-back branch targets the instruction
        *after* the counter initialisation (the ``("loop", head)`` symbol),
        so trip counts are respected.
        """
        profile = self.profile
        rng = self.rng.derive("main")
        n = len(blocks)
        loop_tails: Dict[int, Tuple[int, int]] = {}   # tail -> (head, reg)
        loop_heads: Dict[int, Tuple[int, int]] = {}   # head -> (reg, trip)
        open_tails: List[int] = []
        for index in range(n - 1):
            while open_tails and open_tails[-1] <= index:
                open_tails.pop()
            if len(open_tails) >= len(R_LOOP) or index in loop_tails:
                continue
            if rng.random() < profile.loop_frac:
                tail = index + rng.randint(1, 3)
                limit = open_tails[-1] if open_tails else n - 1
                tail = min(tail, limit - 1) if open_tails else min(tail, n - 1)
                if tail <= index or tail in loop_tails:
                    continue
                reg = R_LOOP[len(open_tails)]
                trip = rng.randint(*profile.loop_trip)
                loop_heads[index] = (reg, trip)
                loop_tails[tail] = (index, reg)
                open_tails.append(tail)

        for i, block in enumerate(blocks):
            if i in loop_heads:
                reg, trip = loop_heads[i]
                block.emit(Instruction(Op.LDI, rd=reg, imm=trip))
                block.loop_init_len = len(block)
            self._emit_body(block, pool, rng.randint(*profile.block_size), rng)
            if i in loop_tails:
                head, reg = loop_tails[i]
                self._emit_loop_tail(block, head, reg)
            elif i == n - 1:
                block.branch(Op.BR, ("main", 0))
            else:
                self._emit_terminator(block, i, n, n_subs, rng)

    def _emit_terminator(self, block: _Block, index: int, n_blocks: int,
                         n_subs: int, rng: DeterministicRng) -> None:
        profile = self.profile
        forward = ("main", (index + 1 + rng.randint(1, 3)) % n_blocks)
        # Normalise the non-loop terminator kinds over the non-loop mass, so
        # the requested branch mix is honoured regardless of how many blocks
        # the loop scheduler actually claimed.
        mass = max(1e-9, 1.0 - profile.loop_frac)
        draw = rng.random() * mass
        if draw < profile.random_branch_frac:
            self._emit_random_branch(block, forward, rng)
        elif draw < profile.random_branch_frac + profile.biased_branch_frac:
            self._emit_biased_branch(block, forward, rng)
        elif (draw < profile.random_branch_frac + profile.biased_branch_frac
                + profile.call_frac and n_subs > 0):
            target = ("sub", rng.randint(0, n_subs - 1))
            block.branch(Op.CALL, target, rd=R_LINK)
        elif (draw < profile.random_branch_frac + profile.biased_branch_frac
                + profile.call_frac + profile.indirect_frac):
            self._emit_indirect_jump(block, rng)
        elif rng.random() < 0.3:
            block.branch(Op.BR, forward)
        # else: plain fallthrough.

    # -- subroutines ------------------------------------------------------
    def _fill_subroutines(self, blocks: List[_Block],
                          pool: _PoolAllocator) -> None:
        rng = self.rng.derive("subs")
        for block in blocks:
            size = rng.randint(*self.profile.sub_block_size)
            self._emit_body(block, pool, size, rng)
            block.emit(Instruction(Op.RET, ra=R_LINK))

    # -- final layout ------------------------------------------------------
    def _link(self, prologue: List[Instruction], main_blocks: List[_Block],
              sub_blocks: List[_Block]) -> Program:
        starts: Dict[_SymTarget, int] = {}
        pc = len(prologue)
        for block in (*main_blocks, *sub_blocks):
            starts[block.key] = pc
            if block.key[0] == "main":
                # Loop-back branches land after the counter initialisation.
                starts[("loop", block.key[1])] = pc + block.loop_init_len
            pc += len(block)

        instructions = list(prologue)
        for block in (*main_blocks, *sub_blocks):
            instructions += block.items
            if block.exit is not None:
                op, rd, ra, target = block.exit
                instructions.append(Instruction(op, rd=rd, ra=ra,
                                                target=starts[target]))

        initial_memory, table_targets = self._build_initial_memory(
            starts, len(main_blocks))
        name = (self.profile.name if self.seed == 0
                else f"{self.profile.name}#{self.seed}")
        program = Program(
            name=name,
            instructions=instructions,
            initial_memory=initial_memory,
            entry=0,
        )
        # Structural facts the static verifier consumes
        # (repro.analysis.checks documents each key).  The data segment
        # covers the working set plus the worst-case body offset: a
        # cursor may sit on the last working-set word while the body
        # addresses up to MAX_LOAD_OFFSET_WORDS beyond it.
        ws_bytes = self.profile.working_set_words * 8
        program.metadata.update(
            runs_forever=True,  # main region loops back to block 0
            jump_table_targets=list(table_targets),
            data_segments=[
                (DATA_BASE, DATA_BASE + ws_bytes
                 + 8 * MAX_LOAD_OFFSET_WORDS),
                (TABLE_BASE, TABLE_BASE + 8 * JUMP_TABLE_SLOTS),
            ],
        )
        return program

    def _build_initial_memory(
            self, starts: Dict[_SymTarget, int],
            n_main: int) -> Tuple[Dict[int, int], List[int]]:
        rng = self.rng.derive("memory")
        randint, top = rng.randint, (1 << 64) - 1
        init_words = min(self.profile.working_set_words, INIT_DATA_WORDS)
        memory: Dict[int, int] = {DATA_BASE + 8 * i: randint(0, top)
                                  for i in range(init_words)}
        table_targets = [starts[("main", rng.randint(0, n_main - 1))]
                         for _ in range(JUMP_TABLE_SLOTS)]
        for slot, target in enumerate(table_targets):
            memory[TABLE_BASE + 8 * slot] = target
        return memory, table_targets


#: (profile name, seed) pairs already certified by the gate in this
#: process.  Generation is deterministic, so one verification per pair
#: suffices; the cache keeps the mandatory gate O(1) for the test suite
#: and the campaign workers, which regenerate the same workloads often.
_VERIFIED: set = set()


def _gate(program: Program) -> None:
    key = (program.metadata.get("profile"), program.metadata.get("seed"))
    if key in _VERIFIED:
        return
    # Imported lazily: repro.analysis depends on repro.isa, not the
    # other way around (the gate is the one sanctioned back-reference).
    from repro.analysis.checks import gate_program

    gate_program(program)
    _VERIFIED.add(key)


def generate_program(profile: WorkloadProfile, seed: int = 0,
                     verify: bool = True) -> Program:
    """Generate the synthetic benchmark for ``profile`` with ``seed``."""
    return ProgramGenerator(profile, seed).generate(verify=verify)


def generate_benchmark(name: str, seed: int = 0,
                       verify: bool = True) -> Program:
    """Generate one of the named SPEC CPU95-like benchmarks."""
    from repro.isa.profiles import get_profile

    return generate_program(get_profile(name), seed, verify=verify)
