"""The program front end against its pre-decoding reference.

``frontend_reference`` keeps the opcode semantics, the functional
executor's step, path recording, the gate's register passes and the
constant solver as they stood before the front end dispatched on data
decoded once.  Hypothesis drives both over random instructions and
operands (every opcode, ``r0`` sources, 64-bit edge values) and random
small programs, and every result must be identical.  The
deterministic random streams are checked against ``random.Random``.
"""

import random

import frontend_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import dataflow
from repro.analysis.cfg import build_cfg
from repro.analysis.checks import _check_dead_stores, _check_init_reads
from repro.isa.assembler import assemble
from repro.isa.executor import (FunctionalExecutor, alu_result,
                                branch_taken, record_path)
from repro.isa.instructions import NUM_ARCH_REGS, Instruction, Op
from repro.isa.program import Program
from repro.util.bits import MASK64
from repro.util.rng import DeterministicRng

EDGE_VALUES = (0, 1, 2, 7, 8, 63, 64, (1 << 32) - 1, 1 << 32,
               (1 << 63) - 1, 1 << 63, (1 << 63) + 1, MASK64 - 1, MASK64)
values = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, MASK64))
immediates = st.one_of(
    st.sampled_from((0, 1, -1, 4, -8, 63, -(1 << 63), (1 << 63) - 1,
                     MASK64)),
    st.integers(-(1 << 64), 1 << 64))
#: Few registers, so instructions depend on each other, plus ``r0`` and
#: the last register.
registers = st.sampled_from((0, 0, 1, 2, 3, 4, 5, NUM_ARCH_REGS - 1))

ALU_OPS = [op for op in Op if op.info.alu is not None]
CONTROL_OPS = [op for op in Op if op.info.taken is not None]


def test_opcode_tables_cover_the_isa():
    assert {op for op in Op if op.info.is_control} == set(CONTROL_OPS)
    assert set(ALU_OPS) == {op for op in Op if op.info.writes
                            and not op.info.is_load
                            and not op.info.is_control}


@st.composite
def instructions(draw, length=64, ops=tuple(Op)):
    op = draw(st.sampled_from(ops))
    target = None
    if op.info.is_control and not op.info.is_indirect:
        target = draw(st.integers(0, length - 1))
    return Instruction(op, rd=draw(registers), ra=draw(registers),
                       rb=draw(registers), imm=draw(immediates),
                       target=target)


@st.composite
def programs(draw, max_size=24):
    length = draw(st.integers(1, max_size))
    code = [draw(instructions(length)) for _ in range(length)]
    memory = {8 * draw(st.integers(0, 15)): draw(values)
              for _ in range(draw(st.integers(0, 6)))}
    program = Program(name="random", instructions=code,
                      initial_memory=memory,
                      entry=draw(st.integers(0, length - 1)))
    if draw(st.booleans()):
        program.metadata["jump_table_targets"] = draw(
            st.lists(st.integers(0, length - 1), max_size=4))
    return program


# -- opcode semantics --------------------------------------------------------

@settings(max_examples=600, deadline=None)
@given(op=st.sampled_from(ALU_OPS), a=values, b=values, c=values,
       imm=immediates)
def test_alu_result(op, a, b, c, imm):
    instr = Instruction(op, rd=1, ra=2, rb=3, imm=imm)
    assert alu_result(instr, a, b, c) == reference.alu_result(instr, a, b, c)


@settings(max_examples=200, deadline=None)
@given(op=st.sampled_from(CONTROL_OPS), a=values)
def test_branch_taken(op, a):
    instr = Instruction(op, ra=2, target=0)
    assert branch_taken(instr, a) == reference.branch_taken(instr, a)


@pytest.mark.parametrize("op", sorted(set(Op) - set(ALU_OPS),
                                      key=lambda op: op.name))
def test_non_alu_opcodes_raise_alike(op):
    instr = Instruction(op, target=0)
    with pytest.raises(ValueError) as ours:
        alu_result(instr, 1, 2, 3)
    with pytest.raises(ValueError) as theirs:
        reference.alu_result(instr, 1, 2, 3)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("op", sorted(set(Op) - set(CONTROL_OPS),
                                      key=lambda op: op.name))
def test_non_control_opcodes_raise_alike(op):
    instr = Instruction(op)
    with pytest.raises(ValueError) as ours:
        branch_taken(instr, 0)
    with pytest.raises(ValueError) as theirs:
        reference.branch_taken(instr, 0)
    assert str(ours.value) == str(theirs.value)


# -- the functional executor -------------------------------------------------

def _step(executor):
    try:
        return executor.step()
    except RuntimeError as error:
        return str(error)


def _fields(step):
    if isinstance(step, str):
        return step
    return (step.pc, step.instr, step.next_pc, step.taken, step.load,
            step.store, step.halted)


@settings(max_examples=200, deadline=None)
@given(program=programs(),
       regs=st.lists(values, min_size=NUM_ARCH_REGS,
                     max_size=NUM_ARCH_REGS))
def test_executor_step(program, regs):
    """Every step, its result and the architectural state match, and so
    do the errors; ``r0``'s backing slot is never read."""
    ours = FunctionalExecutor(program)
    theirs = reference.ReferenceExecutor(program)
    ours.state.regs = list(regs)
    theirs.state.regs = list(regs)
    for _ in range(30):
        step, expected = _step(ours), _step(theirs)
        assert _fields(step) == _fields(expected)
        assert ours.state == theirs.state
        assert ours.retired == theirs.retired
        if isinstance(step, str):
            break


@settings(max_examples=200, deadline=None)
@given(program=programs(), steps=st.integers(0, 60))
def test_record_path(program, steps):
    try:
        expected = reference.record_path(program, steps)
    except RuntimeError as error:
        with pytest.raises(RuntimeError, match=str(error)):
            record_path(program, steps)
        return
    assert record_path(program, steps) == expected


# -- the gate's register passes ----------------------------------------------

@settings(max_examples=200, deadline=None)
@given(program=programs(), entry_mask=st.sampled_from((1, 0b111, 1 << 63)))
def test_init_read_and_dead_store_findings(program, entry_mask):
    cfg = build_cfg(program)
    found, expected = [], []
    _check_init_reads(cfg, entry_mask, found)
    reference.check_init_reads(cfg, entry_mask, expected)
    _check_dead_stores(cfg, found)
    reference.check_dead_stores(cfg, expected)
    assert found == expected
    assert dataflow.solve_liveness(cfg) == reference.solve_liveness(cfg)
    for must in (True, False):
        assert (dataflow.solve_initialized(cfg, entry_mask, must)
                == reference.solve_initialized(cfg, entry_mask, must))


# -- constant propagation ----------------------------------------------------

def _constant_states(states):
    return [None if state is None else sorted(state.items())
            for state in states]


@settings(max_examples=600, deadline=None)
@given(instr=instructions(),
       state=st.dictionaries(st.integers(1, NUM_ARCH_REGS - 1), values,
                             max_size=8))
def test_transfer_constants(instr, state):
    ours = dataflow.transfer_constants(dict(state), instr)
    assert ours == reference.transfer_constants(dict(state), instr)


@settings(max_examples=200, deadline=None)
@given(program=programs(max_size=40))
def test_solve_constants(program):
    cfg = build_cfg(program)
    expected = reference.solve_constants(cfg)
    assert (_constant_states(dataflow.solve_constants(cfg))
            == _constant_states(expected))
    bases = {}
    for index in cfg.reachable():
        block = cfg.blocks[index]
        state = dict(expected[index] or {})
        for pc, instr in zip(block.pcs(), block.instructions):
            if instr.is_store:
                bases[pc] = 0 if instr.ra == 0 else state.get(instr.ra)
            reference.transfer_constants(state, instr)
    assert dataflow.known_store_bases(cfg) == bases


def test_solver_raises_at_its_visit_cap(monkeypatch):
    """Stopped before its fixpoint, the solver raises instead of
    returning states that A5/A6 would read as facts: after two visits
    the loop head would claim r1 == 5, which only the first trip sees."""
    cfg = build_cfg(assemble("""
        ldi r1, 5
    loop:
        addi r1, r1, 1
        bnez r1, loop
        halt
    """))
    assert dataflow.solve_constants(cfg)[cfg.block_of_pc[1]] == {}
    monkeypatch.setattr(dataflow, "CONSTANT_VISITS_PER_BLOCK", 0)
    monkeypatch.setattr(dataflow, "CONSTANT_VISITS_BASE", 2)
    with pytest.raises(RuntimeError, match=r"no fixpoint after 2 block "
                                           r"visits \(3 blocks\)"):
        dataflow.solve_constants(cfg)
    with pytest.raises(RuntimeError):
        dataflow.known_store_bases(cfg)


# -- deterministic random streams ---------------------------------------------

@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, MASK64),
       ranges=st.lists(st.tuples(st.integers(-(1 << 70), 1 << 70),
                                 st.sampled_from((1, 2, 3, 7, 8, 100,
                                                  1 << 32, 1 << 64))),
                       min_size=1, max_size=20),
       sizes=st.lists(st.integers(1, 40), min_size=1, max_size=20))
def test_rng_draws_match_random(seed, ranges, sizes):
    ours = DeterministicRng.from_seed(seed)
    theirs = random.Random(seed)
    for low, width in ranges:
        assert ours.randint(low, low + width - 1) == theirs.randint(
            low, low + width - 1)
        assert ours.random() == theirs.random()
    for size in sizes:
        options = list(range(size))
        assert ours.choice(options) == theirs.choice(options)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("seed", range(50))
def test_rng_streams_match_random(seed):
    """Many draws from one seeded stream, widths 1 and 2**64 included."""
    ours = DeterministicRng("stream", seed)
    theirs = random.Random(ours.seed)
    for _ in range(200):
        assert ours.randint(0, 0) == theirs.randint(0, 0)
        assert ours.randint(0, (1 << 64) - 1) == theirs.randint(
            0, (1 << 64) - 1)
        assert ours.randint(1, 3) == theirs.randint(1, 3)
        assert ours.choice("ab") == theirs.choice("ab")
        assert ours.random() == theirs.random()


def test_rng_errors_match_random():
    ours, theirs = DeterministicRng.from_seed(1), random.Random(1)
    for low, high in ((5, 3), (0, -1)):
        with pytest.raises(ValueError) as mine:
            ours.randint(low, high)
        with pytest.raises(ValueError) as expected:
            theirs.randint(low, high)
        assert str(mine.value) == str(expected.value)
    with pytest.raises(IndexError):
        ours.choice([])
    with pytest.raises(IndexError):
        theirs.choice([])
