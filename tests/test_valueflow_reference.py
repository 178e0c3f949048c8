"""The packed valueflow solvers reproduce the reference solver.

:mod:`valueflow_reference` is the dict/``KnownBits`` implementation the
packed one replaced.  Both fixpoints must agree with it on every block
in-state, per-pc demand row and liveness mask — for every profile's
program, for every hand-written program of ``test_valueflow.py`` and
``test_analysis_dataflow_edges.py``, and for random programs with
arbitrary control flow — and the AVF analyzer's whole-register class
counts must match its one-register-at-a-time loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import valueflow_reference as reference
from test_analysis_dataflow_edges import SOURCES as EDGE_SOURCES
from test_valueflow import SOURCES as VALUEFLOW_SOURCES

from repro.analysis.cfg import build_cfg
from repro.analysis.valueflow import (ENTRY_STATE, solve_bit_liveness,
                                      solve_known_bits, unpack)
from repro.avf.analyzer import ProgramAVF
from repro.isa.assembler import assemble
from repro.isa.generator import generate_benchmark
from repro.isa.instructions import Instruction, Op
from repro.isa.profiles import SPEC95_NAMES
from repro.isa.program import Program

#: Profile programs come from a seed the golden AVF digests (seed 1) do
#: not cover.
SEED = 2

HANDWRITTEN = {**{f"valueflow/{name}": source
                  for name, source in VALUEFLOW_SOURCES.items()},
               **{f"dataflow-edges/{name}": source
                  for name, source in EDGE_SOURCES.items()}}


def assert_matches_reference(cfg):
    known = solve_known_bits(cfg)
    expected_known = reference.solve_known_bits(cfg)
    assert (reference.canonical_known(known)
            == reference.canonical_known(expected_known))
    for state in known:
        if state is not None:
            masks, values = unpack(state[0]), unpack(state[1])
            assert (masks[0], values[0]) == ENTRY_STATE  # r0 is 0
            assert all(value & ~mask == 0
                       for mask, value in zip(masks, values))
    liveness = solve_bit_liveness(cfg, known)
    expected = reference.solve_bit_liveness(cfg, expected_known)
    assert [list(row) for row in liveness.before] == expected.before
    assert [list(row) for row in liveness.after] == expected.after
    assert liveness.live_before == expected.live_before
    assert liveness.defined_later == expected.defined_later
    return liveness


@pytest.mark.parametrize("name", sorted(HANDWRITTEN))
def test_handwritten_program(name):
    assert_matches_reference(build_cfg(assemble(HANDWRITTEN[name])))


@pytest.mark.parametrize("name", SPEC95_NAMES)
def test_profile_program(name):
    cfg = build_cfg(generate_benchmark(name, seed=SEED, verify=False))
    liveness = assert_matches_reference(cfg)
    analysis = ProgramAVF(cfg.program, steps=0, cfg=cfg, bitlive=liveness)
    for pc in range(len(cfg.program)):
        assert (analysis.register_class_counts(pc)
                == reference.register_class_counts(liveness, pc))


#: Few registers, so values meet often; r0 included, so its writes and
#: reads are exercised.
REGS = st.integers(0, 5)
IMMEDIATES = st.sampled_from([0, 1, -1, 4, 63, 0xF0, 0xFF, 1 << 40])


@st.composite
def random_program(draw):
    """Any opcode, branches and calls to any pc, returns and indirect
    jumps (all leaders are targets), and any entry: back edges into the
    entry, unreachable blocks and unconverged chains all occur."""
    size = draw(st.integers(1, 30))
    pcs = st.integers(0, size - 1)
    ops = st.sampled_from(list(Op))
    instructions = []
    for _ in range(size):
        op = draw(ops)
        info = op.info
        fields = dict(rd=draw(REGS), ra=draw(REGS), rb=draw(REGS),
                      imm=draw(IMMEDIATES))
        if info.is_control and not info.is_indirect:
            fields["target"] = draw(pcs)
        instructions.append(Instruction(op, **fields))
    return Program(name="random", instructions=instructions,
                   entry=draw(pcs))


@settings(max_examples=300, deadline=None)
@given(random_program())
def test_random_program(program):
    cfg = build_cfg(program)
    try:
        solve_known_bits(cfg)
    except RuntimeError:
        # Only where the reference, stopped at the same cap, returned
        # states that are not a fixpoint.
        with pytest.raises(AssertionError):
            reference.assert_known_fixpoint(
                cfg, reference.solve_known_bits(cfg))
        return
    assert_matches_reference(cfg)
