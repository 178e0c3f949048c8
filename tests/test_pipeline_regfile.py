"""Unit tests for the physical register file and renaming."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.regfile import (OutOfPhysicalRegisters,
                                    PhysicalRegisterFile, RenameMap)


class TestPhysicalRegisterFile:
    def test_allocate_release_roundtrip(self):
        regfile = PhysicalRegisterFile(8)
        reg = regfile.allocate()
        assert not regfile.is_ready(reg)
        regfile.write(reg, 42)
        assert regfile.is_ready(reg)
        assert regfile.read(reg) == 42
        regfile.release(reg)
        assert regfile.free_count == 8

    def test_exhaustion_raises(self):
        regfile = PhysicalRegisterFile(2)
        regfile.allocate()
        regfile.allocate()
        with pytest.raises(OutOfPhysicalRegisters):
            regfile.allocate()

    def test_free_count(self):
        regfile = PhysicalRegisterFile(4)
        regfile.allocate()
        assert regfile.free_count == 3


class TestRenameMap:
    def test_init_allocates_arch_regs(self):
        regfile = PhysicalRegisterFile(128)
        RenameMap(regfile)
        assert regfile.free_count == 64

    def test_rename_and_lookup(self):
        regfile = PhysicalRegisterFile(128)
        rmap = RenameMap(regfile)
        old = rmap.map[5]
        new, prev = rmap.rename_dest(5)
        assert prev == old
        assert rmap.map[5] == new

    def test_zero_reg_never_renamed(self):
        regfile = PhysicalRegisterFile(128)
        rmap = RenameMap(regfile)
        with pytest.raises(ValueError):
            rmap.rename_dest(0)

    def test_undo_rename_restores(self):
        regfile = PhysicalRegisterFile(128)
        rmap = RenameMap(regfile)
        old = rmap.map[7]
        new, prev = rmap.rename_dest(7)
        rmap.undo_rename(7, new, prev)
        assert rmap.map[7] == old
        assert regfile.free_count == 64  # the new reg went back

    def test_undo_out_of_order_asserts(self):
        regfile = PhysicalRegisterFile(128)
        rmap = RenameMap(regfile)
        new1, prev1 = rmap.rename_dest(3)
        new2, prev2 = rmap.rename_dest(3)
        with pytest.raises(AssertionError):
            rmap.undo_rename(3, new1, prev1)  # must unwind newest first

    def test_architectural_value(self):
        regfile = PhysicalRegisterFile(128)
        rmap = RenameMap(regfile)
        new, _ = rmap.rename_dest(9)
        regfile.write(new, 1234)
        assert rmap.architectural_value(9) == 1234
        assert rmap.architectural_value(0) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=63), min_size=1,
                    max_size=40))
    def test_rename_undo_stack_property(self, arch_regs):
        """Renaming a sequence then undoing it all restores the map."""
        regfile = PhysicalRegisterFile(256)
        rmap = RenameMap(regfile)
        initial = list(rmap.map)
        free0 = regfile.free_count
        stack = []
        for reg in arch_regs:
            new, prev = rmap.rename_dest(reg)
            stack.append((reg, new, prev))
        for reg, new, prev in reversed(stack):
            rmap.undo_rename(reg, new, prev)
        assert rmap.map == initial
        assert regfile.free_count == free0
