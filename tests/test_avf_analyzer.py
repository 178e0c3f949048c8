"""Unit tests for the static ACE/AVF analyzer on hand-built programs
whose masking classes are known by inspection."""

import pytest

from repro.avf.analyzer import (ACE_CLASS, ALL_CLASSES, MASKED_CLASSES,
                                ProgramAVF, analyze_program, collect_trace)
from repro.avf.sites import (ARCH_MODELS, SiteUniverse,
                             clear_universe_cache, get_universe)
from repro.isa.assembler import assemble
from repro.isa.instructions import Op
from repro.util.rng import DeterministicRng


def avf_of(source, steps=200):
    return analyze_program(assemble(source), steps=steps)


class TestGoldenTrace:
    def test_trace_records_pcs_and_halts(self):
        trace = collect_trace(assemble("ldi r1, 1\nhalt"), max_steps=50)
        assert trace.pcs == [0, 1]
        assert trace.halted
        assert not trace.crashed
        assert trace.pc_counts == {0: 1, 1: 1}

    def test_trace_caps_at_horizon(self):
        trace = collect_trace(assemble("loop: br loop"), max_steps=10)
        assert trace.steps == 10
        assert not trace.halted

    def test_footprint_is_initial_union_touched(self):
        source = """
            .data 0x2000 7
            ldi r1, 0x1000
            st  r1, 0, r1
            halt
        """
        trace = collect_trace(assemble(source), max_steps=50)
        assert trace.footprint == [0x1000, 0x2000]


class TestRegisterClasses:
    # r1's low nibble flows to the store; the high bits are ANDed away.
    # r2 is written and never read.  r3 carries the output.
    SOURCE = """
        ldi  r1, 0xF5
        ldi  r2, 3
        andi r3, r1, 0x0F
        st   r0, 0x1000, r3
        halt
    """

    def test_demanded_bit_is_ace(self):
        avf = avf_of(self.SOURCE)
        assert avf.classify_register(2, 1, 0) == ACE_CLASS

    def test_undemanded_bit_of_live_reg_is_logic_masked(self):
        avf = avf_of(self.SOURCE)
        assert avf.classify_register(2, 1, 32) == "logic-masked"

    def test_never_read_reg_is_dead(self):
        avf = avf_of(self.SOURCE)
        assert avf.classify_register(2, 2, 0) == "dead"

    def test_r0_is_always_dead(self):
        avf = avf_of(self.SOURCE)
        for bit in (0, 17, 63):
            assert avf.classify_register(0, 0, bit) == "dead"

    def test_overwritten_before_use(self):
        avf = avf_of("""
            ldi r1, 1
            ldi r1, 2
            st  r0, 0x1000, r1
            halt
        """)
        assert avf.classify_register(1, 1, 5) == "overwritten"

    def test_site_classification_follows_trace(self):
        avf = avf_of(self.SOURCE)
        # Step 2 executes pc 2 (straight-line program).
        assert (avf.classify_register_site(2, 1, 0)
                == avf.classify_register(2, 1, 0))

    def test_class_counts_partition_all_bits(self):
        avf = avf_of(self.SOURCE)
        for pc in range(5):
            counts = avf.register_class_counts(pc)
            assert sum(counts.values()) == 63 * 64  # regs 1..63


class TestMemoryClasses:
    SOURCE = """
        .data 0x1000 0xFF
        ldi r1, 0x1000
        ld  r2, r1, 0
        st  r1, 8, r2
        halt
    """

    def test_loaded_then_stored_word_is_ace(self):
        avf = avf_of(self.SOURCE)
        # Flip before the load: the bit rides r2 into the store.
        assert avf.classify_memory_site(0, 0x1000, 3) == ACE_CLASS

    def test_word_after_last_access_is_dead(self):
        avf = avf_of(self.SOURCE)
        assert avf.classify_memory_site(3, 0x1000, 3) == "dead"

    def test_word_overwritten_by_store(self):
        avf = avf_of(self.SOURCE)
        assert avf.classify_memory_site(0, 0x1008, 60) == "overwritten"

    def test_sth_overwrites_only_its_half(self):
        avf = avf_of("""
            ldi r1, 0x1000
            ldi r2, 7
            sth r1, 0, r2
            halt
        """)
        # Raw address 0x1000 has bit 2 clear: the LOW half is written.
        assert avf.classify_memory_site(0, 0x1000, 0) == "overwritten"
        assert avf.classify_memory_site(0, 0x1000, 40) == "dead"

    def test_aggregate_matches_pointwise(self):
        """The interval-recurrence aggregate equals brute-force
        classification over every (word, step, bit) site."""
        avf = avf_of(self.SOURCE)
        counts = {cls: 0 for cls in ALL_CLASSES}
        for word in avf.trace.footprint:
            for step in range(avf.trace.steps):
                for bit in range(64):
                    counts[avf.classify_memory_site(step, word, bit)] += 1
        component = avf.memory_component()
        assert {cls: component.class_bits.get(cls, 0)
                for cls in ALL_CLASSES} == counts


class TestDestFieldClasses:
    SOURCE = """
        ldi r1, 5
        st  r0, 0x1000, r1
        halt
    """

    def test_live_destination_is_ace(self):
        avf = avf_of(self.SOURCE)
        assert avf.classify_dest_field(0, 0) == ACE_CLASS

    def test_store_and_halt_ignore_rd(self):
        avf = avf_of(self.SOURCE)
        for bit in range(6):
            assert avf.classify_dest_field(1, bit) == "dead"
            assert avf.classify_dest_field(2, bit) == "dead"

    def test_redirect_to_dead_register_is_no_output(self):
        # r1 is never read: writing it — or its bit-flipped alias —
        # cannot reach the sphere outputs.
        avf = avf_of("ldi r1, 5\nhalt")
        assert avf.classify_dest_field(0, 1) == "no-output"

    def test_ignored_rd_fields_are_the_non_writing_opcodes(self):
        # The analyzer asks the opcode record, not a list of its own.
        assert {op for op in Op if not op.info.writes} == {
            Op.ST, Op.STH, Op.MEMBAR, Op.NOP, Op.HALT,
            Op.BEQZ, Op.BNEZ, Op.BR, Op.JMP, Op.RET}


class TestSummary:
    def test_components_and_totals(self):
        summary = avf_of("""
            ldi r1, 1
            st  r0, 0x1000, r1
            halt
        """).summary()
        names = [c.name for c in summary.components]
        assert names == ["register", "register-static", "memory",
                         "dest-field"]
        steps = summary.steps
        assert summary.component("register").total == steps * 63 * 64
        assert summary.component("dest-field").total == steps * 6
        for comp in summary.components:
            assert 0.0 <= comp.avf <= 1.0
            assert comp.avf + comp.masked_fraction == pytest.approx(1.0)

    def test_register_components_sum_the_per_pc_counts(self):
        avf = avf_of("""
            ldi r1, 3
        loop:
            addi r1, r1, -1
            andi r2, r1, 0xF
            st   r0, 0x1000, r2
            bnez r1, loop
            halt
        """)
        expected = {"register": {}, "register-static": {}}
        for pc, count in avf.trace.pc_counts.items():
            for cls, bits in avf.register_class_counts(pc).items():
                if bits:
                    expected["register"][cls] = (
                        expected["register"].get(cls, 0) + bits * count)
        for pc in range(len(avf.program)):
            for cls, bits in avf.register_class_counts(pc).items():
                if bits:
                    expected["register-static"][cls] = (
                        expected["register-static"].get(cls, 0) + bits)
        for dynamic, name in ((True, "register"),
                              (False, "register-static")):
            component = avf.register_component(dynamic=dynamic)
            assert component.name == name
            assert component.class_bits == expected[name]
            assert component.total == sum(expected[name].values())

    def test_to_dict_round_trips_classes(self):
        data = avf_of("ldi r1, 1\nhalt").summary().to_dict()
        assert data["halted"] is True
        for comp in data["components"]:
            assert set(comp["classes"]) == set(ALL_CLASSES)
            assert sum(comp["classes"].values()) == comp["total"]


class TestSiteUniverse:
    def setup_method(self):
        clear_universe_cache()

    def test_sampled_sites_classify_consistently(self):
        universe = get_universe("compress", 300)
        rng = DeterministicRng("test-universe")
        for model in ARCH_MODELS:
            for _ in range(25):
                site = universe.sample(rng, model)
                cls = universe.classify(model, site)
                assert cls in ALL_CLASSES
                assert universe.is_masked(model, site) == (
                    cls in MASKED_CLASSES)

    def test_class_fractions_sum_to_one(self):
        universe = get_universe("compress", 300)
        for model in ARCH_MODELS:
            fractions = universe.class_fractions(model)
            assert sum(fractions.values()) == pytest.approx(1.0)
            assert (universe.masked_fraction(model)
                    == pytest.approx(sum(fractions[c]
                                         for c in MASKED_CLASSES)))

    def test_cache_is_keyed_by_seed(self):
        a = get_universe("compress", 300, seed=0)
        b = get_universe("compress", 300, seed=1)
        assert a is get_universe("compress", 300, seed=0)
        assert a is not b

    def test_seed_matches_worker_program_composition(self):
        """The universe must classify the *same* program the campaign
        worker will inject into: generator seed = workload seed +
        campaign seed."""
        from repro.isa.generator import generate_benchmark
        universe = SiteUniverse("compress@3", 300, seed=2)
        expected = generate_benchmark("compress", seed=5)
        assert universe.program.name == expected.name
        assert [str(i) for i in universe.program.instructions] == \
            [str(i) for i in expected.instructions]
