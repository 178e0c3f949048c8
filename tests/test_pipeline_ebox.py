"""Unit tests for the functional-unit pools."""

from repro.isa.instructions import FuClass
from repro.pipeline.ebox import POOL_SIZES, FunctionalUnitPools


class TestPoolGeometry:
    def test_table1_pool_sizes(self):
        assert POOL_SIZES[FuClass.INT] == 8
        assert POOL_SIZES[FuClass.LOGIC] == 8
        assert POOL_SIZES[FuClass.MEM] == 4
        assert POOL_SIZES[FuClass.FP] == 4

    def test_halves_partition_units(self):
        pools = FunctionalUnitPools()
        lower = set(pools.units_for_half(FuClass.INT, 0))
        upper = set(pools.units_for_half(FuClass.INT, 1))
        assert lower == {0, 1, 2, 3}
        assert upper == {4, 5, 6, 7}
        assert not lower & upper


class TestAcquire:
    def test_acquire_returns_distinct_units(self):
        pools = FunctionalUnitPools()
        used = {pools.acquire(FuClass.FP, 0, now=0) for _ in range(2)}
        assert len(used) == 2

    def test_exhaustion_stalls(self):
        pools = FunctionalUnitPools()
        for _ in range(2):  # FP has 2 units per half
            assert pools.acquire(FuClass.FP, 0, now=0) is not None
        assert pools.acquire(FuClass.FP, 0, now=0) is None
        assert pools.stats.structural_stalls == 1

    def test_other_half_unaffected(self):
        pools = FunctionalUnitPools()
        for _ in range(2):
            pools.acquire(FuClass.FP, 0, now=0)
        assert pools.acquire(FuClass.FP, 1, now=0) is not None

    def test_units_free_next_cycle(self):
        pools = FunctionalUnitPools()
        for _ in range(2):
            pools.acquire(FuClass.FP, 0, now=0)
        assert pools.acquire(FuClass.FP, 0, now=1) is not None

    def test_per_unit_issue_stats(self):
        pools = FunctionalUnitPools()
        fu = pools.acquire(FuClass.INT, 0, now=0)
        assert pools.stats.per_unit_issues[fu] == 1
