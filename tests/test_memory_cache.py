"""Unit tests for the set-associative cache and memory controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import MemoryController, SetAssociativeCache


def make_cache(size=1024, assoc=2, block=64, hit=1, next_level=None,
               extra=0):
    return SetAssociativeCache("test", size, assoc, block, hit,
                               next_level=next_level, extra_miss_latency=extra)


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        cache = make_cache(next_level=MemoryController(latency=50))
        first = cache.access(0x100, now=0)
        assert first > 1  # miss: slower than the hit latency
        assert cache.stats.misses == 1
        second = cache.access(0x100, now=100)
        assert second == 101  # hit latency 1
        assert cache.stats.hits == 1

    def test_same_block_hits(self):
        cache = make_cache()
        cache.access(0x100, now=0)
        cache.access(0x13F, now=10)  # same 64-byte block
        assert cache.stats.hits == 1

    def test_different_block_misses(self):
        cache = make_cache()
        cache.access(0x100, now=0)
        cache.access(0x140, now=10)
        assert cache.stats.misses == 2

    def test_contains(self):
        cache = make_cache()
        assert not cache.contains(0x100)
        cache.access(0x100, now=0)
        assert cache.contains(0x100)

    def test_warm_installs_without_stats(self):
        cache = make_cache()
        cache.warm([0x100])
        assert cache.contains(0x100)
        assert cache.stats.accesses == 0
        assert cache.access(0x100, now=5) == 6  # hit


class TestLru:
    def test_lru_eviction(self):
        # 2-way, 8 sets: three blocks mapping to the same set.
        cache = make_cache(size=1024, assoc=2, block=64)
        s = cache.num_sets
        a, b, c = 0x0, s * 64, 2 * s * 64  # same set index
        cache.access(a, 0)
        cache.access(b, 1)
        cache.access(a, 2)       # touch a: b becomes LRU
        cache.access(c, 3)       # evicts b
        assert cache.contains(a)
        assert not cache.contains(b)
        assert cache.contains(c)

    def test_associativity_respected(self):
        cache = make_cache(size=1024, assoc=2, block=64)
        s = cache.num_sets
        cache.access(0, 0)
        cache.access(s * 64, 1)
        assert cache.contains(0) and cache.contains(s * 64)


class TestMshr:
    def test_concurrent_misses_merge(self):
        cache = make_cache(next_level=MemoryController(latency=50))
        t1 = cache.access(0x100, now=0)
        t2 = cache.access(0x100, now=1)   # hit (block installed), or merged
        assert t2 <= t1

    def test_merge_returns_pending_fill_time(self):
        # Force the merge path: two accesses to the same block address in
        # the same cycle window, second sees the MSHR.
        class SlowLevel:
            def access(self, addr, now, write=False):
                return now + 100

        cache = SetAssociativeCache("t", 1024, 2, 64, 0,
                                    next_level=SlowLevel())
        cache._sets.clear()
        t1 = cache.access(0x100, now=0)
        # Remove the freshly-installed block to simulate a parallel port
        # probing before fill; the MSHR must answer.
        index, tag = cache._index_tag(0x100)
        del cache._sets[index][tag]
        t2 = cache.access(0x120, now=1)   # same block
        assert t2 == t1
        assert cache.stats.mshr_merges == 1


class TestValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("bad", 1000, 3, 64, 1)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("bad", 1024, 2, 48, 1)


class TestCheckerLatency:
    def test_extra_miss_latency_charged(self):
        plain = make_cache(next_level=MemoryController(latency=50))
        checked = make_cache(next_level=MemoryController(latency=50), extra=8)
        t_plain = plain.access(0x100, now=0)
        t_checked = checked.access(0x100, now=0)
        assert t_checked == t_plain + 8

    def test_hits_unaffected_by_checker(self):
        checked = make_cache(extra=8)
        checked.access(0x100, now=0)
        assert checked.access(0x100, now=50) == 51


class TestMemoryController:
    def test_flat_latency(self):
        mem = MemoryController(latency=80, channels=4)
        assert mem.access(0x0, now=0) == 80

    def test_channel_queuing(self):
        mem = MemoryController(latency=80, channels=1, channel_occupancy=4)
        t1 = mem.access(0x0, now=0)
        t2 = mem.access(0x1000, now=0)  # same (only) channel: queued
        assert t2 == t1 + 4

    def test_distinct_channels_parallel(self):
        mem = MemoryController(latency=80, channels=10, channel_occupancy=4)
        t1 = mem.access(0 << 6, now=0)
        t2 = mem.access(1 << 6, now=0)
        assert t1 == t2 == 80


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=50))
    def test_accesses_and_stats_consistent(self, addrs):
        cache = make_cache()
        for i, addr in enumerate(addrs):
            cache.access(addr, now=i * 10)
        assert cache.stats.hits + cache.stats.misses == len(addrs)
        assert 0.0 <= cache.stats.miss_rate <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 30))
    def test_second_access_always_at_least_as_fast(self, addr):
        cache = make_cache(next_level=MemoryController(latency=50))
        t1 = cache.access(addr, now=0)
        t2 = cache.access(addr, now=t1)
        assert t2 - t1 <= t1 - 0
