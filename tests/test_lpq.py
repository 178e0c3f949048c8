"""Unit tests for the line prediction queue and chunk aggregator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lpq import ChunkAggregator, LinePredictionQueue, LpqChunk


def chunk(start, length=4, avail=0):
    pcs = list(range(start, start + length))
    return LpqChunk(start_pc=start, pcs=pcs, next_pc=start + length,
                    half_hints=[None] * length, available_cycle=avail)


class TestTwoHeadProtocol:
    """The Figure 4 active-head / recovery-head protocol."""

    def test_peek_ack_commit(self):
        lpq = LinePredictionQueue(capacity=4)
        lpq.push(chunk(0))
        lpq.push(chunk(4))
        first = lpq.peek_active(now=0)
        assert first.start_pc == 0
        lpq.ack()
        assert lpq.peek_active(now=0).start_pc == 4
        lpq.commit()
        assert lpq.stats.chunks_fetched == 1

    def test_rollback_resends_prediction(self):
        """Icache miss: the same prediction must be re-sent."""
        lpq = LinePredictionQueue(capacity=4)
        lpq.push(chunk(0))
        lpq.ack()                       # address driver accepted
        lpq.rollback()                  # cache miss
        assert lpq.stats.rollbacks == 1
        assert lpq.peek_active(now=0).start_pc == 0

    def test_rollback_to_recovery_head_after_partial_progress(self):
        lpq = LinePredictionQueue(capacity=4)
        lpq.push(chunk(0))
        lpq.push(chunk(4))
        lpq.ack()
        lpq.commit()                    # chunk 0 safely fetched
        lpq.ack()                       # chunk 4 accepted...
        lpq.rollback()                  # ...but missed
        assert lpq.peek_active(now=0).start_pc == 4

    def test_availability_delay_respected(self):
        lpq = LinePredictionQueue(capacity=4)
        lpq.push(chunk(0, avail=10))
        assert lpq.peek_active(now=9) is None
        assert lpq.peek_active(now=10) is not None

    def test_ack_without_prediction_raises(self):
        with pytest.raises(RuntimeError):
            LinePredictionQueue().ack()

    def test_commit_past_active_raises(self):
        lpq = LinePredictionQueue()
        lpq.push(chunk(0))
        with pytest.raises(RuntimeError):
            lpq.commit()

    def test_capacity_overflow_raises(self):
        lpq = LinePredictionQueue(capacity=1)
        lpq.push(chunk(0))
        assert lpq.full
        with pytest.raises(RuntimeError):
            lpq.push(chunk(4))


class TestChunkAggregator:
    def make(self, capacity=8, chunk_size=8, timeout=24, wrap=1000):
        lpq = LinePredictionQueue(capacity=capacity)
        agg = ChunkAggregator(lpq, chunk_size=chunk_size, forward_latency=0,
                              wrap=wrap, flush_timeout=timeout)
        return lpq, agg

    def test_contiguous_run_fills_one_chunk(self):
        lpq, agg = self.make()
        for pc in range(8):
            agg.add(pc, pc + 1, queue_half=pc % 2, now=pc)
        assert lpq.stats.chunks_pushed == 1
        pushed = lpq.peek_active(now=100)
        assert pushed.pcs == list(range(8))
        assert pushed.next_pc == 8
        assert pushed.half_hints == [0, 1] * 4

    def test_taken_branch_terminates_chunk(self):
        lpq, agg = self.make()
        agg.add(10, 11, None, now=0)
        agg.add(11, 50, None, now=1)   # control transfer to 50
        assert lpq.stats.chunks_pushed == 1
        pushed = lpq.peek_active(now=100)
        assert pushed.pcs == [10, 11]
        assert pushed.next_pc == 50

    def test_mispredicted_fallthrough_keeps_chunk_growing(self):
        """Section 4.4.2: a branch that actually fell through extends the
        trailing chunk."""
        lpq, agg = self.make()
        agg.add(10, 11, None, now=0)   # branch, fell through
        agg.add(11, 12, None, now=1)
        agg.add(12, 13, None, now=2)
        assert lpq.stats.chunks_pushed == 0
        assert len(agg) == 3

    def test_membar_flush(self):
        lpq, agg = self.make()
        agg.add(10, 11, None, now=0)
        agg.flush(now=1, reason="membar")
        assert lpq.stats.chunks_pushed == 1
        assert lpq.stats.flush_membar == 1

    def test_timeout_flush(self):
        lpq, agg = self.make(timeout=5)
        agg.add(10, 11, None, now=0)
        agg.tick(now=4)
        assert lpq.stats.chunks_pushed == 0
        agg.tick(now=5)
        assert lpq.stats.chunks_pushed == 1
        assert lpq.stats.flush_timeout == 1

    def test_flush_blocked_when_lpq_full(self):
        lpq, agg = self.make(capacity=1)
        for pc in range(8):
            agg.add(pc, pc + 1, None, now=0)    # fills the only LPQ slot
        agg.add(8, 9, None, now=1)
        agg.flush(now=2)
        assert lpq.stats.full_stalls >= 1
        assert len(agg) == 1                    # still pending

    def test_wrap_around_is_contiguous(self):
        """The PC space wraps modulo the program length, so 99 -> 0 with
        wrap=100 continues the chunk rather than terminating it."""
        lpq, agg = self.make(wrap=100)
        agg.add(99, 0, None, now=0)
        assert lpq.stats.chunks_pushed == 0
        agg.add(0, 1, None, now=1)
        assert len(agg) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                    max_size=12))
    def test_stream_reconstruction_property(self, run_lengths):
        """Concatenating all pushed chunks reproduces the retired path
        exactly, with every chunk at most 8 instructions."""
        lpq = LinePredictionQueue(capacity=256)
        agg = ChunkAggregator(lpq, chunk_size=8, forward_latency=0,
                              wrap=1 << 30)
        path = []
        pc = 0
        for run in run_lengths:
            for offset in range(run):
                path.append(pc)
                next_pc = pc + 1 if offset < run - 1 else pc + 100
                agg.add(pc, next_pc, None, now=len(path))
                pc = next_pc
        agg.flush(now=10_000)
        collected = []
        while lpq.peek_active(now=1 << 30) is not None:
            chunk_out = lpq.peek_active(now=1 << 30)
            assert len(chunk_out) <= 8
            collected.extend(chunk_out.pcs)
            lpq.ack()
            lpq.commit()
        assert collected == path


@st.composite
def retired_path(draw):
    """``(wrap, steps)``: a retired path of ``(pc, next_pc)`` steps in a
    program of ``wrap`` instructions, each step starting where the last
    one went.  Steps fall through, jump (a taken branch) or loop to
    themselves; ``[1, 3, 3]`` is a jump to 3 and a self-loop there."""
    wrap = draw(st.sampled_from([4, 16, 1 << 30]))
    pc = draw(st.integers(0, wrap - 1))
    steps = []
    for _ in range(draw(st.integers(1, 60))):
        how = draw(st.sampled_from(["next", "next", "next", "jump", "self"]))
        if how == "next":
            next_pc = (pc + 1) % wrap
        elif how == "jump":
            next_pc = draw(st.integers(0, min(wrap, 64) - 1))
        else:
            next_pc = pc
        steps.append((pc, next_pc))
        pc = next_pc
    return wrap, steps


class TestBlockedFlushes:
    """A one- or two-chunk LPQ that fills up: flushes block, and the
    pending path grows past a chunk and across discontinuities."""

    @staticmethod
    def drain(lpq, out):
        while lpq.peek_active(now=1 << 30) is not None:
            out.append(lpq.peek_active(now=1 << 30))
            lpq.ack()
            lpq.commit()

    def test_self_loop_after_taken_branch(self):
        lpq = LinePredictionQueue(capacity=1)
        agg = ChunkAggregator(lpq, chunk_size=8, forward_latency=0, wrap=100)
        agg.add(50, 51, None, now=0)
        agg.flush(now=0)                  # the LPQ's one slot is taken
        for pc, next_pc in ((1, 3), (3, 3), (3, 3)):
            agg.add(pc, next_pc, None, now=1)
        assert agg._pcs == [1, 3, 3]
        chunks = []
        while len(agg):
            self.drain(lpq, chunks)
            agg.flush(now=2)
        self.drain(lpq, chunks)
        assert [(c.pcs, c.next_pc) for c in chunks] == [
            ([50], 51), ([1], 3), ([3], 3), ([3], 3)]

    @settings(max_examples=60, deadline=None)
    @given(retired_path(), st.integers(1, 2), st.integers(1, 8),
           st.lists(st.booleans(), min_size=60, max_size=60))
    def test_pushed_chunks_rebuild_the_path(self, path, capacity,
                                            chunk_size, drains):
        wrap, steps = path
        lpq = LinePredictionQueue(capacity=capacity)
        agg = ChunkAggregator(lpq, chunk_size=chunk_size, forward_latency=0,
                              wrap=wrap)
        chunks = []
        for now, ((pc, next_pc), drain) in enumerate(zip(steps, drains)):
            if drain:
                self.drain(lpq, chunks)
            agg.add(pc, next_pc, now % 2, now)
        while len(agg):
            self.drain(lpq, chunks)
            agg.flush(now=len(steps))
        self.drain(lpq, chunks)
        assert lpq.stats.chunks_pushed == len(chunks)
        for chunk_out, following in zip(chunks, chunks[1:] + [None]):
            pcs = chunk_out.pcs
            assert 1 <= len(pcs) <= chunk_size
            assert chunk_out.start_pc == pcs[0]
            assert all(b == (a + 1) % wrap for a, b in zip(pcs, pcs[1:]))
            assert len(chunk_out.half_hints) == len(pcs)
            if following is not None:
                assert chunk_out.next_pc == following.start_pc
        assert chunks[-1].next_pc == steps[-1][1]
        assert [pc for c in chunks for pc in c.pcs] == [
            pc for pc, _ in steps]
        assert [hint for c in chunks for hint in c.half_hints] == [
            now % 2 for now in range(len(steps))]
