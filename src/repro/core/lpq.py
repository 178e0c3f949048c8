"""The line prediction queue (LPQ) — SRT's branch outcome queue adapted
to a line-prediction-driven fetch architecture (Section 4.4).

The QBOX end (:class:`ChunkAggregator`) watches leading-thread
retirement and aggregates contiguous retiring instructions into trailing
fetch chunks, terminating a chunk when

- the next retiring instruction is not contiguous (taken branch),
- the eight-instruction chunk limit is reached,
- the oldest leading instruction is a memory barrier that cannot retire
  until trailing stores verify its predecessors (deadlock rule 1),
- a leading load is blocked on partial forwarding from a store that has
  not yet been made visible to the trailing thread (deadlock rule 2), or
- the leading thread goes idle for a timeout (flush-on-stall safety).

The IBOX end (:class:`LinePredictionQueue`) holds the finished chunks
and implements the two-head protocol of Figure 4: the *active head*
advances when the address driver accepts a prediction; the *recovery
head* advances only when the chunk's instructions were actually fetched,
so an instruction-cache miss can roll the active head back and reissue
the same predictions.
"""

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class LpqStats:
    chunks_pushed: int = 0
    chunks_fetched: int = 0
    rollbacks: int = 0
    flush_membar: int = 0
    flush_partial_store: int = 0
    flush_timeout: int = 0
    flush_pressure: int = 0
    full_stalls: int = 0
    instructions: int = 0

    @property
    def mean_chunk_length(self) -> float:
        return (self.instructions / self.chunks_pushed
                if self.chunks_pushed else 0.0)


@dataclass
class LpqChunk:
    """One trailing-thread fetch chunk: the exact retired path."""

    start_pc: int
    pcs: List[int]
    next_pc: int
    half_hints: List[Optional[int]]
    available_cycle: int

    def __len__(self) -> int:
        return len(self.pcs)


class LinePredictionQueue:
    """IBOX-side chunk FIFO with active and recovery heads."""

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self.stats = LpqStats()
        self._chunks: List[LpqChunk] = []
        self.active_head = 0
        self.recovery_head = 0

    def __len__(self) -> int:
        """Chunks not yet safely fetched (recovery-head occupancy)."""
        return len(self._chunks)

    @property
    def full(self) -> bool:
        return len(self._chunks) >= self.capacity

    def push(self, chunk: LpqChunk) -> None:
        if self.full:
            raise RuntimeError("LPQ overflow: aggregator must gate on free "
                               "space")
        self._chunks.append(chunk)
        self.stats.chunks_pushed += 1
        self.stats.instructions += len(chunk)

    def peek_active(self, now: int) -> Optional[LpqChunk]:
        """The prediction the active head would send next."""
        if self.active_head >= len(self._chunks):
            return None
        chunk = self._chunks[self.active_head]
        if now < chunk.available_cycle:
            return None
        return chunk

    def ack(self) -> None:
        """Address driver accepted the prediction: advance the active head."""
        if self.active_head >= len(self._chunks):
            raise RuntimeError("ack with no outstanding prediction")
        self.active_head += 1

    def commit(self) -> None:
        """Instructions fetched successfully: advance the recovery head and
        release the storage behind it."""
        if self.recovery_head >= self.active_head:
            raise RuntimeError("commit past the active head")
        self.recovery_head += 1
        self.stats.chunks_fetched += 1
        # Storage behind the recovery head is dead; reclaim it.
        if self.recovery_head:
            del self._chunks[:self.recovery_head]
            self.active_head -= self.recovery_head
            self.recovery_head = 0

    def rollback(self) -> None:
        """Icache miss (or similar): re-send from the recovery head."""
        if self.active_head != self.recovery_head:
            self.stats.rollbacks += 1
        self.active_head = self.recovery_head

    def clear(self) -> None:
        """Discard every queued chunk (SRTR rollback: the retired path
        they describe has been rewound)."""
        self._chunks.clear()
        self.active_head = 0
        self.recovery_head = 0


class ChunkAggregator:
    """QBOX-side logic building trailing fetch chunks from retirement."""

    def __init__(self, lpq: LinePredictionQueue, chunk_size: int = 8,
                 forward_latency: int = 4, wrap: int = 1 << 62,
                 flush_timeout: int = 24) -> None:
        self.lpq = lpq
        self.chunk_size = chunk_size
        self.forward_latency = forward_latency
        self.wrap = wrap
        self.flush_timeout = flush_timeout
        self._pcs: List[int] = []
        self._half_hints: List[Optional[int]] = []
        self._next_pc: Optional[int] = None   # where the retired path goes
        self._last_add_cycle: Optional[int] = None
        #: A flush blocked since the pending instructions were last empty.
        self._backlog = False

    def __len__(self) -> int:
        return len(self._pcs)

    def add(self, pc: int, next_pc: int, queue_half: Optional[int],
            now: int) -> None:
        """Record one retiring leading-thread instruction.

        ``next_pc`` is where the retired path continues (the actual branch
        target for control instructions, pc+1 otherwise).  A mispredicted-
        taken branch that actually fell through keeps the chunk growing,
        exactly as in Section 4.4.2's last observation.
        """
        pcs = self._pcs
        if pcs and pc != self._next_pc:
            self.flush(now)
            pcs = self._pcs
        pcs.append(pc)
        self._half_hints.append(queue_half)
        self._next_pc = next_pc
        self._last_add_cycle = now
        if len(pcs) >= self.chunk_size or next_pc != (pc + 1) % self.wrap:
            # Chunk limit reached, or the path jumps away (taken branch):
            # the continuation address is known, so terminate now.
            self.flush(now)

    def flush(self, now: int, reason: str = "forced") -> None:
        """Terminate the pending instructions and push them to the LPQ.

        :meth:`add` ends a chunk at either limit, so the pending
        instructions are one chunk, pushed whole, unless a flush blocked
        on a full LPQ since they were last empty.  Then they may have
        grown past the chunk size or across a discontinuity (retirement
        of non-loads is not gated on LPQ room), and are split at every
        discontinuity, tested pc by pc (a jump then a self-loop,
        ``[1, 3, 3]``, spans three pcs but is three chunks), and every
        ``chunk_size`` instructions.  Whatever does not fit in the LPQ
        right now stays pending.
        """
        if self._pcs and not self._backlog and not self.lpq.full:
            self.lpq.push(LpqChunk(self._pcs[0], self._pcs, self._next_pc,
                                   self._half_hints,
                                   now + self.forward_latency))
            self._pcs = []
            self._half_hints = []
        while self._pcs:
            if self.lpq.full:
                self.lpq.stats.full_stalls += 1
                self._backlog = True
                return  # retry on a later flush; stay pending
            length = 1
            while (length < min(self.chunk_size, len(self._pcs))
                   and self._pcs[length]
                   == (self._pcs[length - 1] + 1) % self.wrap):
                length += 1
            pcs = self._pcs[:length]
            hints = self._half_hints[:length]
            next_pc = (self._pcs[length] if length < len(self._pcs)
                       else self._next_pc)
            self.lpq.push(LpqChunk(
                start_pc=pcs[0], pcs=pcs, next_pc=next_pc, half_hints=hints,
                available_cycle=now + self.forward_latency))
            self._pcs = self._pcs[length:]
            self._half_hints = self._half_hints[length:]
        self._backlog = False
        stats = self.lpq.stats
        if reason == "membar":
            stats.flush_membar += 1
        elif reason == "partial-store":
            stats.flush_partial_store += 1
        elif reason == "timeout":
            stats.flush_timeout += 1
        elif reason == "pressure":
            stats.flush_pressure += 1
        self._last_add_cycle = None

    def tick(self, now: int) -> None:
        """Timeout flush: leading retirement stalled with a partial chunk."""
        if (self._pcs and self._last_add_cycle is not None
                and now - self._last_add_cycle >= self.flush_timeout):
            self.flush(now, reason="timeout")

    def clear(self) -> None:
        """Drop the pending partial chunk (SRTR rollback)."""
        self._pcs = []
        self._half_hints = []
        self._next_pc = None
        self._last_add_cycle = None
        self._backlog = False
