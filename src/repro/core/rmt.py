"""The RMT controller: SRT/CRT mechanisms implemented as pipeline hooks.

One :class:`RedundantPair` exists per logical thread: its leading and
trailing hardware threads (same core for SRT, opposite cores for CRT),
the pair's load value queue, line prediction queue + chunk aggregator,
store comparator, sphere-of-replication accounting, and the functional-
unit correspondence tracker used by the preferential-space-redundancy
experiment.

:class:`RmtController` implements :class:`~repro.pipeline.hooks.CoreHooks`
and dispatches each hook to the calling thread's pair, which each of
the two threads holds as ``thread.pair``.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.lpq import ChunkAggregator, LinePredictionQueue
from repro.core.lvq import LoadValueQueue
from repro.core.psr import FuCorrespondenceTracker
from repro.core.sphere import SphereOfReplication
from repro.core.store_comparator import StoreComparator
from repro.pipeline.hooks import CoreHooks
from repro.pipeline.thread import HwThread
from repro.pipeline.uop import Uop

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine
    from repro.pipeline.core import Core


@dataclass
class RedundantPair:
    name: str
    leading: HwThread
    trailing: HwThread
    lvq: LoadValueQueue
    lpq: LinePredictionQueue
    aggregator: ChunkAggregator
    comparator: StoreComparator
    sphere: SphereOfReplication
    tracker: FuCorrespondenceTracker = field(
        default_factory=FuCorrespondenceTracker)


class RmtController(CoreHooks):
    def __init__(self, machine: "Machine", config: MachineConfig) -> None:
        self.machine = machine
        self.config = config
        self.pairs: List[RedundantPair] = []
        #: Trailing threads fetch from the line prediction queue (else
        #: through the predictors, the Section 4.4 alternative).
        self._lpq_mode = config.trailing_fetch_mode == "lpq"

    # -- construction ------------------------------------------------------
    def create_pair(self, name: str, leading: HwThread, trailing: HwThread,
                    cross_latency: int = 0) -> RedundantPair:
        """Wire a redundant pair; ``cross_latency`` is the extra chip-
        crossing delay CRT pays on every forwarded value."""
        config = self.config
        lvq = LoadValueQueue(
            capacity=config.lvq_entries,
            forward_latency=config.srt_load_forward_latency + cross_latency)
        lpq = LinePredictionQueue(capacity=config.lpq_entries)
        aggregator = ChunkAggregator(
            lpq, chunk_size=config.core.chunk_size,
            forward_latency=config.srt_line_forward_latency + cross_latency,
            wrap=len(leading.program),
            flush_timeout=config.lpq_flush_timeout)
        sphere = SphereOfReplication(name=name)

        def on_mismatch(entry: Uop, record, now: int) -> None:
            sphere.record_comparison(matched=False)
            self.machine.report_fault(
                now, "store-mismatch", leading.tid,
                detail=(f"store #{entry.store_index}: leading "
                        f"({entry.instr.op.name} @{entry.mem_addr:#x} = "
                        f"{entry.store_value:#x}) vs trailing "
                        f"({record.op_name} @{record.addr:#x} = "
                        f"{record.value:#x})"))

        comparator = StoreComparator(leading, forward_latency=cross_latency,
                                     on_mismatch=on_mismatch)
        pair = RedundantPair(name=name, leading=leading, trailing=trailing,
                             lvq=lvq, lpq=lpq, aggregator=aggregator,
                             comparator=comparator, sphere=sphere)
        leading.pair = trailing.pair = pair
        self.pairs.append(pair)
        return pair

    # -- per-cycle work ----------------------------------------------------
    def tick(self, now: int) -> None:
        for pair in self.pairs:
            aggregator = pair.aggregator
            aggregator.tick(now)
            pair.comparator.tick(now)
            # Store-queue pressure: if the leading thread's store queue is
            # nearly exhausted by unverified stores, push the partial chunk
            # so the trailing thread can catch up and verify them.
            leading = pair.leading
            if (len(leading.store_queue) == leading.sq_capacity
                    and len(aggregator)):
                aggregator.flush(now, reason="pressure")

    def _slack_satisfied(self, pair: RedundantPair) -> bool:
        slack = self.config.srt_slack_instructions
        if not slack:
            return True
        # The leading thread cannot retire past a full LVQ, so demanding
        # more slack than the LVQ can buffer would deadlock the pair;
        # clamp to what the queues can actually absorb.
        limit = max(self.config.lvq_entries - 8, 1)
        slack = min(slack, limit)
        return (pair.leading.stats.retired
                - pair.trailing.stats.retired) >= slack

    # -- retirement-side hooks ------------------------------------------------
    def on_uop_retired(self, core: "Core", thread: HwThread, uop: Uop,
                       now: int) -> None:
        pair = thread.pair
        if pair is None:
            return
        half = uop.queue_half
        if thread is pair.leading:
            pair.tracker.leading_retired(uop.fu, half)
            if self._lpq_mode:
                # The core set committed_pc, where the retired path
                # continues, before calling this hook.
                pair.aggregator.add(uop.pc, thread.committed_pc, half, now)
        else:
            pair.tracker.trailing_retired(uop.fu, half)

    def on_membar_blocked(self, core: "Core", thread: HwThread,
                          now: int) -> None:
        pair = thread.pair
        if pair is not None and thread is pair.leading:
            pair.aggregator.flush(now, reason="membar")

    def on_partial_store_block(self, core: "Core", thread: HwThread,
                               store_uop: Uop, now: int) -> None:
        pair = thread.pair
        if pair is not None and thread is pair.leading:
            pair.aggregator.flush(now, reason="partial-store")

    def can_retire_load(self, core: "Core", thread: HwThread, uop: Uop,
                        now: int) -> bool:
        pair = thread.pair
        if pair is None or thread is not pair.leading:
            return True
        # The LVQ entry is written at retirement; no room means stall.
        if not pair.lvq.has_room():
            return False
        return not (self._lpq_mode and pair.lpq.full)

    def on_load_retired(self, core: "Core", thread: HwThread, uop: Uop,
                        now: int) -> None:
        pair = thread.pair
        if pair is None or thread is not pair.leading:
            return
        pair.lvq.write(uop.load_index, uop.mem_addr, uop.result, now)
        pair.sphere.record_input()
        thread.stats.lvq_writes += 1

    def store_needs_verification(self, thread: HwThread) -> bool:
        pair = thread.pair
        return (pair is not None and thread is pair.leading
                and self.config.store_comparison)

    def on_store_retired(self, core: "Core", thread: HwThread, uop: Uop,
                         now: int) -> None:
        pair = thread.pair
        if pair is None or thread is not pair.trailing:
            return
        if self.config.store_comparison:
            pair.comparator.trailing_store_retired(uop, now)
            pair.sphere.record_comparison(matched=True)

    def on_store_drained(self, core: "Core", thread: HwThread, uop: Uop,
                         now: int) -> None:
        pair = thread.pair
        if pair is not None and thread is pair.leading:
            pair.sphere.record_forwarded()

    # -- fetch-side hooks ----------------------------------------------------
    def trailing_fetch_ready(self, core: "Core", thread: HwThread,
                             now: int) -> bool:
        pair = thread.pair
        return (pair is not None
                and self._slack_satisfied(pair)
                and pair.lpq.peek_active(now) is not None)

    def trailing_may_fetch(self, core: "Core", thread: HwThread,
                           now: int) -> bool:
        """Predictor-mode trailing fetch gate: slack fetch only."""
        pair = thread.pair
        return pair is None or self._slack_satisfied(pair)

    def trailing_peek_chunk(self, core: "Core", thread: HwThread,
                            now: int) -> Optional[tuple]:
        pair = thread.pair
        if pair is None:
            return None
        chunk = pair.lpq.peek_active(now)
        if chunk is None:
            return None
        return chunk.start_pc, chunk.pcs, chunk.next_pc, chunk.half_hints

    def trailing_ack_chunk(self, core: "Core", thread: HwThread,
                           now: int) -> None:
        thread.pair.lpq.ack()

    def trailing_commit_chunk(self, core: "Core", thread: HwThread,
                              now: int) -> None:
        thread.pair.lpq.commit()

    def trailing_rollback_chunk(self, core: "Core", thread: HwThread,
                                now: int) -> None:
        thread.pair.lpq.rollback()

    # -- execute-side hooks -----------------------------------------------------
    def trailing_load_probe(self, core: "Core", thread: HwThread, uop: Uop,
                            now: int) -> Optional[Tuple[int, int]]:
        pair = thread.pair
        if pair is None:
            return None
        return pair.lvq.probe(uop.load_index, now)

    def trailing_load_consume(self, core: "Core", thread: HwThread, uop: Uop,
                              now: int) -> None:
        thread.pair.lvq.consume(uop.load_index)

    def on_trailing_divergence(self, core: "Core", thread: HwThread, uop: Uop,
                               kind: str, now: int) -> None:
        pair = thread.pair
        if pair is not None and kind == "lvq-address-mismatch":
            pair.lvq.stats.address_mismatches += 1
        self.machine.report_fault(
            now, kind, thread.tid,
            detail=f"pc={uop.pc} {uop.instr.op.name} seq={uop.seq}")

    def queue_half_for(self, core: "Core", thread: HwThread, uop: Uop,
                       default_half: int) -> int:
        # Asked for trailing uops only; a leading uop has no hint anyway.
        if (not self.config.preferential_space_redundancy
                or uop.lpq_half_hint is None):
            return default_half
        return 1 - uop.lpq_half_hint
