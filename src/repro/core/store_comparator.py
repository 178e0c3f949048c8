"""The store comparator — output comparison for cacheable stores.

A separate structure sitting next to the store queue (Section 4.2):
when a trailing-thread store and its data retire, the comparator looks
up the corresponding leading-thread store-queue entry (matched by the
program-order store index, identical in both threads), compares opcode,
address, and data, and signals the store queue that the verified store
may now drain to the data cache.  A mismatch is a detected fault.

Leading stores therefore live in the store queue from their own
retirement until their trailing twin retires and the comparison
completes — the ~39-cycle lifetime extension of Section 7.1.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.pipeline.thread import HwThread
from repro.pipeline.uop import Uop


@dataclass
class StoreComparatorStats:
    comparisons: int = 0
    mismatches: int = 0
    pending_peak: int = 0


@dataclass
class _TrailingRecord:
    store_index: int
    op_name: str
    addr: int
    raw_addr: int
    value: int
    available_cycle: int


class StoreComparator:
    """Matches trailing-store records against leading store-queue entries."""

    def __init__(self, leading: HwThread, forward_latency: int = 0,
                 on_mismatch: Optional[Callable] = None) -> None:
        self.leading = leading
        self.forward_latency = forward_latency
        self.on_mismatch = on_mismatch
        self.stats = StoreComparatorStats()
        self._pending: Dict[int, _TrailingRecord] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def clear(self) -> None:
        """Drop unmatched trailing records (SRTR rollback discards both
        threads' in-flight stores, so nothing is left to verify)."""
        self._pending.clear()

    # -- trailing side -----------------------------------------------------
    def trailing_store_retired(self, uop: Uop, now: int) -> None:
        record = _TrailingRecord(
            store_index=uop.store_index, op_name=uop.instr.op.name,
            addr=uop.mem_addr, raw_addr=uop.raw_addr, value=uop.store_value,
            available_cycle=now + self.forward_latency)
        self._pending[record.store_index] = record
        self.stats.pending_peak = max(self.stats.pending_peak,
                                      len(self._pending))

    # -- per-cycle matching -----------------------------------------------
    def tick(self, now: int) -> None:
        if not self._pending:
            return
        for entry in self.leading.store_queue:
            if entry.verified or entry.mem_addr is None:
                continue
            record = self._pending.get(entry.store_index)
            if record is None or now < record.available_cycle:
                continue
            self._compare(entry, record, now)
            del self._pending[entry.store_index]

    def _compare(self, entry: Uop, record: _TrailingRecord, now: int) -> None:
        self.stats.comparisons += 1
        matches = (entry.instr.op.name == record.op_name
                   and entry.mem_addr == record.addr
                   and entry.store_value == record.value
                   and (not entry.info.is_partial_store
                        or (entry.raw_addr & 4) == (record.raw_addr & 4)))
        entry.verified = True  # checked either way; fault is reported
        if not matches:
            self.stats.mismatches += 1
            if self.on_mismatch is not None:
                self.on_mismatch(entry, record, now)
