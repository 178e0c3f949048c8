"""The load value queue (LVQ) — input replication for cached loads.

As each leading-thread load retires, its address and value are written
to the LVQ (protected by ECC — the LVQ is inside neither the data cache
nor the sphere, so fault injection never targets it).  Trailing-thread
loads bypass the load queue and data cache entirely and read the LVQ
instead.

Unlike the original SRT proposal's strict FIFO, our base processor
issues up to three loads per cycle out of order, so the LVQ supports
associative lookup by a *load correlation tag* — the program-order load
index assigned at rename, identical in both redundant threads
(Section 4.1).  Entries become visible to the trailing thread after the
QBOX-to-MBOX forwarding latency (plus the cross-core latency under CRT).
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass
class LvqStats:
    writes: int = 0
    reads: int = 0
    full_stalls: int = 0
    address_mismatches: int = 0
    peak_occupancy: int = 0


class LoadValueQueue:
    def __init__(self, capacity: int = 64, forward_latency: int = 2) -> None:
        self.capacity = capacity
        self.forward_latency = forward_latency
        self.stats = LvqStats()
        #: Per load correlation tag, ``(available cycle, (address,
        #: value))``: the pair is what :meth:`probe` returns.
        self._entries: Dict[int, Tuple[int, Tuple[int, int]]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def has_room(self) -> bool:
        if self.full:
            self.stats.full_stalls += 1
            return False
        return True

    def write(self, load_index: int, addr: int, value: int, now: int) -> None:
        """Record a retiring leading-thread load."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise RuntimeError("LVQ overflow: caller must gate retirement "
                               "on has_room()")
        entries[load_index] = (now + self.forward_latency, (addr, value))
        stats = self.stats
        stats.writes += 1
        if len(entries) > stats.peak_occupancy:
            stats.peak_occupancy = len(entries)

    def probe(self, load_index: int, now: int) -> Optional[Tuple[int, int]]:
        """Associative lookup by tag: ``(address, value)``, or None until
        the entry has arrived."""
        entry = self._entries.get(load_index)
        if entry is None or now < entry[0]:
            return None
        return entry[1]

    def consume(self, load_index: int) -> None:
        self._entries.pop(load_index, None)
        self.stats.reads += 1

    def clear(self) -> None:
        self._entries.clear()
