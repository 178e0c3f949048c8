"""Preferential space redundancy (Section 4.5).

The leading thread records which instruction-queue half each
instruction traversed; the line prediction queue carries those bits to
the trailing thread's fetch, and the QBOX steers the corresponding
trailing instructions to the *opposite* half — guaranteeing physically
distinct queue entries and (because each half owns its own functional-
unit partition) distinct functional units.

:class:`FuCorrespondenceTracker` measures the paper's Figure 7
statistic: the fraction of corresponding instruction pairs that executed
on the very same functional unit instance (time redundancy only).
Without PSR roughly 65% of pairs share a unit; with PSR nearly none do.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass
class PsrStats:
    pairs: int = 0
    same_unit: int = 0
    same_half: int = 0

    @property
    def same_unit_fraction(self) -> float:
        return self.same_unit / self.pairs if self.pairs else 0.0


class FuCorrespondenceTracker:
    """Pairs leading/trailing retired instructions by retirement index."""

    def __init__(self) -> None:
        self.stats = PsrStats()
        self._leading_seen = 0
        self._trailing_seen = 0
        self._leading_records: Dict[int, Tuple[Optional[tuple],
                                               Optional[int]]] = {}

    def leading_retired(self, fu: Optional[tuple],
                        queue_half: Optional[int]) -> None:
        self._leading_records[self._leading_seen] = (fu, queue_half)
        self._leading_seen += 1

    def trailing_retired(self, fu: Optional[tuple],
                         queue_half: Optional[int]) -> None:
        index = self._trailing_seen
        self._trailing_seen += 1
        record = self._leading_records.pop(index, None)
        if record is None:
            return
        lead_fu, lead_half = record
        if lead_fu is None or fu is None:
            return
        self.stats.pairs += 1
        if lead_fu == fu:
            self.stats.same_unit += 1
        if lead_half is not None and lead_half == queue_half:
            self.stats.same_half += 1
