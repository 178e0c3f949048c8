"""Functional-unit pools (EBOX integer/logic, FBOX floating point, MBOX
memory ports).

Table 1: 8 integer units, 8 logic units, 4 memory units, 4 floating
point units; 8 operations issue per cycle.  Units are partitioned
between the two instruction-queue halves (each half can issue 4 per
cycle to its own unit subset), which is the structural basis for
preferential space redundancy: steering a trailing uop to the opposite
queue half guarantees it a physically different unit instance.

Per-instance occupancy is tracked so the paper's Figure 7 statistic
(fraction of corresponding instruction pairs executing on the *same*
unit) can be measured directly.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import FuClass

POOL_SIZES = {
    FuClass.INT: 8,
    FuClass.LOGIC: 8,
    FuClass.MEM: 4,
    FuClass.FP: 4,
}

#: A unit instance: ``(class, index within the class)``.
Unit = Tuple[FuClass, int]


@dataclass
class FunctionalUnitStats:
    issues: int = 0
    structural_stalls: int = 0
    per_unit_issues: Dict[Unit, int] = field(default_factory=dict)


class FunctionalUnitPools:
    """Busy-until tracking for every individual unit instance.

    The units are grouped by (class, queue half) into slots, slot
    ``2 * fu_class.ordinal + half``, so an issue finds its candidate
    units and their busy-until cycles by list index.
    """

    def __init__(self, pool_sizes: Optional[Dict[FuClass, int]] = None) -> None:
        self.pool_sizes = dict(pool_sizes or POOL_SIZES)
        slots = 2 * len(FuClass)
        #: Per slot, the units the half reaches (``None`` for a class
        #: without a pool), each unit's busy-until cycle and its issues.
        self._units: List[Optional[Tuple[Unit, ...]]] = [None] * slots
        self._busy_until: List[List[int]] = [[] for _ in range(slots)]
        self._issues: List[List[int]] = [[] for _ in range(slots)]
        self._structural_stalls = 0
        for fu_class in self.pool_sizes:
            for half in (0, 1):
                slot = 2 * fu_class.ordinal + half
                units = tuple((fu_class, index) for index
                              in self.units_for_half(fu_class, half))
                self._units[slot] = units
                self._busy_until[slot] = [0] * len(units)
                self._issues[slot] = [0] * len(units)

    @property
    def stats(self) -> FunctionalUnitStats:
        """Issues and structural stalls so far."""
        per_unit = {unit: count
                    for units, issues in zip(self._units, self._issues)
                    if units for unit, count in zip(units, issues) if count}
        return FunctionalUnitStats(
            issues=sum(per_unit.values()),
            structural_stalls=self._structural_stalls,
            per_unit_issues=per_unit)

    def units_for_half(self, fu_class: FuClass, half: int) -> range:
        """Unit indices of ``fu_class`` reachable from queue half ``half``."""
        size = self.pool_sizes[fu_class]
        per_half = size // 2
        start = half * per_half
        return range(start, start + per_half)

    def _slot(self, fu_class: FuClass, half: int) -> int:
        slot = 2 * fu_class.ordinal + half
        if self._units[slot] is None:
            raise KeyError(fu_class)
        return slot

    def acquire(self, fu_class: FuClass, half: int, now: int,
                busy_cycles: int = 1) -> Optional[Unit]:
        """Claim a free unit of ``fu_class`` in ``half``'s partition.

        Returns the (class, index) actually used, or None when every unit
        in the partition is busy this cycle (a structural stall).
        """
        slot = 2 * fu_class.ordinal + half
        busy_until = self._busy_until[slot]
        for position, until in enumerate(busy_until):
            if until <= now:
                busy_until[position] = now + busy_cycles
                self._issues[slot][position] += 1
                return self._units[slot][position]
        self._slot(fu_class, half)  # a class without a pool raises
        self._structural_stalls += 1
        return None

    def is_free(self, fu_class: FuClass, half: int, now: int) -> bool:
        return any(until <= now
                   for until in self._busy_until[self._slot(fu_class, half)])
