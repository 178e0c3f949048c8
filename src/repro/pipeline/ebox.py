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
    ``2 * fu_class.ordinal + half``.  A slot holds one cell per unit
    the half reaches, ``[busy-until cycle, issues, unit]``, so an issue
    walks its candidates in unit order with one index per cell.
    """

    def __init__(self, pool_sizes: Optional[Dict[FuClass, int]] = None) -> None:
        self.pool_sizes = dict(pool_sizes or POOL_SIZES)
        #: Per slot, its cells; ``None`` for a class without a pool.
        self._cells: List[Optional[List[list]]] = [None] * 2 * len(FuClass)
        self._structural_stalls = 0
        for fu_class in self.pool_sizes:
            for half in (0, 1):
                self._cells[2 * fu_class.ordinal + half] = [
                    [0, 0, (fu_class, index)]
                    for index in self.units_for_half(fu_class, half)]

    @property
    def stats(self) -> FunctionalUnitStats:
        """Issues and structural stalls so far."""
        per_unit = {unit: issues for cells in self._cells if cells
                    for _, issues, unit in cells if issues}
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

    def _slot(self, fu_class: FuClass, half: int) -> List[list]:
        cells = self._cells[2 * fu_class.ordinal + half]
        if cells is None:
            raise KeyError(fu_class)
        return cells

    def acquire(self, fu_class: FuClass, half: int, now: int,
                busy_cycles: int = 1) -> Optional[Unit]:
        """Claim a free unit of ``fu_class`` in ``half``'s partition.

        Returns the (class, index) actually used, or None when every unit
        in the partition is busy this cycle (a structural stall).
        """
        for cell in self._cells[2 * fu_class.ordinal + half] or ():
            if cell[0] <= now:
                cell[0] = now + busy_cycles
                cell[1] += 1
                return cell[2]
        self._slot(fu_class, half)  # a class without a pool raises
        self._structural_stalls += 1
        return None

    def is_free(self, fu_class: FuClass, half: int, now: int) -> bool:
        return any(cell[0] <= now for cell in self._slot(fu_class, half))
