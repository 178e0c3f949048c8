"""Functional-unit pools (EBOX integer/logic, FBOX floating point, MBOX
memory ports).

Table 1: 8 integer units, 8 logic units, 4 memory units, 4 floating
point units; 8 operations issue per cycle.  Units are partitioned
between the two instruction-queue halves (each half can issue 4 per
cycle to its own unit subset), which is the structural basis for
preferential space redundancy: steering a trailing uop to the opposite
queue half guarantees it a physically different unit instance.

Every unit is pipelined: it takes a new operation each cycle.  Per-unit
issue counts let the paper's Figure 7 statistic (fraction of
corresponding instruction pairs executing on the *same* unit) be
measured directly.
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


def units_for_half(fu_class: FuClass, half: int) -> range:
    """Unit indices of ``fu_class`` reachable from queue half ``half``."""
    per_half = POOL_SIZES[fu_class] // 2
    start = half * per_half
    return range(start, start + per_half)


#: Per (class, queue half) slot, slot ``2 * fu_class.ordinal + half``,
#: its units in order.  A unit is a value, so every core shares these.
SLOT_UNITS: Tuple[Tuple[Unit, ...], ...] = tuple(
    tuple((fu_class, index) for index in units_for_half(fu_class, half))
    for fu_class in FuClass for half in (0, 1))


class FunctionalUnitPools:
    """One core's unit instances, by slot (:data:`SLOT_UNITS`).

    Because every unit is pipelined, the k-th claim on a slot in a
    cycle takes the slot's k-th unit, and a claim past its last unit is
    a structural stall.  The QBOX's select counts claims per slot
    inline and records each in ``issues`` (or ``structural_stalls``);
    :meth:`acquire` is the reference it follows, one claim at a time
    with a busy-until cycle per unit.
    """

    units = SLOT_UNITS
    units_for_half = staticmethod(units_for_half)

    def __init__(self) -> None:
        #: Per slot, the issues each of its units took.
        self.issues: List[List[int]] = [[0] * len(units)
                                        for units in SLOT_UNITS]
        self.structural_stalls = 0
        self._busy_until = [[0] * len(units) for units in SLOT_UNITS]

    @property
    def stats(self) -> FunctionalUnitStats:
        """Issues and structural stalls so far."""
        per_unit = {unit: issues
                    for units, counts in zip(SLOT_UNITS, self.issues)
                    for unit, issues in zip(units, counts) if issues}
        return FunctionalUnitStats(
            issues=sum(per_unit.values()),
            structural_stalls=self.structural_stalls,
            per_unit_issues=per_unit)

    def acquire(self, fu_class: FuClass, half: int,
                now: int) -> Optional[Unit]:
        """Claim a free unit of ``fu_class`` in ``half``'s partition.

        Returns the (class, index) actually used, or None when every unit
        in the partition is busy this cycle (a structural stall).
        """
        slot = 2 * fu_class.ordinal + half
        busy_until = self._busy_until[slot]
        for index, until in enumerate(busy_until):
            if until <= now:
                busy_until[index] = now + 1
                self.issues[slot][index] += 1
                return SLOT_UNITS[slot][index]
        self.structural_stalls += 1
        return None
