"""Fixed-latency delay line modelling pipelined wires and queues."""

from collections import deque
from typing import Deque, Generic, List, Tuple, TypeVar

T = TypeVar("T")


class DelayLine(Generic[T]):
    """Items pushed at cycle ``c`` become visible at cycle ``c + latency``.

    Models pipeline-stage traversal and chip-crossing wires.  Items keep
    FIFO order; a latency of zero makes items available the same cycle.
    """

    def __init__(self, latency: int, name: str = "delayline") -> None:
        if latency < 0:
            raise ValueError(f"{name}: latency must be >= 0, got {latency}")
        self.latency = latency
        self.name = name
        self._items: Deque[Tuple[int, T]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def push(self, item: T, now: int) -> None:
        self._items.append((now + self.latency, item))

    def pop_ready(self, now: int) -> List[T]:
        """Pop and return every item whose delay has elapsed by ``now``."""
        items = self._items
        if not items or items[0][0] > now:
            return []
        ready: List[T] = [items.popleft()[1]]
        while items and items[0][0] <= now:
            ready.append(items.popleft()[1])
        return ready

    def peek_ready(self, now: int) -> List[T]:
        """Return (without removing) items available at ``now``."""
        return [item for when, item in self._items if when <= now]

    def clear(self) -> None:
        self._items.clear()

    def remove_if(self, predicate) -> int:
        """Drop in-flight items matching ``predicate`` (used on squash)."""
        kept = [(when, item) for when, item in self._items if not predicate(item)]
        removed = len(self._items) - len(kept)
        self._items = deque(kept)
        return removed
