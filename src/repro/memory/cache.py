"""Set-associative caches with LRU replacement and MSHR-style miss merging.

Timing model: ``access`` returns the cycle at which the requested data is
available.  Hits are available after ``hit_latency``; misses are
forwarded to the next level and tracked in miss-status registers so that
concurrent requests to the same block merge onto one fill instead of
issuing duplicate next-level accesses (as the paper's trailing threads
rely on: a sufficiently delayed fetch finds the block already present).
"""

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    mshr_merges: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class NextLevel:
    """Interface of whatever sits below a cache (another cache or memory)."""

    def access(self, addr: int, now: int, write: bool = False) -> int:
        raise NotImplementedError


@dataclass
class MemoryController:
    """Flat-latency main memory with a simple multi-channel busy model.

    Approximates the base machine's 2 Rambus controllers x 10 channels
    (Table 1): requests are spread over ``channels`` by address hash and a
    busy channel queues the request behind its previous one.
    """

    latency: int = 80
    channels: int = 10
    channel_occupancy: int = 4  # cycles a request occupies its channel
    _busy_until: Dict[int, int] = field(default_factory=dict)
    requests: int = 0

    def access(self, addr: int, now: int, write: bool = False) -> int:
        self.requests += 1
        channel = (addr >> 6) % self.channels
        start = max(now, self._busy_until.get(channel, 0))
        self._busy_until[channel] = start + self.channel_occupancy
        return start + self.latency


class SetAssociativeCache(NextLevel):
    """A single cache level.

    ``extra_miss_latency`` implements the lockstep checker penalty: in a
    lockstepped pair every miss request leaving the sphere of replication
    must first be compared, adding checker latency to the miss path
    (paper Section 5's first advantage of CRT over lockstepping).
    """

    def __init__(self, name: str, size_bytes: int, assoc: int,
                 block_bytes: int, hit_latency: int,
                 next_level: Optional[NextLevel] = None,
                 extra_miss_latency: int = 0) -> None:
        if size_bytes % (assoc * block_bytes) != 0:
            raise ValueError(f"{name}: size/assoc/block mismatch")
        if block_bytes & (block_bytes - 1):
            raise ValueError(f"{name}: block size must be a power of two")
        self.name = name
        self.block_bytes = block_bytes
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * block_bytes)
        self.hit_latency = hit_latency
        self.next_level = next_level
        self.extra_miss_latency = extra_miss_latency
        self.stats = CacheStats()
        # set index -> {tag: last-use stamp}; dict order + stamps give LRU.
        self._sets: Dict[int, Dict[int, int]] = {}
        # block address -> fill-ready cycle (miss status registers).
        self._mshrs: Dict[int, int] = {}
        self._use_stamp = 0

    @property
    def geometry(self) -> Tuple[int, int, int]:
        """``(num_sets, assoc, block_bytes)``: with the blocks it installs,
        all a warm-up's outcome depends on (latencies never reach it)."""
        return self.num_sets, self.assoc, self.block_bytes

    # -- address helpers ------------------------------------------------
    def block_addr(self, addr: int) -> int:
        return addr & ~(self.block_bytes - 1)

    def _index_tag(self, addr: int) -> tuple:
        block = addr // self.block_bytes
        return block % self.num_sets, block // self.num_sets

    # -- lookup ----------------------------------------------------------
    def contains(self, addr: int) -> bool:
        index, tag = self._index_tag(addr)
        return tag in self._sets.get(index, {})

    def access(self, addr: int, now: int, write: bool = False) -> int:
        """Access ``addr``; return the cycle its data becomes available."""
        index, tag = self._index_tag(addr)
        ways = self._sets.setdefault(index, {})
        self._use_stamp += 1
        if tag in ways:
            ways[tag] = self._use_stamp
            self.stats.hits += 1
            return now + self.hit_latency

        self.stats.misses += 1
        block = self.block_addr(addr)
        pending = self._mshrs.get(block)
        if pending is not None and pending > now:
            # Merge with the outstanding fill for this block.
            self.stats.mshr_merges += 1
            return pending
        if self.next_level is not None:
            fill_ready = self.next_level.access(
                addr, now + self.extra_miss_latency, write)
        else:
            fill_ready = now + self.extra_miss_latency
        fill_ready += self.hit_latency
        self._mshrs[block] = fill_ready
        self._fill(index, tag)
        return fill_ready

    def _fill(self, index: int, ways_tag: int) -> None:
        ways = self._sets.setdefault(index, {})
        if len(ways) >= self.assoc:
            victim = min(ways, key=ways.get)
            del ways[victim]
            self.stats.writebacks += 1
        ways[ways_tag] = self._use_stamp

    def warm(self, addrs: Iterable[int]) -> None:
        """Install the block of each address in turn, without timing
        (used for warm-start runs)."""
        # _index_tag inlined: a warm-up installs thousands of blocks.
        block_bytes, num_sets = self.block_bytes, self.num_sets
        fill = self._fill
        for addr in addrs:
            block = addr // block_bytes
            self._use_stamp += 1
            fill(block % num_sets, block // num_sets)

    # -- warmed-state copies ----------------------------------------------
    def is_pristine(self) -> bool:
        """True while nothing is installed, counted or in flight: the
        cache as constructed."""
        return not (self._sets or self._use_stamp or self._mshrs
                    or any(vars(self.stats).values()))

    def snapshot(self) -> tuple:
        """A copy of all that :meth:`warm` changes, sharing nothing with
        the cache: its sets as flat ``(index, tag, stamp)`` triples in
        insertion order, the use stamp and the statistics."""
        triples = array("q")
        for index, ways in self._sets.items():
            for tag, stamp in ways.items():
                triples.extend((index, tag, stamp))
        return triples, self._use_stamp, dict(vars(self.stats))

    def restore(self, snapshot: tuple) -> None:
        """Take the state :meth:`snapshot` copied, as fresh objects, into a
        pristine cache (a warm-up never leaves a set empty)."""
        triples, self._use_stamp, stats = snapshot
        sets = self._sets = {}
        values = iter(triples)
        for index, tag, stamp in zip(values, values, values):
            ways = sets.get(index)
            if ways is None:
                ways = sets[index] = {}
            ways[tag] = stamp
        vars(self.stats).update(stats)
