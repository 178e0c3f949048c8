"""Deterministic random number generation.

Every stochastic choice in the simulator (program generation, fault
injection points) flows through a :class:`DeterministicRng` derived from
a named seed, so that any run is exactly reproducible from its
configuration alone.
"""

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


def seed_from(*parts: object) -> int:
    """Derive a stable 64-bit seed from a sequence of printable parts."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def spawn_seed(parent_seed: int, *key: object) -> int:
    """Spawn-style sub-seed derivation (cross-process safe).

    Hashes the parent seed together with a spawn key, so a worker
    process can rebuild exactly the stream it owns from ``(root seed,
    key)`` alone — no shared ``random.Random`` state ever crosses a
    process boundary, and sibling streams are statistically independent
    regardless of how much any of them has been consumed.
    """
    return seed_from("spawn", parent_seed, *key)


class DeterministicRng:
    """Thin wrapper over :class:`random.Random` with named derivation.

    Draws are bound once per stream: ``random`` is the host generator's
    own C method, and ``randint`` and ``choice`` consume its bits
    exactly as :class:`random.Random` does, so every stream yields the
    same values as ``random.Random(seed)`` would.
    """

    def __init__(self, *seed_parts: object) -> None:
        self._seed(seed_from(*seed_parts))

    def _seed(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self.random = self._rng.random
        self._getrandbits = self._rng.getrandbits

    def derive(self, *parts: object) -> "DeterministicRng":
        """Create an independent child stream, stable under reordering of use."""
        return DeterministicRng(self.seed, *parts)

    def spawn(self, *key: object) -> "DeterministicRng":
        """Spawn an independent child stream from a pure seed function.

        Unlike passing this RNG around, the child depends only on
        ``(self.seed, key)`` — never on how many values the parent has
        already drawn — so the same ``(root, key)`` pair rebuilds the
        identical stream inside any worker process.  This is the only
        derivation campaign workers may use.
        """
        return DeterministicRng.from_seed(spawn_seed(self.seed, *key))

    @classmethod
    def from_seed(cls, seed: int) -> "DeterministicRng":
        """Wrap an already-derived integer seed without re-hashing it."""
        rng = cls.__new__(cls)
        rng._seed(seed)
        return rng

    def randint(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high]``, as
        ``random.Random.randint`` draws it."""
        n = high - low + 1
        if n <= 0:
            raise ValueError(
                f"empty range for randrange() ({low}, {high + 1}, {n})")
        # random.Random._randbelow_with_getrandbits: k bits per try, and
        # k counts the bits of n itself, not of n - 1.
        getrandbits = self._getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return low + r

    def choice(self, options: Sequence[T]) -> T:
        """A uniform element of ``options``, as ``random.Random.choice``
        draws it: the same draw as ``randint(0, len(options) - 1)``."""
        if not len(options):
            raise IndexError("Cannot choose from an empty sequence")
        return options[self.randint(0, len(options) - 1)]

    def choices(self, options: Sequence[T], weights: Sequence[float], k: int = 1):
        return self._rng.choices(options, weights=weights, k=k)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def sample(self, options: Sequence[T], k: int):
        return self._rng.sample(options, k)
