"""Small generic building blocks used across the simulator.

Everything here is deliberately free of microarchitectural knowledge:
delay lines, bounded FIFOs, a deterministic RNG wrapper, and 64-bit
integer helpers.
"""

from repro.util.bits import MASK64, flip_bit, sign_extend, to_signed, to_unsigned
from repro.util.canonical import canonical_json, content_hash, payload_digest
from repro.util.delayline import DelayLine
from repro.util.fifo import BoundedFifo, FifoFullError
from repro.util.rng import DeterministicRng, seed_from

__all__ = [
    "DelayLine",
    "BoundedFifo",
    "FifoFullError",
    "DeterministicRng",
    "seed_from",
    "MASK64",
    "canonical_json",
    "content_hash",
    "flip_bit",
    "payload_digest",
    "sign_extend",
    "to_signed",
    "to_unsigned",
]
