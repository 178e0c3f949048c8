"""Correctness oracle: committed output digests plus invariants.

``bench/expected.json`` maps seed -> workload -> op key -> digest, where
a digest is the truncated SHA-256 of the canonical JSON of an output
(``repro.util.canonical.content_hash``), its floats rounded to
:data:`FLOAT_DIGITS` significant digits.  Simulated output is
deterministic, so a change that only makes the program faster must
reproduce every digest; a mismatch fails that operation.  Seeds or op
keys the file does not cover get the invariant checks only, and their
digests are printed so they can be compared by hand.

``python3 bench/run.py regen-expected`` is the only writer of the file.
"""

import json
import sys
from typing import Dict, Optional

from bench import ROOT

#: The committed digests.
EXPECTED_PATH = ROOT / "bench" / "expected.json"

#: Bump when a digested output changes shape on purpose.
FORMAT = 2

#: Significant digits a float keeps in a digest.  Derived ratios (means
#: of efficiencies, AVFs) differ in their last bit between Python
#: versions, because Python 3.12 made ``sum`` of floats compensated;
#: simulated counts do not.  Rounding keeps every digest the same on
#: every supported Python while any real change still shows.
FLOAT_DIGITS = 12


def rounded(data: object) -> object:
    """``data`` with every float rounded to FLOAT_DIGITS digits."""
    if isinstance(data, float):
        return float(f"{data:.{FLOAT_DIGITS}g}")
    if isinstance(data, dict):
        return {key: rounded(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [rounded(value) for value in data]
    return data


def digest(data: object) -> str:
    """Truncated SHA-256 of the canonical JSON of ``rounded(data)``."""
    from repro.util.canonical import content_hash

    return content_hash(rounded(data))


class Oracle:
    """Checks one workload's digests for one seed.

    ``table`` maps op keys to expected digests; ``None`` means the seed
    is not recorded.  ``announce`` prints each digest that has no
    expected value.
    """

    def __init__(self, table: Optional[Dict[str, str]],
                 announce: bool = True) -> None:
        self.table = table
        self.announce = announce
        #: Every digest computed in this process, by op key.
        self.seen: Dict[str, str] = {}

    @classmethod
    def load(cls, workload: str, seed: int) -> "Oracle":
        with open(EXPECTED_PATH, "r", encoding="utf-8") as source:
            data = json.load(source)
        if data.get("format") != FORMAT:
            raise ValueError(f"expected.json format {data.get('format')!r}"
                             f" is not {FORMAT}")
        return cls(data["seeds"].get(str(seed), {}).get(workload))

    def check(self, key: str, value: str) -> Optional[str]:
        """Record ``value`` for ``key``; return a problem, or None."""
        first = key not in self.seen
        self.seen[key] = value
        want = None if self.table is None else self.table.get(key)
        if want is None:
            if self.announce and first:
                print(f"digest {key} {value} (not recorded)",
                      file=sys.stderr)
            return None
        if want != value:
            return f"{key}: digest {value} != expected {want}"
        return None


def write_expected(seeds: Dict[int, Dict[str, Dict[str, str]]]) -> None:
    """Write the digest table (the regen-expected command)."""
    payload = {"format": FORMAT,
               "seeds": {str(seed): seeds[seed] for seed in sorted(seeds)}}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=1, sort_keys=True)
        sink.write("\n")
