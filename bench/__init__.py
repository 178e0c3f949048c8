"""The repository's benchmark: four workloads over the RMT simulator stack.

``python3 bench/run.py run --workload W --seed S --seconds T --trace 0|1``
measures one workload and prints every metric with its unit, then one
JSON result line (see ``bench/README.md``).  The package is
self-contained: it imports the simulator from the ``src/`` directory of
the checkout it sits in and changes nothing outside ``bench/``.
"""

import sys
from pathlib import Path

#: Root of the checkout holding ``bench/`` (and, normally, ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: The simulator sources this benchmark measures.
SRC = ROOT / "src"

#: Scratch space for run artifacts (campaign stores, serve work dirs,
#: span logs); always inside the checkout.
WORK = ROOT / ".benchwork"


class CheckoutError(RuntimeError):
    """The checkout lacks what the benchmark needs (no result is printed)."""


def use_checkout_sources() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    Raises :class:`CheckoutError` when the checkout has no simulator
    sources, so a bare copy of the benchmark fails instead of measuring
    some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no simulator sources at {SRC / 'repro'}")
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)
