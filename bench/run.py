"""Command line: ``python3 bench/run.py {run,repeat,regen-expected}``.

    python3 bench/run.py run --workload paper-smoke --seed 0 --trace 0
    python3 bench/run.py run                      # all four workloads
    python3 bench/run.py repeat --runs 10         # spread of every metric
    python3 bench/run.py regen-expected           # every input set

The script puts the checkout root on ``sys.path`` itself, so it finds
the ``bench`` package from any current directory, and also when the
interpreter leaves the script's directory off the path
(``PYTHONSAFEPATH``).
"""

import argparse
import sys
from pathlib import Path
from typing import List, Optional

_HERE = Path(__file__).resolve().parent
# Without PYTHONSAFEPATH the script's own directory comes first; its
# modules must import as ``bench.*`` only, never as top-level names.
if sys.path and sys.path[0] == str(_HERE):
    del sys.path[0]
sys.path.insert(0, str(_HERE.parent))

from bench import commands  # noqa: E402


def _seeds(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 bench/run.py",
        description="Benchmark of the RMT simulator and the stack "
                    "around it (see bench/README.md)")
    subcommands = parser.add_subparsers(dest="command", required=True)

    run = subcommands.add_parser("run", help="measure one workload (or all)")
    run.add_argument("--workload", help="default: every workload in turn")
    run.add_argument("--seed", type=int, default=0,
                     help="selects the input set (default 0; see "
                          "bench/README.md)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured time (default: BENCHMARK.json "
                          "run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="1: traced run reporting the per-layer metrics")
    run.add_argument("--out", help="also write the result object here")

    child = subcommands.add_parser("child", help=argparse.SUPPRESS)
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)
    child.add_argument("--setup-only", action="store_true")

    repeat = subcommands.add_parser(
        "repeat", help="run the workloads N times in alternating order")
    repeat.add_argument("--runs", type=int, default=10)
    repeat.add_argument("--seed", type=int, default=0,
                        help="seed of the first run; run i uses seed+i")

    regen = subcommands.add_parser(
        "regen-expected", help="rewrite bench/expected.json")
    regen.add_argument("--seeds", type=_seeds, default=None,
                       help="default: every input set")

    args = parser.parse_args(argv)
    if args.command == "run":
        return commands.run_command(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.out)
    if args.command == "child":
        return commands.child_command(args.workload, args.seed, args.seconds,
                                      bool(args.trace), args.setup_only)
    if args.command == "repeat":
        if args.runs < 2:
            parser.error("repeat needs --runs of at least 2 for quartiles")
        return commands.repeat_command(args.runs, args.seed)
    return commands.regen_command(args.seeds)


if __name__ == "__main__":
    sys.exit(main())
