"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro list
    python -m repro fig6 --instructions 2000 --warmup 15000
    python -m repro fig11 --instructions 1500 --jobs 8
    python -m repro run --kind srt --benchmark gcc --instructions 3000
    python -m repro campaign run --out runs/cov --jobs 8 --injections 500
    python -m repro analyze program.asm --strict
    python -m repro analyze --generated all-profiles --seeds 3
    python -m repro lint --strict
    python -m repro verify all --strict
"""

import argparse
import sys

from repro.harness.experiments import EXPERIMENT_REGISTRY as EXPERIMENTS
from repro.harness.parallel import run_experiment_parallel
from repro.harness.reporting import render_table
from repro.harness.runner import Runner
from repro.isa.profiles import SPEC95_NAMES


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Detailed Design and Evaluation of "
                    "Redundant Multithreading Alternatives' (ISCA 2002)")
    parser.add_argument("command",
                        help="'list', an experiment id (e.g. fig6), or 'run'")
    parser.add_argument("--instructions", type=positive_int, default=1500,
                        help="committed instructions per thread")
    parser.add_argument("--warmup", type=non_negative_int, default=12_000,
                        help="architectural warm-up instructions")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload generation seed")
    parser.add_argument("--kind", default="srt",
                        help="machine kind for 'run' "
                             "(base/base2/srt/lockstep/crt)")
    parser.add_argument("--benchmark", action="append", default=None,
                        help="benchmark name(s) for 'run' (repeatable)")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="fan per-workload experiment rows across N "
                             "worker processes (splittable drivers only)")
    return parser


def cmd_list() -> int:
    print("experiments:")
    for name, (_, description) in EXPERIMENTS.items():
        print(f"  {name:<18s} {description}")
    print("\nbenchmarks:")
    print("  " + ", ".join(SPEC95_NAMES))
    print("\ncampaigns:")
    print("  campaign           parallel, resumable fault-injection "
          "campaigns ('campaign --help')")
    print("\nrobustness:")
    print("  recovery           watchdog forensics + checkpoint-recovery "
          "demos ('recovery --help')")
    print("  chaos              deterministic infrastructure fault "
          "injection + resilience soak ('chaos --help')")
    print("\nobservability:")
    print("  obs                span-log reports, per-stage run "
          "profiles, bench-trajectory gate ('obs --help')")
    print("\nserving:")
    print("  serve              async simulation-as-a-service daemon "
          "('serve --help')")
    print("  submit             submit work to a running daemon "
          "('submit --help'; also status/fetch/cancel/metrics)")
    print("\nstatic analysis:")
    print("  analyze            dataflow verifier for RISC-R programs "
          "('analyze --help', '--rules')")
    print("  lint               determinism/sphere-layering linter for "
          "the simulator ('lint --help', '--rules')")
    print("  avf                static ACE/AVF vulnerability analyzer "
          "('avf --help'; cross-check with 'campaign validate-avf')")
    print("  verify             concurrency verifier: SRT/CRT queue-"
          "protocol model checker + lockset analysis ('verify --help')")
    return 0


def cmd_run(args: argparse.Namespace, runner: Runner) -> int:
    names = args.benchmark or ["gcc"]
    result = runner.run(args.kind, names)
    print(f"{args.kind} on {'+'.join(names)}: "
          f"{result.cycles} cycles, faults={result.faults_detected}")
    for name, ipc in result.ipc_per_logical_thread().items():
        efficiency = ipc / runner.baseline_ipc(name)
        print(f"  {name:<12s} IPC={ipc:.3f}  SMT-Efficiency={efficiency:.3f}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        # Campaign verbs have their own subcommand grammar.
        from repro.campaign.cli import main as campaign_main
        return campaign_main(argv[1:])
    if argv and argv[0] == "recovery":
        # Robustness demos: watchdog forensics + checkpoint recovery.
        from repro.recovery.cli import main as recovery_main
        return recovery_main(argv[1:])
    if argv and argv[0] == "analyze":
        # Static dataflow verifier for RISC-R programs.
        from repro.analysis.cli import cmd_analyze
        return cmd_analyze(argv[1:])
    if argv and argv[0] == "lint":
        # Simulator-invariant linter (determinism / layering / pickle).
        from repro.analysis.cli import cmd_lint
        return cmd_lint(argv[1:])
    if argv and argv[0] == "verify":
        # Concurrency verifier: protocol model checker + lockset pass.
        from repro.verify.cli import cmd_verify
        return cmd_verify(argv[1:])
    if argv and argv[0] == "avf":
        # Static ACE/AVF vulnerability analyzer.
        from repro.avf.cli import cmd_avf
        return cmd_avf(argv[1:])
    if argv and argv[0] in ("serve", "submit", "status", "fetch",
                            "cancel", "metrics"):
        # Simulation-as-a-service daemon and its client verbs.
        from repro.serve.cli import main as serve_main
        return serve_main(argv)
    if argv and argv[0] == "chaos":
        # Deterministic infrastructure fault injection.
        from repro.chaos.cli import main as chaos_main
        return chaos_main(argv[1:])
    if argv and argv[0] == "obs":
        # Observability: span logs, stage profiles, bench gate.
        from repro.obs.cli import main as obs_main
        return obs_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    try:
        if args.command == "run":
            return cmd_run(args, Runner(instructions=args.instructions,
                                        warmup=args.warmup, seed=args.seed))
        if args.command not in EXPERIMENTS:
            print(f"unknown command {args.command!r}; try 'list'",
                  file=sys.stderr)
            return 2
        driver, _ = EXPERIMENTS[args.command]
        result = run_experiment_parallel(
            driver.__name__,
            {"instructions": args.instructions, "warmup": args.warmup,
             "seed": args.seed},
            jobs=args.jobs)
        print(render_table(result))
        return 0
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
