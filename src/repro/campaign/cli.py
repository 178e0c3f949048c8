"""``python -m repro campaign`` — run/resume/status/report subcommands.

Examples::

    python -m repro campaign run --out runs/srt --kinds srt,crt \\
        --workloads gcc,swim --models transient-result,stuck-unit \\
        --injections 250 --jobs 8
    python -m repro campaign status --out runs/srt
    python -m repro campaign resume --out runs/srt --jobs 8
    python -m repro campaign report --out runs/srt
"""

import argparse
import sys
from typing import List, Optional

from repro.campaign.engine import CampaignEngine
from repro.campaign.spec import (CAMPAIGN_KINDS, CampaignConfigError,
                                 CampaignSpec)
from repro.campaign.store import CampaignStore
from repro.core.faults import FAULT_MODELS
from repro.isa.profiles import SPEC95_NAMES


def _csv(text: str) -> List[str]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list")
    return items


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Parallel, resumable statistical fault-injection "
                    "campaigns")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_out(p):
        p.add_argument("--out", required=True,
                       help="campaign artifact directory")

    def add_exec(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
        p.add_argument("--timeout", type=int, default=0,
                       help="per-task wall-clock timeout in seconds "
                            "(0 = unlimited; timed-out tasks record HUNG)")
        p.add_argument("--chunk", type=int, default=None,
                       help="tasks per worker chunk (default: auto)")
        p.add_argument("--chaos", metavar="PLAN.json", default=None,
                       help="arm a chaos fault-injection plan for this "
                            "run (see `python -m repro chaos plan`)")

    run = sub.add_parser("run", help="start (or continue) a campaign")
    add_out(run)
    add_exec(run)
    run.add_argument("--kinds", type=_csv, default=["srt"],
                     help=f"machine kinds ({','.join(CAMPAIGN_KINDS)})")
    run.add_argument("--workloads", type=_csv, default=["gcc"],
                     help=f"benchmarks ({','.join(SPEC95_NAMES)})")
    run.add_argument("--models", type=_csv, default=["transient-result"],
                     help=f"fault models ({','.join(sorted(FAULT_MODELS))})")
    run.add_argument("--injections", type=int, default=100,
                     help="injections per kind x workload x model stratum")
    run.add_argument("--instructions", type=int, default=800,
                     help="committed instructions per injection run")
    run.add_argument("--warmup", type=int, default=2000,
                     help="architectural warm-up instructions")
    run.add_argument("--seed", type=int, default=0,
                     help="campaign root seed")
    run.add_argument("--strike-window", type=_csv, default=None,
                     metavar="LO,HI", help="strike-cycle window")
    run.add_argument("--recovery", action="store_true",
                     help="run injections on recovery-enabled machines "
                          "(checkpoint + rollback-and-replay)")
    run.add_argument("--sampling", choices=("uniform", "stratified",
                                            "guided"), default="uniform",
                     help="site sampling: uniform draws; stratified "
                          "alternates predicted-masked/ACE (arch models "
                          "only); guided skips statically-proven-masked "
                          "sites")
    run.add_argument("--fresh", action="store_true",
                     help="discard records from a different config")

    validate = sub.add_parser(
        "validate-avf",
        help="cross-validate the static AVF analyzer against the "
             "architectural injection oracle (confusion matrix; exits "
             "nonzero on any false-masked site)")
    add_out(validate)
    add_exec(validate)
    validate.add_argument("--workloads", type=_csv, default=["gcc"],
                          help="benchmarks, optionally name@seed")
    validate.add_argument("--seeds", type=int, default=1,
                          help="generator seeds per workload (expands "
                               "each into name@0..N-1)")
    validate.add_argument("--models", type=_csv, default=None,
                          help="architectural fault models (default: "
                               "all three)")
    validate.add_argument("--injections", type=int, default=60,
                          help="injections per workload x model stratum")
    validate.add_argument("--instructions", type=int, default=800,
                          help="step horizon (analysis and oracle)")
    validate.add_argument("--seed", type=int, default=0,
                          help="campaign root seed")
    validate.add_argument("--guided", action="store_true",
                          help="use guided sampling (skip proven-masked "
                               "sites) instead of stratified")
    validate.add_argument("--fresh", action="store_true",
                          help="discard records from a different config")

    resume = sub.add_parser(
        "resume", help="continue a killed/partial campaign from its "
                       "manifest (no spec flags needed)")
    add_out(resume)
    add_exec(resume)

    status = sub.add_parser("status", help="show campaign progress")
    add_out(status)

    report = sub.add_parser("report",
                            help="aggregate records into coverage tables")
    add_out(report)
    report.add_argument("--bucket-width", type=int, default=64,
                        help="latency histogram bucket width (cycles)")
    report.add_argument("--by-termination", action="store_true",
                        help="append the termination breakdown "
                             "(done/cycle-limit/hung/livelock/recovered/"
                             "unrecoverable, timed-out and not-struck "
                             "counts) and recovery-latency summary")
    report.add_argument("--vs-avf", action="store_true",
                        help="render the AVF cross-view instead: "
                             "confusion matrix, per-class detection "
                             "rates, universe-reweighted coverage "
                             "(exits 1 on any false-masked site)")
    return parser


def _progress_printer(stream):
    def progress(done: int, total: int) -> None:
        print(f"  {done}/{total} injections complete", file=stream)
    return progress


def _print_summary(summary) -> None:
    print(f"campaign {summary['campaign_hash']}: "
          f"{summary['executed']} executed "
          f"(+{summary['already_complete']} resumed) of "
          f"{summary['total_tasks']} total "
          f"[jobs={summary['jobs']}, {summary['elapsed_s']}s]")


def cmd_run(args: argparse.Namespace) -> int:
    window = None
    if args.strike_window is not None:
        if len(args.strike_window) != 2:
            print("error: --strike-window expects LO,HI", file=sys.stderr)
            return 2
        window = (int(args.strike_window[0]), int(args.strike_window[1]))
    spec = CampaignSpec(
        kinds=tuple(args.kinds), workloads=tuple(args.workloads),
        models=tuple(args.models), injections=args.injections,
        seed=args.seed, instructions=args.instructions,
        warmup=args.warmup, strike_window=window,
        config={"recovery_enabled": True} if args.recovery else None,
        sampling=args.sampling)
    engine = CampaignEngine(spec, args.out, jobs=args.jobs,
                            task_timeout=args.timeout,
                            chunk_size=args.chunk)
    summary = engine.run(fresh=args.fresh,
                         progress=_progress_printer(sys.stdout))
    _print_summary(summary)
    return 0


def _avf_fractions(spec: CampaignSpec):
    """Exact per-(workload, model) class fractions for arch strata."""
    from repro.avf.sites import get_universe
    from repro.core.faults import ARCH_FAULT_MODELS

    fractions = {}
    for workload in spec.workloads:
        for model in spec.models:
            if model in ARCH_FAULT_MODELS:
                universe = get_universe(workload, spec.instructions,
                                        seed=spec.seed)
                fractions[(workload, model)] = (
                    universe.class_fractions(model))
    return fractions


def _expand_workloads(workloads: List[str], seeds: int) -> List[str]:
    from repro.isa.profiles import split_workload

    expanded = []
    for workload in workloads:
        name, base = split_workload(workload)
        for offset in range(max(1, seeds)):
            seed = base + offset
            expanded.append(f"{name}@{seed}" if seed else name)
    return expanded


def cmd_validate_avf(args: argparse.Namespace) -> int:
    from repro.campaign.report import false_masked_records, render_vs_avf
    from repro.core.faults import ARCH_FAULT_MODELS

    models = tuple(args.models) if args.models else ARCH_FAULT_MODELS
    try:
        workloads = tuple(_expand_workloads(args.workloads, args.seeds))
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    spec = CampaignSpec(
        kinds=("arch",), workloads=workloads, models=models,
        injections=args.injections, seed=args.seed,
        instructions=args.instructions, warmup=0,
        sampling="guided" if args.guided else "stratified")
    engine = CampaignEngine(spec, args.out, jobs=args.jobs,
                            task_timeout=args.timeout,
                            chunk_size=args.chunk)
    summary = engine.run(fresh=args.fresh,
                         progress=_progress_printer(sys.stdout))
    _print_summary(summary)
    store = CampaignStore(args.out)
    records = store.records()
    print()
    print(render_vs_avf(records, _avf_fractions(spec)))
    return 1 if false_masked_records(records) else 0


def cmd_resume(args: argparse.Namespace) -> int:
    store = CampaignStore(args.out)
    spec = store.load_spec()
    engine = CampaignEngine(spec, args.out, jobs=args.jobs,
                            task_timeout=args.timeout,
                            chunk_size=args.chunk)
    summary = engine.run(progress=_progress_printer(sys.stdout))
    _print_summary(summary)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    store = CampaignStore(args.out)
    manifest = store.load_manifest()
    spec = CampaignSpec.from_dict(manifest["spec"])
    done = store.completed_count()
    total = manifest.get("total_tasks", spec.total_tasks())
    print(f"campaign   {manifest['campaign_hash']}")
    print(f"strata     {len(spec.strata())} "
          f"({'+'.join(spec.kinds)} x {'+'.join(spec.workloads)} x "
          f"{'+'.join(spec.models)})")
    print(f"progress   {done}/{total} injections "
          f"({100.0 * done / total if total else 0.0:.1f}%)")
    progress = store.load_progress()
    if progress is None:
        print("sidecar    none yet (progress.json is advisory; counts "
              "above come from results.jsonl)")
    elif progress.get("state") == "running":
        print(f"sidecar    running at jobs={progress['jobs']} "
              f"({progress['done']}/{progress['total_tasks']} at last "
              f"chunk flush)")
    elif progress.get("tasks_per_s"):
        print(f"last rate  {progress['tasks_per_s']} tasks/s "
              f"at jobs={progress['jobs']}")
    print("state      " + ("complete" if done >= total else "resumable"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.campaign.report import (false_masked_records, render_report,
                                       render_vs_avf)

    store = CampaignStore(args.out)
    manifest = store.load_manifest()  # fail loudly on a non-campaign dir
    records = store.records()
    if args.vs_avf:
        spec = CampaignSpec.from_dict(manifest["spec"])
        print(render_vs_avf(records, _avf_fractions(spec)))
        return 1 if false_masked_records(records) else 0
    print(render_report(records, bucket_width=args.bucket_width,
                        by_termination=args.by_termination))
    return 0


def _arm_chaos(path: str) -> int:
    """Arm the chaos plan at ``path`` process-wide; returns exit code."""
    from repro.chaos import ChaosPlan, ChaosPlanError, arm

    try:
        plan = ChaosPlan.load(path)
    except (OSError, ChaosPlanError) as error:
        print(f"error: bad chaos plan {path}: {error}", file=sys.stderr)
        return 2
    arm(plan)
    print(f"chaos: armed {len(plan.rules)} rule(s) from {path} "
          f"(seed {plan.seed})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "resume": cmd_resume,
                "status": cmd_status, "report": cmd_report,
                "validate-avf": cmd_validate_avf}
    if getattr(args, "chaos", None):
        code = _arm_chaos(args.chaos)
        if code:
            return code
    try:
        return handlers[args.subcommand](args)
    except CampaignConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The store appends whole records (and repairs a torn tail on
        # load), so whatever is on disk is a valid resume point.
        print("\ninterrupted — progress saved; continue with "
              f"`python -m repro campaign resume --out {args.out}`",
              file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
