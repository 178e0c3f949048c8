"""One driver per paper table/figure (the DESIGN.md experiment index).

Every function takes a :class:`~repro.harness.runner.Runner` and returns
an :class:`ExperimentResult` whose rows mirror the series the paper
plots.  ``repro.harness.reporting`` renders them as text tables;
``benchmarks/`` regenerates and shape-checks each one.
"""

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.faults import (FaultOutcome, StuckFunctionalUnit,
                               TransientResultFault, run_fault_experiment)
from repro.core.metrics import arithmetic_mean
from repro.harness.runner import Runner
from repro.isa.instructions import FuClass
from repro.isa.profiles import FOUR_THREAD_POOL, SPEC95_NAMES, TWO_THREAD_POOL


@dataclass
class ExperimentResult:
    """Rows (one per workload) of named series, plus summary scalars."""

    experiment: str
    description: str
    series: List[str]
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    summary: Dict[str, float] = field(default_factory=dict)

    def add_row(self, label: str, values: Dict[str, float]) -> None:
        self.rows[label] = values

    def mean(self, series: str) -> float:
        values = [row[series] for row in self.rows.values() if series in row]
        return arithmetic_mean(values)

    def finish(self) -> "ExperimentResult":
        for series in self.series:
            self.summary[f"mean.{series}"] = self.mean(series)
        return self

    def to_dict(self) -> Dict[str, object]:
        """JSON-able structured form (serve jobs, machine consumers).

        Row and summary insertion order is the driver's deterministic
        iteration order, so the canonical encoding of this dict is
        byte-stable across runs — the serve cache relies on that.
        """
        return {
            "experiment": self.experiment,
            "description": self.description,
            "series": list(self.series),
            "rows": {label: dict(row) for label, row in self.rows.items()},
            "summary": dict(self.summary),
        }


def _benchmarks(subset: Optional[Sequence[str]]) -> List[str]:
    return list(subset) if subset else list(SPEC95_NAMES)


def fig8_default_pairs() -> List[List[str]]:
    """The two-program workloads Figure 8 evaluates by default.

    Exposed (rather than inlined in the driver) so the parallel
    experiment fan-out can enumerate and split them across workers.
    """
    return [list(pair) for pair in itertools.combinations(TWO_THREAD_POOL, 2)]


def fig11_default_workloads(include_quads: bool = True,
                            max_quads: int = 5) -> List[List[str]]:
    """The multiprogrammed workloads Figure 11 evaluates by default."""
    workloads = [list(pair)
                 for pair in itertools.combinations(TWO_THREAD_POOL, 2)]
    if include_quads:
        quads = [list(combo) for combo in
                 itertools.combinations(FOUR_THREAD_POOL, 4)]
        workloads += quads[:max_quads]
    return workloads


# ---------------------------------------------------------------------------
# Figure 6: SMT-Efficiency for one logical thread on the SRT variants.
# ---------------------------------------------------------------------------
def fig6_srt_one_thread(runner: Runner,
                        benchmarks: Optional[Sequence[str]] = None
                        ) -> ExperimentResult:
    """Base2 / SRT / SRT+ptsq / SRT+nosc efficiencies (paper Figure 6).

    Paper shape: every SRT variant is below Base2; SRT averages ~32%
    degradation; per-thread store queues recover ~2% on average with
    larger wins on store-heavy benchmarks; no-store-comparison is the
    upper bound.
    """
    result = ExperimentResult(
        "fig6", "SMT-Efficiency, one logical thread (SRT variants)",
        series=["base2", "srt", "srt_ptsq", "srt_nosc"])
    ptsq = runner.variant_config(per_thread_store_queues=True)
    nosc = runner.variant_config(store_comparison=False)
    for name in _benchmarks(benchmarks):
        base_ipc = runner.baseline_ipc(name)
        thread = runner.program(name).name
        row = {
            "base2": runner.run("base2", [name]).ipc_of(thread) / base_ipc,
            "srt": runner.run("srt", [name]).ipc_of(thread) / base_ipc,
            "srt_ptsq": runner.run("srt", [name],
                                   config=ptsq).ipc_of(thread) / base_ipc,
            "srt_nosc": runner.run("srt", [name],
                                   config=nosc).ipc_of(thread) / base_ipc,
        }
        result.add_row(name, row)
    return result.finish()


# ---------------------------------------------------------------------------
# Figure 7: preferential space redundancy (same-functional-unit fraction).
# ---------------------------------------------------------------------------
def fig7_psr(runner: Runner,
             benchmarks: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Fraction of corresponding instruction pairs on the same unit.

    Paper shape: ~65% without PSR, ~0.06% with PSR, at no performance
    cost.
    """
    result = ExperimentResult(
        "fig7", "Same-functional-unit fraction without/with PSR",
        series=["no_psr", "psr", "ipc_ratio"])
    no_psr = runner.variant_config(preferential_space_redundancy=False)
    for name in _benchmarks(benchmarks):
        machine_off = runner.make("srt", [name], config=no_psr)
        off = machine_off.run(max_instructions=runner.instructions,
                              warmup=runner.warmup)
        machine_on = runner.make("srt", [name])
        on = machine_on.run(max_instructions=runner.instructions,
                            warmup=runner.warmup)
        frac_off = machine_off.controller.pairs[0].tracker.stats.same_unit_fraction
        frac_on = machine_on.controller.pairs[0].tracker.stats.same_unit_fraction
        thread = runner.program(name).name
        ipc_ratio = (on.ipc_of(thread) / off.ipc_of(thread)
                     if off.ipc_of(thread) else 0.0)
        result.add_row(name, {"no_psr": frac_off, "psr": frac_on,
                              "ipc_ratio": ipc_ratio})
    return result.finish()


# ---------------------------------------------------------------------------
# Figure 8: SMT-Efficiency for two logical threads on SRT.
# ---------------------------------------------------------------------------
def fig8_srt_two_threads(runner: Runner,
                         pairs: Optional[Sequence[Sequence[str]]] = None
                         ) -> ExperimentResult:
    """Two logical threads → four hardware contexts on one SRT core.

    Paper shape: ~40% degradation, recovered to ~32% by per-thread store
    queues.
    """
    if pairs is None:
        pairs = fig8_default_pairs()
    result = ExperimentResult(
        "fig8", "SMT-Efficiency, two logical threads (SRT)",
        series=["base", "srt", "srt_ptsq"])
    ptsq = runner.variant_config(per_thread_store_queues=True)
    for pair in pairs:
        label = "+".join(pair)
        row = {
            "base": runner.mean_efficiency(runner.run("base", pair)),
            "srt": runner.mean_efficiency(runner.run("srt", pair)),
            "srt_ptsq": runner.mean_efficiency(
                runner.run("srt", pair, config=ptsq)),
        }
        result.add_row(label, row)
    return result.finish()


# ---------------------------------------------------------------------------
# Section 7.1: store lifetimes and store-queue size sensitivity.
# ---------------------------------------------------------------------------
def fig9_store_lifetime(runner: Runner,
                        benchmarks: Optional[Sequence[str]] = None
                        ) -> ExperimentResult:
    """Average leading-store store-queue residency, base vs SRT.

    Paper shape: SRT lengthens the average store lifetime by roughly 39
    cycles, which is why store-queue size matters so much.
    """
    result = ExperimentResult(
        "fig9", "Average store lifetime in the store queue (cycles)",
        series=["base", "srt", "delta"])
    for name in _benchmarks(benchmarks):
        base_machine = runner.make("base", [name])
        base_machine.run(max_instructions=runner.instructions,
                         warmup=runner.warmup)
        srt_machine = runner.make("srt", [name])
        srt_machine.run(max_instructions=runner.instructions,
                        warmup=runner.warmup)

        def lifetime(machine, tid=0):
            stats = machine.cores[0].threads[tid].stats
            if not stats.store_lifetime_count:
                return 0.0
            return stats.store_lifetime_sum / stats.store_lifetime_count

        base_life = lifetime(base_machine)
        srt_life = lifetime(srt_machine)
        result.add_row(name, {"base": base_life, "srt": srt_life,
                              "delta": srt_life - base_life})
    return result.finish()


def slack_distribution(runner: Runner, benchmark: str = "gcc",
                       bucket_width: int = 32) -> ExperimentResult:
    """Distribution of the leading-trailing slack (retired instructions).

    Paper context (Section 2.3 / 4.4): the LPQ's gating of trailing
    fetch on leading retirement produces the slack that absorbs cache
    misses — without any explicit slack-fetch mechanism.  The histogram
    shows the slack the machine settles into.
    """
    from repro.harness.tracing import OccupancySampler

    machine = runner.make("srt", [benchmark])
    sampler = OccupancySampler(machine, interval=8)
    sampler.run(runner.instructions, warmup=runner.warmup)
    histogram = sampler.histogram(
        f"pair.{runner.program(benchmark).name}.slack",
        bucket_width=bucket_width)
    result = ExperimentResult(
        "slack_dist", f"Leading-trailing slack distribution ({benchmark})",
        series=["samples"])
    for low, high, count in histogram.rows():
        result.add_row(f"{low}-{high}", {"samples": count})
    result.finish()
    result.summary["mean_slack"] = histogram.mean()
    result.summary["p90_slack"] = histogram.percentile(0.9)
    return result


def store_queue_occupancy(runner: Runner,
                          benchmarks: Optional[Sequence[str]] = None
                          ) -> ExperimentResult:
    """Mean/peak leading store-queue occupancy, base vs SRT.

    The occupancy view behind Section 7.1: longer store lifetimes
    translate into higher store-queue occupancy and, eventually, map
    stalls when the partition fills.
    """
    from repro.harness.tracing import OccupancySampler

    result = ExperimentResult(
        "sq_occupancy", "Store-queue occupancy (mean / peak)",
        series=["base_mean", "srt_mean", "srt_peak"])
    for name in _benchmarks(benchmarks):
        base_sampler = OccupancySampler(runner.make("base", [name]),
                                        interval=8)
        base_sampler.run(runner.instructions, warmup=runner.warmup)
        srt_sampler = OccupancySampler(runner.make("srt", [name]),
                                       interval=8)
        srt_sampler.run(runner.instructions, warmup=runner.warmup)
        result.add_row(name, {
            "base_mean": base_sampler.mean("core0.t0.sq"),
            "srt_mean": srt_sampler.mean("core0.t0.sq"),
            "srt_peak": srt_sampler.peak("core0.t0.sq"),
        })
    return result.finish()


def store_queue_sweep(runner: Runner, benchmark: str = "mgrid",
                      sizes: Sequence[int] = (16, 32, 48, 64, 96, 128)
                      ) -> ExperimentResult:
    """SRT efficiency as a function of the per-thread store-queue size."""
    result = ExperimentResult(
        "sq_sweep", f"SRT efficiency vs store-queue size ({benchmark})",
        series=["efficiency"])
    base_ipc = runner.baseline_ipc(benchmark)
    thread = runner.program(benchmark).name
    for size in sizes:
        config = runner.variant_config(per_thread_store_queues=True)
        config.core.store_queue_entries = size
        ipc = runner.run("srt", [benchmark], config=config).ipc_of(thread)
        result.add_row(str(size), {"efficiency": ipc / base_ipc})
    return result.finish()


# ---------------------------------------------------------------------------
# Section 8: one logical thread on the CMP machines.
# ---------------------------------------------------------------------------
def fig10_crt_one_thread(runner: Runner,
                         benchmarks: Optional[Sequence[str]] = None
                         ) -> ExperimentResult:
    """Lock0 / Lock8 / CRT efficiencies for single-program runs.

    Paper shape: CRT performs similarly to lockstepping on one logical
    thread (its leading thread behaves like a lockstepped thread), while
    Lock8 pays the checker latency on every cache miss.
    """
    result = ExperimentResult(
        "fig10", "SMT-Efficiency, one logical thread (CMP machines)",
        series=["lock0", "lock8", "crt"])
    for name in _benchmarks(benchmarks):
        base_ipc = runner.baseline_ipc(name)
        thread = runner.program(name).name
        row = {
            "lock0": runner.run("lockstep", [name],
                                checker_latency=0).ipc_of(thread) / base_ipc,
            "lock8": runner.run("lockstep", [name],
                                checker_latency=8).ipc_of(thread) / base_ipc,
            "crt": runner.run("crt", [name]).ipc_of(thread) / base_ipc,
        }
        result.add_row(name, row)
    return result.finish()


# ---------------------------------------------------------------------------
# Section 8: multithreaded lockstep vs CRT (the paper's headline result).
# ---------------------------------------------------------------------------
def fig11_crt_multithread(runner: Runner,
                          workloads: Optional[Sequence[Sequence[str]]] = None,
                          include_quads: bool = True,
                          max_quads: int = 5) -> ExperimentResult:
    """Lock0 / Lock8 / CRT on two- and four-program workloads.

    Paper shape: CRT outperforms lockstepping by ~13% on average (max
    ~22%) on multithreaded workloads, because each core spends the
    resources its trailing threads free on another program's leading
    thread.
    """
    if workloads is None:
        workloads = fig11_default_workloads(include_quads=include_quads,
                                            max_quads=max_quads)
    result = ExperimentResult(
        "fig11", "SMT-Efficiency, multithreaded (lockstep vs CRT)",
        series=["lock0", "lock8", "crt", "crt_vs_lock8"])
    for workload in workloads:
        label = "+".join(workload)
        lock0 = runner.mean_efficiency(
            runner.run("lockstep", workload, checker_latency=0))
        lock8 = runner.mean_efficiency(
            runner.run("lockstep", workload, checker_latency=8))
        crt = runner.mean_efficiency(runner.run("crt", workload))
        result.add_row(label, {
            "lock0": lock0, "lock8": lock8, "crt": crt,
            "crt_vs_lock8": crt / lock8 if lock8 else 0.0,
        })
    result.finish()
    advantages = [row["crt_vs_lock8"] for row in result.rows.values()]
    result.summary["max.crt_vs_lock8"] = max(advantages) if advantages else 0.0
    return result


# ---------------------------------------------------------------------------
# Section 4.4: line-predictor behaviour.
# ---------------------------------------------------------------------------
def line_predictor_rates(runner: Runner,
                         benchmarks: Optional[Sequence[str]] = None
                         ) -> ExperimentResult:
    """Line-predictor misprediction rates, and trailing-thread misfetches.

    Paper shape: the line predictor mispredicts 14-28% of the time for
    the base machine, which is why the branch outcome queue had to
    become a line prediction queue; with the LPQ the trailing thread
    never misfetches.
    """
    result = ExperimentResult(
        "line_pred", "Line predictor misprediction rate / trailing misfetches",
        series=["base_rate", "trailing_misfetches"])
    for name in _benchmarks(benchmarks):
        base_machine = runner.make("base", [name])
        base_machine.run(max_instructions=runner.instructions,
                         warmup=runner.warmup)
        rate = base_machine.cores[0].line_predictor.stats.misprediction_rate
        srt_machine = runner.make("srt", [name])
        srt_machine.run(max_instructions=runner.instructions,
                        warmup=runner.warmup)
        trailing = srt_machine.cores[0].threads[1]
        result.add_row(name, {"base_rate": rate,
                              "trailing_misfetches": trailing.stats.misfetches})
    return result.finish()


# ---------------------------------------------------------------------------
# Section 4.5 motivation: fault-detection coverage.
# ---------------------------------------------------------------------------
def fault_coverage(runner: Runner, benchmark: str = "gcc",
                   injections: int = 12) -> ExperimentResult:
    """Transient-fault outcome distribution per machine kind.

    Shape: the base machine is the only one that lets corrupted stores
    escape (SDC); SRT/CRT/lockstep detect everything that propagates.
    """
    result = ExperimentResult(
        "fault_coverage", f"Transient fault outcomes on {benchmark}",
        series=[outcome.value for outcome in FaultOutcome])
    program = runner.program(benchmark)
    for kind in ("base", "srt", "crt", "lockstep"):
        outcomes = Counter()
        for index in range(injections):
            machine = runner.make(kind, [benchmark])
            cycle = 100 + 73 * index
            bit = (5 * index + 1) % 64
            core_index = 1 if (kind == "lockstep" and index % 2) else 0
            outcome = run_fault_experiment(
                machine, program,
                TransientResultFault(cycle=cycle, core_index=core_index,
                                     bit=bit),
                instructions=runner.instructions, warmup=runner.warmup)
            outcomes[outcome.value] += 1
        result.add_row(kind, {key: outcomes.get(key, 0)
                              for key in result.series})
    return result.finish()


def detection_latency(runner: Runner, benchmark: str = "gcc",
                      injections: int = 10) -> ExperimentResult:
    """Mean cycles from fault strike to detection, per machine kind.

    SRT/CRT detect at the store comparator (after the trailing twin
    retires — so latency includes the inter-thread slack); lockstep
    detects when the drained store streams are compared.
    """
    from repro.core.faults import run_fault_experiment_detailed

    result = ExperimentResult(
        "detect_latency", f"Fault detection latency on {benchmark} (cycles)",
        series=["detected", "mean_latency", "max_latency"])
    program = runner.program(benchmark)
    for kind in ("srt", "crt", "lockstep"):
        latencies = []
        for index in range(injections):
            machine = runner.make(kind, [benchmark])
            core_index = 1 if (kind == "lockstep" and index % 2) else 0
            report = run_fault_experiment_detailed(
                machine, program,
                TransientResultFault(cycle=90 + 67 * index,
                                     core_index=core_index,
                                     bit=(3 * index + 1) % 64),
                instructions=runner.instructions, warmup=runner.warmup)
            if report.detection_latency is not None:
                latencies.append(report.detection_latency)
        result.add_row(kind, {
            "detected": len(latencies),
            "mean_latency": (sum(latencies) / len(latencies)
                             if latencies else 0.0),
            "max_latency": max(latencies) if latencies else 0,
        })
    return result.finish()


def psr_permanent_fault_coverage(runner: Runner, benchmark: str = "gcc",
                                 units: Sequence[int] = (0, 1, 2, 3)
                                 ) -> ExperimentResult:
    """Stuck-functional-unit detection with and without PSR.

    Shape: with PSR the corresponding instructions are guaranteed
    distinct units, so a stuck unit corrupts only one copy and is caught;
    without PSR many pairs share the faulty unit and corruption can
    escape or linger undetected far longer.
    """
    result = ExperimentResult(
        "psr_faults", f"Stuck-unit outcomes on {benchmark} (SRT)",
        series=[outcome.value for outcome in FaultOutcome])
    program = runner.program(benchmark)
    for psr in (True, False):
        outcomes = Counter()
        config = runner.variant_config(preferential_space_redundancy=psr)
        for unit in units:
            machine = runner.make("srt", [benchmark], config=config)
            outcome = run_fault_experiment(
                machine, program,
                StuckFunctionalUnit(core_index=0, fu_class=FuClass.INT,
                                    unit_index=unit, bit=1),
                instructions=runner.instructions, warmup=runner.warmup)
            outcomes[outcome.value] += 1
        result.add_row("psr" if psr else "no_psr",
                       {key: outcomes.get(key, 0) for key in result.series})
    return result.finish()


# ---------------------------------------------------------------------------
# Ablations called out in DESIGN.md.
# ---------------------------------------------------------------------------
def ablation_fetch_policy(runner: Runner,
                          benchmarks: Optional[Sequence[str]] = None
                          ) -> ExperimentResult:
    """Trailing-thread fetch priority vs plain ICOUNT (Section 4.4.1)."""
    result = ExperimentResult(
        "ablation_fetch", "SRT efficiency: trailing priority vs ICOUNT",
        series=["priority", "icount"])
    icount = runner.variant_config(trailing_priority=False)
    for name in _benchmarks(benchmarks):
        base_ipc = runner.baseline_ipc(name)
        thread = runner.program(name).name
        result.add_row(name, {
            "priority": runner.run("srt", [name]).ipc_of(thread) / base_ipc,
            "icount": runner.run("srt", [name],
                                 config=icount).ipc_of(thread) / base_ipc,
        })
    return result.finish()


def ablation_cross_latency(runner: Runner, benchmark: str = "swim",
                           latencies: Sequence[int] = (0, 2, 4, 8, 16, 32)
                           ) -> ExperimentResult:
    """CRT sensitivity to the cross-core forwarding latency."""
    result = ExperimentResult(
        "ablation_cross", f"CRT efficiency vs cross-core latency ({benchmark})",
        series=["efficiency"])
    base_ipc = runner.baseline_ipc(benchmark)
    thread = runner.program(benchmark).name
    for latency in latencies:
        config = runner.variant_config(crt_cross_latency=latency)
        ipc = runner.run("crt", [benchmark], config=config).ipc_of(thread)
        result.add_row(str(latency), {"efficiency": ipc / base_ipc})
    return result.finish()


def ablation_checker_latency(runner: Runner, benchmark: str = "swim",
                             latencies: Sequence[int] = (0, 4, 8, 16, 32)
                             ) -> ExperimentResult:
    """Lockstep sensitivity to checker latency (Lock0 ... LockN)."""
    result = ExperimentResult(
        "ablation_checker",
        f"Lockstep efficiency vs checker latency ({benchmark})",
        series=["efficiency"])
    base_ipc = runner.baseline_ipc(benchmark)
    thread = runner.program(benchmark).name
    for latency in latencies:
        ipc = runner.run("lockstep", [benchmark],
                         checker_latency=latency).ipc_of(thread)
        result.add_row(str(latency), {"efficiency": ipc / base_ipc})
    return result.finish()


def ablation_slack_fetch(runner: Runner, benchmark: str = "swim",
                         slacks: Sequence[int] = (0, 8, 16, 32, 48)
                         ) -> ExperimentResult:
    """Explicit slack fetch on top of the LPQ (Section 4.4.1).

    Paper shape: once the LPQ gates trailing fetch on leading
    retirement, adding explicit slack buys nothing.
    """
    result = ExperimentResult(
        "ablation_slack", f"SRT efficiency vs explicit slack ({benchmark})",
        series=["efficiency"])
    base_ipc = runner.baseline_ipc(benchmark)
    thread = runner.program(benchmark).name
    for slack in slacks:
        config = runner.variant_config(srt_slack_instructions=slack)
        ipc = runner.run("srt", [benchmark], config=config).ipc_of(thread)
        result.add_row(str(slack), {"efficiency": ipc / base_ipc})
    return result.finish()


def ablation_trailing_fetch_mode(runner: Runner,
                                 workloads: Optional[Sequence[Sequence[str]]]
                                 = None) -> ExperimentResult:
    """LPQ vs shared-predictor trailing fetch (Section 4.4's rejected
    alternative).

    Paper shape: with the LPQ the trailing thread never misfetches; when
    it fetches through the shared line predictor instead, misfetches
    reappear — and multiprogrammed interference makes it worse.
    """
    if workloads is None:
        workloads = [["gcc"], ["swim"], ["gcc", "swim"], ["go", "fpppp"]]
    result = ExperimentResult(
        "ablation_lpq", "Trailing fetch: LPQ vs shared predictors",
        series=["lpq_eff", "pred_eff", "lpq_misfetch", "pred_misfetch"])
    predictors = runner.variant_config(trailing_fetch_mode="predictors")
    for workload in workloads:
        label = "+".join(workload)
        lpq_machine = runner.make("srt", workload)
        lpq_result = lpq_machine.run(max_instructions=runner.instructions,
                                     warmup=runner.warmup)
        pred_machine = runner.make("srt", workload, config=predictors)
        pred_result = pred_machine.run(max_instructions=runner.instructions,
                                       warmup=runner.warmup)

        def trailing_misfetches(machine):
            return sum(t.stats.misfetches for t in machine.cores[0].threads
                       if t.is_trailing)

        result.add_row(label, {
            "lpq_eff": runner.mean_efficiency(lpq_result),
            "pred_eff": runner.mean_efficiency(pred_result),
            "lpq_misfetch": trailing_misfetches(lpq_machine),
            "pred_misfetch": trailing_misfetches(pred_machine),
        })
    return result.finish()


def ablation_lvq_size(runner: Runner, benchmark: str = "swim",
                      sizes: Sequence[int] = (4, 8, 16, 32, 64)
                      ) -> ExperimentResult:
    """SRT sensitivity to load value queue capacity."""
    result = ExperimentResult(
        "ablation_lvq", f"SRT efficiency vs LVQ size ({benchmark})",
        series=["efficiency"])
    base_ipc = runner.baseline_ipc(benchmark)
    thread = runner.program(benchmark).name
    for size in sizes:
        config = runner.variant_config(lvq_entries=size)
        ipc = runner.run("srt", [benchmark], config=config).ipc_of(thread)
        result.add_row(str(size), {"efficiency": ipc / base_ipc})
    return result.finish()


# ---------------------------------------------------------------------------
# Registry: one entry per paper table/figure.  The CLI (`python -m repro
# fig6`), the parallel fan-out, and the serve layer's `experiment` jobs
# all dispatch through this table, so a new driver becomes reachable
# from every entry point by adding one line here.
# ---------------------------------------------------------------------------
EXPERIMENT_REGISTRY = {
    "fig6": (fig6_srt_one_thread,
             "SMT-Efficiency, one logical thread (SRT variants)"),
    "fig7": (fig7_psr, "Preferential space redundancy"),
    "fig8": (fig8_srt_two_threads,
             "SMT-Efficiency, two logical threads (SRT)"),
    "fig9": (fig9_store_lifetime, "Store lifetimes, base vs SRT"),
    "fig10": (fig10_crt_one_thread,
              "One logical thread on the CMP machines"),
    "fig11": (fig11_crt_multithread,
              "Multithreaded lockstep vs CRT"),
    "line-pred": (line_predictor_rates, "Line predictor rates"),
    "faults": (fault_coverage, "Transient fault coverage"),
    "detect-latency": (detection_latency,
                       "Fault detection latency per machine kind"),
    "psr-faults": (psr_permanent_fault_coverage,
                   "Stuck-unit coverage with/without PSR"),
    "sq-sweep": (store_queue_sweep, "Store-queue size sweep"),
    "sq-occupancy": (store_queue_occupancy,
                     "Store-queue occupancy, base vs SRT"),
    "slack": (slack_distribution,
              "Leading-trailing slack distribution"),
    "ablation-fetch": (ablation_fetch_policy,
                       "Trailing priority vs ICOUNT"),
    "ablation-cross": (ablation_cross_latency,
                       "CRT cross-core latency sweep"),
    "ablation-checker": (ablation_checker_latency,
                         "Lockstep checker latency sweep"),
    "ablation-lvq": (ablation_lvq_size, "LVQ size sweep"),
    "ablation-slack": (ablation_slack_fetch, "Explicit slack fetch"),
    "ablation-lpq": (ablation_trailing_fetch_mode,
                     "LPQ vs shared-predictor trailing fetch"),
}
