"""Campaign aggregation: coverage statistics and latency distributions.

Turns a store's JSONL records into the numbers the paper's Section 4.5
claims are made of:

- per-stratum outcome breakdowns (detected / masked / latent / SDC /
  hung counts);
- **coverage** — the fraction of *unmasked* faults that were detected —
  with a Wilson score interval, the right interval for proportions at
  the small-to-moderate sample sizes a campaign stratum yields (it never
  leaves [0, 1] and behaves at p→0/1, unlike the normal approximation);
- detection-latency histograms per machine kind (cycles from strike to
  the first fault event).

Tables render through :mod:`repro.harness.reporting` so campaign output
reads like every other experiment table in the repo.
"""

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.campaign.engine import INFRA_FAILURE_OUTCOME
from repro.core.faults import FaultOutcome
from repro.harness.experiments import ExperimentResult
from repro.harness.reporting import render_histogram, render_table
from repro.harness.tracing import Histogram

#: Outcomes where the fault provably propagated into visible state; the
#: coverage denominator (a masked fault is undetectable *by design* —
#: nothing wrong ever existed to detect).  RECOVERED / UNRECOVERABLE
#: imply a detection fired first, so they count as detected *and*
#: unmasked on recovery-enabled machines.
UNMASKED = (FaultOutcome.DETECTED, FaultOutcome.LATENT, FaultOutcome.SDC,
            FaultOutcome.HUNG, FaultOutcome.RECOVERED,
            FaultOutcome.UNRECOVERABLE)

#: Outcomes where output comparison raised a detection event.
DETECTED_LIKE = (FaultOutcome.DETECTED, FaultOutcome.RECOVERED,
                 FaultOutcome.UNRECOVERABLE)


def wilson_interval(successes: int, trials: int,
                    z: float = 1.96) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z * math.sqrt(p * (1 - p) / trials
                          + z2 / (4 * trials * trials))) / denom
    return (max(0.0, center - half), min(1.0, center + half))


class StratumStats:
    """Accumulated outcomes of one (kind, workload) stratum."""

    def __init__(self) -> None:
        self.outcomes: Counter = Counter()
        self.terminations: Counter = Counter()
        self.latencies: List[int] = []
        self.recovery_latencies: List[int] = []
        self.timed_out = 0
        #: Runs that finished with their fault never struck.
        self.not_struck = 0

    def add(self, record: Dict[str, object]) -> None:
        self.outcomes[record["outcome"]] += 1
        if record.get("termination"):
            self.terminations[record["termination"]] += 1
        if record.get("timed_out"):
            self.timed_out += 1
        elif (record.get("struck_cycle") is None
              and record["outcome"] != INFRA_FAILURE_OUTCOME):
            self.not_struck += 1
        if record.get("latency") is not None:
            self.latencies.append(record["latency"])
        if record.get("recovery_latency") is not None:
            self.recovery_latencies.append(record["recovery_latency"])

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    @property
    def detected(self) -> int:
        return sum(self.outcomes.get(outcome.value, 0)
                   for outcome in DETECTED_LIKE)

    @property
    def unmasked(self) -> int:
        return sum(self.outcomes.get(outcome.value, 0)
                   for outcome in UNMASKED)

    def coverage(self) -> Tuple[float, float, float]:
        """(point estimate, ci_low, ci_high) of detected/unmasked."""
        if not self.unmasked:
            return (0.0, 0.0, 1.0)
        low, high = wilson_interval(self.detected, self.unmasked)
        return (self.detected / self.unmasked, low, high)


def aggregate(records: Iterable[Dict[str, object]]
              ) -> Dict[Tuple[str, str], StratumStats]:
    """Group records into per-(kind, workload) stratum statistics."""
    strata: Dict[Tuple[str, str], StratumStats] = defaultdict(StratumStats)
    for record in records:
        strata[(record["kind"], record["workload"])].add(record)
    return dict(strata)


def coverage_table(strata: Dict[Tuple[str, str], StratumStats]
                   ) -> ExperimentResult:
    """Outcome breakdown + Wilson-interval coverage, one row per stratum."""
    # Non-simulation outcomes (e.g. "infra-failure" rows quarantined by
    # the engine after repeated worker-pool kills) get their own column
    # when present: they count toward n but never toward coverage — the
    # fault was never injected, so they carry no detection evidence.
    extra = sorted({value for stats in strata.values()
                    for value in stats.outcomes}
                   - {outcome.value for outcome in FaultOutcome})
    series = ([outcome.value for outcome in FaultOutcome] + extra
              + ["n", "coverage", "ci_low", "ci_high"])
    result = ExperimentResult(
        "campaign", "Fault outcomes and detection coverage "
        "(coverage = detected / unmasked, 95% Wilson CI)", series=series)
    for (kind, workload), stats in sorted(strata.items()):
        point, low, high = stats.coverage()
        row: Dict[str, float] = {
            outcome.value: stats.outcomes.get(outcome.value, 0)
            for outcome in FaultOutcome}
        row.update({value: stats.outcomes.get(value, 0)
                    for value in extra})
        row.update({"n": stats.total, "coverage": point,
                    "ci_low": low, "ci_high": high})
        result.add_row(f"{kind}/{workload}", row)
    return result.finish()


def termination_table(strata: Dict[Tuple[str, str], StratumStats]
                      ) -> ExperimentResult:
    """How runs *ended*, one row per stratum (``--by-termination``).

    Orthogonal to the outcome taxonomy: a DETECTED fault usually still
    ends ``done`` (detection-only machines keep running), while ``hung``
    / ``livelock`` rows carry watchdog forensics and ``recovered`` /
    ``unrecoverable`` only occur with ``recovery_enabled`` configs.
    ``not-struck`` counts the runs that finished (neither timed out nor
    failed as infrastructure) with their fault never struck: a strike
    cycle past the run's end, say.
    """
    from repro.core.metrics import Termination

    order = [termination.value for termination in Termination]
    seen = {value for stats in strata.values()
            for value in stats.terminations}
    counts = ["timed-out", "not-struck", "n"]
    series = ([value for value in order if value in seen]
              + sorted(seen - set(order)) + counts)
    result = ExperimentResult(
        "campaign_termination",
        "Run terminations per stratum (watchdog/recovery verdicts)",
        series=series)
    for (kind, workload), stats in sorted(strata.items()):
        row = {value: stats.terminations.get(value, 0)
               for value in series if value not in counts}
        row["timed-out"] = stats.timed_out
        row["not-struck"] = stats.not_struck
        row["n"] = stats.total
        result.add_row(f"{kind}/{workload}", row)
    return result.finish()


def recovery_table(strata: Dict[Tuple[str, str], StratumStats]
                   ) -> ExperimentResult:
    """Recovery-latency summary per machine kind (recovered runs only)."""
    by_kind: Dict[str, List[int]] = defaultdict(list)
    for (kind, _), stats in strata.items():
        by_kind[kind].extend(stats.recovery_latencies)
    result = ExperimentResult(
        "campaign_recovery",
        "Recovery latency (cycles, rollback→replay caught up)",
        series=["recovered", "mean", "max"])
    for kind in sorted(by_kind):
        latencies = by_kind[kind]
        result.add_row(kind, {
            "recovered": len(latencies),
            "mean": (sum(latencies) / len(latencies)) if latencies else 0.0,
            "max": max(latencies) if latencies else 0,
        })
    return result.finish()


def latency_table(strata: Dict[Tuple[str, str], StratumStats]
                  ) -> ExperimentResult:
    """Detection-latency summary per machine kind."""
    by_kind: Dict[str, List[int]] = defaultdict(list)
    for (kind, _), stats in strata.items():
        by_kind[kind].extend(stats.latencies)
    result = ExperimentResult(
        "campaign_latency", "Detection latency (cycles, strike→detect)",
        series=["detected", "mean", "p50", "p90", "max"])
    for kind in sorted(by_kind):
        latencies = sorted(by_kind[kind])
        if latencies:
            def pct(fraction: float) -> int:
                rank = min(len(latencies) - 1,
                           int(fraction * len(latencies)))
                return latencies[rank]
            result.add_row(kind, {
                "detected": len(latencies),
                "mean": sum(latencies) / len(latencies),
                "p50": pct(0.50), "p90": pct(0.90),
                "max": latencies[-1],
            })
        else:
            result.add_row(kind, {"detected": 0, "mean": 0.0,
                                  "p50": 0, "p90": 0, "max": 0})
    return result.finish()


def latency_histograms(strata: Dict[Tuple[str, str], StratumStats],
                       bucket_width: int = 64) -> Dict[str, Histogram]:
    """Per-kind detection-latency histograms."""
    by_kind: Dict[str, Histogram] = {}
    for (kind, _), stats in sorted(strata.items()):
        histogram = by_kind.setdefault(kind,
                                       Histogram(bucket_width=bucket_width))
        for latency in stats.latencies:
            histogram.add(latency)
    return by_kind


# ---------------------------------------------------------------------------
# AVF cross-validation (``campaign report --vs-avf`` / ``validate-avf``)
# ---------------------------------------------------------------------------

#: Observed outcomes that *falsify* a masked prediction: the fault
#: provably crossed the sphere of replication.
FALSE_MASKED_OUTCOMES = (FaultOutcome.DETECTED.value, FaultOutcome.SDC.value)


def _predicted_group(record: Dict[str, object]) -> str:
    from repro.avf.analyzer import MASKED_CLASSES

    predicted = record.get("predicted")
    if predicted is None:
        return ""
    return "masked" if predicted in MASKED_CLASSES else "ace"


def false_masked_records(records: Iterable[Dict[str, object]]
                         ) -> List[Dict[str, object]]:
    """Records that violate the analyzer's soundness contract."""
    return [record for record in records
            if _predicted_group(record) == "masked"
            and record["outcome"] in FALSE_MASKED_OUTCOMES]


def confusion_table(records: List[Dict[str, object]]) -> ExperimentResult:
    """Predicted (masked/ace) × observed outcome counts per stratum."""
    cells: Dict[Tuple[str, str], Counter] = defaultdict(Counter)
    for record in records:
        group = _predicted_group(record)
        if not group:
            continue
        observed = ("detected" if record["outcome"] in FALSE_MASKED_OUTCOMES
                    else "masked" if record["outcome"]
                    == FaultOutcome.MASKED.value else "latent")
        cells[(record["workload"], record["model"])][
            (group, observed)] += 1
    series = ["msk>det", "msk>msk", "msk>lat",
              "ace>det", "ace>msk", "ace>lat", "false-masked", "n"]
    result = ExperimentResult(
        "campaign_vs_avf",
        "Confusion matrix: static AVF prediction vs injection outcome "
        "(msk>det would be a soundness violation)", series=series)
    for (workload, model), counter in sorted(cells.items()):
        row = {
            "msk>det": counter[("masked", "detected")],
            "msk>msk": counter[("masked", "masked")],
            "msk>lat": counter[("masked", "latent")],
            "ace>det": counter[("ace", "detected")],
            "ace>msk": counter[("ace", "masked")],
            "ace>lat": counter[("ace", "latent")],
        }
        row["false-masked"] = row["msk>det"]
        row["n"] = sum(counter.values())
        result.add_row(f"{workload}/{model}", row)
    return result.finish()


def class_rate_table(records: List[Dict[str, object]]) -> ExperimentResult:
    """Observed detection rate per predicted class, with Wilson CIs."""
    from repro.avf.analyzer import ALL_CLASSES

    totals: Dict[Tuple[str, str, str], List[int]] = defaultdict(
        lambda: [0, 0])
    for record in records:
        predicted = record.get("predicted")
        if predicted is None:
            continue
        key = (record["workload"], record["model"], predicted)
        totals[key][0] += 1
        if record["outcome"] in FALSE_MASKED_OUTCOMES:
            totals[key][1] += 1
    result = ExperimentResult(
        "campaign_avf_classes",
        "Detection rate per predicted masking class (95% Wilson CI)",
        series=["n", "detected", "rate", "ci_low", "ci_high"])
    class_order = {cls: index for index, cls in enumerate(ALL_CLASSES)}
    for key in sorted(totals,
                      key=lambda k: (k[0], k[1], class_order.get(k[2], 99))):
        n, detected = totals[key]
        low, high = wilson_interval(detected, n)
        result.add_row("/".join(key), {
            "n": n, "detected": detected,
            "rate": detected / n if n else 0.0,
            "ci_low": low, "ci_high": high,
        })
    return result.finish()


def adjusted_detection_table(records: List[Dict[str, object]],
                             fractions: Dict[Tuple[str, str],
                                             Dict[str, float]]
                             ) -> ExperimentResult:
    """Universe-reweighted P(detected) per stratum.

    Guided/stratified samples are deliberately biased by predicted
    class; the unbiased detection probability over the whole site
    universe is recovered as ``sum_cls frac(cls) * rate(cls)`` using the
    analyzer's *exact* class fractions.  Classes with no samples
    contribute their soundness bound: statically-masked classes are
    provably undetectable (rate 0); an unsampled ACE class widens the
    interval to its full weight.  This is what makes ``--guided`` safe:
    skipping proven-masked sites changes the sampling, not the estimate.
    """
    from repro.avf.analyzer import ALL_CLASSES, MASKED_CLASSES

    per_class: Dict[Tuple[str, str, str], List[int]] = defaultdict(
        lambda: [0, 0])
    for record in records:
        predicted = record.get("predicted")
        if predicted is None:
            continue
        key = (record["workload"], record["model"], predicted)
        per_class[key][0] += 1
        if record["outcome"] in FALSE_MASKED_OUTCOMES:
            per_class[key][1] += 1
    result = ExperimentResult(
        "campaign_avf_adjusted",
        "AVF-reweighted detection probability over the full site "
        "universe (exact class fractions x per-class Wilson CIs)",
        series=["samples", "point", "ci_low", "ci_high", "ace_frac"])
    for (workload, model), class_fracs in sorted(fractions.items()):
        point = low = high = 0.0
        samples = 0
        for cls in ALL_CLASSES:
            frac = class_fracs.get(cls, 0.0)
            if frac <= 0.0:
                continue
            n, detected = per_class.get((workload, model, cls), (0, 0))
            samples += n
            if cls in MASKED_CLASSES and detected == 0:
                # Soundness bound: a statically-masked class detects with
                # probability exactly 0 (the property test enforces it),
                # so no Wilson widening — sampled or not.
                rate = cls_low = cls_high = 0.0
            elif n:
                rate = detected / n
                cls_low, cls_high = wilson_interval(detected, n)
            else:
                rate, cls_low, cls_high = 0.0, 0.0, 1.0
            point += frac * rate
            low += frac * cls_low
            high += frac * cls_high
        ace_frac = 1.0 - sum(class_fracs.get(cls, 0.0)
                             for cls in MASKED_CLASSES)
        result.add_row(f"{workload}/{model}", {
            "samples": samples, "point": point,
            "ci_low": low, "ci_high": min(1.0, high),
            "ace_frac": ace_frac,
        })
    return result.finish()


def render_vs_avf(records: List[Dict[str, object]],
                  fractions: Dict[Tuple[str, str],
                                  Dict[str, float]] = None) -> str:
    """The ``--vs-avf`` cross-view: confusion matrix + class rates.

    ``fractions`` (per (workload, model) exact class fractions from
    :meth:`repro.avf.sites.SiteUniverse.class_fractions`) additionally
    enables the universe-reweighted detection table.
    """
    tagged = [record for record in records
              if record.get("predicted") is not None]
    if not tagged:
        return ("(no AVF-tagged records — run an architectural campaign "
                "with sampling=stratified/guided or validate-avf)")
    sections = [render_table(confusion_table(tagged)),
                render_table(class_rate_table(tagged))]
    if fractions:
        sections.append(render_table(
            adjusted_detection_table(tagged, fractions)))
    violations = false_masked_records(tagged)
    verdict = (f"SOUNDNESS VIOLATION: {len(violations)} predicted-masked "
               "site(s) were detected"
               if violations else
               "soundness: 0 false-masked sites "
               f"({sum(1 for r in tagged if _predicted_group(r) == 'masked')}"
               " predicted-masked injections)")
    sections.append(verdict)
    return "\n\n".join(sections)


def render_report(records: List[Dict[str, object]],
                  bucket_width: int = 64,
                  by_termination: bool = False) -> str:
    """The full ``campaign report`` text output.

    ``by_termination`` appends the termination breakdown (and, when any
    run recovered, the recovery-latency summary).
    """
    if not records:
        return "(no records yet — run the campaign first)"
    strata = aggregate(records)
    sections = [render_table(coverage_table(strata)),
                render_table(latency_table(strata))]
    if by_termination:
        sections.append(render_table(termination_table(strata)))
        if any(stats.recovery_latencies for stats in strata.values()):
            sections.append(render_table(recovery_table(strata)))
    for kind, histogram in latency_histograms(strata, bucket_width).items():
        if histogram.total:
            sections.append(render_histogram(
                f"{kind}: detection latency (cycles)", histogram))
    return "\n\n".join(sections)
