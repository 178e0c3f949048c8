"""Engine resilience under chaos: worker crashes ride out to a
byte-identical artifact, and a deterministic killer is quarantined as
a structured infra-failure row the report surfaces."""

import re

import pytest

from repro.campaign.engine import (INFRA_FAILURE_OUTCOME, CampaignEngine,
                                   run_campaign)
from repro.campaign.report import aggregate, coverage_table
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.chaos import ChaosPlan, ChaosRule, armed

SPEC = CampaignSpec(kinds=("srt",), workloads=("compress",),
                    models=("transient-result",), injections=10,
                    instructions=100, warmup=10, seed=3)


def test_worker_crashes_ride_out_byte_identical(tmp_path):
    """Headline: crashes mid-campaign, yet the artifact converges on
    the fault-free bytes (missing chunks re-executed, order kept)."""
    clean = run_campaign(SPEC, tmp_path / "clean", jobs=2)
    plan = ChaosPlan(seed=13, rules=(
        ChaosRule("campaign.worker.task", "crash", p=0.4),))
    with armed(plan):
        chaotic = run_campaign(SPEC, tmp_path / "chaos", jobs=2)

    assert chaotic["state"] == "complete"
    infra = chaotic["infra"]
    assert infra["pool_rebuilds"] >= 1, "no crash fired; plan is inert"
    assert infra["quarantined"] == 0
    assert (tmp_path / "chaos" / "results.jsonl").read_bytes() == \
        (tmp_path / "clean" / "results.jsonl").read_bytes()
    # The clean summary carries no infra block at all.
    assert "infra" not in clean


def test_deterministic_killer_is_quarantined(tmp_path):
    """A task that kills its worker every time must not abort the
    campaign: after QUARANTINE_AFTER (3) consecutive kills it is recorded
    as a structured infra-failure row and the rest completes."""
    clean = run_campaign(SPEC, tmp_path / "clean", jobs=1)
    victim = CampaignStore(tmp_path / "clean").records()[3]["task_id"]

    plan = ChaosPlan(rules=(
        ChaosRule("campaign.worker.task", "crash",
                  key_pattern=f"^{re.escape(victim)}$",
                  max_attempt=99),))
    with armed(plan):
        summary = run_campaign(SPEC, tmp_path / "chaos", jobs=2)

    assert summary["state"] == "complete"
    assert summary["infra"]["quarantined"] == 1

    records = CampaignStore(tmp_path / "chaos").records()
    clean_records = CampaignStore(tmp_path / "clean").records()
    assert [r["task_id"] for r in records] == \
        [r["task_id"] for r in clean_records]  # canonical order kept
    by_id = {r["task_id"]: r for r in records}
    row = by_id[victim]
    assert row["outcome"] == INFRA_FAILURE_OUTCOME
    assert row["termination"] == INFRA_FAILURE_OUTCOME
    assert row["infra"]["pool_kills"] >= 3
    # Every other row matches the fault-free run exactly.
    for record in clean_records:
        if record["task_id"] != victim:
            assert by_id[record["task_id"]] == record


def test_infra_failure_visible_in_report(tmp_path):
    """`campaign report` must show quarantined rows, not hide them."""
    run_campaign(SPEC, tmp_path / "clean", jobs=1)
    victim = CampaignStore(tmp_path / "clean").records()[0]["task_id"]
    plan = ChaosPlan(rules=(
        ChaosRule("campaign.worker.task", "crash",
                  key_pattern=f"^{re.escape(victim)}$",
                  max_attempt=99),))
    with armed(plan):
        run_campaign(SPEC, tmp_path / "chaos", jobs=2)

    strata = aggregate(CampaignStore(tmp_path / "chaos").records())
    table = coverage_table(strata)
    assert INFRA_FAILURE_OUTCOME in table.series
    stratum = table.rows["srt/compress"]
    assert stratum[INFRA_FAILURE_OUTCOME] == 1
    assert stratum["n"] == SPEC.total_tasks()


def test_resume_after_hard_kill_mid_campaign(tmp_path):
    """A campaign killed between chunks resumes to the same bytes."""
    reference = run_campaign(SPEC, tmp_path / "ref", jobs=1)
    assert reference["state"] == "complete"

    # Simulate the kill: a half-finished artifact with a torn tail.
    ref_bytes = (tmp_path / "ref" / "results.jsonl").read_bytes()
    out = tmp_path / "resume"
    engine = CampaignEngine(SPEC, out, jobs=1)
    engine.store.initialize(SPEC)
    cut = ref_bytes[:int(len(ref_bytes) * 0.6) + 7]
    (out / "results.jsonl").write_bytes(cut)

    summary = CampaignEngine(SPEC, out, jobs=1).run()
    assert summary["state"] == "complete"
    assert (out / "results.jsonl").read_bytes() == ref_bytes
