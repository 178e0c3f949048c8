"""Aggregation: Wilson intervals, coverage tables, latency histograms."""

import math

from repro.campaign.engine import infra_failure_record
from repro.campaign.report import (aggregate, coverage_table,
                                   latency_histograms, latency_table,
                                   render_report, termination_table,
                                   wilson_interval)


def record(kind="srt", workload="gcc", outcome="detected", latency=None,
           timed_out=False):
    return {"kind": kind, "workload": workload, "outcome": outcome,
            "latency": latency, "timed_out": timed_out}


class TestWilsonInterval:
    def test_empty_sample_is_uninformative(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_interval_contains_point_estimate(self):
        for k, n in [(0, 10), (5, 10), (10, 10), (1, 3), (99, 100)]:
            low, high = wilson_interval(k, n)
            assert 0.0 <= low <= k / n <= high <= 1.0

    def test_known_value(self):
        # 8/10 at 95%: classic Wilson ≈ (0.490, 0.943).
        low, high = wilson_interval(8, 10)
        assert math.isclose(low, 0.4902, abs_tol=5e-4)
        assert math.isclose(high, 0.9433, abs_tol=5e-4)

    def test_narrows_with_sample_size(self):
        low_small, high_small = wilson_interval(8, 10)
        low_big, high_big = wilson_interval(800, 1000)
        assert (high_big - low_big) < (high_small - low_small)

    def test_never_degenerate_at_extremes(self):
        low, high = wilson_interval(10, 10)
        assert high == 1.0 and low > 0.5
        low, high = wilson_interval(0, 10)
        assert low == 0.0 and high < 0.5


class TestAggregation:
    def test_strata_grouped_by_kind_and_workload(self):
        records = [record(), record(workload="swim"),
                   record(kind="base", outcome="masked")]
        strata = aggregate(records)
        assert set(strata) == {("srt", "gcc"), ("srt", "swim"),
                               ("base", "gcc")}

    def test_coverage_excludes_masked_from_denominator(self):
        records = ([record(outcome="detected")] * 3
                   + [record(outcome="silent-data-corruption")]
                   + [record(outcome="masked")] * 6)
        stats = aggregate(records)[("srt", "gcc")]
        assert stats.total == 10
        assert stats.unmasked == 4
        point, low, high = stats.coverage()
        assert math.isclose(point, 0.75)
        assert low < point < high

    def test_all_masked_stratum_reports_unknown_coverage(self):
        stats = aggregate([record(outcome="masked")] * 5)[("srt", "gcc")]
        assert stats.coverage() == (0.0, 0.0, 1.0)

    def test_timeout_counted(self):
        stats = aggregate([record(outcome="hung", timed_out=True)])[
            ("srt", "gcc")]
        assert stats.timed_out == 1


class TestTables:
    def test_coverage_table_has_row_per_stratum(self):
        records = [record(), record(kind="base", outcome="masked")]
        table = coverage_table(aggregate(records))
        assert set(table.rows) == {"srt/gcc", "base/gcc"}
        assert table.rows["srt/gcc"]["coverage"] == 1.0
        assert "ci_low" in table.series and "ci_high" in table.series

    def test_latency_table_percentiles(self):
        records = [record(latency=lat) for lat in range(100)]
        table = latency_table(aggregate(records))
        row = table.rows["srt"]
        assert row["detected"] == 100
        assert row["p50"] == 50
        assert row["p90"] == 90
        assert row["max"] == 99

    def test_latency_histogram_counts(self):
        records = [record(latency=lat) for lat in (10, 20, 200)]
        histograms = latency_histograms(aggregate(records), bucket_width=64)
        assert histograms["srt"].total == 3

    def test_render_report_end_to_end(self):
        records = ([record(outcome="detected", latency=40)] * 4
                   + [record(outcome="masked")] * 2
                   + [record(kind="base", outcome="silent-data-corruption")])
        text = render_report(records)
        assert "coverage" in text
        assert "srt/gcc" in text and "base/gcc" in text
        assert "detection latency" in text

    def test_termination_table_counts_runs_never_struck(self):
        """``not-struck``: finished runs whose fault never struck; a
        timed-out or quarantined task is not one of them."""
        task = {"task_id": "t", "index": 0, "kind": "srt",
                "workload": "gcc", "model": "transient-result",
                "fault": {}}
        records = [
            dict(record(outcome="masked"), struck_cycle=None,
                 termination="done"),
            dict(record(outcome="hung"), struck_cycle=None,
                 termination="hung"),
            dict(record(outcome="detected", latency=9), struck_cycle=70,
                 termination="done"),
            dict(record(outcome="hung", timed_out=True), struck_cycle=None,
                 termination="hung"),
            infra_failure_record(task, 3),
            dict(record(kind="base", outcome="masked"), struck_cycle=60,
                 termination="done"),
        ]
        table = termination_table(aggregate(records))
        assert table.series[-3:] == ["timed-out", "not-struck", "n"]
        assert table.rows["srt/gcc"]["not-struck"] == 2
        assert table.rows["srt/gcc"]["timed-out"] == 1
        assert table.rows["srt/gcc"]["n"] == 5
        assert table.rows["base/gcc"]["not-struck"] == 0
        assert "not-struck" in render_report(records, by_termination=True)

    def test_render_report_empty(self):
        assert "no records" in render_report([])
