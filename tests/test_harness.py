"""Tests for the experiment harness (runner, drivers, reporting)."""

import pytest

from repro.harness import (Runner, fig6_srt_one_thread, fig7_psr,
                           fig9_store_lifetime, fig10_crt_one_thread,
                           line_predictor_rates, render_table,
                           slack_distribution)
from repro.harness.experiments import ExperimentResult


@pytest.fixture(scope="module")
def runner():
    return Runner(instructions=400, warmup=1500)


class TestRunner:
    def test_program_caching(self, runner):
        assert runner.program("gcc") is runner.program("gcc")

    def test_duplicate_names_get_copies(self, runner):
        programs = runner.programs(["gcc", "gcc"])
        assert programs[0].name != programs[1].name
        assert programs[0].instructions != programs[1].instructions

    def test_baseline_cached(self, runner):
        first = runner.baseline_ipc("m88ksim")
        second = runner.baseline_ipc("m88ksim")
        assert first == second > 0

    def test_variant_config_does_not_mutate(self, runner):
        variant = runner.variant_config(store_comparison=False)
        assert variant.store_comparison is False
        assert runner.config.store_comparison is True

    def test_variant_rejects_unknown_field(self, runner):
        with pytest.raises(AttributeError):
            runner.variant_config(warp_drive=True)

    def test_efficiency(self, runner):
        result = runner.run("srt", ["m88ksim"])
        eff = runner.efficiency(result)
        assert 0 < eff["m88ksim"] <= 1.2


class TestExperimentResult:
    def test_mean_and_summary(self):
        result = ExperimentResult("x", "desc", series=["a"])
        result.add_row("one", {"a": 1.0})
        result.add_row("two", {"a": 3.0})
        result.finish()
        assert result.summary["mean.a"] == 2.0

    def test_render_table(self):
        result = ExperimentResult("x", "desc", series=["a", "b"])
        result.add_row("row", {"a": 0.5, "b": 7})
        result.finish()
        text = render_table(result)
        assert "row" in text and "0.500" in text and "desc" in text
        assert "arith.mean" in text


class TestDrivers:
    def test_fig6_shape(self, runner):
        result = fig6_srt_one_thread(runner, benchmarks=["m88ksim"])
        row = result.rows["m88ksim"]
        assert set(row) == {"base2", "srt", "srt_ptsq", "srt_nosc"}
        assert all(0 < v <= 1.25 for v in row.values())

    def test_fig7_shape(self, runner):
        result = fig7_psr(runner, benchmarks=["m88ksim"])
        row = result.rows["m88ksim"]
        assert row["psr"] < row["no_psr"]

    def test_fig9_lifetime(self, runner):
        result = fig9_store_lifetime(runner, benchmarks=["m88ksim"])
        row = result.rows["m88ksim"]
        assert row["srt"] > row["base"]
        assert row["delta"] == pytest.approx(row["srt"] - row["base"])

    def test_line_predictor_rates(self, runner):
        result = line_predictor_rates(runner, benchmarks=["m88ksim"])
        row = result.rows["m88ksim"]
        assert 0 <= row["base_rate"] < 1
        assert row["trailing_misfetches"] == 0


class TestSeededRunner:
    """``Runner(seed=3)`` names its programs ``name#3``; the drivers must
    find each logical thread under that name."""

    @pytest.fixture(scope="class")
    def seeded(self):
        return Runner(instructions=200, warmup=500, seed=3)

    def test_one_thread_figures(self, seeded):
        assert seeded.program("m88ksim").name == "m88ksim#3"
        for driver in (fig6_srt_one_thread, fig10_crt_one_thread):
            row = driver(seeded, ["m88ksim"]).rows["m88ksim"]
            assert all(value > 0 for value in row.values()), row

    def test_slack_distribution(self, seeded):
        result = slack_distribution(seeded, "gcc")
        assert result.rows
        assert result.summary["mean_slack"] > 0


class TestRenderComparison:
    def test_simple_pairs(self):
        from repro.harness.reporting import render_comparison

        text = render_comparison("title", [("alpha", 1.0), ("b", 0.25)])
        lines = text.splitlines()
        assert lines[0] == "# title"
        assert "alpha  1.000" in lines[1]
        assert lines[2].startswith("b")
