"""Campaign spec validation, serialization, and content-hash identity."""

import pytest

from repro.campaign.spec import CampaignConfigError, CampaignSpec


def spec(**overrides) -> CampaignSpec:
    base = dict(kinds=("srt",), workloads=("gcc",),
                models=("transient-result",), injections=5,
                instructions=200, warmup=500)
    base.update(overrides)
    return CampaignSpec(**base)


class TestValidation:
    def test_valid_spec_passes(self):
        assert spec().validate() is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignConfigError, match="machine kind"):
            spec(kinds=("warp-core",)).validate()

    def test_unknown_workload_rejected(self):
        with pytest.raises(CampaignConfigError, match="workload"):
            spec(workloads=("doom",)).validate()

    def test_unknown_model_rejected(self):
        with pytest.raises(CampaignConfigError, match="fault model"):
            spec(models=("cosmic-ray",)).validate()

    def test_nonpositive_injections_rejected(self):
        with pytest.raises(CampaignConfigError, match="injections"):
            spec(injections=0).validate()

    def test_bad_strike_window_rejected(self):
        with pytest.raises(CampaignConfigError, match="strike window"):
            spec(strike_window=(500, 100)).validate()
        with pytest.raises(CampaignConfigError, match="strike window"):
            spec(strike_window=(50.0, 200.0)).validate()

    def test_bad_config_dict_rejected(self):
        with pytest.raises(ValueError):
            spec(config={"no_such_field": 1}).validate()


class TestDerived:
    def test_strata_is_full_cartesian_product(self):
        s = spec(kinds=("base", "srt"), workloads=("gcc", "swim"),
                 models=("transient-result", "stuck-unit"))
        assert len(s.strata()) == 8
        assert s.total_tasks() == 8 * 5

    def test_default_strike_window_tracks_instructions(self):
        assert spec(instructions=5000).effective_strike_window() == (50, 5000)
        assert spec(instructions=100).effective_strike_window() == (50, 200)

    def test_explicit_strike_window_wins(self):
        assert spec(strike_window=(10, 99)).effective_strike_window() \
            == (10, 99)


class TestIdentity:
    def test_round_trip_preserves_hash(self):
        original = spec(kinds=("srt", "crt"), strike_window=(10, 400))
        clone = CampaignSpec.from_dict(original.to_dict())
        assert clone == original
        assert clone.content_hash() == original.content_hash()

    def test_hash_stable_across_instances(self):
        assert spec().content_hash() == spec().content_hash()

    def test_any_result_affecting_field_changes_hash(self):
        reference = spec().content_hash()
        assert spec(seed=1).content_hash() != reference
        assert spec(injections=6).content_hash() != reference
        assert spec(instructions=201).content_hash() != reference
        assert spec(warmup=501).content_hash() != reference
        assert spec(kinds=("crt",)).content_hash() != reference
        assert spec(strike_window=(50, 200)).content_hash() != reference

    def test_unknown_fields_rejected_on_load(self):
        data = spec().to_dict()
        data["frobnication"] = True
        with pytest.raises(CampaignConfigError, match="unknown campaign"):
            CampaignSpec.from_dict(data)

    def test_future_format_version_rejected(self):
        data = spec().to_dict()
        data["format_version"] = 99
        with pytest.raises(CampaignConfigError, match="format"):
            CampaignSpec.from_dict(data)
