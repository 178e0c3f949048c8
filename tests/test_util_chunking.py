"""The fan-out chunk policy (repro.harness.fanout) and the
canonical-hash helpers (repro.util)."""

import json

import pytest

from repro.harness.fanout import MAX_CHUNK_SIZE, auto_chunk_size, chunked
from repro.util import canonical_json, content_hash, payload_digest


class TestChunked:
    def test_contiguous_cover(self):
        items = list(range(23))
        chunks = chunked(items, 5)
        assert [len(c) for c in chunks] == [5, 5, 5, 5, 3]
        assert [x for c in chunks for x in c] == items

    def test_exact_multiple(self):
        assert chunked([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_empty(self):
        assert chunked([], 3) == []

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            chunked([1], 0)
        with pytest.raises(ValueError):
            chunked([1], -2)


class TestAutoChunkSize:
    def test_small_totals_chunk_of_one(self):
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(1, 4) == 1
        assert auto_chunk_size(15, 4) == 1

    def test_scales_with_total(self):
        assert auto_chunk_size(160, 4) == 10
        assert auto_chunk_size(10_000, 4) == 16  # capped

    def test_respects_cap(self):
        for jobs in (1, 2, 8):
            assert auto_chunk_size(10_000, jobs) == MAX_CHUNK_SIZE

    def test_min_chunks_per_worker(self):
        # 4 workers x 4 chunks each = 16 chunks minimum
        assert auto_chunk_size(64, 4) == 4

    def test_consistent_with_engine_reexport(self):
        from repro.campaign.engine import auto_chunk_size as engine_acs
        assert engine_acs is auto_chunk_size


class TestCanonical:
    def test_canonical_json_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_key_order_irrelevant(self):
        assert (content_hash({"x": 1, "y": 2})
                == content_hash({"y": 2, "x": 1}))

    def test_one_field_changes_hash(self):
        base = {"kinds": ["srt"], "injections": 100}
        bumped = dict(base, injections=101)
        assert content_hash(base) != content_hash(bumped)

    def test_string_hashed_verbatim(self):
        # A raw string hashes its bytes, not its JSON encoding.
        assert content_hash("abc") != content_hash(json.dumps("abc"))

    def test_prefix_length(self):
        assert len(content_hash({"a": 1})) == 16
        assert len(content_hash({"a": 1}, length=8)) == 8
        assert len(payload_digest({"a": 1})) == 64

    def test_digest_is_hash_superset(self):
        data = {"a": [1, {"b": None}]}
        assert payload_digest(data).startswith(content_hash(data))

    def test_matches_campaign_spec_scheme(self):
        # The campaign store and the serve cache must agree on hashing.
        from repro.campaign.spec import CampaignSpec
        spec = CampaignSpec(kinds=("srt",), workloads=("gcc",),
                            injections=5)
        assert spec.content_hash() == content_hash(spec.to_dict())
