"""Round-trip tests for campaign result serialisation and shard merging.

The parallel runner depends on three properties of the result layer: every
record survives a JSON round trip bit-for-bit (including ``metadata`` dicts
and ``None`` fields), partial shards merge by trial index into exactly the
serial result, and incompatible or conflicting shards are rejected loudly.
"""

import json

import pytest

from repro.core.results import CampaignResult, TrialRecord


def make_record(index, **overrides):
    fields = dict(
        trial_index=index,
        description=f"MAC {index % 8 + 1} / MUL 1=const(0)",
        num_faults=1 + index % 3,
        accuracy=0.9 - 0.01 * index,
        accuracy_drop=0.01 * index,
        injected_value=(0, 1, -1)[index % 3],
        mac_unit=index % 8,
        multiplier=(index * 3) % 8,
        metadata={"trial": index},
    )
    fields.update(overrides)
    return TrialRecord(**fields)


def make_result(indices, **overrides):
    fields = dict(
        baseline_accuracy=0.9, strategy="random-multipliers", num_images=64, seed=7,
        emulated_inferences_per_second=217.0,
    )
    fields.update(overrides)
    result = CampaignResult(**fields)
    for index in indices:
        result.add(make_record(index))
    return result


class TestTrialRecordRoundTrip:
    def test_plain_round_trip(self):
        record = make_record(4)
        assert TrialRecord.from_dict(record.to_dict()) == record

    def test_none_fields_survive(self):
        record = make_record(0, injected_value=None, mac_unit=None, multiplier=None)
        restored = TrialRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert restored == record
        assert restored.injected_value is None
        assert restored.mac_unit is None

    def test_nested_metadata_survives(self):
        record = make_record(1, metadata={"trial": 3, "sites": [[0, 1], [2, 5]],
                                          "notes": {"kind": "sweep", "retries": None}})
        restored = TrialRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert restored == record

    def test_unknown_keys_rejected(self):
        data = make_record(2).to_dict()
        data["added_in_a_future_version"] = {"x": 1}
        with pytest.raises(ValueError, match="unknown keys.*added_in_a_future_version"):
            TrialRecord.from_dict(data)

    def test_missing_optional_fields_default(self):
        data = make_record(3).to_dict()
        for key in ("injected_value", "mac_unit", "multiplier", "metadata"):
            del data[key]
        restored = TrialRecord.from_dict(data)
        assert restored.injected_value is None
        assert restored.metadata == {}


class TestCampaignResultRoundTrip:
    def test_full_round_trip_is_exact(self):
        result = make_result(range(6))
        result.wall_seconds = 1.25
        restored = CampaignResult.from_json(result.to_json())
        assert restored.records == result.records
        assert restored.to_dict() == result.to_dict()

    def test_none_throughput_survives(self):
        result = make_result([0], emulated_inferences_per_second=None)
        restored = CampaignResult.from_json(result.to_json())
        assert restored.emulated_inferences_per_second is None

    def test_summary_statistics(self):
        result = make_result(range(5))
        summary = result.summary()
        assert summary["num_trials"] == 5
        assert summary["max_accuracy_drop"] == pytest.approx(0.04)
        assert summary["worst_trial_index"] == 4
        assert summary["mean_accuracy_drop"] == pytest.approx(0.02)
        empty = make_result([])
        assert empty.summary()["worst_trial_index"] is None

    def test_sort_records(self):
        result = make_result([4, 0, 2])
        result.sort_records()
        assert [r.trial_index for r in result.records] == [0, 2, 4]


class TestMergeByTrialIndex:
    def test_merge_partial_shards_reassembles_serial_result(self):
        full = make_result(range(10))
        evens = make_result(range(0, 10, 2))
        odds = make_result(range(1, 10, 2))
        merged = CampaignResult.merge([evens, odds])
        assert merged.records == full.records
        assert merged.strategy == full.strategy
        assert merged.baseline_accuracy == full.baseline_accuracy

    def test_merge_after_json_round_trip(self):
        shards = [make_result(range(w, 9, 3)) for w in range(3)]
        restored = [CampaignResult.from_json(s.to_json()) for s in shards]
        assert CampaignResult.merge(restored).records == make_result(range(9)).records

    def test_merge_tolerates_duplicate_identical_records(self):
        a = make_result([0, 1, 2])
        b = make_result([2, 3])
        merged = CampaignResult.merge([a, b])
        assert [r.trial_index for r in merged.records] == [0, 1, 2, 3]

    def test_merge_rejects_conflicting_records(self):
        a = make_result([0])
        b = make_result([])
        b.add(make_record(0, accuracy=0.123))
        with pytest.raises(ValueError, match="conflicting"):
            CampaignResult.merge([a, b])

    def test_merge_rejects_different_campaigns(self):
        with pytest.raises(ValueError, match="different campaigns"):
            CampaignResult.merge([make_result([0]), make_result([1], seed=8)])
        with pytest.raises(ValueError, match="different campaigns"):
            CampaignResult.merge([make_result([0]), make_result([1], baseline_accuracy=0.5)])

    def test_merge_requires_at_least_one_part(self):
        with pytest.raises(ValueError):
            CampaignResult.merge([])

    def test_merge_accumulates_wall_seconds(self):
        a, b = make_result([0]), make_result([1])
        a.wall_seconds, b.wall_seconds = 1.5, 2.5
        assert CampaignResult.merge([a, b]).wall_seconds == pytest.approx(4.0)
