"""Tests for the declarative scenario-sweep subsystem.

Three load-bearing properties:

* **Bijection** — grid enumeration visits every (model, fault, strategy,
  platform) cell exactly once, in a deterministic order, with unique ids
  (hypothesis-checked over random axis shapes).
* **Determinism** — the merged sweep artifact is bit-identical for any
  worker count and across kill + resume, and its structure digest (trial
  derivation + sharding + serialisation, accuracies stripped) matches a
  frozen golden value.
* **Spec hygiene** — JSON/TOML specs round-trip, unknown keys and
  incompatible cells fail loudly.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analysis import scenario_boxplots
from repro.core.sweep import (
    ExperimentSpec,
    FaultAxis,
    ModelAxis,
    PlatformAxis,
    ScenarioGrid,
    StrategyAxis,
    SweepRunner,
    validate_spec_data,
)
from repro.faults.models import (
    AccumulatorStuckAt,
    BitFlip,
    ConstantValue,
    StuckAtOne,
    StuckAtZero,
    TransientCycleFault,
)

#: The golden two-scenario sweep: one constant-override family and one
#: accumulator-stage family under a random strategy.  Its *structure* digest
#: (site draws, sharding, serialisation — accuracies stripped) is frozen
#: below; any unintended change to trial derivation, record schema or
#: scenario enumeration changes the digest and fails CI.
GOLDEN_SPEC = {
    "images": 16,
    "seed": 0,
    "models": [{"name": "tiny"}],
    "faults": [
        {"name": "const0", "kind": "const", "values": [0]},
        {"name": "acc21", "kind": "acc-stuck", "bits": [21], "stuck": 1},
    ],
    "strategies": [{"name": "random", "kind": "random", "counts": [1, 2], "trials": 1}],
}

GOLDEN_STRUCTURE_DIGEST = (
    "76965fedc53feec1724460aab0b8943e7d829f21367f95a4f7bd56ea06a0b14e"
)


@pytest.fixture
def tiny_resolver(tiny_platform_spec, tiny_dataset):
    """Resolver standing in for the zoo: every scenario runs on the session's
    tiny pre-trained platform with a frozen 16-image evaluation set."""

    def resolver(scenario):
        return (
            tiny_platform_spec,
            tiny_dataset.test_images[:16],
            tiny_dataset.test_labels[:16],
        )

    return resolver


def run_golden_sweep(tiny_resolver, workers=1, sweep_dir=None, resume=False):
    spec = ExperimentSpec.from_dict(GOLDEN_SPEC)
    return SweepRunner(
        spec.grid(),
        workers=workers,
        sweep_dir=sweep_dir,
        resume=resume,
        resolver=tiny_resolver,
    ).run()


class TestSpecParsing:
    def test_defaults(self):
        spec = ExperimentSpec.from_dict({})
        grid = spec.grid()
        assert len(grid) == 1
        assert grid.ids() == ["default/const0/random/8x8"]

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match=r"ExperimentSpec has unknown keys \['modles'\]"):
            ExperimentSpec.from_dict({"modles": []})

    @pytest.mark.parametrize("key, value, problem", [
        ("images", 0, "must be an integer >= 1"),
        ("images", -5, "must be an integer >= 1"),
        ("images", 2.9, "must be an integer >= 1"),
        ("batch_size", 0, "must be an integer >= 1"),
        ("batch_size", -8, "must be an integer >= 1"),
        ("max_shard_retries", -1, "must be a non-negative integer"),
        ("shard_timeout", 0, "must be > 0"),
        ("retry_backoff", -0.5, "must be a finite number >= 0"),
        ("seed", True, "must be an integer"),
    ])
    def test_scalar_out_of_range_rejected_by_both_readers(self, key, value, problem):
        expected = f"ExperimentSpec.{key} {problem}"
        assert any(expected in p for p in validate_spec_data({key: value}))
        with pytest.raises(ValueError, match=re.escape(expected)):
            ExperimentSpec.from_dict({key: value})

    def test_scalars_in_range_load(self):
        spec = ExperimentSpec.from_dict(
            {"images": 1, "batch_size": 1, "seed": -3, "max_shard_retries": 0,
             "shard_timeout": 2, "retry_backoff": 0}
        )
        assert (spec.images, spec.batch_size, spec.seed) == (1, 1, -3)
        assert spec.shard_timeout == 2.0 and isinstance(spec.shard_timeout, float)
        assert validate_spec_data(spec.to_dict()) == []

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec.from_dict(
                {"faults": [{"kind": "const"}, {"kind": "const"}]}
            )

    def test_fault_families_build_expected_models(self):
        assert FaultAxis("c", "const", {"values": [0, -1]}).build() == (
            ConstantValue(0),
            ConstantValue(-1),
        )
        assert FaultAxis("s0", "stuck-at-0", {}).build() == (StuckAtZero(),)
        assert FaultAxis("s1", "stuck-at-1", {}).build() == (StuckAtOne(),)
        assert FaultAxis("b", "bitflip", {"bits": [3, 17]}).build() == (
            BitFlip(3),
            BitFlip(17),
        )
        assert FaultAxis("t", "transient", {"values": [5], "duty": 0.25, "salt": 9}).build() == (
            TransientCycleFault(value=5, duty=0.25, salt=9),
        )
        acc = FaultAxis("a", "acc-stuck", {"bits": [4], "stuck": 1})
        assert acc.build() == (AccumulatorStuckAt(bit=4, stuck=1),)
        assert acc.stage == "accumulator"

    def test_unknown_fault_kind_and_params_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            FaultAxis("x", "meltdown", {}).build()
        with pytest.raises(ValueError, match="unknown parameters"):
            FaultAxis("x", "const", {"values": [0], "typo": 1}).build()
        with pytest.raises(ValueError, match="unknown parameters"):
            StrategyAxis("x", "random", {"typo": 1}).build((ConstantValue(0),), "x")

    def test_model_axis_rejects_unknown_case_spec_fields(self):
        with pytest.raises(ValueError, match="CaseStudySpec"):
            ModelAxis("m", params={"depth_multiplier": 2}).case_spec()

    def test_to_dict_round_trip(self):
        spec = ExperimentSpec.from_dict(
            {
                "images": 24,
                "seed": 3,
                "models": [{"name": "m", "params": {"width_multiplier": 0.125}}],
                "faults": [{"kind": "transient", "values": [1], "duty": 0.5}],
                "strategies": [{"kind": "exhaustive"}],
                "platforms": [{"name": "4x4", "num_macs": 4, "muls_per_mac": 4}],
            }
        )
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.to_dict() == spec.to_dict()
        assert clone.grid().ids() == spec.grid().ids()

    def test_from_file_toml_and_json(self, tmp_path):
        data = {
            "images": 8,
            "faults": [{"kind": "const", "values": [0]}],
        }
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(data))
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(
            'images = 8\n\n[[faults]]\nkind = "const"\nvalues = [0]\n'
        )
        from_json = ExperimentSpec.from_file(json_path)
        from_toml = ExperimentSpec.from_file(toml_path)
        assert from_json.to_dict() == from_toml.to_dict()
        assert from_json.images == 8

    def test_example_smoke_spec_parses(self):
        from pathlib import Path

        spec = ExperimentSpec.from_file(
            Path(__file__).resolve().parent.parent / "examples" / "sweep_smoke.toml"
        )
        assert len(spec.grid()) == 2


class TestGridBijection:
    @given(
        n_models=st.integers(min_value=1, max_value=3),
        n_faults=st.integers(min_value=1, max_value=3),
        n_strategies=st.integers(min_value=1, max_value=2),
        n_platforms=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_cell_appears_exactly_once(
        self, n_models, n_faults, n_strategies, n_platforms
    ):
        fault_kinds = ["const", "acc-stuck", "transient"]
        strategy_kinds = ["random", "exhaustive"]
        spec = ExperimentSpec(
            models=[ModelAxis(name=f"m{i}") for i in range(n_models)],
            faults=[
                FaultAxis(name=f"f{i}", kind=fault_kinds[i % len(fault_kinds)])
                for i in range(n_faults)
            ],
            strategies=[
                StrategyAxis(
                    name=f"s{i}",
                    kind=strategy_kinds[i % len(strategy_kinds)],
                    params={"counts": [1], "trials": 1} if i % 2 == 0 else {},
                )
                for i in range(n_strategies)
            ],
            platforms=[
                PlatformAxis(name=f"p{i}", num_macs=2 + i, muls_per_mac=2)
                for i in range(n_platforms)
            ],
        )
        grid = spec.grid()
        expected = n_models * n_faults * n_strategies * n_platforms
        assert len(grid) == expected
        cells = [s.cell for s in grid]
        assert len(set(cells)) == expected  # every cell exactly once
        assert cells == sorted(cells)  # deterministic nested order
        assert set(cells) == {
            (m, f, s, p)
            for m in range(n_models)
            for f in range(n_faults)
            for s in range(n_strategies)
            for p in range(n_platforms)
        }
        ids = grid.ids()
        assert len(set(ids)) == expected

    def test_incompatible_cell_fails_grid_construction(self):
        spec = ExperimentSpec(
            faults=[FaultAxis(name="acc", kind="acc-stuck")],
            strategies=[StrategyAxis(name="per-mac", kind="per-mac")],
        )
        with pytest.raises(ValueError, match="accumulator-stage"):
            spec.grid()

    def test_axis_names_must_be_filename_safe(self):
        with pytest.raises(ValueError, match="filename-safe"):
            ModelAxis(name="resnet/w0.5")
        with pytest.raises(ValueError, match="filename-safe"):
            StrategyAxis(name="a b", kind="random")

    def test_product_fault_count_bounded_by_universe(self):
        spec = ExperimentSpec(
            strategies=[
                StrategyAxis(name="random", kind="random", params={"counts": [5], "trials": 1})
            ],
            platforms=[PlatformAxis(name="2x2", num_macs=2, muls_per_mac=2)],
        )
        with pytest.raises(ValueError, match="exceeds"):
            spec.grid()

    def test_accumulator_fault_count_bounded_by_macs(self):
        spec = ExperimentSpec(
            faults=[FaultAxis(name="acc", kind="acc-stuck")],
            strategies=[
                StrategyAxis(name="random", kind="random", params={"counts": [5], "trials": 1})
            ],
            platforms=[PlatformAxis(name="4x4", num_macs=4, muls_per_mac=4)],
        )
        with pytest.raises(ValueError, match="exceeds"):
            spec.grid()


class TestSweepDeterminism:
    def test_workers_1_2_4_merged_artifacts_identical(self, tiny_resolver):
        merged = {}
        for workers in (1, 2, 4):
            sweep = run_golden_sweep(tiny_resolver, workers=workers)
            merged[workers] = sweep.merged_jsonl_text()
        assert merged[1] == merged[2] == merged[4]

    def test_golden_structure_digest(self, tiny_resolver):
        """Frozen digest of trial derivation + sharding + serialisation.

        The digest strips accuracy floats, so it is stable across machines
        and BLAS builds; if this test fails, either an intentional change to
        trial derivation / record schema happened (update the constant and
        say so in the commit) or something broke determinism.
        """
        sweep = run_golden_sweep(tiny_resolver)
        assert len(sweep) == 2
        assert sweep.structure_digest() == GOLDEN_STRUCTURE_DIGEST

    def test_kill_and_resume_reproduces_artifact(self, tiny_resolver, tmp_path):
        sweep_dir = tmp_path / "sweep"
        reference = run_golden_sweep(tiny_resolver, workers=2, sweep_dir=sweep_dir)
        merged_path = sweep_dir / "sweep.jsonl"
        reference_text = merged_path.read_text()

        # Simulate a kill mid-sweep: one scenario checkpoint torn mid-write,
        # the other deleted entirely, merged artifacts gone.
        checkpoints = sorted((sweep_dir / "scenarios").rglob("*.jsonl"))
        assert len(checkpoints) == 2
        torn = checkpoints[0].read_text()
        checkpoints[0].write_text(torn[: len(torn) // 2])
        checkpoints[1].unlink()
        merged_path.unlink()

        resumed = run_golden_sweep(
            tiny_resolver, workers=2, sweep_dir=sweep_dir, resume=True
        )
        assert merged_path.read_text() == reference_text
        assert resumed.merged_jsonl_text() == reference.merged_jsonl_text()
        assert resumed.structure_digest() == GOLDEN_STRUCTURE_DIGEST

    def test_existing_checkpoints_without_resume_refused(self, tiny_resolver, tmp_path):
        sweep_dir = tmp_path / "sweep"
        run_golden_sweep(tiny_resolver, workers=1, sweep_dir=sweep_dir)
        with pytest.raises(FileExistsError):
            run_golden_sweep(tiny_resolver, workers=1, sweep_dir=sweep_dir)


class TestSweepResults:
    def test_artifacts_and_summary(self, tiny_resolver, tmp_path):
        sweep_dir = tmp_path / "out"
        sweep = run_golden_sweep(tiny_resolver, sweep_dir=sweep_dir)

        merged = (sweep_dir / "sweep.jsonl").read_text()
        lines = [json.loads(line) for line in merged.splitlines()]
        kinds = [line["kind"] for line in lines]
        assert kinds.count("scenario") == 2
        # 2 counts x 1 trial per fault family
        assert kinds.count("record") == 4
        scenario_ids = {line["scenario"] for line in lines}
        assert scenario_ids == {
            "tiny/const0/random/8x8",
            "tiny/acc21/random/8x8",
        }

        payload = json.loads((sweep_dir / "sweep.json").read_text())
        assert payload["structure_digest"] == sweep.structure_digest()
        assert payload["spec"]["images"] == 16
        assert len(payload["scenarios"]) == 2

        summary = sweep.summary()
        assert summary["num_scenarios"] == 2
        assert summary["num_trials"] == 4

    def test_scenario_boxplots_keyed_by_scenario(self, tiny_resolver):
        sweep = run_golden_sweep(tiny_resolver)
        series = scenario_boxplots(sweep.results_by_id())
        assert set(series) == {"tiny/const0/random/8x8", "tiny/acc21/random/8x8"}
        for scenario_id, boxed in series.items():
            assert boxed.label == scenario_id
            assert boxed.positions() == [1, 2]
            for stats in boxed.boxes.values():
                assert stats.count == 1

    def test_accumulator_trials_record_model_metadata(self, tiny_resolver):
        sweep = run_golden_sweep(tiny_resolver)
        acc_result = sweep.results_by_id()["tiny/acc21/random/8x8"]
        for record in acc_result.records:
            assert record.metadata["model"] == "acc-stuck1@21"
            assert "ACC" in record.description
            assert record.injected_value is None
