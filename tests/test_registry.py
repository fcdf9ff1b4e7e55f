"""Tests of the pluggable axis registries (PR 6).

Covers the registry core (schemas, typed params, live-derived error
enumerations), the sweep axes' dispatch through the registries, the
validate-before-compute pass, provenance stamping, and the NaN-safe JSON
serialisation of result artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.core.registry import (
    FAULTS,
    MODELS,
    OPTIONAL,
    PLATFORMS,
    STRATEGIES,
    ParamSpec,
    Registry,
    axis_provenance,
    registry_digest,
    registry_schema,
)
from repro.core.results import CampaignResult, TrialRecord
from repro.core.stats import OutcomeThresholds
from repro.core.sweep import (
    ExperimentSpec,
    FaultAxis,
    ModelAxis,
    PlatformAxis,
    StrategyAxis,
    SweepRunner,
    validate_spec_data,
)
from repro.faults.models import ConstantValue
from repro.utils.jsonsafe import dump_json_safe, sanitize_non_finite


# ----------------------------------------------------------------------
# Registry core
# ----------------------------------------------------------------------
class TestRegistryCore:
    def make_registry(self) -> Registry:
        registry = Registry("widget")
        registry.register(
            "gadget",
            params=[
                ParamSpec("size", "int", default=4),
                ParamSpec("tags", "seq[str]", default=()),
                ParamSpec("label", "str"),  # required
                ParamSpec("hint", "str", default=OPTIONAL),
            ],
            builder=lambda params: dict(params),
        )
        return registry

    def test_build_applies_defaults_and_conversions(self):
        registry = self.make_registry()
        built = registry.build("gadget", {"label": "a", "tags": ["x", "y"]})
        assert built == {"size": 4, "tags": ("x", "y"), "label": "a"}
        assert "hint" not in built  # OPTIONAL params stay absent

    def test_duplicate_registration_rejected(self):
        registry = self.make_registry()
        with pytest.raises(ValueError, match="duplicate registration"):
            registry.register("gadget", builder=lambda params: None)

    def test_unknown_kind_enumerates_live_registry(self):
        registry = self.make_registry()
        registry.register("doodad", builder=lambda params: None)
        with pytest.raises(ValueError, match="unknown kind") as excinfo:
            registry.get("bogus")
        assert "doodad" in str(excinfo.value) and "gadget" in str(excinfo.value)
        registry.unregister("doodad")
        with pytest.raises(ValueError) as excinfo:
            registry.get("bogus")
        assert "doodad" not in str(excinfo.value)

    def test_all_schema_errors_reported_at_once(self):
        registry = self.make_registry()
        problems = registry.validate_params(
            "gadget", {"size": "big", "bogus": 1}, context="test axis"
        )
        text = "\n".join(problems)
        assert "unknown parameters ['bogus']" in text
        assert "'size' must be an integer" in text
        assert "missing required parameter 'label'" in text
        with pytest.raises(ValueError) as excinfo:
            registry.resolve("gadget", {"size": "big", "bogus": 1})
        assert str(excinfo.value).count("\n") == 2  # all three, one per line

    def test_type_checks_reject_lookalikes(self):
        registry = self.make_registry()
        assert registry.validate_params("gadget", {"label": "a", "size": True})
        assert registry.validate_params("gadget", {"label": "a", "tags": "xy"})
        assert registry.validate_params("gadget", {"label": "a", "tags": [1]})
        assert not registry.validate_params("gadget", {"label": "a", "tags": ("x",)})

    def test_domain_validator_runs_after_type_checks(self):
        registry = Registry("thing")
        registry.register(
            "checked",
            params=[ParamSpec("count", "int", default=1)],
            validator=lambda params: (
                ["count must be positive"] if params["count"] <= 0 else []
            ),
            builder=lambda params: params["count"],
        )
        assert registry.build("checked", {"count": 2}) == 2
        with pytest.raises(ValueError, match="count must be positive"):
            registry.build("checked", {"count": 0})
        # type error wins; the validator never sees ill-typed params
        problems = registry.validate_params("checked", {"count": "many"})
        assert len(problems) == 1 and "must be an integer" in problems[0]


# ----------------------------------------------------------------------
# Axis dispatch through the builtin registries
# ----------------------------------------------------------------------
class TestAxisDispatch:
    def test_fault_axis_unknown_kind_error_derives_from_registry(self):
        with pytest.raises(ValueError, match="unknown kind") as excinfo:
            FaultAxis(name="f", kind="no-such-fault").build()
        for kind in FAULTS.kinds():
            assert kind in str(excinfo.value)
        # a freshly registered kind shows up in the message immediately —
        # the enumeration cannot drift from the dispatch (old sweep.py:218
        # hardcoded the list in a string)
        FAULTS.register("tmp-fault", builder=lambda params: (ConstantValue(0),))
        try:
            assert FaultAxis(name="f", kind="tmp-fault").build() == (ConstantValue(0),)
            with pytest.raises(ValueError, match="tmp-fault"):
                FaultAxis(name="f", kind="no-such-fault").build()
        finally:
            FAULTS.unregister("tmp-fault")

    def test_strategy_axis_unknown_kind_error_derives_from_registry(self):
        models = (ConstantValue(0),)
        with pytest.raises(ValueError, match="unknown kind") as excinfo:
            StrategyAxis(name="s", kind="no-such").build(models, "s")
        for kind in STRATEGIES.kinds():
            assert kind in str(excinfo.value)

    def test_strategy_stage_conflict_uses_registry_stages(self):
        acc_models = FaultAxis(name="a", kind="acc-stuck").build()
        with pytest.raises(ValueError, match="accumulator-stage"):
            StrategyAxis(name="s", kind="per-mac").build(acc_models, "s")
        with pytest.raises(ValueError, match="accumulator-stage"):
            StrategyAxis(name="s", kind="per-position").build(acc_models, "s")

    def test_model_axis_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown case-study variant"):
            ModelAxis(name="m", variant="w9.0").case_spec()

    def test_platform_axis_legacy_keywords_still_work(self):
        axis = PlatformAxis(name="2x3", num_macs=2, muls_per_mac=3)
        assert axis.num_macs == 2 and axis.muls_per_mac == 3
        config = axis.config()
        assert config.geometry.num_macs == 2
        assert config.name == "2x3"
        with pytest.raises(ValueError, match="unknown parameters"):
            PlatformAxis(name="p", params={"bogus": 1}).config()

    def test_case_study_schema_pinned_to_zoo_dataclass(self):
        from repro.zoo import CaseStudySpec

        registered = {p.name for p in MODELS.get("case-study").params}
        expected = {"variant"} | {f.name for f in dataclasses.fields(CaseStudySpec)}
        assert registered == expected


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
class TestProvenance:
    def test_axis_provenance_resolves_defaults(self):
        stamp = axis_provenance(FAULTS, "const", {})
        assert stamp == {"kind": "const", "params": {"values": [0]}}
        stamp = axis_provenance(STRATEGIES, "random", {"counts": [2]})
        assert stamp["params"] == {"counts": [2], "trials": 10}

    def test_axis_provenance_falls_back_on_invalid(self):
        stamp = axis_provenance(FAULTS, "no-such", {"x": 1})
        assert stamp == {"kind": "no-such", "params": {"x": 1}}

    def test_registry_digest_tracks_contents(self):
        before = registry_digest()
        FAULTS.register("tmp-digest-kind", builder=lambda params: (ConstantValue(0),))
        try:
            assert registry_digest() != before
        finally:
            FAULTS.unregister("tmp-digest-kind")
        assert registry_digest() == before
        assert "fault" in registry_schema() and "const" in registry_schema()["fault"]

    def test_scenario_provenance_carries_all_axes(self):
        spec = ExperimentSpec.from_dict(
            {"faults": [{"kind": "acc-stuck", "bits": [21], "stuck": 1}]}
        )
        (scenario,) = list(spec.grid())
        stamp = scenario.provenance()
        assert stamp["registry_digest"] == registry_digest()
        assert stamp["fault"] == {
            "kind": "acc-stuck",
            "params": {"bits": [21], "stuck": 1},
        }
        assert stamp["strategy"]["params"]["trials"] == 10
        assert stamp["platform"]["params"]["num_macs"] == 8
        assert stamp["model"]["kind"] == "case-study"

    def test_campaign_result_provenance_round_trips(self):
        result = CampaignResult(baseline_accuracy=0.9, provenance={"kind": "x"})
        clone = CampaignResult.from_json(result.to_json())
        assert clone.provenance == {"kind": "x"}
        # absent stays absent (no key in the dict, None after reload)
        bare = CampaignResult(baseline_accuracy=0.9)
        assert "provenance" not in bare.to_dict()
        assert CampaignResult.from_json(bare.to_json()).provenance is None


# ----------------------------------------------------------------------
# Validate-before-compute
# ----------------------------------------------------------------------
GOOD_SPEC = {
    "images": 8,
    "seed": 1,
    "models": [{"name": "tiny", "width_multiplier": 0.125, "epochs": 1}],
    "faults": [
        {"name": "const0", "kind": "const", "values": [0]},
        {"name": "acc", "kind": "acc-stuck", "bits": [21]},
    ],
    "strategies": [{"name": "random", "kind": "random", "counts": [1], "trials": 1}],
    "platforms": [{"name": "8x8"}],
}


class TestValidateSpecData:
    def test_good_spec_has_no_problems(self):
        assert validate_spec_data(GOOD_SPEC) == []

    def test_all_problems_reported_at_once(self):
        bad = {
            "images": "many",  # not an integer
            "bogus_key": 1,  # unknown top-level key
            "faults": [
                {"name": "f1", "kind": "no-such-kind"},  # unknown kind
                {"name": "f2", "kind": "const", "values": "zero"},  # ill-typed
            ],
            "strategies": [
                {"name": "s", "kind": "random", "typo": 3},  # unknown param
                {"name": "s", "kind": "exhaustive"},  # duplicate name
            ],
        }
        problems = "\n".join(validate_spec_data(bad))
        assert "ExperimentSpec.images must be an integer" in problems
        assert "ExperimentSpec has unknown keys ['bogus_key']" in problems
        assert "unknown kind 'no-such-kind'" in problems
        assert "parameter 'values' must be a list of integers" in problems
        assert "unknown parameters ['typo']" in problems
        assert "duplicate names in 'strategies'" in problems

    def test_cross_axis_problems_detected(self):
        bad = {
            "faults": [{"name": "acc", "kind": "acc-stuck"}],
            "strategies": [
                {"name": "per-mac", "kind": "per-mac"},
                {"name": "random", "kind": "random", "counts": [99], "trials": 1},
            ],
            "platforms": [{"name": "2x2", "num_macs": 2, "muls_per_mac": 2}],
        }
        problems = "\n".join(validate_spec_data(bad))
        assert "accumulator-stage" in problems
        assert "exceeds" in problems

    def test_stratified_allocation_validated(self):
        bad = {
            "faults": [{"kind": "const"}],
            "strategies": [{"kind": "stratified", "allocation": [1, 1]}],
            "platforms": [{"name": "8x8"}],
        }
        problems = "\n".join(validate_spec_data(bad))
        assert "2 strata" in problems and "8 MAC units" in problems
        empty = {"strategies": [{"kind": "stratified", "allocation": []}]}
        assert any("allocation" in p for p in validate_spec_data(empty))

    def test_non_dict_and_malformed_entries(self):
        assert validate_spec_data([]) == ["ExperimentSpec must be an object, got list"]
        problems = validate_spec_data({"faults": [42], "strategies": "nope"})
        text = "\n".join(problems)
        assert "ExperimentSpec.faults must be a list of objects, got list [42]" in text
        assert "ExperimentSpec.strategies must be a list of objects, got str 'nope'" in text

    def test_nested_cross_field_rules_name_their_path(self):
        bad = dict(GOOD_SPEC, adaptive={
            "target_half_width": 0.05,
            "thresholds": {"tolerable_drop": 0.5, "critical_drop": 0.2},
        })
        assert ExperimentSpec.problems(bad) == [
            "ExperimentSpec.adaptive.thresholds must satisfy masked_epsilon <= "
            "tolerable_drop <= critical_drop, got masked_epsilon=1e-09, "
            "tolerable_drop=0.5, critical_drop=0.2"
        ]
        zero = dict(GOOD_SPEC, adaptive={"target_half_width": 0})
        assert ExperimentSpec.problems(zero) == [
            "ExperimentSpec.adaptive.target_half_width must be > 0, got 0.0"
        ]
        # At the top level a class's rule keeps its own name.
        assert OutcomeThresholds.problems({"tolerable_drop": 0.5, "critical_drop": 0.2})[
            0
        ].startswith("OutcomeThresholds must satisfy")


class TestSweepRunnerGuards:
    def test_preflight_rejects_spec_invalidated_after_grid_build(self):
        FAULTS.register("tmp-preflight", builder=lambda params: (ConstantValue(0),))
        spec = ExperimentSpec.from_dict({"faults": [{"kind": "tmp-preflight"}]})
        grid = spec.grid()
        FAULTS.unregister("tmp-preflight")
        with pytest.raises(ValueError, match="invalid sweep spec"):
            SweepRunner(grid)


# ----------------------------------------------------------------------
# NaN-safe artifact serialisation
# ----------------------------------------------------------------------
class TestNaNSafeJson:
    def test_sanitize_counts_nested_replacements(self):
        payload = {
            "a": float("nan"),
            "b": [1.0, float("inf"), {"c": float("-inf")}],
            "d": "NaN",  # strings are untouched
        }
        clean, count = sanitize_non_finite(payload)
        assert count == 3
        assert clean == {"a": None, "b": [1.0, None, {"c": None}], "d": "NaN"}

    def test_dump_json_safe_is_strict_json(self):
        text = dump_json_safe({"x": float("nan")})
        data = json.loads(text)  # bare NaN would fail strict parsing
        assert data == {"x": None, "non_finite_values": 1}
        # finite payloads serialise byte-identically to plain json.dumps
        payload = {"x": 1.5, "y": [1, 2]}
        assert dump_json_safe(payload, indent=2) == json.dumps(payload, indent=2)

    def test_campaign_result_with_non_finite_baseline_round_trips(self):
        # Records are checked (finite accuracies); the result's own floats
        # are not, and still serialise as strict JSON.
        with pytest.raises(ValueError, match="TrialRecord.accuracy must be a finite number"):
            TrialRecord(0, "diverged", 1, accuracy=float("nan"), accuracy_drop=float("inf"))
        result = CampaignResult(baseline_accuracy=float("nan"), strategy="s", num_images=4)
        result.add(TrialRecord(1, "fine", 1, accuracy=0.5, accuracy_drop=0.4))
        text = result.to_json()
        data = json.loads(text)  # valid strict JSON
        assert data["non_finite_values"] == 1
        assert data["baseline_accuracy"] is None
        clone = CampaignResult.from_json(text)
        assert clone.records == result.records
        assert clone.baseline_accuracy is None

    def test_sweep_result_json_tolerates_nan_baseline(self):
        from repro.core.sweep import Scenario, ScenarioResult, SweepResult

        spec = ExperimentSpec.from_dict({"faults": [{"kind": "const"}]})
        (scenario,) = list(spec.grid())
        result = CampaignResult(baseline_accuracy=float("nan"), strategy="s")
        sweep = SweepResult(
            scenario_results=[ScenarioResult(scenario=scenario, result=result)]
        )
        data = json.loads(sweep.to_json())
        assert data["non_finite_values"] == 1
        assert data["registry_digest"] == registry_digest()
        assert data["scenarios"][0]["provenance"]["fault"]["kind"] == "const"
