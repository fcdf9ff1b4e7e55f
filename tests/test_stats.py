"""Tests for the statistical inference layer (`repro.core.stats`).

The special functions are self-contained (no SciPy at runtime or in CI),
so they are validated two ways: against frozen reference values computed
with SciPy 1.17 (asserted to 1e-6 or better) and against analytic
identities (closed-form Clopper-Pearson corner cases, betainc/betaincinv
round trips, t-quantile symmetry) that hold independently of any
reference implementation.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.results import CampaignResult, TrialRecord
from repro.core.stats import (
    AdaptiveCampaignPlan,
    Outcome,
    OutcomeThresholds,
    betainc,
    betaincinv,
    bootstrap_mean_interval,
    classify_drop,
    classify_record,
    clopper_pearson_interval,
    mean_t_interval,
    neyman_allocation,
    normal_quantile,
    outcome_counts,
    sdc_count,
    student_t_quantile,
    wilson_interval,
)


def make_record(index: int, drop: float, *, accuracy: float | None = None, **meta) -> TrialRecord:
    return TrialRecord(
        trial_index=index,
        description=f"trial {index}",
        num_faults=1,
        accuracy=accuracy if accuracy is not None else 0.8 - drop,
        accuracy_drop=drop,
        metadata=meta,
    )


def make_campaign(drops, strata=None, seed=0) -> CampaignResult:
    result = CampaignResult(baseline_accuracy=0.8, strategy="test", seed=seed)
    for index, drop in enumerate(drops):
        meta = {} if strata is None else {"stratum": strata[index]}
        result.add(make_record(index, drop, **meta))
    return result


class TestSpecialFunctions:
    def test_betainc_reference_values(self):
        # scipy.special.betainc reference values (SciPy 1.17).
        for a, b, x, expected in [
            (2.0, 3.0, 0.3, 0.3483),
            (5.5, 0.5, 0.9, 0.29251845539577315),
            (10.0, 1.0, 0.5, 0.0009765625),
            (0.5, 0.5, 0.2, 0.2951672353008665),
        ]:
            assert betainc(a, b, x) == pytest.approx(expected, abs=1e-10)

    def test_betainc_bounds(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            betainc(0.0, 1.0, 0.5)

    @given(
        a=st.floats(0.2, 50.0),
        b=st.floats(0.2, 50.0),
        p=st.floats(0.001, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    # Bracket endpoints more than 1e-9 apart in I_x (x near 1, b near 0.2).
    @example(a=4.0, b=0.203125, p=0.984375)
    @example(a=16.0, b=0.25, p=0.9921875)
    @example(a=42.0, b=0.203125, p=0.96875)
    @example(a=2.0, b=0.21875, p=0.9921875)
    @example(a=3.0, b=0.25, p=0.99609375)
    # No double meets 1e-9 here: x's two neighbours miss p by -3.2e-9 and
    # +1.1e-9, and x itself by -1.05e-9.
    @example(a=5.5, b=0.203125, p=0.984375)
    def test_betaincinv_round_trip(self, a, b, p):
        x = betaincinv(a, b, p)
        assert 0.0 <= x <= 1.0
        # Where I_x is steep (1 - x near 1e-10) adjacent doubles move I_x by
        # more than 1e-9; x is then right when it is the best double there
        # is, i.e. p lies between I at x's two neighbours.
        below, above = (betainc(a, b, math.nextafter(x, edge)) for edge in (0.0, 1.0))
        assert (
            betainc(a, b, x) == pytest.approx(p, abs=1e-9)
            or min(below, above) <= p <= max(below, above)
        )

    def test_student_t_reference_values(self):
        # scipy.stats.t.ppf reference values.
        assert student_t_quantile(0.975, 5) == pytest.approx(2.5705818366147395, abs=1e-9)
        assert student_t_quantile(0.975, 1) == pytest.approx(12.706204736432095, rel=1e-9)
        assert student_t_quantile(0.9, 30) == pytest.approx(1.3104150253913843, abs=1e-9)
        assert student_t_quantile(0.5, 7) == 0.0

    def test_student_t_symmetry(self):
        for df in (1, 3, 17):
            assert student_t_quantile(0.03, df) == pytest.approx(
                -student_t_quantile(0.97, df), abs=1e-12
            )

    def test_normal_quantile(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
        with pytest.raises(ValueError):
            normal_quantile(1.0)


class TestRateIntervals:
    def test_wilson_reference_value(self):
        interval = wilson_interval(5, 10, 0.95)
        assert interval.low == pytest.approx(0.23659309, abs=1e-7)
        assert interval.high == pytest.approx(0.76340691, abs=1e-7)
        assert interval.estimate == 0.5
        assert interval.half_width == pytest.approx((interval.high - interval.low) / 2)

    def test_clopper_pearson_matches_beta_quantiles(self):
        # Closed forms: k=0 -> [0, 1-(alpha/2)^(1/n)]; k=n mirrors.
        interval = clopper_pearson_interval(0, 20, 0.95)
        assert interval.low == 0.0
        assert interval.high == pytest.approx(1.0 - 0.025 ** (1 / 20), abs=1e-10)
        mirrored = clopper_pearson_interval(20, 20, 0.95)
        assert mirrored.high == 1.0
        assert mirrored.low == pytest.approx(1.0 - interval.high, abs=1e-10)
        # scipy.stats.beta.ppf reference for the interior case.
        mid = clopper_pearson_interval(5, 10, 0.95)
        assert mid.low == pytest.approx(0.18708603, abs=1e-7)
        assert mid.high == pytest.approx(0.81291397, abs=1e-7)

    def test_zero_sample_is_vacuous(self):
        for fn in (wilson_interval, clopper_pearson_interval):
            interval = fn(0, 0)
            assert (interval.low, interval.high) == (0.0, 1.0)

    @given(
        n=st.integers(2, 200),
        data=st.data(),
        confidence=st.sampled_from([0.9, 0.95, 0.99]),
    )
    @settings(max_examples=60, deadline=None)
    def test_wilson_and_clopper_pearson_invariants(self, n, data, confidence):
        """Both intervals contain the point estimate, stay in [0, 1], and
        widen with confidence.  (Pointwise Wilson-inside-Clopper-Pearson is
        *not* asserted: it genuinely fails near boundary counts; the exact
        method's guarantee is about coverage, not pointwise width.)"""
        k = data.draw(st.integers(1, n - 1))
        wilson = wilson_interval(k, n, confidence)
        exact = clopper_pearson_interval(k, n, confidence)
        for interval in (wilson, exact):
            assert 0.0 <= interval.low <= interval.estimate <= interval.high <= 1.0
        wider = wilson_interval(k, n, confidence + (1.0 - confidence) / 2)
        assert wider.half_width >= wilson.half_width

    def test_wilson_boundary_counts_pin_to_estimate(self):
        assert wilson_interval(0, 12, 0.9).low == 0.0
        assert wilson_interval(12, 12, 0.9).high == 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)
        with pytest.raises(ValueError):
            clopper_pearson_interval(1, 4, confidence=1.0)


class TestMeanIntervals:
    def test_t_interval_reference(self):
        interval = mean_t_interval([1.0, 2.0, 3.0, 4.0], 0.95)
        # scipy.stats.t.interval reference.
        assert interval.estimate == 2.5
        assert interval.low == pytest.approx(0.4457397432391955, abs=1e-9)
        assert interval.high == pytest.approx(4.554260256760804, abs=1e-9)

    def test_t_interval_needs_two(self):
        with pytest.raises(ValueError, match=">= 2"):
            mean_t_interval([1.0])

    def test_degenerate_sample_zero_width(self):
        interval = mean_t_interval([0.25] * 8)
        assert interval.half_width == 0.0
        assert interval.contains(0.25)

    def test_bootstrap_deterministic_and_seed_sensitive(self):
        values = [0.0, 0.1, 0.2, 0.05, 0.4, 0.0]
        a = bootstrap_mean_interval(values, seed=1)
        b = bootstrap_mean_interval(values, seed=1)
        c = bootstrap_mean_interval(values, seed=2)
        assert a == b
        assert (a.low, a.high) != (c.low, c.high)
        assert a.low <= np.mean(values) <= a.high

    def test_bootstrap_serialises(self):
        interval = bootstrap_mean_interval([0.0, 1.0, 2.0])
        payload = json.loads(json.dumps(interval.to_dict()))
        assert payload["method"] == "bootstrap-percentile"
        assert payload["n"] == 3


class TestOutcomeTaxonomy:
    def test_classification_boundaries(self):
        thresholds = OutcomeThresholds(tolerable_drop=0.01, critical_drop=0.25)
        assert classify_drop(-0.05, thresholds) is Outcome.MASKED
        assert classify_drop(0.0, thresholds) is Outcome.MASKED
        assert classify_drop(0.005, thresholds) is Outcome.TOLERABLE
        assert classify_drop(0.01, thresholds) is Outcome.SDC
        assert classify_drop(0.24, thresholds) is Outcome.SDC
        assert classify_drop(0.25, thresholds) is Outcome.CRITICAL

    def test_chance_accuracy_marks_critical(self):
        thresholds = OutcomeThresholds(chance_accuracy=0.1)
        record = make_record(0, 0.02, accuracy=0.08)
        assert classify_record(record, thresholds) is Outcome.CRITICAL
        # Without the chance floor the same drop is merely SDC.
        assert classify_record(record, OutcomeThresholds()) is Outcome.SDC

    def test_chance_floor_never_fires_on_masked_trials(self):
        """A fault masked on a model already at chance level stays masked —
        the floor marks degrading faults, not weak baselines."""
        thresholds = OutcomeThresholds(chance_accuracy=0.1)
        masked = make_record(0, 0.0, accuracy=0.1)
        improved = make_record(1, -0.02, accuracy=0.1)
        assert classify_record(masked, thresholds) is Outcome.MASKED
        assert classify_record(improved, thresholds) is Outcome.MASKED

    def test_outcome_counts_and_sdc(self):
        campaign = make_campaign([0.0, 0.005, 0.02, 0.3, -0.01])
        counts = outcome_counts(campaign.records)
        assert counts == {"masked": 2, "tolerable": 1, "sdc": 1, "critical": 1}
        assert sdc_count(counts) == 2

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            OutcomeThresholds(tolerable_drop=0.3, critical_drop=0.2)
        with pytest.raises(ValueError):
            OutcomeThresholds(chance_accuracy=1.5)
        # An epsilon above the tolerable threshold would make TOLERABLE
        # unreachable and inflate SDC with declared float noise.
        with pytest.raises(ValueError, match="masked_epsilon"):
            OutcomeThresholds(masked_epsilon=0.02, tolerable_drop=0.01)


class TestAdaptivePlan:
    def test_round_bounds_partition_budget(self):
        plan = AdaptiveCampaignPlan(target_half_width=0.05, round_size=4)
        assert plan.round_bounds(10) == [(0, 4), (4, 8), (8, 10)]
        assert plan.round_bounds(0) == []
        assert plan.budget(10) == 10
        capped = AdaptiveCampaignPlan(target_half_width=0.05, round_size=4, max_trials=6)
        assert capped.budget(10) == 6

    def test_min_rounds_gate(self):
        plan = AdaptiveCampaignPlan(target_half_width=10.0, round_size=2, min_rounds=3)
        records = [make_record(i, 0.1 + 0.01 * i) for i in range(4)]
        assert not plan.should_stop(2, records)
        assert plan.should_stop(
            3, records + [make_record(4, 0.15), make_record(5, 0.16)]
        )

    def test_zero_spread_sample_never_stops_mean_metric(self):
        """A masked-dominated prefix (all drops identical) yields a zero-width
        t interval; trusting it would stop at min_rounds with a falsely
        certain 0±0 estimate, so the plan keeps sampling instead."""
        plan = AdaptiveCampaignPlan(target_half_width=10.0, round_size=4, min_rounds=2)
        flat = [make_record(i, 0.0) for i in range(8)]
        assert plan.interval(flat) is None
        assert not plan.should_stop(2, flat)
        # One corrupting trial restores spread and the rule can fire again.
        varied = flat + [make_record(8, 0.2)]
        assert plan.interval(varied) is not None
        assert plan.should_stop(3, varied + [make_record(i, 0.0) for i in range(9, 12)])

    def test_should_stop_is_order_independent(self):
        plan = AdaptiveCampaignPlan(target_half_width=0.05, round_size=4, min_rounds=1)
        records = [make_record(i, d) for i, d in enumerate([0.0, 0.1, 0.02, 0.08])]
        assert plan.should_stop(1, records) == plan.should_stop(1, list(reversed(records)))

    def test_sdc_rate_metric(self):
        plan = AdaptiveCampaignPlan(
            target_half_width=0.2, round_size=4, min_rounds=1, metric="sdc_rate"
        )
        # All-masked records: Wilson interval around 0/8 is tight.
        assert plan.should_stop(2, [make_record(i, 0.0) for i in range(8)])
        interval = plan.interval([make_record(i, 0.5) for i in range(8)])
        assert interval.method == "wilson"
        assert interval.estimate == 1.0

    def test_dict_round_trip(self):
        plan = AdaptiveCampaignPlan(
            target_half_width=0.02,
            round_size=8,
            confidence=0.9,
            metric="sdc_rate",
            min_rounds=3,
            max_trials=100,
            thresholds=OutcomeThresholds(tolerable_drop=0.02),
        )
        clone = AdaptiveCampaignPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"AdaptiveCampaignPlan has unknown keys \['rounds'\]"):
            AdaptiveCampaignPlan.from_dict({"target_half_width": 0.1, "rounds": 4})
        with pytest.raises(ValueError, match="target_half_width"):
            AdaptiveCampaignPlan.from_dict({"round_size": 4})

    def test_from_dict_rejects_bad_thresholds_clearly(self):
        with pytest.raises(ValueError, match="thresholds has unknown keys.*tolerble_drop"):
            AdaptiveCampaignPlan.from_dict(
                {"target_half_width": 0.1, "thresholds": {"tolerble_drop": 0.02}}
            )
        with pytest.raises(ValueError, match="AdaptiveCampaignPlan.thresholds.tolerable_drop must be a finite number"):
            AdaptiveCampaignPlan.from_dict(
                {"target_half_width": 0.1, "thresholds": {"tolerable_drop": "lots"}}
            )

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("target_half_width", True, "must be a finite number, got bool True"),
            ("target_half_width", "0.1", "must be a finite number, got str '0.1'"),
            ("target_half_width", float("nan"), "must be a finite number, got float nan"),
            ("confidence", float("inf"), "must be a finite number, got float inf"),
            ("round_size", "8", "must be an integer >= 1, got str '8'"),
            ("round_size", True, "must be an integer >= 1, got bool True"),
            ("min_rounds", 2.5, "must be an integer >= 1, got float 2.5"),
            ("max_trials", 12.9, "must be an integer >= 1 or null, got float 12.9"),
            ("metric", 3, "must be one of mean_drop/sdc_rate, got int 3"),
        ],
    )
    def test_from_dict_checks_types_instead_of_coercing(self, key, value, problem):
        data = {"target_half_width": 0.1, key: value}
        with pytest.raises(ValueError, match=f"AdaptiveCampaignPlan.{key} {re.escape(problem)}"):
            AdaptiveCampaignPlan.from_dict(data)

    def test_from_dict_widens_integers_for_number_keys(self):
        plan = AdaptiveCampaignPlan.from_dict(
            {"target_half_width": 1, "max_trials": None, "thresholds": {"critical_drop": 1}}
        )
        assert type(plan.target_half_width) is float
        assert type(plan.thresholds.critical_drop) is float
        with pytest.raises(ValueError, match="thresholds.masked_epsilon must be a finite number >= 0, got bool"):
            AdaptiveCampaignPlan.from_dict(
                {"target_half_width": 0.1, "thresholds": {"masked_epsilon": False}}
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveCampaignPlan(target_half_width=0.0)
        with pytest.raises(ValueError):
            AdaptiveCampaignPlan(target_half_width=0.1, round_size=0)
        with pytest.raises(ValueError):
            AdaptiveCampaignPlan(target_half_width=0.1, metric="median")


class TestNeymanAllocation:
    def test_high_variance_stratum_gets_more(self):
        pilot = make_campaign(
            [0.0, 0.0, 0.001, 0.0, 0.5, 0.9],
            strata=[0, 0, 0, 1, 1, 1],
        )
        allocation = neyman_allocation(pilot, 20, num_strata=2)
        assert sum(allocation) == 20
        assert allocation[1] > allocation[0] >= 1

    def test_flat_pilot_falls_back_to_sizes(self):
        pilot = make_campaign([0.1] * 6, strata=[0, 0, 1, 1, 2, 2])
        assert neyman_allocation(pilot, 9, num_strata=3) == (3, 3, 3)
        weighted = neyman_allocation(pilot, 8, num_strata=3, stratum_sizes=(1, 1, 6))
        assert weighted[2] > weighted[0]

    def test_min_per_stratum_floor(self):
        pilot = make_campaign([0.0, 0.0, 0.5, 0.9], strata=[0, 0, 1, 1])
        allocation = neyman_allocation(pilot, 10, num_strata=4, min_per_stratum=2)
        assert sum(allocation) == 10
        assert all(count >= 2 for count in allocation)

    def test_deterministic(self):
        pilot = make_campaign(
            [0.0, 0.3, 0.1, 0.2, 0.05, 0.6], strata=[0, 0, 1, 1, 2, 2]
        )
        assert neyman_allocation(pilot, 17, num_strata=3) == neyman_allocation(
            pilot, 17, num_strata=3
        )

    def test_uses_mac_unit_fallback(self):
        pilot = CampaignResult(baseline_accuracy=0.8, strategy="x")
        pilot.add(
            TrialRecord(0, "a", 1, accuracy=0.8, accuracy_drop=0.0, mac_unit=0)
        )
        pilot.add(
            TrialRecord(1, "b", 1, accuracy=0.5, accuracy_drop=0.3, mac_unit=1)
        )
        assert sum(neyman_allocation(pilot, 6, num_strata=2)) == 6

    def test_errors(self):
        pilot = make_campaign([0.1, 0.2], strata=[0, 1])
        with pytest.raises(ValueError, match="cannot grant"):
            neyman_allocation(pilot, 1, num_strata=2)
        with pytest.raises(ValueError, match="num_strata"):
            neyman_allocation(pilot, 10, num_strata=1)
        with pytest.raises(ValueError, match="no records"):
            neyman_allocation(CampaignResult(baseline_accuracy=0.8), 10)
        unlabeled = CampaignResult(baseline_accuracy=0.8)
        unlabeled.add(TrialRecord(0, "a", 1, accuracy=0.8, accuracy_drop=0.0))
        with pytest.raises(ValueError, match="stratum"):
            neyman_allocation(unlabeled, 10, num_strata=1)


class TestSummaryIntegration:
    """`CampaignResult.summary()` carries the new statistics (satellite)."""

    LEGACY_KEYS = (
        "strategy", "seed", "num_trials", "num_images", "baseline_accuracy",
        "mean_accuracy_drop", "max_accuracy_drop", "min_accuracy_drop",
        "worst_trial_index", "wall_seconds", "emulated_inferences_per_second",
    )

    def test_backward_compatible_keys_preserved(self):
        campaign = make_campaign([0.0, 0.1, 0.2])
        summary = campaign.summary()
        for key in self.LEGACY_KEYS:
            assert key in summary
        assert summary["mean_accuracy_drop"] == pytest.approx(0.1)
        assert summary["worst_trial_index"] == 2

    def test_dispersion_and_ci_fields(self):
        drops = [0.0, 0.02, 0.04, 0.3, 0.01, 0.0, 0.15, 0.02]
        campaign = make_campaign(drops, seed=11)
        summary = campaign.summary()
        arr = np.asarray(drops)
        assert summary["std_accuracy_drop"] == pytest.approx(float(arr.std(ddof=1)))
        assert summary["p50_accuracy_drop"] == pytest.approx(float(np.percentile(arr, 50)))
        assert summary["p5_accuracy_drop"] <= summary["p50_accuracy_drop"] <= summary["p95_accuracy_drop"]
        assert summary["mean_drop_ci"]["method"] == "student-t"
        assert summary["mean_drop_ci_bootstrap"]["method"] == "bootstrap-percentile"
        # Drops at/above the 0.01 tolerable threshold count as corrupting:
        # 0.02, 0.04, 0.3, 0.01, 0.15, 0.02 -> 6 of 8.
        assert summary["sdc_rate"] == pytest.approx(6 / 8)
        assert summary["sdc_rate_ci"]["method"] == "wilson"
        assert summary["sdc_rate_ci_exact"]["method"] == "clopper-pearson"
        json.dumps(summary)  # JSON-compatible throughout

    def test_summary_is_deterministic(self):
        campaign = make_campaign([0.0, 0.1, 0.2, 0.05], seed=3)
        assert campaign.summary() == campaign.summary()

    def test_empty_and_single_record_summaries(self):
        empty = CampaignResult(baseline_accuracy=0.8).summary()
        assert empty["num_trials"] == 0
        assert empty["mean_drop_ci"] is None
        assert empty["sdc_rate_ci"] is None
        json.dumps(empty)
        single = make_campaign([0.1]).summary()
        assert single["mean_drop_ci"] is None
        assert single["std_accuracy_drop"] == 0.0
        assert single["sdc_rate_ci"] is not None

    def test_worst_record_error_names_campaign(self):
        with pytest.raises(ValueError, match="'fig2'.*no trial records"):
            CampaignResult(baseline_accuracy=0.8, strategy="fig2").worst_record()
