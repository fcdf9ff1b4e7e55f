"""Tests for the FT-analysis core: strategies, campaigns, analysis and results."""

import numpy as np
import pytest

from repro.core.analysis import (
    BoxPlotStats,
    accuracy_drop_boxplots,
    heatmap_matrix,
    monotonicity_score,
    most_sensitive_site,
    summarize_by_group,
)
from repro.core.campaign import CampaignConfig, FaultInjectionCampaign
from repro.core.results import CampaignResult, TrialRecord
from repro.core.strategies import (
    ExhaustiveSingleSite,
    FixedConfigurations,
    InjectionStrategy,
    PerMACUnitSweep,
    PerMultiplierPositionSweep,
    RandomMultipliers,
    StrategyTrial,
)
from repro.faults.injector import InjectionConfig
from repro.faults.models import ConstantValue
from repro.faults.sites import FaultSite, FaultUniverse
from repro.utils.rng import SeededRNG


UNIVERSE = FaultUniverse()


class TestStrategies:
    def test_random_multipliers_default_is_paper_210(self):
        strategy = RandomMultipliers()
        assert strategy.expected_trials(UNIVERSE) == 210
        trials = list(strategy.trials(UNIVERSE, SeededRNG(0)))
        assert len(trials) == 210

    def test_random_multipliers_counts_and_values(self):
        strategy = RandomMultipliers(values=(0, -1), fault_counts=(1, 3), trials_per_point=2)
        trials = list(strategy.trials(UNIVERSE, SeededRNG(1)))
        assert len(trials) == 8
        assert {t.injected_value for t in trials} == {0, -1}
        assert {t.num_faults for t in trials} == {1, 3}
        for trial in trials:
            assert len(trial.config) == trial.num_faults

    def test_random_multipliers_reproducible(self):
        strategy = RandomMultipliers(values=(0,), fault_counts=(2,), trials_per_point=3)
        a = [t.config.describe() for t in strategy.trials(UNIVERSE, SeededRNG(5))]
        b = [t.config.describe() for t in strategy.trials(UNIVERSE, SeededRNG(5))]
        assert a == b

    def test_random_multipliers_seed_changes_selection(self):
        strategy = RandomMultipliers(values=(0,), fault_counts=(3,), trials_per_point=3)
        a = [t.config.describe() for t in strategy.trials(UNIVERSE, SeededRNG(1))]
        b = [t.config.describe() for t in strategy.trials(UNIVERSE, SeededRNG(2))]
        assert a != b

    def test_exhaustive_single_site_covers_all_sites(self):
        strategy = ExhaustiveSingleSite(values=(0,))
        trials = list(strategy.trials(UNIVERSE, SeededRNG(0)))
        assert len(trials) == 64 == strategy.expected_trials(UNIVERSE)
        sites = {(t.mac_unit, t.multiplier) for t in trials}
        assert len(sites) == 64

    def test_exhaustive_default_three_values(self):
        assert ExhaustiveSingleSite().expected_trials(UNIVERSE) == 192

    def test_per_mac_sweep(self):
        strategy = PerMACUnitSweep(values=(0,))
        trials = list(strategy.trials(UNIVERSE, SeededRNG(0)))
        assert len(trials) == 8
        assert all(t.num_faults == 8 for t in trials)
        assert {t.mac_unit for t in trials} == set(range(8))

    def test_per_position_sweep(self):
        strategy = PerMultiplierPositionSweep(values=(1,))
        trials = list(strategy.trials(UNIVERSE, SeededRNG(0)))
        assert len(trials) == 8
        assert {t.multiplier for t in trials} == set(range(8))

    def test_fixed_configurations(self):
        configs = [
            InjectionConfig.single(FaultSite(0, 0), ConstantValue(0)),
            InjectionConfig.uniform([FaultSite(1, 1), FaultSite(2, 2)], ConstantValue(5)),
        ]
        strategy = FixedConfigurations(configurations=configs)
        trials = list(strategy.trials(UNIVERSE, SeededRNG(0)))
        assert len(trials) == 2
        assert trials[0].mac_unit == 0
        assert trials[1].num_faults == 2


class TestResults:
    def _result(self):
        result = CampaignResult(baseline_accuracy=0.9, strategy="test", num_images=10)
        result.add(TrialRecord(0, "a", 1, accuracy=0.85, accuracy_drop=0.05, injected_value=0,
                               mac_unit=0, multiplier=0))
        result.add(TrialRecord(1, "b", 2, accuracy=0.70, accuracy_drop=0.20, injected_value=0))
        result.add(TrialRecord(2, "c", 1, accuracy=0.88, accuracy_drop=0.02, injected_value=1,
                               mac_unit=1, multiplier=3))
        return result

    def test_filter(self):
        result = self._result()
        assert len(result.filter(injected_value=0)) == 2
        assert len(result.filter(num_faults=1, injected_value=1)) == 1

    def test_worst_record(self):
        assert self._result().worst_record().accuracy_drop == pytest.approx(0.20)

    def test_mean_drop(self):
        assert self._result().mean_accuracy_drop() == pytest.approx((0.05 + 0.20 + 0.02) / 3)

    def test_empty_worst_raises(self):
        with pytest.raises(ValueError):
            CampaignResult(baseline_accuracy=1.0).worst_record()

    def test_json_roundtrip(self):
        result = self._result()
        restored = CampaignResult.from_json(result.to_json())
        assert restored.baseline_accuracy == result.baseline_accuracy
        assert len(restored) == len(result)
        assert restored.records[1].accuracy_drop == pytest.approx(0.20)

    def test_iteration_and_len(self):
        result = self._result()
        assert len(list(result)) == len(result) == 3


class TestAnalysis:
    def _synthetic_result(self):
        """A synthetic campaign with a known monotone structure."""
        result = CampaignResult(baseline_accuracy=0.9, strategy="synthetic")
        index = 0
        for value in (0, 1):
            for count in (1, 2, 3):
                for rep in range(4):
                    drop = 0.05 * count + 0.01 * rep + (0.02 if value else 0.0)
                    result.add(
                        TrialRecord(index, f"t{index}", count, accuracy=0.9 - drop,
                                    accuracy_drop=drop, injected_value=value)
                    )
                    index += 1
        return result

    def test_boxplot_stats(self):
        stats = BoxPlotStats.from_values([1.0, 2.0, 3.0, 4.0])
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.median == pytest.approx(2.5)
        assert stats.count == 4

    def test_boxplot_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxPlotStats.from_values([])

    def test_accuracy_drop_boxplots_structure(self):
        series = accuracy_drop_boxplots(self._synthetic_result())
        assert set(series) == {0, 1}
        assert series[0].positions() == [1, 2, 3]
        assert series[0].boxes[2].count == 4

    def test_boxplots_monotone_on_synthetic_data(self):
        series = accuracy_drop_boxplots(self._synthetic_result())
        for s in series.values():
            assert monotonicity_score(s) == 1.0
            means = s.means()
            assert means[0] < means[-1]

    def test_heatmap_matrix(self):
        result = CampaignResult(baseline_accuracy=1.0)
        result.add(TrialRecord(0, "s", 1, accuracy=0.9, accuracy_drop=0.1,
                               injected_value=0, mac_unit=2, multiplier=3))
        matrix = heatmap_matrix(result, injected_value=0)
        assert matrix.shape == (8, 8)
        assert matrix[2, 3] == pytest.approx(0.1)
        assert np.isnan(matrix[0, 0])

    def test_most_sensitive_site(self):
        result = CampaignResult(baseline_accuracy=1.0)
        result.add(TrialRecord(0, "a", 1, accuracy=0.9, accuracy_drop=0.1,
                               injected_value=0, mac_unit=0, multiplier=0))
        result.add(TrialRecord(1, "b", 1, accuracy=0.5, accuracy_drop=0.5,
                               injected_value=0, mac_unit=7, multiplier=7))
        worst = most_sensitive_site(result)
        assert (worst.mac_unit, worst.multiplier) == (7, 7)

    def test_most_sensitive_site_requires_single_site_trials(self):
        result = CampaignResult(baseline_accuracy=1.0)
        result.add(TrialRecord(0, "a", 3, accuracy=0.9, accuracy_drop=0.1, injected_value=0))
        with pytest.raises(ValueError):
            most_sensitive_site(result)

    def test_summarize_by_group(self):
        summary = summarize_by_group(self._synthetic_result(), group_by="injected_value")
        assert set(summary) == {0, 1}
        assert summary[1].mean > summary[0].mean

    def test_monotonicity_score_detects_violations(self):
        from repro.core.analysis import BoxPlotSeries

        series = BoxPlotSeries(label="x")
        series.boxes[1] = BoxPlotStats.from_values([0.5])
        series.boxes[2] = BoxPlotStats.from_values([0.1])
        assert monotonicity_score(series) == 0.0


class TestAnalysisEdgeCases:
    """Empty / degenerate inputs must degrade cleanly, never crash bare."""

    def test_scenario_boxplots_empty_sweep(self):
        from repro.core.analysis import scenario_boxplots

        assert scenario_boxplots({}) == {}

    def test_scenario_boxplots_single_scenario(self):
        from repro.core.analysis import scenario_boxplots

        result = CampaignResult(baseline_accuracy=0.9, strategy="solo")
        result.add(TrialRecord(0, "a", 2, accuracy=0.8, accuracy_drop=0.1))
        series = scenario_boxplots({"m/f/s/p": result})
        assert list(series) == ["m/f/s/p"]
        assert series["m/f/s/p"].positions() == [2]
        assert series["m/f/s/p"].boxes[2].count == 1

    def test_scenario_boxplots_scenario_with_no_records(self):
        from repro.core.analysis import scenario_boxplots

        series = scenario_boxplots({"empty": CampaignResult(baseline_accuracy=0.9)})
        assert series["empty"].boxes == {}
        assert series["empty"].positions() == []

    def test_summarize_by_group_empty_result(self):
        assert summarize_by_group(CampaignResult(baseline_accuracy=0.9)) == {}

    def test_summarize_by_group_single_record_per_group(self):
        result = CampaignResult(baseline_accuracy=0.9)
        result.add(TrialRecord(0, "a", 1, accuracy=0.8, accuracy_drop=0.1))
        result.add(TrialRecord(1, "b", 2, accuracy=0.7, accuracy_drop=0.2))
        summary = summarize_by_group(result, group_by="num_faults")
        assert set(summary) == {1, 2}
        for group, box in summary.items():
            assert box.count == 1
            assert box.minimum == box.median == box.maximum

    def test_worst_record_error_carries_strategy_context(self):
        with pytest.raises(ValueError, match="'fig2-random'.*no trial records"):
            CampaignResult(baseline_accuracy=0.9, strategy="fig2-random").worst_record()

    def test_most_sensitive_site_error_carries_filter_context(self):
        result = CampaignResult(baseline_accuracy=1.0, strategy="heat")
        result.add(TrialRecord(0, "a", 1, accuracy=0.9, accuracy_drop=0.1,
                               injected_value=0, mac_unit=0, multiplier=0))
        # Records exist, but the value filter matches none of them: the
        # error must say which filter emptied the candidate set.
        with pytest.raises(ValueError, match="injected_value=1") as excinfo:
            most_sensitive_site(result, injected_value=1)
        assert "1 record(s)" in str(excinfo.value)
        with pytest.raises(ValueError, match="0 record"):
            most_sensitive_site(CampaignResult(baseline_accuracy=1.0))

    def test_stratum_sensitivity_without_labels_is_empty(self):
        from repro.core.analysis import stratum_sensitivity

        result = CampaignResult(baseline_accuracy=0.9)
        result.add(TrialRecord(0, "a", 1, accuracy=0.8, accuracy_drop=0.1))
        assert stratum_sensitivity(result) == []


class TestCampaign:
    def test_small_campaign_end_to_end(self, tiny_platform, tiny_dataset):
        strategy = RandomMultipliers(values=(0,), fault_counts=(1, 4), trials_per_point=2)
        campaign = FaultInjectionCampaign(
            tiny_platform, strategy, CampaignConfig(batch_size=32, seed=1, max_images=24)
        )
        result = campaign.run(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert len(result) == 4
        assert result.num_images == 24
        assert 0.0 <= result.baseline_accuracy <= 1.0
        assert result.wall_seconds > 0
        assert result.emulated_inferences_per_second > 0
        for record in result:
            assert record.accuracy_drop == pytest.approx(result.baseline_accuracy - record.accuracy)

    def test_campaign_faults_disarmed_after_run(self, tiny_platform, tiny_dataset):
        strategy = ExhaustiveSingleSite(values=(0,))
        # restrict to a tiny evaluation to keep this fast
        campaign = FaultInjectionCampaign(
            tiny_platform,
            FixedConfigurations(
                configurations=[InjectionConfig.single(FaultSite(0, 0), ConstantValue(0))]
            ),
            CampaignConfig(max_images=8),
        )
        campaign.run(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert not tiny_platform.accelerator.injection_config.enabled

    def test_campaign_rejects_empty_dataset(self, tiny_platform):
        campaign = FaultInjectionCampaign(
            tiny_platform, RandomMultipliers(values=(0,), fault_counts=(1,), trials_per_point=1)
        )
        with pytest.raises(ValueError):
            campaign.run(np.zeros((0, 3, 16, 16), dtype=np.float32), np.zeros(0, dtype=np.int64))

    def test_custom_strategy_without_expected_trials_runs(self, tiny_platform, tiny_dataset):
        """expected_trials() is only needed for progress logging; a custom
        strategy that implements just trials() must run without crashing."""

        class MinimalStrategy(InjectionStrategy):
            name = "minimal"

            def trials(self, universe, rng):
                yield StrategyTrial(
                    config=InjectionConfig.single(FaultSite(0, 0), ConstantValue(0)),
                    num_faults=1,
                    injected_value=0,
                )

        campaign = FaultInjectionCampaign(
            tiny_platform, MinimalStrategy(), CampaignConfig(max_images=8)
        )
        result = campaign.run(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert len(result) == 1
        assert result.records[0].num_faults == 1

    def test_campaign_reproducible(self, tiny_platform, tiny_dataset):
        strategy = RandomMultipliers(values=(-1,), fault_counts=(2,), trials_per_point=2)
        config = CampaignConfig(seed=3, max_images=16)
        r1 = FaultInjectionCampaign(tiny_platform, strategy, config).run(
            tiny_dataset.test_images, tiny_dataset.test_labels
        )
        r2 = FaultInjectionCampaign(tiny_platform, strategy, config).run(
            tiny_dataset.test_images, tiny_dataset.test_labels
        )
        assert [r.description for r in r1] == [r.description for r in r2]
        assert [r.accuracy for r in r1] == [r.accuracy for r in r2]


class TestPlatform:
    def test_describe_mentions_geometry(self, tiny_platform):
        text = tiny_platform.describe()
        assert "8 MAC units" in text
        assert "fault sites: 64" in text

    def test_resource_and_timing_reports(self, tiny_platform):
        timing = tiny_platform.timing_report()
        assert timing.latency_ms > 0
        resources = tiny_platform.resource_report()
        assert resources.luts > 0

    def test_fault_injection_changes_or_preserves_accuracy(self, tiny_platform, tiny_dataset):
        """Stuck-at-0 on a whole MAC unit should not *increase* accuracy much."""
        universe = tiny_platform.universe
        config = InjectionConfig.uniform(universe.sites_in_mac(0), ConstantValue(0))
        base = tiny_platform.baseline_accuracy(tiny_dataset.test_images[:32], tiny_dataset.test_labels[:32])
        faulty = tiny_platform.accuracy_with_faults(
            config, tiny_dataset.test_images[:32], tiny_dataset.test_labels[:32]
        )
        assert faulty <= base + 0.1
