"""The paper's contribution: the fault-tolerance analysis platform.

This package ties the substrates together into the workflow of the paper's
case study: take a trained CNN, compile it for the fault-injection-capable
accelerator, run fault-injection campaigns according to a strategy, and
analyse the classification-accuracy drop.

* :class:`~repro.core.platform.EmulationPlatform` — model + accelerator +
  dataset in one object (the "platform" of Fig. 1).
* :mod:`repro.core.strategies` — how fault sites and values are chosen
  (random multipliers for Fig. 2, exhaustive single-site sweep for Fig. 3).
* :class:`~repro.core.campaign.FaultInjectionCampaign` — runs the trials and
  collects records.
* :class:`~repro.core.parallel.ParallelCampaignRunner` — shards the trials
  of a campaign across worker processes with JSONL checkpointing and
  resume; the serial campaign is its ``workers=1`` special case.
* :mod:`repro.core.leasebook` — the one campaign scheduler behind the
  parallel runner and the fleet coordinator: lease fencing, index-keyed
  record merge, bounded re-lease with backoff, poison-shard quarantine and
  adaptive round barriers.
* :mod:`repro.core.chaos` — deterministic harness-fault injection (seeded
  kill/hang/delay plans) used to prove recovery keeps records byte-identical.
* :mod:`repro.core.sweep` — declarative scenario grids (models x fault
  families x strategies x platforms) executed as one experiment matrix
  through the parallel runner, with merged JSONL/JSON artifacts.
* :mod:`repro.core.analysis` — box-plot series, heat maps and summary
  statistics over campaign results (including cross-scenario series).
* :mod:`repro.core.stats` — the statistical inference layer: confidence
  intervals (Wilson, Clopper-Pearson, Student-t, bootstrap), the
  masked/tolerable/SDC/critical outcome taxonomy, adaptive
  (confidence-bounded) campaign plans and Neyman stratified allocation.
* :mod:`repro.core.results` — result records and serialisation.
"""

from repro.core.platform import EmulationPlatform, PlatformConfig
from repro.core.campaign import CampaignConfig, FaultInjectionCampaign
from repro.core.chaos import ChaosEvent, ChaosMonkey, ChaosPlan, load_plan
from repro.core.parallel import ParallelCampaignRunner, PlatformSpec, load_checkpoint, shard_indices
from repro.core.leasebook import (
    LeaseBook,
    LeaseState,
    PoisonShardError,
    RecoveryLog,
    ShardLease,
)
from repro.core.strategies import (
    ExhaustiveSingleSite,
    InjectionStrategy,
    PerMACUnitSweep,
    PerMultiplierPositionSweep,
    RandomMultipliers,
    StratifiedSampling,
    StrategyTrial,
)
from repro.core.results import CampaignResult, TrialRecord
from repro.core.analysis import (
    BoxPlotSeries,
    accuracy_drop_boxplots,
    heatmap_matrix,
    scenario_boxplots,
    stratum_sensitivity,
    summarize_by_group,
)
from repro.core.stats import (
    AdaptiveCampaignPlan,
    ConfidenceInterval,
    Outcome,
    OutcomeThresholds,
    bootstrap_mean_interval,
    classify_record,
    clopper_pearson_interval,
    mean_t_interval,
    neyman_allocation,
    outcome_counts,
    wilson_interval,
)
from repro.core.sweep import (
    ExperimentSpec,
    FaultAxis,
    ModelAxis,
    PlatformAxis,
    Scenario,
    ScenarioGrid,
    StrategyAxis,
    SweepResult,
    SweepRunner,
)

__all__ = [
    "EmulationPlatform",
    "PlatformConfig",
    "FaultInjectionCampaign",
    "CampaignConfig",
    "ParallelCampaignRunner",
    "PlatformSpec",
    "load_checkpoint",
    "shard_indices",
    "ChaosEvent",
    "ChaosMonkey",
    "ChaosPlan",
    "load_plan",
    "LeaseBook",
    "LeaseState",
    "PoisonShardError",
    "RecoveryLog",
    "ShardLease",
    "InjectionStrategy",
    "StrategyTrial",
    "RandomMultipliers",
    "ExhaustiveSingleSite",
    "PerMACUnitSweep",
    "PerMultiplierPositionSweep",
    "StratifiedSampling",
    "CampaignResult",
    "TrialRecord",
    "BoxPlotSeries",
    "accuracy_drop_boxplots",
    "heatmap_matrix",
    "scenario_boxplots",
    "stratum_sensitivity",
    "summarize_by_group",
    "AdaptiveCampaignPlan",
    "ConfidenceInterval",
    "Outcome",
    "OutcomeThresholds",
    "bootstrap_mean_interval",
    "classify_record",
    "clopper_pearson_interval",
    "mean_t_interval",
    "neyman_allocation",
    "outcome_counts",
    "wilson_interval",
    "ExperimentSpec",
    "ModelAxis",
    "FaultAxis",
    "StrategyAxis",
    "PlatformAxis",
    "Scenario",
    "ScenarioGrid",
    "SweepRunner",
    "SweepResult",
]
