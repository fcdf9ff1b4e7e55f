"""Fault-injection campaigns: run a strategy's trials and collect records.

:class:`FaultInjectionCampaign` is the serial front door; it delegates to
:class:`~repro.core.parallel.ParallelCampaignRunner` with ``workers=1``, so
serial execution is simply the single-worker special case of the sharded
runner (and inherits its checkpoint/resume machinery).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.chaos import ChaosPlan
from repro.core.platform import EmulationPlatform
from repro.core.results import CampaignResult
from repro.core.strategies import InjectionStrategy
from repro.utils.checked import Checked
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass(frozen=True)
class CampaignConfig(Checked):
    """Parameters of one campaign run, checked on construction.

    The fault-recovery knobs never change campaign *records*: a recovered
    run is bit-identical to an undisturbed one.  Per-stage wall times are
    always collected into ``CampaignResult.runtime_stats``; no knob arms
    them.  How many trials share an engine pass is the platform's call
    (see :meth:`EmulationPlatform.accuracies_with_faults
    <repro.core.platform.EmulationPlatform.accuracies_with_faults>`).
    """

    batch_size: int = field(default=64, metadata={"min": 1})
    seed: int = field(default=0, metadata={"min": None})
    #: Evaluate at most this many images per trial (None = all provided).
    max_images: int | None = field(default=None, metadata={"min": 1})
    #: Re-lease attempts after a shard's first failure before it turns
    #: poison (0 = fail on the first dead/hung worker, as the old fail-fast
    #: runner did).  Recovery cannot change records: trials are pure
    #: functions of ``(seed, index)``.
    max_shard_retries: int = 2
    #: Seconds (> 0) a worker may go without emitting any message (baseline
    #: meta or a record) before the worker pool declares it hung,
    #: terminates it and re-leases the shard.  ``None`` disables hang
    #: detection; size it as several multiples of platform build + the
    #: slowest trial group.
    shard_timeout: float | None = None
    #: Base seconds of the exponential backoff between lease attempts
    #: (attempt *k* waits ``retry_backoff * 2**(k-1)``, capped at 30 s).
    retry_backoff: float = field(default=0.25, metadata={"min": 0})
    #: What to do with a shard that exhausted its retries: ``"raise"``
    #: aborts the campaign with the failure history; ``"quarantine"``
    #: records it in ``CampaignResult.recovery["poison_shards"]`` and keeps
    #: the campaign going with that shard's trials missing.
    poison_policy: str = field(default="raise", metadata={"choices": ("raise", "quarantine")})
    #: Deterministic harness-fault plan (:mod:`repro.core.chaos`) injected
    #: into workers — kills/hangs/delays at seeded logical points.  Test/CI
    #: machinery for proving recovery keeps records byte-identical; leave
    #: ``None`` in real campaigns.
    chaos: ChaosPlan | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shard_timeout is not None and not self.shard_timeout > 0:
            raise ValueError(
                f"CampaignConfig.shard_timeout must be > 0, got {self.shard_timeout}"
            )


class FaultInjectionCampaign:
    """Runs an :class:`InjectionStrategy` against an :class:`EmulationPlatform`.

    Example
    -------
    ::

        platform = EmulationPlatform(graph, calib_images)
        campaign = FaultInjectionCampaign(platform, RandomMultipliers())
        result = campaign.run(test_images, test_labels)
        series = accuracy_drop_boxplots(result)
    """

    def __init__(
        self,
        platform: EmulationPlatform,
        strategy: InjectionStrategy,
        config: CampaignConfig | None = None,
        *,
        checkpoint: Path | str | None = None,
        resume: bool = False,
        plan=None,
    ):
        self.platform = platform
        self.strategy = strategy
        self.config = config or CampaignConfig()
        self.checkpoint = checkpoint
        self.resume = resume
        #: Optional :class:`~repro.core.stats.AdaptiveCampaignPlan`: execute
        #: the strategy's trial index space in fixed-size rounds and stop as
        #: soon as the tracked metric's confidence interval is tight enough.
        self.plan = plan

    def run(self, images: np.ndarray, labels: np.ndarray) -> CampaignResult:
        """Execute all trials of the strategy and return the campaign result."""
        from repro.core.parallel import ParallelCampaignRunner

        runner = ParallelCampaignRunner(
            self.platform,
            self.strategy,
            self.config,
            workers=1,
            checkpoint=self.checkpoint,
            resume=self.resume,
            plan=self.plan,
        )
        return runner.run(images, labels)
