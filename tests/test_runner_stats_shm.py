"""Runner-level tests of the delta engine's execution plumbing.

Covers the pieces around the engine itself: per-worker runtime-statistics
aggregation (GEMM counters, tape hit rates, always-on per-stage wall times
reported per run), the one trial path from a lease to the op loop, trials
whose results do not depend on the trials evaluated before them, the
invariance of campaign records under fusion, and a killed worker leaving
no shared-memory segment behind.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

import repro.faults
from repro.accelerator.accelerator import NVDLAAccelerator
from repro.core.campaign import CampaignConfig, FaultInjectionCampaign
from repro.core.leasebook import PoisonShardError
from repro.core.parallel import ParallelCampaignRunner, TrialServer, merge_runtime_stats
from repro.core.results import CampaignResult
from repro.core.strategies import RandomMultipliers, StrategyTrial
from repro.faults.injector import InjectionConfig
from repro.faults.models import (
    AccumulatorStuckAt,
    BitFlip,
    ConstantValue,
    FaultModel,
    StuckAtOne,
    StuckAtZero,
    TransientCycleFault,
    WeightBitFlip,
)
from repro.faults.sites import FaultSite, MemorySite
from repro.runtime.runtime import Runtime


STRATEGY = RandomMultipliers(values=(0, -1), fault_counts=(1, 3), trials_per_point=2)


def _config(**overrides) -> CampaignConfig:
    base = dict(batch_size=16, seed=5, max_images=16)
    base.update(overrides)
    return CampaignConfig(**base)


def _tapeless(spec):
    """``spec`` with the clean-activation tape off: one trial per pass."""
    return dataclasses.replace(
        spec, platform_config=dataclasses.replace(spec.platform_config, tape_bytes=0)
    )


@pytest.fixture(scope="module")
def tapeless_platform(tiny_platform_spec):
    return _tapeless(tiny_platform_spec).build()


def _count_fused_configs(monkeypatch) -> dict[int, list[int]]:
    """Log ``len(configs)`` of every ``execute_fused`` call, per accelerator."""
    sizes: dict[int, list[int]] = {}
    real = NVDLAAccelerator.execute_fused

    def counting(self, loadable, images, configs, chunk_key=None):
        sizes.setdefault(id(self), []).append(len(configs))
        return real(self, loadable, images, configs, chunk_key=chunk_key)

    monkeypatch.setattr(NVDLAAccelerator, "execute_fused", counting)
    return sizes


class TestRuntimeStatsAggregation:
    def test_serial_run_reports_gemm_and_tape_stats(self, tiny_platform_spec, tiny_dataset):
        runner = ParallelCampaignRunner(tiny_platform_spec, STRATEGY, _config())
        result = runner.run(tiny_dataset.test_images, tiny_dataset.test_labels)
        stats = result.runtime_stats
        assert stats is not None
        assert stats["processes"] == 1 and stats["workers"] == 1
        assert stats["gemm"]["float32_calls"] > 0
        assert stats["tape"]["layer_hits"] > 0
        assert 0.0 <= stats["tape"]["layer_hit_rate"] <= 1.0
        assert stats["profile"]["tape_build"]["calls"] > 0  # stage totals are always on

    def test_parallel_run_aggregates_worker_stats(self, tiny_platform_spec, tiny_dataset):
        runner = ParallelCampaignRunner(tiny_platform_spec, STRATEGY, _config(), workers=2)
        result = runner.run(tiny_dataset.test_images, tiny_dataset.test_labels)
        stats = result.runtime_stats
        assert stats is not None
        assert stats["processes"] == 2 and stats["workers"] == 2
        # Each worker runs its own baseline pass, so totals exceed a
        # single process's counters.
        assert stats["gemm"]["float32_calls"] > 0
        assert stats["tape"]["segment_hits"] > 0

    def test_profile_collects_stage_breakdown(self, tiny_platform_spec, tiny_dataset):
        runner = ParallelCampaignRunner(
            tiny_platform_spec, STRATEGY, _config(), workers=2
        )
        result = runner.run(tiny_dataset.test_images, tiny_dataset.test_labels)
        profile = result.runtime_stats["profile"]
        assert profile is not None
        assert set(profile) >= {"tape_build", "correction", "requant"}
        for entry in profile.values():
            assert entry["seconds"] >= 0.0 and entry["calls"] > 0

    def test_plain_config_pool_run_reports_stages(self, tiny_platform_spec, tiny_dataset):
        runner = ParallelCampaignRunner(tiny_platform_spec, STRATEGY, CampaignConfig(), workers=2)
        result = runner.run(tiny_dataset.test_images[:16], tiny_dataset.test_labels[:16])
        assert set(result.runtime_stats["profile"]) >= {"tape_build", "correction", "requant"}

    def test_stage_totals_are_per_run(self, tiny_platform_spec, tiny_dataset):
        # The totals are process-global; a second identical campaign in the
        # same process must report its own calls, not inherit the first's.
        calls = []
        for _ in range(2):
            runner = ParallelCampaignRunner(tiny_platform_spec, STRATEGY, _config())
            result = runner.run(tiny_dataset.test_images, tiny_dataset.test_labels)
            calls.append({
                stage: entry["calls"] for stage, entry in result.runtime_stats["profile"].items()
            })
        assert calls[0] == calls[1]
        assert calls[0]["correction"] > 0

    def test_merge_sums_groups_and_counts_processes(self):
        part = {
            "gemm": {"float32_calls": 2},
            "tape": {"layer_hits": 3, "layer_misses": 1, "layer_hit_rate": 0.75,
                     "recording": True},
            "profile": {"requant": {"seconds": 0.5, "calls": 4}},
        }
        per_process = merge_runtime_stats([part, part, None], workers=2)
        assert per_process["processes"] == 2 and per_process["workers"] == 2
        assert per_process["gemm"] == {"float32_calls": 4}
        assert per_process["tape"] == {"layer_hits": 6, "layer_misses": 2, "layer_hit_rate": 0.75}
        assert per_process["profile"] == {"requant": {"seconds": 1.0, "calls": 8}}
        # Already-merged payloads (one per sweep scenario) carry their own
        # process counts.
        sweep = merge_runtime_stats([per_process, part], workers=2)
        assert sweep["processes"] == 3
        assert sweep["profile"]["requant"]["calls"] == 12
        assert merge_runtime_stats([None, {}], workers=1) is None

    def test_runtime_stats_survive_serialisation(self, tiny_platform_spec, tiny_dataset):
        runner = ParallelCampaignRunner(tiny_platform_spec, STRATEGY, _config())
        result = runner.run(tiny_dataset.test_images, tiny_dataset.test_labels)
        clone = CampaignResult.from_json(result.to_json())
        assert clone.runtime_stats == result.runtime_stats
        assert result.summary()["runtime_stats"] == result.runtime_stats


class TestOneTrialPath:
    def test_mixed_lease_makes_only_fused_calls(
        self, tiny_platform_spec, tiny_dataset, monkeypatch
    ):
        """Every trial after the baseline pass, fusable or not, is one
        ``Runtime.accuracy_multi`` group: no trial arms the accelerator or
        takes the ``execute`` path.  The six datapath trials, cycle-keyed
        transients included, fuse; the two memory-fault trials run alone."""
        images, labels = tiny_dataset.test_images[:8], tiny_dataset.test_labels[:8]
        weight_flip = InjectionConfig.uniform(
            [MemorySite("weight", 5, 6)], WeightBitFlip(dwell_start=1, dwell=2)
        )
        configs = [
            InjectionConfig.single(FaultSite(0, 1), StuckAtZero()),
            InjectionConfig.single(FaultSite(3, 3), TransientCycleFault(value=2, duty=0.5)),
            weight_flip,
            InjectionConfig.single(FaultSite(2, 2), StuckAtOne()),
            InjectionConfig.single(FaultSite(1, 1), ConstantValue(-3)),
            InjectionConfig.single(FaultSite(5, 4), TransientCycleFault(value=-7, duty=0.5)),
            InjectionConfig.single(FaultSite(6, 7), StuckAtZero()),
            InjectionConfig.uniform(
                [MemorySite("weight", 40, 1)], WeightBitFlip(dwell_start=0, dwell=1)
            ),
        ]
        trials = [StrategyTrial(config=c, num_faults=len(c)) for c in configs]
        servers = [
            TrialServer(spec, images, labels, batch_size=8)
            for spec in (tiny_platform_spec, _tapeless(tiny_platform_spec))
        ]

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called after the baseline pass")
            return call

        monkeypatch.setattr(Runtime, "accuracy", forbidden("Runtime.accuracy"))
        monkeypatch.setattr(NVDLAAccelerator, "execute", forbidden("execute"))
        monkeypatch.setattr(
            NVDLAAccelerator, "set_injection_config", forbidden("set_injection_config")
        )
        sizes = _count_fused_configs(monkeypatch)
        config = CampaignConfig(batch_size=8)
        taped, tapeless = (
            list(server.records(range(len(trials)), trials.__getitem__, config))
            for server in servers
        )
        assert taped == tapeless
        # 6 fusable trials share one pass; the 2 memory-fault trials run alone.
        assert sorted(sizes[id(servers[0].platform.accelerator)]) == [1, 1, 6]
        assert sizes[id(servers[1].platform.accelerator)] == [1] * 8


#: One trial per datapath fault-model class that ``repro.faults`` exports.
PURITY_MODELS = {
    StuckAtZero: StuckAtZero(),
    StuckAtOne: StuckAtOne(),
    ConstantValue: ConstantValue(-3),
    BitFlip: BitFlip(12),
    TransientCycleFault: TransientCycleFault(value=2**14, duty=0.5),
    AccumulatorStuckAt: AccumulatorStuckAt(bit=18, stuck=1),
}


class TestTrialPurity:
    """A trial's result is a function of that trial alone: a trial armed
    on a fresh platform gives the same accuracy, and the same logits, as on
    a platform that has already evaluated other trials of the same model."""

    def test_every_exported_datapath_model_is_covered(self):
        exported = {getattr(repro.faults, name) for name in repro.faults.__all__}
        assert set(PURITY_MODELS) == {
            obj for obj in exported
            if isinstance(obj, type) and issubclass(obj, FaultModel)
            and obj is not FaultModel and obj.stage != "memory"
        }

    @pytest.mark.parametrize("model", list(PURITY_MODELS.values()), ids=lambda m: m.label())
    def test_trial_ignores_earlier_trials(self, tiny_platform_spec, tiny_dataset, model):
        images, labels = tiny_dataset.test_images[:16], tiny_dataset.test_labels[:16]
        def site(mac, lane):
            # Accumulator-stage models are armed at lane 0 by convention.
            return FaultSite(mac, 0 if model.stage == "accumulator" else lane)

        armed = InjectionConfig.single(site(2, 5), model)
        others = [InjectionConfig.single(site(mac, mac), model) for mac in (0, 3, 6)]
        fresh, used = tiny_platform_spec.build(), tiny_platform_spec.build()
        for platform in (fresh, used):
            platform.baseline_accuracy(images, labels, batch_size=8)
        for config in others:
            used.accuracy_with_faults(config, images, labels, batch_size=8)
        used.accuracies_with_faults(others, images, labels, batch_size=8)

        def trial(platform):
            accuracy = platform.accuracy_with_faults(armed, images, labels, batch_size=8)
            logits = platform.accelerator.execute_fused(
                platform.loadable, images[:8], [armed], chunk_key=(0, 8)
            )
            return accuracy, logits

        (want, want_logits), (got, got_logits) = trial(fresh), trial(used)
        assert got == want
        np.testing.assert_array_equal(got_logits, want_logits)


def _forced(**fields) -> CampaignConfig:
    """A config holding values its own checks reject, to reach the checks
    of the runtime behind it."""
    config = _config()
    for key, value in fields.items():
        object.__setattr__(config, key, value)
    return config


class TestBatchSizeValidation:
    @pytest.mark.parametrize("key, value", [
        ("batch_size", -8), ("batch_size", 0), ("batch_size", 2.5), ("batch_size", True),
        ("max_images", -4), ("max_shard_retries", -1), ("retry_backoff", -1),
        ("shard_timeout", 0), ("poison_policy", "bogus"),
    ])
    def test_config_rejects_an_out_of_range_setting(self, key, value):
        """A batch size below 1 would step through no chunk and read every
        accuracy as 0.0, and ``max_images=-4`` would evaluate all but the
        last 4 images; no such config is built."""
        with pytest.raises(ValueError, match=f"CampaignConfig.{key} must be"):
            _config(**{key: value})

    @pytest.mark.parametrize("batch_size", [-8, 0, 2.5, True])
    def test_runner_rejects_a_batch_size_that_cannot_step(
        self, tiny_platform_spec, tiny_dataset, batch_size
    ):
        """A batch size below 1 would step through no chunk and read every
        accuracy, baseline included, as 0.0."""
        runner = ParallelCampaignRunner(
            tiny_platform_spec, STRATEGY, _forced(batch_size=batch_size)
        )
        with pytest.raises(ValueError, match="batch_size must be an integer >= 1"):
            runner.run(tiny_dataset.test_images[:16], tiny_dataset.test_labels[:16])

    def test_pool_workers_report_the_error_and_exit(self, tiny_platform_spec, tiny_dataset):
        """Every pool worker fails its warm-up the same way, so each lease
        is poisoned with the error as its last failure, and the campaign
        ends: terminating a reporting worker leaves nothing its respawned
        peers need."""
        runner = ParallelCampaignRunner(
            tiny_platform_spec, STRATEGY, _forced(batch_size=-8), workers=2
        )
        with pytest.raises(PoisonShardError, match="batch_size must be an integer >= 1"):
            runner.run(tiny_dataset.test_images[:16], tiny_dataset.test_labels[:16])


class TestFusedGroupInvariance:
    def test_taped_fused_records_equal_tapeless(
        self, tiny_platform, tapeless_platform, tiny_dataset, monkeypatch
    ):
        """At 8 images the taped platform fuses trials into multi-config
        passes; the tape-less one runs each trial alone.  Records agree."""
        sizes = _count_fused_configs(monkeypatch)
        images, labels = tiny_dataset.test_images[:8], tiny_dataset.test_labels[:8]
        config = _config(batch_size=8, max_images=8)
        taped = FaultInjectionCampaign(tiny_platform, STRATEGY, config).run(images, labels)
        tapeless = FaultInjectionCampaign(tapeless_platform, STRATEGY, config).run(
            images, labels
        )
        assert taped.records == tapeless.records
        assert max(sizes[id(tiny_platform.accelerator)]) > 1
        assert max(sizes[id(tapeless_platform.accelerator)]) == 1


class TestKilledWorkerLeavesNoSharedMemory:
    """Workers get the evaluation batch with their process; a SIGKILLed
    worker must leave nothing behind in ``/dev/shm``."""

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_killed_worker_adds_no_dev_shm_entry(
        self, tiny_platform_spec, tiny_dataset, monkeypatch
    ):
        import signal

        from repro.core import parallel

        real_worker = parallel._round_worker

        def killing_worker(token, *args):
            if token == (0, 0):
                # die without unwinding: no finally, no close(), no nothing
                os.kill(os.getpid(), signal.SIGKILL)
            real_worker(token, *args)

        # fork inherits the patched module global in the children
        monkeypatch.setattr(parallel, "_round_worker", killing_worker)
        before = set(os.listdir("/dev/shm"))
        result = ParallelCampaignRunner(
            tiny_platform_spec, STRATEGY, _config(), workers=2, start_method="fork"
        ).run(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert result.recovery["dead_workers"] >= 1
        assert set(os.listdir("/dev/shm")) - before == set()
