"""Determinism suite for the parallel campaign runner.

The load-bearing invariant: a campaign's records are identical for any
worker count and across interrupt/resume.  These tests run the same seeded
campaign with ``workers=1``, ``workers=2`` and ``workers=4``, kill a
checkpointed run mid-campaign (by truncating its checkpoint), resume it,
and require the exact record sequence of an uninterrupted run every time.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.campaign import CampaignConfig, FaultInjectionCampaign
from repro.core.parallel import (
    ParallelCampaignRunner,
    PlatformSpec,
    load_checkpoint,
    shard_indices,
)
from repro.core.results import TrialRecord
from repro.core.strategies import (
    ExhaustiveSingleSite,
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


#: Small but structurally interesting campaign: 2 values x 2 counts x 2 reps.
STRATEGY = RandomMultipliers(values=(0, -1), fault_counts=(1, 3), trials_per_point=2)

CONFIG = CampaignConfig(batch_size=16, seed=5, max_images=16)


def run_campaign(spec, dataset, workers, checkpoint=None, resume=False, strategy=STRATEGY,
                 config=CONFIG):
    runner = ParallelCampaignRunner(
        spec, strategy, config, workers=workers, checkpoint=checkpoint, resume=resume
    )
    return runner.run(dataset.test_images, dataset.test_labels)


class TestDeterministicSharding:
    def test_shard_indices_partition(self):
        indices = list(range(11))
        shards = shard_indices(indices, 4)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == indices
        assert shards[0] == [0, 4, 8]
        # more workers than indices: empty shards are dropped
        assert shard_indices([3], 4) == [[3]]
        with pytest.raises(ValueError):
            shard_indices(indices, 0)

    def test_trial_at_replays_the_iterator(self):
        universe = FaultUniverse()
        strategies = [
            STRATEGY,
            ExhaustiveSingleSite(values=(0, 1)),
            PerMACUnitSweep(values=(0,)),
            PerMultiplierPositionSweep(values=(1,)),
        ]
        for strategy in strategies:
            iterated = list(strategy.trials(universe, SeededRNG(9)))
            replayed = [
                strategy.trial_at(universe, SeededRNG(9), i) for i in range(len(iterated))
            ]
            assert [t.config.describe() for t in iterated] == [
                t.config.describe() for t in replayed
            ]

    def test_trial_at_is_order_independent(self):
        """Trial i must not depend on which trials were derived before it."""
        universe = FaultUniverse()
        rng = SeededRNG(3)
        total = STRATEGY.expected_trials(universe)
        forward = [STRATEGY.trial_at(universe, rng, i).config.describe() for i in range(total)]
        backward = [
            STRATEGY.trial_at(universe, rng, i).config.describe()
            for i in reversed(range(total))
        ]
        assert forward == list(reversed(backward))

    def test_trial_at_rejects_out_of_range(self):
        universe = FaultUniverse()
        with pytest.raises(IndexError):
            STRATEGY.trial_at(universe, SeededRNG(0), STRATEGY.expected_trials(universe))
        with pytest.raises(IndexError):
            ExhaustiveSingleSite().trial_at(universe, SeededRNG(0), -1)

    def test_platform_spec_is_picklable(self, tiny_platform_spec):
        clone = pickle.loads(pickle.dumps(tiny_platform_spec))
        assert clone.builder_kwargs == tiny_platform_spec.builder_kwargs
        assert clone.universe().size == 64

    def test_workers_1_2_4_identical_records(self, tiny_platform_spec, tiny_dataset):
        serial = run_campaign(tiny_platform_spec, tiny_dataset, workers=1)
        two = run_campaign(tiny_platform_spec, tiny_dataset, workers=2)
        four = run_campaign(tiny_platform_spec, tiny_dataset, workers=4)
        assert serial.records == two.records == four.records
        assert serial.baseline_accuracy == two.baseline_accuracy == four.baseline_accuracy
        assert [r.trial_index for r in four.records] == list(range(len(serial.records)))

    def test_parallel_matches_serial_campaign_class(
        self, tiny_platform, tiny_platform_spec, tiny_dataset
    ):
        """The classic FaultInjectionCampaign and a 2-worker run agree exactly."""
        campaign = FaultInjectionCampaign(tiny_platform, STRATEGY, CONFIG)
        serial = campaign.run(tiny_dataset.test_images, tiny_dataset.test_labels)
        parallel = run_campaign(tiny_platform_spec, tiny_dataset, workers=2)
        assert serial.records == parallel.records

    def test_spawn_start_method_matches_fork(self, tiny_platform_spec, tiny_dataset):
        """The pickle-everything spawn path (the default off Linux) agrees too."""
        strategy = RandomMultipliers(values=(0,), fault_counts=(2,), trials_per_point=2)
        serial = run_campaign(tiny_platform_spec, tiny_dataset, workers=1, strategy=strategy)
        runner = ParallelCampaignRunner(
            tiny_platform_spec, strategy, CONFIG, workers=2, start_method="spawn"
        )
        spawned = runner.run(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert serial.records == spawned.records


class TestCheckpointResume:
    def _truncate_after(self, checkpoint, keep_records):
        """Simulate a run killed mid-campaign: keep the header and the first
        ``keep_records`` record lines, plus one torn (half-written) line with
        no trailing newline — exactly what a SIGKILL mid-write leaves."""
        lines = checkpoint.read_text().splitlines()
        header, records = lines[0], lines[1:]
        kept = records[:keep_records]
        torn = records[keep_records][: len(records[keep_records]) // 2]
        checkpoint.write_text("\n".join([header, *kept, torn]))

    def test_killed_then_resumed_matches_uninterrupted(
        self, tiny_platform_spec, tiny_dataset, tmp_path
    ):
        uninterrupted = run_campaign(tiny_platform_spec, tiny_dataset, workers=2)

        checkpoint = tmp_path / "campaign.jsonl"
        run_campaign(tiny_platform_spec, tiny_dataset, workers=2, checkpoint=checkpoint)
        self._truncate_after(checkpoint, keep_records=3)

        resumed = run_campaign(
            tiny_platform_spec, tiny_dataset, workers=2, checkpoint=checkpoint, resume=True
        )
        assert resumed.records == uninterrupted.records
        # The checkpoint now holds every trial exactly once.
        header, records, _ = load_checkpoint(checkpoint)
        assert sorted(records) == [r.trial_index for r in uninterrupted.records]
        assert header["baseline_accuracy"] == uninterrupted.baseline_accuracy

    def test_serial_resume_skips_completed_trials(
        self, tiny_platform_spec, tiny_dataset, tmp_path, monkeypatch
    ):
        checkpoint = tmp_path / "serial.jsonl"
        full = run_campaign(tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint)
        self._truncate_after(checkpoint, keep_records=5)

        resumed = run_campaign(
            tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint, resume=True
        )
        assert resumed.records == full.records

    def test_resume_with_complete_checkpoint_reevaluates_nothing(
        self, tiny_platform, tiny_dataset, tmp_path, monkeypatch
    ):
        checkpoint = tmp_path / "done.jsonl"
        campaign = FaultInjectionCampaign(tiny_platform, STRATEGY, CONFIG, checkpoint=checkpoint)
        full = campaign.run(tiny_dataset.test_images, tiny_dataset.test_labels)

        def forbidden(*args, **kwargs):  # any re-evaluation is a bug
            raise AssertionError("accuracy_with_faults called during no-op resume")

        monkeypatch.setattr(tiny_platform, "accuracy_with_faults", forbidden)
        resumed = FaultInjectionCampaign(
            tiny_platform, STRATEGY, CONFIG, checkpoint=checkpoint, resume=True
        ).run(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert resumed.records == full.records

    def test_existing_checkpoint_without_resume_is_refused(
        self, tiny_platform_spec, tiny_dataset, tmp_path
    ):
        checkpoint = tmp_path / "precious.jsonl"
        run_campaign(tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint)
        with pytest.raises(FileExistsError):
            run_campaign(tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint)

    def test_resume_rejects_checkpoint_of_different_campaign(
        self, tiny_platform_spec, tiny_dataset, tmp_path
    ):
        checkpoint = tmp_path / "other.jsonl"
        run_campaign(tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        header = json.loads(lines[0])
        header["seed"] = CONFIG.seed + 1
        checkpoint.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match="different campaign"):
            run_campaign(
                tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint, resume=True
            )

    def test_resume_rejects_different_batch_size(
        self, tiny_platform_spec, tiny_dataset, tmp_path
    ):
        """batch_size is campaign identity: cycle-dependent fault models fire
        per batch-chunk cycle index, so a resumed run must use the same one."""
        checkpoint = tmp_path / "batched.jsonl"
        run_campaign(tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint)
        other = CampaignConfig(batch_size=CONFIG.batch_size // 2, seed=CONFIG.seed,
                               max_images=CONFIG.max_images)
        runner = ParallelCampaignRunner(
            tiny_platform_spec, STRATEGY, other, workers=1,
            checkpoint=checkpoint, resume=True,
        )
        with pytest.raises(ValueError, match="batch_size"):
            runner.run(tiny_dataset.test_images, tiny_dataset.test_labels)

    def test_resume_accepts_legacy_header_without_batch_size(
        self, tiny_platform_spec, tiny_dataset, tmp_path
    ):
        """Checkpoints written before batch_size joined the identity resume."""
        checkpoint = tmp_path / "legacy.jsonl"
        full = run_campaign(tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        header = json.loads(lines[0])
        del header["batch_size"]
        checkpoint.write_text("\n".join([json.dumps(header), *lines[1:-1]]) + "\n")
        resumed = run_campaign(
            tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint, resume=True
        )
        assert resumed.records == full.records

    def test_resume_with_missing_checkpoint_starts_fresh(
        self, tiny_platform_spec, tiny_dataset, tmp_path
    ):
        checkpoint = tmp_path / "not-there-yet.jsonl"
        result = run_campaign(
            tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint, resume=True
        )
        assert checkpoint.exists()
        assert len(result) == STRATEGY.expected_trials(FaultUniverse())

    def test_resume_refuses_checkpoint_with_records_but_no_header(
        self, tiny_platform_spec, tiny_dataset, tmp_path
    ):
        """Records without a readable header must never be silently truncated."""
        checkpoint = tmp_path / "headless.jsonl"
        run_campaign(tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text("\n".join(["corrupt-header-line", *lines[1:]]) + "\n")
        before = checkpoint.read_text()
        with pytest.raises(ValueError, match="no\\s+readable header"):
            run_campaign(
                tiny_platform_spec, tiny_dataset, workers=1, checkpoint=checkpoint, resume=True
            )
        assert checkpoint.read_text() == before  # nothing was overwritten

    def test_zero_trial_strategy_parallel_matches_serial(
        self, tiny_platform_spec, tiny_dataset
    ):
        from repro.core.strategies import FixedConfigurations

        empty = FixedConfigurations(configurations=[])
        serial = run_campaign(tiny_platform_spec, tiny_dataset, workers=1, strategy=empty)
        parallel = run_campaign(tiny_platform_spec, tiny_dataset, workers=2, strategy=empty)
        assert serial.records == parallel.records == []
        assert serial.baseline_accuracy == parallel.baseline_accuracy

    def test_load_checkpoint_tolerates_garbage_lines(self, tmp_path):
        checkpoint = tmp_path / "scarred.jsonl"
        record = TrialRecord(0, "x", 1, accuracy=0.5, accuracy_drop=0.1)
        checkpoint.write_text(
            "\n".join(
                [
                    json.dumps({"kind": "header", "version": 1, "seed": 0}),
                    "",
                    json.dumps({"kind": "record", **record.to_dict()}),
                    '{"kind": "record", "trial_ind',  # torn mid-write
                    "not json at all",
                    json.dumps({"kind": "mystery", "x": 1}),
                ]
            )
        )
        header, records, stats = load_checkpoint(checkpoint)
        assert header["seed"] == 0
        assert list(records) == [0]
        assert records[0] == record
        assert stats == {"corrupt_lines": 2, "duplicate_records": 0, "unknown_lines": 1}


class TestProtocolErrors:
    class SequentialOnly(InjectionStrategy):
        """A strategy that (legitimately) implements only trials()."""

        name = "sequential-only"

        def trials(self, universe, rng):
            yield StrategyTrial(
                config=InjectionConfig.single(FaultSite(0, 0), ConstantValue(0)),
                num_faults=1,
                injected_value=0,
            )

    def test_parallel_requires_random_access_strategy(self, tiny_platform_spec):
        assert not self.SequentialOnly().supports_random_access
        with pytest.raises(TypeError, match="cannot be .*sharded|sharded"):
            ParallelCampaignRunner(tiny_platform_spec, self.SequentialOnly(), CONFIG, workers=2)

    def test_parallel_requires_expected_trials_too(self, tiny_platform_spec):
        """trial_at without expected_trials is not shardable either: the
        runner cannot enumerate the index space."""

        class HalfIndexable(self.SequentialOnly):
            name = "half-indexable"

            def trial_at(self, universe, rng, index):
                return next(self.trials(universe, rng))

        assert not HalfIndexable().supports_random_access
        with pytest.raises(TypeError, match="sharded"):
            ParallelCampaignRunner(tiny_platform_spec, HalfIndexable(), CONFIG, workers=2)

    def test_builtin_strategies_support_random_access(self):
        for strategy in (STRATEGY, ExhaustiveSingleSite(), PerMACUnitSweep(),
                         PerMultiplierPositionSweep()):
            assert strategy.supports_random_access

    def test_parallel_requires_spec_not_platform(self, tiny_platform):
        with pytest.raises(ValueError, match="PlatformSpec"):
            ParallelCampaignRunner(tiny_platform, STRATEGY, CONFIG, workers=2)

    def test_rejects_wrong_platform_type(self):
        with pytest.raises(TypeError):
            ParallelCampaignRunner(object(), STRATEGY, CONFIG)

    def test_resume_requires_checkpoint(self, tiny_platform):
        with pytest.raises(ValueError, match="checkpoint"):
            ParallelCampaignRunner(tiny_platform, STRATEGY, CONFIG, resume=True)

    def test_worker_error_propagates(self, tiny_platform_spec, tiny_dataset):
        class Exploding(RandomMultipliers):
            name = "exploding"

            def trial_at(self, universe, rng, index):
                raise RuntimeError("boom at trial %d" % index)

        strategy = Exploding(values=(0,), fault_counts=(1,), trials_per_point=2)
        # max_shard_retries=0 restores fail-fast: a deterministic worker
        # error would fail identically on every retry anyway.
        config = CampaignConfig(batch_size=16, seed=5, max_images=16, max_shard_retries=0)
        with pytest.raises(RuntimeError, match="worker"):
            run_campaign(
                tiny_platform_spec, tiny_dataset, workers=2, strategy=strategy, config=config
            )
