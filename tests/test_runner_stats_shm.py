"""Runner-level tests of the delta engine's execution plumbing.

Covers the pieces around the engine itself: zero-copy shared-memory
batches, per-worker runtime-statistics aggregation (GEMM counters, tape
hit rates, always-on per-stage wall times reported per run), and the
invariance of campaign records under every fused-group size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig, FaultInjectionCampaign
from repro.core.parallel import ParallelCampaignRunner, merge_runtime_stats
from repro.core.results import CampaignResult
from repro.core.shm import SharedBatch, release_batch, resolve_batch
from repro.core.strategies import RandomMultipliers


STRATEGY = RandomMultipliers(values=(0, -1), fault_counts=(1, 3), trials_per_point=2)


def _config(**overrides) -> CampaignConfig:
    base = dict(batch_size=16, seed=5, max_images=16)
    base.update(overrides)
    return CampaignConfig(**base)


class TestSharedBatch:
    def test_round_trip_preserves_arrays(self):
        images = np.random.default_rng(0).random((8, 3, 4, 4)).astype(np.float32)
        labels = np.arange(8, dtype=np.int64)
        batch = SharedBatch.create(images, labels)
        try:
            out_images, out_labels = resolve_batch(batch)
            np.testing.assert_array_equal(out_images, images)
            np.testing.assert_array_equal(out_labels, labels)
            assert not out_images.flags.writeable
            assert batch.nbytes == images.nbytes + labels.nbytes
        finally:
            batch.unlink()

    def test_pickle_carries_metadata_not_payload(self):
        import pickle

        images = np.ones((4, 2), dtype=np.float32)
        labels = np.zeros(4, dtype=np.int64)
        batch = SharedBatch.create(images, labels)
        try:
            blob = pickle.dumps(batch)
            assert len(blob) < 1024  # metadata only, no array bytes
            clone = pickle.loads(blob)
            clone_images, clone_labels = clone.arrays()
            np.testing.assert_array_equal(clone_images, images)
            np.testing.assert_array_equal(clone_labels, labels)
            release_batch(clone)
        finally:
            batch.unlink()

    def test_plain_tuple_passthrough(self):
        images = np.ones((2, 2))
        labels = np.zeros(2)
        out_images, out_labels = resolve_batch((images, labels))
        assert out_images is images and out_labels is labels
        release_batch((images, labels))  # no-op, must not raise


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


class TestFusedGroupInvariance:
    @pytest.mark.parametrize("fused_trials", [1, 3, 8])
    def test_records_identical_for_any_group_size(
        self, tiny_platform, tiny_dataset, fused_trials
    ):
        campaign = FaultInjectionCampaign(
            tiny_platform, STRATEGY, _config(fused_trials=fused_trials)
        )
        result = campaign.run(tiny_dataset.test_images, tiny_dataset.test_labels)
        reference = FaultInjectionCampaign(
            tiny_platform, STRATEGY, _config(fused_trials=1, shared_batches=False)
        ).run(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert result.records == reference.records

    def test_shared_batches_off_matches_on(self, tiny_platform_spec, tiny_dataset):
        on = ParallelCampaignRunner(
            tiny_platform_spec, STRATEGY, _config(shared_batches=True), workers=2
        ).run(tiny_dataset.test_images, tiny_dataset.test_labels)
        off = ParallelCampaignRunner(
            tiny_platform_spec, STRATEGY, _config(shared_batches=False), workers=2
        ).run(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert on.records == off.records
        assert on.baseline_accuracy == off.baseline_accuracy


class TestWorkerCrashReapsSharedMemory:
    """A worker killed mid-trial must not leak the /dev/shm batch segment.

    Workers release their attachment in a ``finally``, but SIGKILL never
    runs it — the parent's own ``finally`` is the only reliable reaper, so
    the segment allocation has to live inside the reaping ``try`` block.
    """

    def test_killed_worker_leaks_no_segment(
        self, tiny_platform_spec, tiny_dataset, tmp_path, monkeypatch
    ):
        import os
        import signal
        from multiprocessing import shared_memory

        from repro.core import parallel, shm

        created: list[str] = []
        real_create = shm.SharedBatch.create.__func__

        def recording_create(cls, images, labels):
            batch = real_create(cls, images, labels)
            created.append(batch._block_name)
            return batch

        monkeypatch.setattr(shm.SharedBatch, "create", classmethod(recording_create))

        real_worker = parallel._round_worker

        def killing_worker(token, spec, strategy, config, batch, tasks, results):
            if token == (0, 0):
                # die without unwinding: no finally, no close(), no nothing
                os.kill(os.getpid(), signal.SIGKILL)
            real_worker(token, spec, strategy, config, batch, tasks, results)

        # fork inherits the patched module global in the children
        monkeypatch.setattr(parallel, "_round_worker", killing_worker)

        # max_shard_retries=0 keeps this fail-fast: the reaping ``finally``
        # must run even when the supervisor gives up on the shard.
        runner = ParallelCampaignRunner(
            tiny_platform_spec,
            STRATEGY,
            _config(max_shard_retries=0),
            workers=2,
            checkpoint=tmp_path / "crash.jsonl",
            start_method="fork",
        )
        with pytest.raises(RuntimeError, match="died"):
            runner.run(tiny_dataset.test_images, tiny_dataset.test_labels)

        assert created, "the parallel runner should have allocated a shared batch"
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
