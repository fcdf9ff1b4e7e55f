"""Chaos suite: recovery under deterministic harness faults.

The supervisor's contract is that harness failures — dead workers, hung
workers, slow workers, corrupted checkpoints — change campaign *records*
not at all: trials are pure functions of ``(seed, index)``, records merge
by trial index, and re-leased shards re-emit byte-identical records.  The
tests here inject seeded :mod:`repro.core.chaos` plans (kills, hangs,
delays) into real multi-worker campaigns and sweeps and require the exact
records/artifacts of an undisturbed run every time, plus truthful recovery
provenance in the result.

The process-pool transport (:class:`~repro.core.parallel.WorkerPool`
driving a :class:`~repro.core.leasebook.LeaseBook`) is also unit-tested
directly with fake processes (retry/backoff/poison accounting,
stale-message policy, dead-worker draining) so failures localise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import queue
from types import SimpleNamespace

import pytest

from repro.core.campaign import CampaignConfig
from repro.core.chaos import (
    KILL_EXIT_CODE,
    ChaosEvent,
    ChaosMonkey,
    ChaosPlan,
    NetworkEvent,
    load_plan,
)
from repro.core.leasebook import LeaseBook, LeaseState, PoisonShardError
from repro.core.parallel import ParallelCampaignRunner, WorkerPool, load_checkpoint
from repro.core.results import CampaignResult
from repro.core.stats import AdaptiveCampaignPlan
from repro.core.strategies import RandomMultipliers
from repro.core.sweep import ExperimentSpec, SweepRunner
from repro.report.model import build_report


#: 2 values x 2 counts x 2 reps = 8 trials; with 2 workers each shard holds 4.
STRATEGY = RandomMultipliers(values=(0, -1), fault_counts=(1, 3), trials_per_point=2)

#: Near-zero backoff so re-lease tests don't sleep their way through CI.
CONFIG = CampaignConfig(batch_size=16, seed=5, max_images=16, retry_backoff=0.01)

#: Generous progress deadline for hang tests: several multiples of worker
#: startup (platform rebuild from spec) + one trial group.
HANG_TIMEOUT = 4.0


def run_campaign(spec, dataset, workers, *, config=CONFIG, checkpoint=None,
                 resume=False, plan=None):
    runner = ParallelCampaignRunner(
        spec, STRATEGY, config, workers=workers, checkpoint=checkpoint,
        resume=resume, plan=plan,
    )
    return runner.run(dataset.test_images, dataset.test_labels)


def record_dicts(result):
    return [record.to_dict() for record in result.records]


def chaos_config(plan, **overrides):
    return dataclasses.replace(CONFIG, chaos=plan, **overrides)


@pytest.fixture(scope="module")
def reference(tiny_platform_spec, tiny_dataset):
    """The undisturbed campaign every chaos run must reproduce exactly."""
    return run_campaign(tiny_platform_spec, tiny_dataset, workers=2)


# ----------------------------------------------------------------------
# Plan construction and serialisation
# ----------------------------------------------------------------------
class TestChaosPlan:
    @pytest.mark.parametrize("generator,counts", [
        (ChaosPlan.seeded, {"kills": 2, "hangs": 1, "delays": 1}),
        (ChaosPlan.seeded_network, {"drops": 2, "partitions": 1, "slow_links": 1, "dups": 1}),
    ])
    def test_seeded_plans_are_deterministic(self, generator, counts):
        a = generator(3, 4, **counts)
        b = generator(3, 4, **counts)
        assert a == b
        assert a != generator(4, 4, **counts)

    def test_seeded_draws_are_pinned(self):
        # The CI chaos gate's spec and a network spec: replaying a plan
        # depends on these draws never moving.
        assert load_plan("seed=3,workers=2,kills=1,hangs=1").to_dict() == {"events": [
            {"action": "kill", "worker": 1, "after_records": 3, "attempt": 0},
            {"action": "hang", "worker": 0, "after_records": 0, "attempt": 0},
        ]}
        assert load_plan("seed=5,nodes=3,drops=2,partitions=1,slow_links=1,dups=1").to_dict() == {
            "events": [
                {"action": "drop", "node": 1, "after_requests": 3},
                {"action": "drop", "node": 1, "after_requests": 2},
                {"action": "partition", "node": 0, "after_requests": 4, "count": 4},
                {"action": "slow-link", "node": 2, "after_requests": 0, "seconds": 0.05},
                {"action": "dup-delivery", "node": 0, "after_requests": 4},
            ]
        }

    def test_seeded_at_most_one_fatal_event_per_worker(self):
        plan = ChaosPlan.seeded(11, 4, kills=2, hangs=2)
        fatal = [e.worker for e in plan.events if e.action in ("kill", "hang")]
        assert len(fatal) == len(set(fatal)) == 4
        with pytest.raises(ValueError, match="at most one fatal event"):
            ChaosPlan.seeded(0, 2, kills=2, hangs=1)
        with pytest.raises(ValueError, match="workers >= 1"):
            ChaosPlan.seeded(0, 0)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="action"):
            ChaosEvent("explode", 0, 0)
        with pytest.raises(ValueError, match="non-negative int"):
            ChaosEvent("kill", -1, 0)
        with pytest.raises(ValueError, match="non-negative int"):
            ChaosEvent("kill", 0, True)
        with pytest.raises(ValueError, match="seconds"):
            ChaosEvent("delay", 0, 0, seconds=-1.0)

    @pytest.mark.parametrize("seconds", [
        float("nan"), float("inf"), "nan", "1.5", [1], True,
    ], ids=["nan", "inf", "str-nan", "str", "list", "true"])
    @pytest.mark.parametrize("event", [
        {"action": "delay", "worker": 0, "after_records": 0},
        {"action": "slow-link", "node": 0, "after_requests": 0},
    ], ids=["worker", "network"])
    def test_seconds_must_be_a_finite_number(self, event, seconds):
        # A bad sleep must fail when the plan loads, not at strike time.
        family = ChaosEvent if "worker" in event else NetworkEvent
        with pytest.raises(ValueError, match="seconds"):
            family(**event, seconds=seconds)
        with pytest.raises(ValueError, match="seconds"):
            ChaosPlan.from_dict({"events": [{**event, "seconds": seconds}]})

    def test_for_worker_filters_and_sorts(self):
        plan = ChaosPlan(events=(
            ChaosEvent("delay", 0, 3, seconds=0.1),
            ChaosEvent("kill", 0, 1),
            ChaosEvent("hang", 1, 0),
            ChaosEvent("kill", 0, 2, attempt=1),
        ))
        assert [e.after_records for e in plan.for_worker(0, 0)] == [1, 3]
        assert [e.action for e in plan.for_worker(0, 1)] == ["kill"]
        assert plan.for_worker(2, 0) == ()

    @pytest.mark.parametrize("plan", [
        ChaosPlan.seeded(7, 3, kills=1, hangs=1, delays=2),
        ChaosPlan.seeded_network(7, 3, drops=2, partitions=1, slow_links=1, dups=1),
        ChaosPlan(ChaosPlan.seeded(7, 3).events + ChaosPlan.seeded_network(7, 3).events),
    ], ids=["workers", "nodes", "mixed"])
    def test_round_trips_through_dict_and_file(self, tmp_path, plan):
        assert ChaosPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert ChaosPlan.from_file(path) == plan
        assert load_plan(str(path)) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            ChaosPlan.from_dict({"events": [], "extra": 1})
        with pytest.raises(ValueError, match="unknown keys"):
            ChaosEvent.from_dict({"action": "kill", "worker": 0,
                                  "after_records": 0, "when": "now"})

    @pytest.mark.parametrize("spec,expected,expected_actions", [
        ("seed=3, workers=2, kills=1, hangs=1",
         ChaosPlan.seeded(3, 2, kills=1, hangs=1), ["hang", "kill"]),
        ("seed=3, nodes=2, drops=1, partitions=1, slow-links=1",
         ChaosPlan.seeded_network(3, 2, drops=1, partitions=1, slow_links=1),
         ["drop", "partition", "slow-link"]),
    ], ids=["workers", "nodes"])
    def test_load_plan_inline_spec(self, spec, expected, expected_actions):
        plan = load_plan(spec)
        assert plan == expected
        actions = sorted(e.action for e in plan.events)
        assert actions == expected_actions

    @pytest.mark.parametrize("spec,match,family", [
        ("", "empty", None),
        ("seed=1", "needs workers", None),
        ("workers=2,kills=1", "needs seed", None),
        ("seed=x,workers=2", "integer", None),
        ("seed=1,workers=2,boom=3", "bad chaos plan item", None),
        ("no-such-file.json", "cannot read", None),
        ("seed=1,nodes=2,kills=1", "bad chaos plan item", None),
        ("seed=1,workers=2,nodes=2", "bad chaos plan item", None),
        ("seed=1,nodes=0", "nodes >= 1", None),
        # A worker plan to --net-chaos, a network plan to --chaos-plan.
        ("seed=3,workers=2,kills=1", "cannot strike", NetworkEvent),
        ("seed=3,nodes=2,drops=1", "cannot strike", ChaosEvent),
    ])
    def test_load_plan_bad_specs(self, spec, match, family):
        with pytest.raises(ValueError, match=match):
            load_plan(spec, family)

    def test_monkey_fires_events_in_order(self):
        plan = ChaosPlan(events=(ChaosEvent("delay", 0, 2, seconds=0.0),
                                 ChaosEvent("delay", 0, 0, seconds=0.0)))
        monkey = ChaosMonkey(plan, worker=0, attempt=0)
        monkey.on_record(0)
        assert len(monkey._pending) == 1
        monkey.on_record(1)
        assert len(monkey._pending) == 1
        monkey.on_record(2)
        assert monkey._pending == []


# ----------------------------------------------------------------------
# Pool transport over the lease book (fake processes, real queue)
# ----------------------------------------------------------------------
class FakeProc:
    def __init__(self, alive=True, exitcode=None):
        self._alive = alive
        self.exitcode = exitcode

    def is_alive(self):
        return self._alive

    def terminate(self):
        self._alive = False

    kill = terminate

    def join(self, timeout=None):
        pass


class FakeTasks:
    def put(self, indices):
        pass


def _record(token, index):
    return ("record", token, SimpleNamespace(trial_index=index))


class TestLeaseSupervisor:
    def _supervise(self, script, indices=(0, 1), timeout=None, **kwargs):
        """Run one lease whose per-attempt behaviour is scripted.

        ``script[k] -> (proc, messages)`` describes slot epoch ``k`` (the
        lease's attempt ``k``, 0-based): the fake worker process and the
        messages it enqueues.
        """
        results = queue.Queue()
        book = LeaseBook(len(indices), backoff=0.0, **kwargs)
        lease = book.leases[0]
        handled = []

        def start(slot, epoch):
            proc, messages = script[epoch]((slot, epoch), lease)
            for message in messages:
                results.put(message)
            return proc, FakeTasks()

        pool = WorkerPool(1, start=start, results=results, timeout=timeout)

        def run():
            pool.serve(book, lambda kind, payload: handled.append((kind, payload)))
            return book.recovery

        return lease, handled, SimpleNamespace(run=run, recovery=book.recovery)

    def test_worker_error_is_retried_then_succeeds(self):
        script = [
            lambda token, l: (FakeProc(), [("error", token, "boom traceback")]),
            lambda token, l: (FakeProc(), [_record(token, i) for i in sorted(l.remaining)]
                              + [("round-done", token, None)]),
        ]
        lease, handled, sup = self._supervise(script)
        log = sup.run()
        assert lease.state is LeaseState.DONE
        assert log.worker_errors == 1 and log.reclaimed == 1 and log.attempts == 2
        assert [p.trial_index for k, p in handled if k == "record"] == [0, 1]
        assert "worker raised" in lease.failures[0]

    def test_dead_workers_trailing_messages_consumed_first(self):
        # A worker that finished its lease and exited is not a casualty:
        # its queued records and completion drain before death is declared.
        script = [
            lambda token, l: (FakeProc(alive=False, exitcode=0),
                              [_record(token, i) for i in sorted(l.remaining)]
                              + [("round-done", token, None)]),
        ]
        lease, handled, sup = self._supervise(script)
        log = sup.run()
        assert lease.state is LeaseState.DONE
        assert log.dead_workers == 0 and log.reclaimed == 0

    def test_dead_worker_reclaimed_and_partial_shard_rerun(self):
        script = [
            lambda token, l: (FakeProc(alive=False, exitcode=KILL_EXIT_CODE),
                              [_record(token, 0)]),
            lambda token, l: (FakeProc(), [_record(token, i) for i in sorted(l.remaining)]
                              + [("round-done", token, None)]),
        ]
        lease, handled, sup = self._supervise(script, indices=(0, 1, 2))
        log = sup.run()
        assert lease.state is LeaseState.DONE
        assert log.dead_workers == 1 and log.reclaimed == 1
        # Attempt 2 served only the dead worker's leftovers.
        assert [p.trial_index for k, p in handled if k == "record"] == [0, 1, 2]
        assert f"exit code {KILL_EXIT_CODE}" in lease.failures[0]

    def test_completion_with_unaccounted_trials_is_a_failure(self):
        script = [
            lambda token, l: (FakeProc(), [("round-done", token, None)]),
            lambda token, l: (FakeProc(), [_record(token, i) for i in sorted(l.remaining)]
                              + [("round-done", token, None)]),
        ]
        lease, handled, sup = self._supervise(script)
        log = sup.run()
        assert lease.state is LeaseState.DONE
        assert log.reclaimed == 1
        assert "unaccounted" in lease.failures[0]

    def test_poison_raises_with_failure_history(self):
        script = [lambda token, l: (FakeProc(alive=False, exitcode=1), [])]
        lease, handled, sup = self._supervise(script, max_retries=0)
        with pytest.raises(PoisonShardError, match="failed 1 attempt"):
            sup.run()
        assert lease.state is LeaseState.POISON
        assert sup.recovery.poison[0]["unfinished"] == [0, 1]

    def test_hung_worker_quarantined_under_policy(self):
        script = [lambda token, l: (FakeProc(alive=True), [])]
        lease, handled, sup = self._supervise(
            script, max_retries=0, timeout=0.05, poison_policy="quarantine"
        )
        log = sup.run()
        assert lease.state is LeaseState.POISON
        assert log.hung_workers == 1
        assert "no progress" in lease.failures[0]
        assert log.poison[0]["indices"] == [0, 1]

    def test_stale_records_accepted_stale_lifecycle_ignored(self):
        # Attempt 1 hangs; its late messages arrive after the re-lease.  Its
        # record still counts (deterministic, index-keyed) but its "done"
        # must not complete the new attempt's lease.
        def second_attempt(token, l):
            stale = (0, 0)
            return FakeProc(), [
                ("round-done", stale, None),    # ignored: stale lifecycle
                _record(stale, 0),              # accepted: stale record
                _record(token, 1),
                ("round-done", token, None),
            ]

        script = [lambda token, l: (FakeProc(alive=True), []), second_attempt]
        lease, handled, sup = self._supervise(script, timeout=0.05)
        log = sup.run()
        assert lease.state is LeaseState.DONE
        assert log.hung_workers == 1 and log.reclaimed == 1
        assert [p.trial_index for k, p in handled if k == "record"] == [0, 1]

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            LeaseBook(1, max_retries=-1)
        with pytest.raises(ValueError, match="shard_timeout must be > 0"):
            CampaignConfig(shard_timeout=0.0)
        with pytest.raises(ValueError, match="backoff"):
            LeaseBook(1, backoff=-0.1)
        with pytest.raises(ValueError, match="poison_policy"):
            LeaseBook(1, poison_policy="retry")
        with pytest.raises(ValueError, match="unique"):
            LeaseBook(2, split=lambda indices: [[0], [1]], lease_id=lambda position: 0)


# ----------------------------------------------------------------------
# Real campaigns under injected harness faults
# ----------------------------------------------------------------------
class TestCampaignRecovery:
    def test_killed_worker_records_identical(self, tiny_platform_spec, tiny_dataset,
                                             reference):
        plan = ChaosPlan(events=(ChaosEvent("kill", worker=0, after_records=1),))
        result = run_campaign(tiny_platform_spec, tiny_dataset, 2,
                              config=chaos_config(plan))
        assert record_dicts(result) == record_dicts(reference)
        assert result.baseline_accuracy == reference.baseline_accuracy
        assert result.recovery["dead_workers"] == 1
        assert result.recovery["reclaimed"] == 1
        assert result.recovery["attempts"] == 3  # 2 leases + 1 re-lease

    def test_kill_before_first_record(self, tiny_platform_spec, tiny_dataset, reference):
        plan = ChaosPlan(events=(ChaosEvent("kill", worker=1, after_records=0),))
        result = run_campaign(tiny_platform_spec, tiny_dataset, 2,
                              config=chaos_config(plan))
        assert record_dicts(result) == record_dicts(reference)
        assert result.recovery["dead_workers"] == 1

    def test_seeded_kill_and_hang_plan_recovers(self, tiny_platform_spec, tiny_dataset,
                                                reference):
        # The exact plan the CI chaos gate runs.
        plan = load_plan("seed=3,workers=2,kills=1,hangs=1")
        result = run_campaign(
            tiny_platform_spec, tiny_dataset, 2,
            config=chaos_config(plan, shard_timeout=HANG_TIMEOUT),
        )
        assert record_dicts(result) == record_dicts(reference)
        assert result.recovery["dead_workers"] >= 1
        assert result.recovery["hung_workers"] >= 1
        assert result.recovery["reclaimed"] >= 2

    def test_kill_and_hang_across_four_workers(self, tiny_platform_spec, tiny_dataset,
                                               reference):
        plan = ChaosPlan(events=(ChaosEvent("kill", worker=0, after_records=1),
                                 ChaosEvent("hang", worker=2, after_records=0)))
        result = run_campaign(
            tiny_platform_spec, tiny_dataset, 4,
            config=chaos_config(plan, shard_timeout=HANG_TIMEOUT),
        )
        assert record_dicts(result) == record_dicts(reference)
        assert result.recovery["dead_workers"] == 1
        assert result.recovery["hung_workers"] == 1

    def test_delayed_worker_is_not_a_casualty(self, tiny_platform_spec, tiny_dataset,
                                              reference):
        plan = ChaosPlan(events=(ChaosEvent("delay", worker=0, after_records=1,
                                            seconds=0.3),))
        result = run_campaign(
            tiny_platform_spec, tiny_dataset, 2,
            config=chaos_config(plan, shard_timeout=HANG_TIMEOUT),
        )
        assert record_dicts(result) == record_dicts(reference)
        assert result.recovery["reclaimed"] == 0
        assert result.recovery["dead_workers"] == 0
        assert result.recovery["hung_workers"] == 0

    def test_rejected_completion_retires_the_worker(self, tiny_platform_spec,
                                                    tiny_dataset, reference, monkeypatch):
        # Slot 0's first worker reports its lease done without running it.
        # The pool hands it the task-queue sentinel and it exits on its own
        # (code 0): a SIGTERM could land while its feeder thread holds the
        # shared results queue's lock.
        from repro.core import parallel

        real_worker, real_terminate = parallel._round_worker, parallel.terminate_process

        class SkipFirstLease:
            def __init__(self, tasks):
                self.tasks, self.skipped = tasks, False

            def get(self):
                indices = self.tasks.get()
                if indices is None or self.skipped:
                    return indices
                self.skipped = True
                return []

        def skipping_worker(token, *args):
            if token == (0, 0):
                *head, tasks, results = args
                args = (*head, SkipFirstLease(tasks), results)
            real_worker(token, *args)

        exit_codes = []

        def recording_terminate(proc, grace=5.0):
            real_terminate(proc, grace)
            if proc is not None:
                exit_codes.append(proc.exitcode)

        # fork inherits the patched worker in the children
        monkeypatch.setattr(parallel, "_round_worker", skipping_worker)
        monkeypatch.setattr(parallel, "terminate_process", recording_terminate)
        result = ParallelCampaignRunner(
            tiny_platform_spec, STRATEGY, CONFIG, workers=2, start_method="fork"
        ).run(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert record_dicts(result) == record_dicts(reference)
        assert result.recovery["reclaimed"] == 1
        assert exit_codes and set(exit_codes) == {0}

    def test_poison_shard_quarantine_keeps_the_rest(self, tiny_platform_spec,
                                                    tiny_dataset, reference):
        # Worker 1 dies on startup on every attempt: its shard turns poison
        # while worker 0's trials survive, and provenance names the holes.
        plan = ChaosPlan(events=tuple(
            ChaosEvent("kill", worker=1, after_records=0, attempt=a) for a in range(3)
        ))
        result = run_campaign(
            tiny_platform_spec, tiny_dataset, 2,
            config=chaos_config(plan, poison_policy="quarantine"),
        )
        survivors = [r for r in reference.records if r.trial_index % 2 == 0]
        assert record_dicts(result) == [r.to_dict() for r in survivors]
        poison = result.recovery["poison_shards"]
        assert len(poison) == 1
        assert poison[0]["unfinished"] == [1, 3, 5, 7]
        assert poison[0]["attempts"] == 3
        assert len(poison[0]["failures"]) == 3

    def test_poison_shard_raises_by_default(self, tiny_platform_spec, tiny_dataset):
        plan = ChaosPlan(events=tuple(
            ChaosEvent("kill", worker=1, after_records=0, attempt=a) for a in range(2)
        ))
        config = chaos_config(plan, max_shard_retries=1)
        with pytest.raises(PoisonShardError, match="unfinished"):
            run_campaign(tiny_platform_spec, tiny_dataset, 2, config=config)

    def test_adaptive_campaign_recovers_identically(self, tiny_platform_spec,
                                                    tiny_dataset):
        plan = AdaptiveCampaignPlan(target_half_width=10.0, round_size=4, min_rounds=2)
        clean = run_campaign(tiny_platform_spec, tiny_dataset, 2, plan=plan)
        chaos = ChaosPlan(events=(ChaosEvent("kill", worker=0, after_records=1),))
        result = run_campaign(tiny_platform_spec, tiny_dataset, 2, plan=plan,
                              config=chaos_config(chaos))
        assert record_dicts(result) == record_dicts(clean)
        assert result.adaptive == clean.adaptive
        assert result.recovery["dead_workers"] == 1


# ----------------------------------------------------------------------
# Crash-safe checkpoints: duplicates, torn writes, resume
# ----------------------------------------------------------------------
class TestCheckpointHealing:
    def _checkpointed_run(self, spec, dataset, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_campaign(spec, dataset, 2, checkpoint=path)
        return path

    def test_duplicate_records_collapse_on_load(self, tiny_platform_spec, tiny_dataset,
                                                tmp_path):
        path = self._checkpointed_run(tiny_platform_spec, tiny_dataset, tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        header, records, stats = load_checkpoint(path)
        assert stats["duplicate_records"] == 1
        assert len(records) == 8

    def test_conflicting_duplicate_is_a_loud_error(self, tiny_platform_spec,
                                                   tiny_dataset, tmp_path):
        path = self._checkpointed_run(tiny_platform_spec, tiny_dataset, tmp_path)
        lines = path.read_text().splitlines()
        forged = json.loads(lines[1])
        forged["accuracy"] = -1.0
        path.write_text("\n".join(lines + [json.dumps(forged)]) + "\n")
        with pytest.raises(ValueError, match="different contents"):
            load_checkpoint(path)

    def test_chaos_run_then_torn_write_then_resume(self, tiny_platform_spec,
                                                   tiny_dataset, tmp_path, reference):
        # A campaign that already survived a killed worker gets its
        # checkpoint torn mid-record (parent crash); resume heals both.
        path = tmp_path / "campaign.jsonl"
        plan = ChaosPlan(events=(ChaosEvent("kill", worker=0, after_records=1),))
        run_campaign(tiny_platform_spec, tiny_dataset, 2, checkpoint=path,
                     config=chaos_config(plan))
        text = path.read_text()
        path.write_text(text[:-25])  # tear the final record line
        result = run_campaign(tiny_platform_spec, tiny_dataset, 2, checkpoint=path,
                              resume=True)
        assert record_dicts(result) == record_dicts(reference)
        assert result.recovery["checkpoint"]["corrupt_lines"] == 1

    def test_resume_dedups_duplicated_checkpoint_lines(self, tiny_platform_spec,
                                                       tiny_dataset, tmp_path,
                                                       reference):
        # A re-leased shard can append records the dead worker already
        # delivered; simulate that duplication and drop one trial so the
        # resume has real work left.
        path = self._checkpointed_run(tiny_platform_spec, tiny_dataset, tmp_path)
        lines = path.read_text().splitlines()
        kept, dropped = lines[:-1], lines[1]
        path.write_text("\n".join(kept + [dropped]) + "\n")
        result = run_campaign(tiny_platform_spec, tiny_dataset, 2, checkpoint=path,
                              resume=True)
        assert record_dicts(result) == record_dicts(reference)
        assert result.recovery["checkpoint"]["duplicate_records"] == 1


# ----------------------------------------------------------------------
# Sweep artifacts stay byte-identical under chaos
# ----------------------------------------------------------------------
SWEEP_SPEC = {
    "images": 16,
    "seed": 0,
    "models": [{"name": "tiny"}],
    "faults": [{"name": "const0", "kind": "const", "values": [0]}],
    "strategies": [{"name": "random", "kind": "random", "counts": [1, 2], "trials": 2}],
}


class TestSweepByteIdentity:
    @pytest.fixture
    def tiny_resolver(self, tiny_platform_spec, tiny_dataset):
        def resolver(scenario):
            return (
                tiny_platform_spec,
                tiny_dataset.test_images[:16],
                tiny_dataset.test_labels[:16],
            )

        return resolver

    def _run_sweep(self, resolver, workers, sweep_dir, chaos=None, shard_timeout=None):
        spec = dataclasses.replace(
            ExperimentSpec.from_dict(SWEEP_SPEC), shard_timeout=shard_timeout, retry_backoff=0.01
        )
        return SweepRunner(
            spec.grid(), workers=workers, sweep_dir=sweep_dir, resolver=resolver, chaos=chaos,
        ).run()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_sweep_jsonl_identical_under_kill_and_hang(self, tiny_resolver, tmp_path,
                                                       workers):
        clean_dir = tmp_path / "clean"
        chaos_dir = tmp_path / f"chaos{workers}"
        self._run_sweep(tiny_resolver, 1, clean_dir)
        plan = ChaosPlan(events=(ChaosEvent("kill", worker=0, after_records=0),
                                 ChaosEvent("hang", worker=1, after_records=0)))
        sweep = self._run_sweep(tiny_resolver, workers, chaos_dir, chaos=plan,
                                shard_timeout=HANG_TIMEOUT)
        assert (chaos_dir / "sweep.jsonl").read_bytes() == \
            (clean_dir / "sweep.jsonl").read_bytes()
        recovery = next(iter(sweep.results_by_id().values())).recovery
        assert recovery["dead_workers"] >= 1
        assert recovery["hung_workers"] >= 1


# ----------------------------------------------------------------------
# Recovery provenance: result round-trip and report aggregation
# ----------------------------------------------------------------------
class TestRecoveryProvenance:
    @pytest.fixture(scope="class")
    def killed(self, tiny_platform_spec, tiny_dataset):
        plan = ChaosPlan(events=(ChaosEvent("kill", worker=0, after_records=1),))
        return run_campaign(tiny_platform_spec, tiny_dataset, 2,
                            config=chaos_config(plan))

    def test_result_round_trips_recovery(self, killed):
        data = killed.to_dict()
        assert data["recovery"]["dead_workers"] == 1
        clone = CampaignResult.from_dict(data)
        assert clone.recovery == killed.recovery
        assert killed.summary()["recovery"] == killed.recovery

    def test_clean_results_have_no_recovery_key(self, reference):
        assert reference.recovery["reclaimed"] == 0
        # Serial campaigns (no supervisor) stay recovery-free end to end.
        data = reference.to_dict()
        clone = CampaignResult.from_dict(data)
        assert clone.recovery == reference.recovery

    def test_report_aggregates_recovery(self, killed):
        report = build_report({"scn": killed}, kind="campaign")
        recovery = report["reliability"]["recovery"]
        assert recovery["scenarios_supervised"] == 1
        assert recovery["dead_workers"] == 1
        assert recovery["reclaimed_leases"] == 1

    def test_report_omits_recovery_when_unsupervised(self, tiny_platform_spec,
                                                     tiny_dataset):
        serial = run_campaign(tiny_platform_spec, tiny_dataset, 1)
        assert serial.recovery is None
        report = build_report({"scn": serial}, kind="campaign")
        assert "recovery" not in report["reliability"]


# ----------------------------------------------------------------------
# CLI: graceful interrupt and fail-fast plan parsing
# ----------------------------------------------------------------------
class TestCliInterrupt:
    def test_ctrl_c_exits_130_with_resume_hint(self, monkeypatch, capsys):
        from repro import cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "case_study_platform_spec", interrupted)
        code = cli.main(["campaign", "--checkpoint", "cp.jsonl"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "repro campaign --checkpoint cp.jsonl" in err

    def test_ctrl_c_without_checkpoint_suggests_one(self, monkeypatch, capsys):
        from repro import cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "case_study_platform_spec", interrupted)
        assert cli.main(["campaign"]) == 130
        assert "--checkpoint" in capsys.readouterr().err

    def test_sweep_resume_hint_names_spec_and_dir(self):
        from repro import cli

        hint = cli._resume_hint(argparse.Namespace(
            command="sweep", spec="grid.json", sweep_dir="out"))
        assert "grid.json" in hint and "--resume" in hint

    def test_bad_chaos_plan_fails_before_platform_build(self, monkeypatch, capsys):
        from repro import cli

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("platform must not be built for a bad plan")

        monkeypatch.setattr(cli, "case_study_platform_spec", explode)
        code = cli.main(["campaign", "--chaos-plan", "seed=1"])
        assert code == 2
        assert "chaos plan" in capsys.readouterr().err
