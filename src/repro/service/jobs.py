"""Coordinator-side job state: scenarios, network leases, merge, stopping.

A :class:`FleetJob` is one sweep spec executed by the fleet, scheduled by
one :class:`~repro.core.leasebook.LeaseBook` per scenario — the same book
local execution uses, so leases, ``(lease_id, attempt)`` fencing, the
index-keyed record merge, backoff, poison and adaptive round barriers
behave identically whether a lease's worker is a local process or a
remote node.  This module is the HTTP-facing transport: the "worker"
behind a lease is a node, progress is heartbeats and record batches, and
reclaim triggers on a missed heartbeat deadline or an explicit failure
report.

Determinism contract: trials are pure functions of ``(seed, index)``, so

* records are accepted from **any** attempt, even one already reclaimed —
  a batch that raced the reclaim carries exactly the bytes the re-run
  would produce;
* identical duplicates (dup-delivery, re-leased overlap) collapse silently;
* *conflicting* duplicates, or nodes disagreeing on the baseline, mean
  the invariant is broken and fail the whole job loudly rather than
  merging garbage;
* the finished artifacts — per-scenario checkpoint JSONL and the merged
  ``sweep.jsonl`` — are byte-identical to a local ``--workers 1`` run of
  the same spec, which CI's fleet gate asserts with ``cmp``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.parallel import (
    CampaignIdentity,
    campaign_result,
    checkpoint_header_line,
    checkpoint_record_line,
)
from repro.core.results import TrialRecord
from repro.core.leasebook import DeterminismError, LeaseBook, PoisonShardError, RecoveryLog
from repro.core.sweep import (
    ExperimentSpec,
    FaultAxis,
    ModelAxis,
    PlatformAxis,
    Scenario,
    ScenarioResult,
    StrategyAxis,
    SweepResult,
)
from repro.faults.sites import FaultUniverse
from repro.service.protocol import JobStatus, LeaseGrant
from repro.utils.durable import durable_write_text
from repro.utils.jsonsafe import dump_json_safe
from repro.utils.logging import get_logger
from repro.utils.telemetry import TELEMETRY

logger = get_logger(__name__)

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Trials per network lease (contiguous ranges; merge is index-keyed, so
#: the chunking cannot influence records, only scheduling granularity).
DEFAULT_SHARD_SIZE = 8


def scenario_to_wire(scenario: Scenario) -> dict:
    """Serialise a scenario's axes for a lease grant."""
    return {
        "id": scenario.scenario_id,
        "cell": list(scenario.cell),
        "model": scenario.model.to_dict(),
        "fault": scenario.fault.to_dict(),
        "strategy": scenario.strategy.to_dict(),
        "platform": scenario.platform.to_dict(),
    }


def scenario_from_wire(data: dict) -> Scenario:
    """Rebuild a :class:`Scenario` from :func:`scenario_to_wire` output."""
    if not isinstance(data, dict):
        raise ValueError(f"wire scenario must be an object, got {type(data).__name__}")
    try:
        model = ModelAxis.from_dict(dict(data["model"]))
        fault = FaultAxis.from_dict(dict(data["fault"]))
        strategy = StrategyAxis.from_dict(dict(data["strategy"]))
        platform = PlatformAxis.from_dict(dict(data["platform"]))
    except KeyError as exc:
        raise ValueError(f"wire scenario is missing axis {exc}") from None
    cell = tuple(int(v) for v in data.get("cell", (0, 0, 0, 0)))
    scenario_id = data.get(
        "id", f"{model.name}/{fault.name}/{strategy.name}/{platform.name}"
    )
    return Scenario(
        scenario_id=scenario_id,
        model=model,
        fault=fault,
        strategy=strategy,
        platform=platform,
        cell=cell,
    )


def _chunk(indices: list[int], size: int) -> list[list[int]]:
    """Contiguous shards of at most ``size`` trials."""
    return [indices[start : start + size] for start in range(0, len(indices), size)]


@dataclass
class _ScenarioState:
    """One grid cell of a fleet job: its scenario and its lease book."""

    scenario: Scenario
    strategy_name: str
    total_trials: int
    book: LeaseBook
    num_images: int | None = None

    @property
    def records(self) -> dict[int, TrialRecord]:
        return self.book.records

    @property
    def baseline(self) -> float | None:
        return self.book.baseline


class FleetJob:
    """One sweep spec driven to completion by one lease book per scenario."""

    def __init__(
        self,
        job_id: str,
        spec: ExperimentSpec,
        *,
        artifacts_dir: Path | str,
        shard_size: int = DEFAULT_SHARD_SIZE,
        max_retries: int | None = None,
        backoff: float | None = None,
        poison_policy: str = "raise",
        heartbeat_timeout: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        # Retry settings left unset take the spec's, as a local sweep does.
        if max_retries is None:
            max_retries = spec.max_shard_retries
        if backoff is None:
            backoff = spec.retry_backoff
        self.job_id = job_id
        self.spec = spec
        self.artifacts_dir = Path(artifacts_dir)
        self.heartbeat_timeout = heartbeat_timeout
        self.clock = clock
        self.state = JOB_QUEUED
        self.error = ""
        self.recovery = RecoveryLog()
        #: Node holding each RUNNING lease (named in heartbeat-miss reports).
        self._nodes: dict[int, int] = {}
        #: Lease ids issued so far: ids are unique across the job, because
        #: the wire names a lease by id alone.
        self._issued = 0
        self.scenarios: list[_ScenarioState] = []
        for scenario in spec.grid():
            strategy = scenario.build_strategy()
            universe = FaultUniverse(
                scenario.platform.num_macs, scenario.platform.muls_per_mac
            )
            total = strategy.expected_trials(universe)
            book = LeaseBook(
                total,
                plan=spec.adaptive,
                split=lambda indices: _chunk(indices, shard_size),
                lease_id=self._issue_lease_id,
                max_retries=max_retries,
                backoff=backoff,
                poison_policy=poison_policy,
                clock=clock,
                recovery=self.recovery,
                tags={"job": job_id},
                scenario=scenario.scenario_id,
            )
            self.scenarios.append(
                _ScenarioState(scenario, strategy.name, total, book)
            )

    # ------------------------------------------------------------------
    # Worker-facing transitions (call under the coordinator's lock)
    # ------------------------------------------------------------------
    def grant(self, node_id: int) -> LeaseGrant | None:
        """Lease the oldest due WAITING shard to ``node_id``, if any."""
        due = [
            (lease.lease_id, index, lease)
            for index, state in enumerate(self.scenarios)
            for lease in state.book.due()
        ]
        if not due:
            return None
        _, scenario_index, lease = min(due, key=lambda item: item[0])
        state = self.scenarios[scenario_index]
        _, attempt = state.book.grant(lease)
        self._nodes[lease.lease_id] = node_id
        if self.state == JOB_QUEUED:
            self.state = JOB_RUNNING
        return LeaseGrant(
            job_id=self.job_id,
            scenario_index=scenario_index,
            scenario=scenario_to_wire(state.scenario),
            lease_id=lease.lease_id,
            attempt=attempt,
            indices=tuple(sorted(lease.remaining)),
            seed=self.spec.seed,
            images=self.spec.images,
            batch_size=self.spec.batch_size,
        )

    def _issue_lease_id(self, position: int) -> int:
        self._issued += 1
        return self._issued - 1

    def _book_of(self, lease_id: int) -> LeaseBook | None:
        """The book holding ``lease_id`` in its current round (``None`` for
        a lease of a finished round); raises for an id never issued."""
        if not 0 <= lease_id < self._issued:
            raise ValueError(f"job {self.job_id} never issued lease {lease_id}")
        for state in self.scenarios:
            if lease_id in state.book.leases:
                return state.book
        return None

    def add_records(
        self,
        lease_id: int,
        attempt: int,
        scenario_index: int,
        record_dicts,
        *,
        baseline: float | None = None,
        ips: float | None = None,
        num_images: int | None = None,
    ) -> tuple[int, bool]:
        """Merge a record batch; returns ``(accepted, token_still_current)``.

        Idempotent by construction: replaying the same batch (dup-delivery,
        a retried POST whose first copy did land) merges to the same state.
        A batch with any malformed record raises :class:`ValueError` and
        merges nothing.
        """
        if not 0 <= scenario_index < len(self.scenarios):
            raise ValueError(
                f"job {self.job_id} has no scenario {scenario_index} "
                f"(0..{len(self.scenarios) - 1})"
            )
        state = self.scenarios[scenario_index]
        book = self._book_of(lease_id)
        try:
            records = [TrialRecord.from_dict(data) for data in record_dicts]
        except ValueError as exc:
            raise ValueError(f"malformed trial record on the wire: {exc}") from None
        try:
            accepted = len(state.book.merge(records))
            if baseline is not None:
                state.book.merge_meta(baseline, ips)
        except DeterminismError as exc:
            self._fail_job(str(exc))
            return 0, False
        if num_images is not None and state.num_images is None:
            state.num_images = num_images
        return accepted, book is not None and book.touch(lease_id, attempt)

    def heartbeat(self, lease_id: int, attempt: int) -> bool:
        book = self._book_of(lease_id)
        return book is not None and book.touch(lease_id, attempt)

    def complete(self, lease_id: int, attempt: int, ok: bool, error: str = "") -> bool:
        book = self._book_of(lease_id)
        if book is None or book.current(lease_id, attempt) is None:
            return False
        try:
            if ok:
                # Batches are merged before the completion is sent (the
                # worker posts in order over one logical stream), so the
                # book's unaccounted-trial check is sound here too.
                book.complete(lease_id, attempt)
            else:
                book.fail(
                    lease_id, attempt, f"node reported failure:\n{error}", "worker_errors"
                )
        except PoisonShardError as exc:
            self._fail_job(str(exc))
        self._maybe_finish_job()
        return True

    def check_timeouts(self) -> None:
        """Reclaim every RUNNING lease whose heartbeats went silent."""
        if self.state in (JOB_DONE, JOB_FAILED):
            return
        for state in self.scenarios:
            for lease in state.book.silent(self.heartbeat_timeout):
                node = self._nodes.get(lease.lease_id)
                silent = self.clock() - lease.last_progress
                TELEMETRY.event(
                    "heartbeat.miss",
                    job=self.job_id,
                    lease=lease.lease_id,
                    node=node,
                    silent_seconds=silent,
                )
                logger.warning(
                    "job %s lease %d: node %s silent for %.1fs (deadline %.1fs); reclaiming",
                    self.job_id, lease.lease_id, node, silent, self.heartbeat_timeout,
                )
                try:
                    state.book.fail(
                        *lease.token,
                        f"node {node} missed the heartbeat deadline "
                        f"({self.heartbeat_timeout}s) — dead, partitioned or hung",
                        "hung_workers",
                    )
                except PoisonShardError as exc:
                    self._fail_job(str(exc))
                    return
        self._maybe_finish_job()

    # ------------------------------------------------------------------
    # Job outcome
    # ------------------------------------------------------------------
    def _fail_job(self, reason: str) -> None:
        if self.state in (JOB_DONE, JOB_FAILED):
            return
        self.state = JOB_FAILED
        self.error = reason
        TELEMETRY.event("job.failed", job=self.job_id, reason=reason.splitlines()[0])
        logger.error("job %s failed: %s", self.job_id, reason.splitlines()[0])

    def _maybe_finish_job(self) -> None:
        if self.state in (JOB_DONE, JOB_FAILED):
            return
        if any(not state.book.done for state in self.scenarios):
            return
        try:
            self.write_artifacts()
        except RuntimeError as exc:  # a scenario finished without a baseline
            self._fail_job(str(exc))
            return
        self.state = JOB_DONE
        TELEMETRY.event(
            "job.done",
            job=self.job_id,
            scenarios=len(self.scenarios),
            trials=sum(len(s.records) for s in self.scenarios),
            reclaimed=self.recovery.reclaimed,
        )

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    def write_artifacts(self) -> None:
        """Durably write per-scenario checkpoints + merged sweep artifacts.

        Results and checkpoint headers come from the same builders the
        local runner uses, so the files are byte-identical to a local
        serial sweep: each checkpoint is the canonical header, then every
        merged record in trial-index order.
        """
        campaigns = [
            CampaignIdentity(
                strategy=state.strategy_name,
                seed=self.spec.seed,
                num_images=(
                    state.num_images if state.num_images is not None else self.spec.images
                ),
                total_trials=state.total_trials,
                batch_size=self.spec.batch_size,
            )
            for state in self.scenarios
        ]
        sweep = SweepResult(scenario_results=[
            ScenarioResult(state.scenario, campaign_result(campaign, state.book))
            for state, campaign in zip(self.scenarios, campaigns)
        ])
        for state, campaign in zip(self.scenarios, campaigns):
            path = self.artifacts_dir / "scenarios" / state.scenario.checkpoint_name()
            path.parent.mkdir(parents=True, exist_ok=True)
            lines = [checkpoint_header_line(campaign, state.book)]
            lines += (checkpoint_record_line(state.records[i]) for i in sorted(state.records))
            durable_write_text(path, "".join(lines))
        self.artifacts_dir.mkdir(parents=True, exist_ok=True)
        durable_write_text(self.artifacts_dir / "sweep.jsonl", sweep.merged_jsonl_text())
        payload = {
            "job_id": self.job_id,
            "state": self.state if self.state != JOB_RUNNING else JOB_DONE,
            "spec": self.spec.to_dict(),
            "recovery": self.recovery.to_dict(),
            "structure_digest": sweep.structure_digest(),
            "scenarios": [
                {
                    "scenario": state.scenario.scenario_id,
                    "cell": list(state.scenario.cell),
                    "records": len(done.result.records),
                    "total_trials": state.total_trials,
                    "baseline_accuracy": state.baseline,
                }
                for state, done in zip(self.scenarios, sweep.scenario_results)
            ],
        }
        durable_write_text(
            self.artifacts_dir / "result.json",
            dump_json_safe(payload, indent=2, sort_keys=True) + "\n",
        )

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self, nodes: int = 0) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            scenarios_total=len(self.scenarios),
            scenarios_done=sum(1 for state in self.scenarios if state.book.done),
            trials_total=sum(state.total_trials for state in self.scenarios),
            trials_done=sum(len(state.records) for state in self.scenarios),
            leases=self.recovery.leases,
            reclaimed=self.recovery.reclaimed,
            nodes=nodes,
            error=self.error,
            artifacts_dir=str(self.artifacts_dir),
        )
