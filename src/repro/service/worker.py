"""The worker node agent: register, lease shards, evaluate, stream, beat.

A :class:`WorkerAgent` is the fleet analogue of one local pool worker
(:func:`repro.core.parallel._round_worker`), with the wire in between:

* register with the coordinator (learning its heartbeat contract);
* poll for a lease; a grant names a scenario, a ``(lease_id, attempt)``
  token and the *remaining* trial indices of the shard;
* build (and memoise) the scenario's platform, report baseline accuracy
  and emulated throughput in the first record batch, then evaluate the
  leased indices through exactly the same fused-trial path local
  execution uses — records are bit-identical by construction;
* stream records in batches, heartbeat from a side thread, and send a
  completion when the shard is drained.

Failure behaviour mirrors a local worker.  If the coordinator becomes
unreachable (or any ack says the token is stale — the lease was
reclaimed while we worked), the agent *abandons* the lease: it stops
beating, skips the completion, and polls for new work; the coordinator's
heartbeat deadline re-leases whatever was left.  Abandonment is silent
on purpose — a partitioned node cannot tell anyone it is gone, so the
recovery path tested here is the one that needs no cooperation.

A :class:`~repro.core.chaos.ChaosPlan` makes the failures deterministic:
``kill`` events strike after N emitted records, flush the pending batch
(the delivered-then-re-executed duplicates a reclaim manufactures), and
either ``os._exit(73)`` (``hard_kill=True``: real process mode, e.g. the
CI fleet gate) or abandon the lease and stop the agent (thread mode, so
tests can simulate SIGKILL without losing the pytest process).
"""

from __future__ import annotations

import os
import threading
import time
import traceback

from repro.core.campaign import CampaignConfig
from repro.core.chaos import KILL_EXIT_CODE, ChaosPlan
from repro.core.parallel import _records_for_pairs
from repro.core.sweep import Scenario
from repro.service.client import CoordinatorClient, ServiceError
from repro.service.jobs import scenario_from_wire
from repro.service.protocol import (
    Heartbeat,
    LeaseComplete,
    LeaseGrant,
    NoWork,
    RecordBatch,
)
from repro.utils.logging import get_logger
from repro.utils.rng import SeededRNG

logger = get_logger(__name__)

#: Records per POST while streaming a shard (batching amortises HTTP
#: round-trips; merge is index-keyed, so batch size cannot affect records).
DEFAULT_BATCH_RECORDS = 16


class _LeaseAbandoned(Exception):
    """Stop serving the current lease without completing it.

    ``fatal=True`` means the node itself is going down (chaos kill/hang);
    ``fatal=False`` means only the lease is lost (stale token, partition)
    and the agent should poll for new work.
    """

    def __init__(self, reason: str, *, fatal: bool):
        super().__init__(reason)
        self.fatal = fatal


class WorkerAgent:
    """One fleet node: a lease-serving loop over a coordinator client."""

    def __init__(
        self,
        coordinator_url: str,
        name: str = "node",
        *,
        resolver=None,
        cache_dir=None,
        poll_interval: float = 0.25,
        max_idle: float | None = None,
        batch_records: int = DEFAULT_BATCH_RECORDS,
        chaos: ChaosPlan | None = None,
        hard_kill: bool = False,
        timeout: float = 10.0,
        retries: int = 5,
        backoff: float = 0.2,
        jitter_seed: int = 0,
    ):
        if batch_records < 1:
            raise ValueError("batch_records must be >= 1")
        self.name = name
        self.resolver = resolver
        self.cache_dir = cache_dir
        self.poll_interval = poll_interval
        self.max_idle = max_idle
        self.batch_records = batch_records
        self.chaos = chaos
        self.hard_kill = hard_kill
        self.client = CoordinatorClient(
            coordinator_url,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            jitter_seed=jitter_seed,
        )
        # Heartbeats get their own client: the jitter stream is a numpy
        # Generator (not thread-safe), and a beat must not burn the long
        # retry budget of the serving path — one retry, then the beat is
        # missed and the next one will try again.
        self._hb_client = CoordinatorClient(
            coordinator_url,
            timeout=timeout,
            retries=1,
            backoff=backoff,
            jitter_seed=jitter_seed + 104729,
        )
        self.node_id: int | None = None
        self.heartbeat_interval = 1.0
        self.leases_served = 0
        #: Platform memo keyed on axis contents + evaluation geometry (same
        #: rationale as SweepRunner: names may collide, contents cannot).
        self._platforms: dict = {}

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve leases until idle past ``max_idle`` (0) or chaos-killed (73)."""
        registered = self.client.register(self.name)
        self.node_id = registered.node_id
        self.heartbeat_interval = registered.heartbeat_interval
        logger.info(
            "%s registered as node %d (heartbeat every %.2fs, timeout %.2fs)",
            self.name, self.node_id, registered.heartbeat_interval,
            registered.heartbeat_timeout,
        )
        idle = 0.0
        while True:
            try:
                reply = self.client.request_lease(self.node_id)
            except ConnectionError as exc:
                # Partitioned from the coordinator between leases: keep
                # polling (counts as idle time, so a dead coordinator does
                # not pin the node forever when --max-idle is set).
                logger.warning("%s cannot reach the coordinator: %s", self.name, exc)
                if self.max_idle is not None and idle >= self.max_idle:
                    return 0
                time.sleep(self.poll_interval)
                idle += self.poll_interval
                continue
            if isinstance(reply, NoWork):
                if self.max_idle is not None and idle >= self.max_idle:
                    logger.info(
                        "%s: no work for %.1fs; exiting", self.name, idle
                    )
                    return 0
                wait = reply.retry_after or self.poll_interval
                time.sleep(wait)
                idle += wait
                continue
            idle = 0.0
            try:
                self._serve(reply)
                self.leases_served += 1
            except _LeaseAbandoned as exc:
                logger.warning(
                    "%s abandoned lease %d: %s", self.name, reply.lease_id, exc
                )
                if exc.fatal:
                    return KILL_EXIT_CODE
            except ConnectionError as exc:
                # Coordinator unreachable mid-lease (partition): abandon and
                # keep polling — request_lease retries with backoff until the
                # partition heals, and the lease book re-leases what is left.
                logger.warning(
                    "%s lost the coordinator serving lease %d (%s); abandoning",
                    self.name, reply.lease_id, exc,
                )

    # ------------------------------------------------------------------
    # Lease service
    # ------------------------------------------------------------------
    def _resolve(self, scenario: Scenario, images_count: int):
        if self.resolver is not None:
            return self.resolver(scenario)
        from repro.zoo import case_study_platform_spec

        platform_spec, case = case_study_platform_spec(
            scenario.model.case_spec(),
            platform_config=scenario.platform_config(),
            cache_dir=self.cache_dir,
        )
        images = case.dataset.test_images[:images_count]
        labels = case.dataset.test_labels[:images_count]
        return platform_spec, images, labels

    def _platform_for(self, scenario: Scenario, grant: LeaseGrant):
        import json as _json

        key = (
            _json.dumps(scenario.model.to_dict(), sort_keys=True),
            _json.dumps(scenario.platform.to_dict(), sort_keys=True),
            grant.images,
            grant.batch_size,
        )
        entry = self._platforms.get(key)
        if entry is None:
            spec, images, labels = self._resolve(scenario, grant.images)
            platform = spec.build()
            platform.reset_caches()
            baseline = platform.baseline_accuracy(
                images, labels, batch_size=grant.batch_size
            )
            entry = (platform, baseline, platform.inferences_per_second(), images, labels)
            self._platforms[key] = entry
        return entry

    def _serve(self, grant: LeaseGrant) -> None:
        scenario = scenario_from_wire(grant.scenario)
        logger.info(
            "%s serving job %s lease %d attempt %d: %s, %d trial(s)",
            self.name, grant.job_id, grant.lease_id, grant.attempt,
            scenario.scenario_id, len(grant.indices),
        )
        stale = threading.Event()
        stop_beating = threading.Event()
        beater = threading.Thread(
            target=self._beat,
            args=(grant, stale, stop_beating),
            name=f"{self.name}-heartbeat",
            daemon=True,
        )
        # Beats must flow before the platform resolve: a cold node's first
        # lease builds (possibly trains) the model, which can take far
        # longer than the heartbeat timeout — without a beater the
        # coordinator would reclaim the lease mid-build every time.
        beater.start()
        try:
            platform, baseline, ips, images, labels = self._platform_for(
                scenario, grant
            )
            strategy = scenario.build_strategy()
            config = CampaignConfig(
                batch_size=grant.batch_size,
                seed=grant.seed,
                fused_trials=grant.fused_trials,
            )
            chaos_events = (
                list(self.chaos.for_worker(self.node_id, grant.attempt))
                if self.chaos is not None
                else []
            )
            # First batch carries the campaign meta (baseline, throughput,
            # actual image count) — the fleet analogue of the local worker's
            # "meta" message, sent before any trial runs.
            self._post(
                grant,
                [],
                stale,
                baseline_accuracy=baseline,
                inferences_per_second=ips,
                num_images=int(len(labels)),
            )
            pending: list[dict] = []
            self._strike(chaos_events, 0, grant, pending, stale)
            rng = SeededRNG(grant.seed)
            pairs = [
                (index, strategy.trial_at(platform.universe, rng, index))
                for index in grant.indices
            ]
            emitted = 0
            for record in _records_for_pairs(
                platform, pairs, baseline, images, labels, config
            ):
                pending.append(record.to_dict())
                emitted += 1
                self._strike(chaos_events, emitted, grant, pending, stale)
                if len(pending) >= self.batch_records:
                    self._post(grant, pending, stale)
                    pending = []
            if pending:
                self._post(grant, pending, stale)
            ack = self.client.complete(
                LeaseComplete(
                    node_id=self.node_id,
                    job_id=grant.job_id,
                    lease_id=grant.lease_id,
                    attempt=grant.attempt,
                    ok=True,
                )
            )
            if not ack.accepted:
                raise _LeaseAbandoned(
                    "completion rejected: lease was reclaimed", fatal=False
                )
        except (_LeaseAbandoned, ConnectionError):
            raise
        except ServiceError as exc:
            # The coordinator understood and refused (e.g. the job failed
            # under it); nothing to report back, just drop the lease.
            raise _LeaseAbandoned(str(exc), fatal=False) from exc
        except Exception:
            error = traceback.format_exc()
            logger.exception(
                "%s failed serving lease %d", self.name, grant.lease_id
            )
            self.client.complete(
                LeaseComplete(
                    node_id=self.node_id,
                    job_id=grant.job_id,
                    lease_id=grant.lease_id,
                    attempt=grant.attempt,
                    ok=False,
                    error=error,
                )
            )
        finally:
            stop_beating.set()
            beater.join(timeout=5.0)

    def _post(self, grant: LeaseGrant, records: list[dict], stale, **meta) -> None:
        if stale.is_set():
            raise _LeaseAbandoned("lease token went stale", fatal=False)
        ack = self.client.post_records(
            RecordBatch(
                node_id=self.node_id,
                job_id=grant.job_id,
                lease_id=grant.lease_id,
                attempt=grant.attempt,
                scenario_index=grant.scenario_index,
                records=tuple(records),
                **meta,
            )
        )
        if not ack.current:
            stale.set()
            raise _LeaseAbandoned("lease token went stale", fatal=False)

    def _strike(self, events, emitted: int, grant, pending: list, stale) -> None:
        """Fire chaos events scheduled at ``emitted`` records (fleet
        semantics: kill/hang = this node falls silent; its already-produced
        records are flushed first, exactly like ChaosMonkey's queue flush)."""
        while events and events[0].after_records <= emitted:
            event = events.pop(0)
            if event.action == "delay":
                logger.info("chaos: %s delaying %.3fs", self.name, event.seconds)
                time.sleep(event.seconds)
                continue
            try:
                if pending:
                    self._post(grant, list(pending), stale)
                    pending.clear()
            except (ConnectionError, _LeaseAbandoned):  # pragma: no cover
                pass  # a dying node's flush is best-effort, like a real crash
            if event.action == "kill" and self.hard_kill:
                logger.info("chaos: %s dying hard", self.name)
                os._exit(KILL_EXIT_CODE)
            verb = "hanging" if event.action == "hang" else "dying"
            logger.info("chaos: %s %s (thread mode)", self.name, verb)
            raise _LeaseAbandoned(
                f"chaos {event.action} after {emitted} record(s)", fatal=True
            )

    def _beat(self, grant: LeaseGrant, stale, stop_beating) -> None:
        while not stop_beating.wait(self.heartbeat_interval):
            if stale.is_set():
                return
            try:
                ack = self._hb_client.heartbeat(
                    Heartbeat(
                        node_id=self.node_id,
                        job_id=grant.job_id,
                        lease_id=grant.lease_id,
                        attempt=grant.attempt,
                    )
                )
            except (ConnectionError, ServiceError):
                # Unreachable or refused: the beat is simply missed; the
                # serving path will discover staleness at its next post.
                continue
            if not ack.current:
                stale.set()
                return
