"""The worker node agent: the wire around one trial server per cell.

A :class:`WorkerAgent` evaluates trials the way a local pool worker does —
through a :class:`~repro.core.parallel.TrialServer`, the one warm-up and
fused-record loop every transport shares, so records are bit-identical by
construction.  The agent itself only does the wire work:

* register with the coordinator (learning its heartbeat contract);
* poll for a lease; a grant names a scenario, a ``(lease_id, attempt)``
  token and the *remaining* trial indices of the shard;
* keep one trial server per (model, platform, images, batch size) cell,
  report its baseline accuracy and emulated throughput in the first
  record batch of every lease, then stream the leased indices' records
  in batches;
* heartbeat from a side thread, and send a completion when the shard is
  drained.

Failure behaviour mirrors a local worker.  If the coordinator becomes
unreachable (or any ack says the token is stale — the lease was
reclaimed while we worked), the agent *abandons* the lease: it stops
beating, skips the completion, and polls for new work; the coordinator's
heartbeat deadline re-leases whatever was left.  Abandonment is silent
on purpose — a partitioned node cannot tell anyone it is gone, so the
recovery path tested here is the one that needs no cooperation.

A :class:`~repro.core.chaos.ChaosPlan` makes the failures deterministic,
executed by the same :class:`~repro.core.chaos.ChaosMonkey` as in the
pool.  ``kill`` and ``hang`` strike after N emitted records, flush the
pending batch (the delivered-then-re-executed duplicates a reclaim
manufactures), and either ``os._exit(73)`` (``hard_kill=True``: real
process mode, e.g. the CI fleet gate) or abandon the lease and stop the
agent (thread mode, so tests can simulate SIGKILL without losing the
pytest process).  ``delay`` sleeps and carries on.
"""

from __future__ import annotations

import os
import threading
import time
import traceback

from repro.core.campaign import CampaignConfig
from repro.core.chaos import KILL_EXIT_CODE, ChaosMonkey, ChaosPlan
from repro.core.parallel import TrialServer
from repro.core.sweep import Scenario, resolve_scenario
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
        #: Trial servers per (model, platform) cell and evaluation geometry,
        #: so every scenario of one cell shares one warm-up.
        self._servers: dict[tuple, TrialServer] = {}

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
    def _server_for(self, scenario: Scenario, grant: LeaseGrant) -> TrialServer:
        key = (*scenario.platform_key(), grant.images, grant.batch_size)
        server = self._servers.get(key)
        if server is None:
            if self.resolver is not None:
                spec, images, labels = self.resolver(scenario)
            else:
                spec, images, labels = resolve_scenario(scenario, grant.images, self.cache_dir)
            server = self._servers[key] = TrialServer(spec, images, labels, grant.batch_size)
        return server

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
        pending: list[dict] = []

        def flush() -> None:
            # A dying node's flush is best-effort, like a real crash.
            try:
                if pending:
                    self._post(grant, pending, stale)
                    pending.clear()
            except (ConnectionError, _LeaseAbandoned):  # pragma: no cover
                pass

        def stop(event) -> None:
            if self.hard_kill:
                os._exit(KILL_EXIT_CODE)
            raise _LeaseAbandoned(
                f"chaos {event.action} after {event.after_records} record(s)", fatal=True
            )

        try:
            server = self._server_for(scenario, grant)
            config = CampaignConfig(batch_size=grant.batch_size, seed=grant.seed)
            trial_at, _ = server.trial_source(scenario.build_strategy(), grant.seed)
            # First batch carries the campaign meta (baseline, throughput,
            # actual image count) — the fleet analogue of the local worker's
            # "meta" message, sent before any trial runs.
            self._post(
                grant,
                [],
                stale,
                baseline_accuracy=server.baseline,
                inferences_per_second=server.ips,
                num_images=int(len(server.labels)),
            )
            monkey = ChaosMonkey(self.chaos, self.node_id, grant.attempt, flush=flush, stop=stop)
            monkey.on_record(0)
            for record in server.records(grant.indices, trial_at, config, monkey):
                pending.append(record.to_dict())
                if len(pending) >= self.batch_records:
                    self._post(grant, pending, stale)
                    pending.clear()
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
