"""The campaign coordinator: an HTTP service over the fleet lease book.

Stdlib :class:`~http.server.ThreadingHTTPServer` only — zero new
dependencies.  Each request handler thread parses one wire message,
takes the coordinator lock, applies the transition to the owning
:class:`~repro.service.jobs.FleetJob`, and replies; a monitor thread
wakes periodically to reclaim leases whose heartbeats went silent.

The server speaks HTTP/1.0 (one connection per request) on purpose:
returning from a handler *without writing a response* closes the socket,
which is exactly how the network chaos engine materialises ``drop`` and
``partition`` events — the client sees a torn connection, a transport
error, and its retry/backoff path, not a tidy error status it could
special-case.  ``slow-link`` sleeps outside the lock (a slow wire must
not stall the whole fleet) and ``dup-delivery`` dispatches idempotent
messages twice, proving the merge tolerates replayed deliveries.

All chaos is server-side and keyed on (node ordinal, logical request
ordinal), so failure tests replay identically with no wall-clock or
PID randomness.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.core.chaos import ChaosPlan, NetworkChaos
from repro.core.sweep import ExperimentSpec
from repro.service.jobs import JOB_DONE, JOB_FAILED, FleetJob
from repro.service.protocol import (
    BatchAck,
    CompleteAck,
    Heartbeat,
    HeartbeatAck,
    JobAccepted,
    JobSubmit,
    LeaseComplete,
    LeaseRequest,
    Message,
    NoWork,
    Register,
    Registered,
    RecordBatch,
    WireError,
    parse_message,
)
from repro.utils.logging import get_logger
from repro.utils.telemetry import TELEMETRY

logger = get_logger(__name__)

#: Message types that are safe to dispatch twice under ``dup-delivery``
#: chaos: replaying them must merge to the same state (the point of the
#: event).  Lease requests are excluded — duplicating a grant would
#: strand a lease on a phantom worker, which is a *different* failure
#: (covered by kill/partition chaos), not duplicate delivery.
_IDEMPOTENT_TYPES = (RecordBatch, Heartbeat, LeaseComplete)

#: Largest POST body the coordinator reads; a longer ``Content-Length`` is
#: refused with 413 before any byte of the body is read.  The largest
#: legitimate bodies are record batches of a few KiB (16 records of a few
#: hundred bytes at most) and job specs of a few hundred bytes, so the cap
#: sits well over 100x above them while bounding what one request can make
#: the coordinator buffer.
MAX_BODY_BYTES = 4 << 20


class _BadRequest(ValueError):
    """Protocol-level rejection; becomes a 400 (the client will not retry)."""


class CampaignCoordinator:
    """Owns the node registry, the job table and the HTTP server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        artifacts_dir: Path | str = "fleet-artifacts",
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 10.0,
        shard_size: int = 8,
        max_shard_retries: int = 2,
        retry_backoff: float = 0.25,
        poison_policy: str = "raise",
        fused_trials: int = 8,
        net_chaos: ChaosPlan | None = None,
        clock=time.monotonic,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval (a node is "
                "declared dead only after missing multiple beats)"
            )
        self.host = host
        self.artifacts_dir = Path(artifacts_dir)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.shard_size = shard_size
        self.max_shard_retries = max_shard_retries
        self.retry_backoff = retry_backoff
        self.poison_policy = poison_policy
        self.fused_trials = fused_trials
        self.clock = clock
        self.chaos = NetworkChaos(net_chaos) if net_chaos is not None else None
        self._lock = threading.RLock()
        self.nodes: dict[int, dict] = {}
        self.jobs: dict[str, FleetJob] = {}
        self._next_node_id = 0
        self._next_job_number = 0
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._serve_thread: threading.Thread | None = None

        coordinator = self

        class Handler(BaseHTTPRequestHandler):
            # HTTP/1.0: one connection per request, so "no response" =
            # closed socket = the client's transport-error path.
            protocol_version = "HTTP/1.0"

            def log_message(self, fmt, *args):  # noqa: A002 - stdlib signature
                logger.debug("http: " + fmt, *args)

            def do_GET(self):
                coordinator._handle_get(self)

            def do_POST(self):
                coordinator._handle_post(self)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve in background threads (used by tests and ``repro serve``)."""
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="coordinator-http",
            daemon=True,
        )
        self._serve_thread.start()
        self._start_monitor()
        logger.info("coordinator listening on %s", self.url)

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` foreground path)."""
        self._start_monitor()
        logger.info("coordinator listening on %s", self.url)
        try:
            self._server.serve_forever(poll_interval=0.05)
        finally:
            self.shutdown()

    def _start_monitor(self) -> None:
        if self._monitor is not None:
            return
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="coordinator-monitor", daemon=True
        )
        self._monitor.start()

    def shutdown(self) -> None:
        self._stop.set()
        self._server.shutdown()
        self._server.server_close()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None

    def _monitor_loop(self) -> None:
        period = min(0.25, self.heartbeat_timeout / 4)
        while not self._stop.wait(period):
            with self._lock:
                for job in self.jobs.values():
                    job.check_timeouts()

    # ------------------------------------------------------------------
    # Job table
    # ------------------------------------------------------------------
    def submit(self, spec: ExperimentSpec) -> str:
        """Queue a sweep spec; returns its job id (also used by tests)."""
        with self._lock:
            job_id = f"job-{self._next_job_number:04d}"
            self._next_job_number += 1
            job = FleetJob(
                job_id,
                spec,
                artifacts_dir=self.artifacts_dir / job_id,
                shard_size=self.shard_size,
                max_retries=self.max_shard_retries,
                backoff=self.retry_backoff,
                poison_policy=self.poison_policy,
                heartbeat_timeout=self.heartbeat_timeout,
                fused_trials=self.fused_trials,
                clock=self.clock,
            )
            self.jobs[job_id] = job
        TELEMETRY.event(
            "job.submit",
            job=job_id,
            scenarios=len(job.scenarios),
            trials=sum(state.total_trials for state in job.scenarios),
        )
        logger.info(
            "job %s queued: %d scenario(s), %d lease(s)",
            job_id, len(job.scenarios), job.recovery.leases,
        )
        return job_id

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _handle_get(self, handler: BaseHTTPRequestHandler) -> None:
        path = handler.path.rstrip("/") or "/"
        try:
            if path == "/healthz":
                with self._lock:
                    payload = {
                        "status": "ok",
                        "nodes": len(self.nodes),
                        "jobs": {
                            job_id: job.state for job_id, job in self.jobs.items()
                        },
                    }
                self._reply(handler, 200, payload)
                return
            if path == "/jobs":
                with self._lock:
                    payload = {
                        "jobs": [
                            job.status(nodes=len(self.nodes)).to_wire()
                            for job in self.jobs.values()
                        ]
                    }
                self._reply(handler, 200, payload)
                return
            if path.startswith("/jobs/"):
                job_id = path[len("/jobs/") :]
                with self._lock:
                    job = self.jobs.get(job_id)
                    if job is None:
                        raise _BadRequest(f"unknown job {job_id!r}")
                    payload = job.status(nodes=len(self.nodes)).to_wire()
                self._reply(handler, 200, payload)
                return
            self._reply(handler, 404, {"error": f"no such endpoint: {path}"})
        except _BadRequest as exc:
            self._reply(handler, 404, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - must not kill the handler thread
            logger.exception("GET %s failed", path)
            self._reply(handler, 500, {"error": str(exc)})

    def _handle_post(self, handler: BaseHTTPRequestHandler) -> None:
        try:
            length = int(handler.headers.get("Content-Length") or 0)
            if length < 0:
                # rfile.read(-1) would block until the client closes.
                raise ValueError(f"negative Content-Length {length}")
            if length > MAX_BODY_BYTES:
                self._reply(handler, 413, {
                    "error": f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
                })
                return
            body = handler.rfile.read(length)
            message = parse_message(json.loads(body.decode("utf-8")))
        # RecursionError: JSON nested too deep to parse fits under the cap.
        except (WireError, ValueError, UnicodeDecodeError, RecursionError) as exc:
            self._reply(handler, 400, {"error": f"malformed request: {exc}"})
            return

        # Network chaos, keyed on the sender's node ordinal.  A struck
        # drop/partition returns *without responding*: HTTP/1.0 closes the
        # socket and the client exercises its transport-retry path.
        node = getattr(message, "node_id", None)
        if self.chaos is not None and node is not None:
            events = self.chaos.on_request(node)
            for event in events:
                if event.action == "slow-link":
                    time.sleep(event.seconds)
            if any(e.action in ("drop", "partition") for e in events):
                logger.info(
                    "chaos: dropping %s from node %d", message.TYPE, node
                )
                return
            if any(e.action == "dup-delivery" for e in events) and isinstance(
                message, _IDEMPOTENT_TYPES
            ):
                logger.info(
                    "chaos: duplicating %s from node %d", message.TYPE, node
                )
                try:
                    self._dispatch(message)  # first delivery; reply comes below
                except ValueError:
                    pass

        try:
            reply = self._dispatch(message)
        except ValueError as exc:
            # _BadRequest, or a job rejecting the content of a well-formed
            # message (unknown lease, malformed records): the client erred.
            self._reply(handler, 400, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 - must not kill the handler thread
            logger.exception("handling %s failed", message.TYPE)
            self._reply(handler, 500, {"error": str(exc)})
            return
        self._reply(handler, 200, reply.to_wire())

    @staticmethod
    def _reply(handler: BaseHTTPRequestHandler, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client gave up (or was killed) mid-reply; its retry re-asks

    # ------------------------------------------------------------------
    # Message dispatch (the actual state transitions)
    # ------------------------------------------------------------------
    def _dispatch(self, message: Message) -> Message:
        if isinstance(message, Register):
            return self._on_register(message)
        if isinstance(message, LeaseRequest):
            return self._on_lease(message)
        if isinstance(message, RecordBatch):
            return self._on_records(message)
        if isinstance(message, Heartbeat):
            return self._on_heartbeat(message)
        if isinstance(message, LeaseComplete):
            return self._on_complete(message)
        if isinstance(message, JobSubmit):
            return self._on_submit(message)
        raise _BadRequest(f"coordinator does not accept {message.TYPE!r} messages")

    def _on_register(self, message: Register) -> Registered:
        with self._lock:
            node_id = self._next_node_id
            self._next_node_id += 1
            self.nodes[node_id] = {"name": message.name, "registered_at": self.clock()}
        TELEMETRY.event("node.register", node=node_id, node_name=message.name)
        logger.info("node %d registered (%s)", node_id, message.name)
        return Registered(
            node_id=node_id,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
        )

    def _require_node(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise _BadRequest(f"unknown node {node_id}; register first")

    def _require_job(self, job_id: str) -> FleetJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise _BadRequest(f"unknown job {job_id!r}")
        return job

    def _on_lease(self, message: LeaseRequest) -> Message:
        with self._lock:
            self._require_node(message.node_id)
            for job in self.jobs.values():
                if job.state in (JOB_DONE, JOB_FAILED):
                    continue
                grant = job.grant(message.node_id)
                if grant is not None:
                    TELEMETRY.event(
                        "lease.grant",
                        job=grant.job_id,
                        lease=grant.lease_id,
                        attempt=grant.attempt,
                        node=message.node_id,
                        trials=len(grant.indices),
                    )
                    logger.info(
                        "job %s lease %d (attempt %d, %d trial(s)) -> node %d",
                        grant.job_id, grant.lease_id, grant.attempt,
                        len(grant.indices), message.node_id,
                    )
                    return grant
        return NoWork(retry_after=self.heartbeat_interval / 2)

    def _on_records(self, message: RecordBatch) -> BatchAck:
        with self._lock:
            self._require_node(message.node_id)
            job = self._require_job(message.job_id)
            accepted, current = job.add_records(
                message.lease_id,
                message.attempt,
                message.scenario_index,
                message.records,
                baseline=message.baseline_accuracy,
                ips=message.inferences_per_second,
                num_images=message.num_images,
            )
        return BatchAck(accepted=accepted, current=current)

    def _on_heartbeat(self, message: Heartbeat) -> HeartbeatAck:
        with self._lock:
            self._require_node(message.node_id)
            job = self._require_job(message.job_id)
            current = job.heartbeat(message.lease_id, message.attempt)
            self.nodes[message.node_id]["last_seen"] = self.clock()
        return HeartbeatAck(current=current)

    def _on_complete(self, message: LeaseComplete) -> CompleteAck:
        with self._lock:
            self._require_node(message.node_id)
            job = self._require_job(message.job_id)
            accepted = job.complete(
                message.lease_id, message.attempt, message.ok, message.error
            )
        return CompleteAck(accepted=accepted)

    def _on_submit(self, message: JobSubmit) -> JobAccepted:
        try:
            spec = ExperimentSpec.from_dict(dict(message.spec))
        except (ValueError, KeyError, TypeError) as exc:
            raise _BadRequest(f"invalid experiment spec: {exc}") from None
        return JobAccepted(job_id=self.submit(spec))
