"""HTTP client for the fleet protocol: bounded retries, timeouts, jitter.

Every call a worker or submitter makes to the coordinator goes through
:class:`HttpClient`, which wraps stdlib :mod:`urllib.request` with the
failure semantics fleet recovery depends on:

* a **timeout** on every request (a partitioned coordinator can never hang
  a node forever);
* **bounded retries** with the same capped exponential backoff the lease
  book uses (:func:`repro.core.leasebook.backoff_delay`), plus a
  deterministic seeded jitter so a reconnecting fleet does not stampede;
* a hard distinction between *transport* failures (connection refused,
  reset, timeout, 5xx, torn response — retried: the chaos plan's ``drop``
  and ``partition`` events manufacture exactly these) and *protocol*
  rejections (4xx — raised immediately as :class:`ServiceError`; retrying
  a request the coordinator understood and refused cannot help).

:class:`CoordinatorClient` layers the typed endpoint methods on top,
parsing every reply through :func:`repro.service.protocol.parse_message`
so malformed responses fail loudly at the boundary.
"""

from __future__ import annotations

import json
import socket
import time
from http.client import HTTPException
from urllib import error as urllib_error
from urllib import request as urllib_request

from repro.core.leasebook import backoff_delay
from repro.service.protocol import (
    BatchAck,
    CompleteAck,
    Heartbeat,
    HeartbeatAck,
    JobAccepted,
    JobStatus,
    JobSubmit,
    LeaseComplete,
    LeaseGrant,
    LeaseRequest,
    Message,
    NoWork,
    RecordBatch,
    Register,
    Registered,
    WireError,
    parse_message,
)
from repro.utils.logging import get_logger
from repro.utils.rng import SeededRNG

logger = get_logger(__name__)

#: Exceptions that mean "the bytes did not make it" and are worth retrying.
TRANSPORT_ERRORS = (
    urllib_error.URLError,   # includes connection refused / reset wrappers
    HTTPException,           # includes RemoteDisconnected / BadStatusLine
    ConnectionError,
    socket.timeout,
    TimeoutError,
    json.JSONDecodeError,    # a torn/empty response body
)


class ServiceError(RuntimeError):
    """The coordinator rejected the request (4xx); retrying cannot help."""

    def __init__(self, status: int, detail: str):
        self.status = status
        self.detail = detail
        super().__init__(f"coordinator rejected request ({status}): {detail}")


class HttpClient:
    """One coordinator endpoint plus the retry/timeout/backoff policy."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 10.0,
        retries: int = 5,
        backoff: float = 0.2,
        jitter_seed: int = 0,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        if "://" not in base_url:
            base_url = "http://" + base_url
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        #: Deterministic jitter stream (seeded per client, e.g. by node
        #: ordinal) — decorrelates reconnect storms without wall-clock or
        #: PID randomness, so failure tests replay identically.
        self._jitter = SeededRNG(jitter_seed).stream("http-jitter")

    def call(self, path: str, message: Message | None = None, method: str | None = None) -> dict:
        """POST ``message`` (or GET when ``None``) and decode the JSON reply."""
        payload = (
            None if message is None else json.dumps(message.to_wire()).encode("utf-8")
        )
        last: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = backoff_delay(self.backoff, attempt - 1)
                delay += float(self._jitter.random()) * self.backoff
                time.sleep(delay)
            try:
                return self._once(path, payload, method)
            except ServiceError:
                raise
            except TRANSPORT_ERRORS as exc:
                last = exc
                logger.debug(
                    "transient failure calling %s%s (attempt %d/%d): %s",
                    self.base_url, path, attempt + 1, self.retries + 1, exc,
                )
        raise ConnectionError(
            f"coordinator at {self.base_url} unreachable after "
            f"{self.retries + 1} attempt(s): {last}"
        )

    def _once(self, path: str, payload: bytes | None, method: str | None) -> dict:
        request = urllib_request.Request(
            self.base_url + path,
            data=payload,
            headers={"Content-Type": "application/json"},
            method=method or ("POST" if payload is not None else "GET"),
        )
        try:
            with urllib_request.urlopen(request, timeout=self.timeout) as response:
                body = response.read().decode("utf-8")
        except urllib_error.HTTPError as exc:
            try:
                detail = exc.read().decode("utf-8", errors="replace").strip()
            except OSError:  # pragma: no cover - body already consumed
                detail = ""
            if 400 <= exc.code < 500:
                raise ServiceError(exc.code, detail or exc.reason) from None
            raise  # 5xx: transient server-side trouble, retried by call()
        return json.loads(body)


class CoordinatorClient:
    """Typed endpoint methods over :class:`HttpClient`."""

    def __init__(self, base_url: str, **http_kwargs):
        self.http = HttpClient(base_url, **http_kwargs)

    def _expect(self, data: dict, *types: type[Message]) -> Message:
        reply = parse_message(data)
        if not isinstance(reply, types):
            raise WireError(
                f"coordinator replied with {reply.TYPE!r}, expected "
                f"{'/'.join(t.TYPE for t in types)}"
            )
        return reply

    def healthz(self) -> dict:
        return self.http.call("/healthz")

    def register(self, name: str) -> Registered:
        return self._expect(self.http.call("/register", Register(name=name)), Registered)

    def request_lease(self, node_id: int) -> LeaseGrant | NoWork:
        return self._expect(
            self.http.call("/lease", LeaseRequest(node_id=node_id)), LeaseGrant, NoWork
        )

    def post_records(self, batch: RecordBatch) -> BatchAck:
        return self._expect(self.http.call("/records", batch), BatchAck)

    def heartbeat(self, beat: Heartbeat) -> HeartbeatAck:
        return self._expect(self.http.call("/heartbeat", beat), HeartbeatAck)

    def complete(self, done: LeaseComplete) -> CompleteAck:
        return self._expect(self.http.call("/complete", done), CompleteAck)

    def submit_job(self, spec: dict) -> JobAccepted:
        return self._expect(self.http.call("/jobs", JobSubmit(spec=spec)), JobAccepted)

    def job_status(self, job_id: str) -> JobStatus:
        return self._expect(self.http.call(f"/jobs/{job_id}"), JobStatus)
