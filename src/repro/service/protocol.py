"""Wire protocol of the campaign fleet: typed, validated JSON messages.

Every byte that crosses the coordinator/worker boundary is one of the
frozen dataclasses below, serialised as a JSON object whose ``type`` key
names the message.  Both ends validate on receipt — an unknown type, an
unknown key, a missing field or an out-of-domain value raises
:class:`WireError` instead of propagating garbage into the lease book —
and every message round-trips exactly::

    parse_message(json.loads(json.dumps(msg.to_wire()))) == msg

(the Hypothesis suite in ``tests/test_service_protocol.py`` enforces this
for every message type).

Conventions
-----------

* ``attempt`` fields carry the **token attempt** of a
  :class:`repro.core.leasebook.ShardLease` (first service of a lease is
  attempt ``0``), the same token every transport of the lease book uses.
* Floats must be finite: JSON has no portable NaN/Inf, and a baseline of
  NaN would silently break the determinism cross-check.
* Record payloads travel as the plain dicts of
  :meth:`repro.core.results.TrialRecord.to_dict`, so checkpoint lines and
  wire batches share one serialisation.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, ClassVar


class WireError(ValueError):
    """A wire message failed structural validation."""


#: Lifecycle states a job status message may report.
JOB_STATES = ("queued", "running", "done", "failed")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(owner: str, name: str, value: Any, minimum: int = 0) -> None:
    if not _is_int(value) or value < minimum:
        raise WireError(f"{owner}.{name} must be an int >= {minimum}, got {value!r}")


def _check_str(owner: str, name: str, value: Any, *, allow_empty: bool = True) -> None:
    if not isinstance(value, str) or (not allow_empty and not value):
        raise WireError(f"{owner}.{name} must be a {'' if allow_empty else 'non-empty '}string, "
                        f"got {value!r}")


def _check_bool(owner: str, name: str, value: Any) -> None:
    if not isinstance(value, bool):
        raise WireError(f"{owner}.{name} must be a bool, got {value!r}")


def _check_float(owner: str, name: str, value: Any, *, minimum: float | None = None) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise WireError(f"{owner}.{name} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise WireError(f"{owner}.{name} must be >= {minimum}, got {value!r}")


def _check_opt_float(owner: str, name: str, value: Any) -> None:
    if value is not None:
        _check_float(owner, name, value)


def _check_dict(owner: str, name: str, value: Any) -> None:
    if not isinstance(value, dict):
        raise WireError(f"{owner}.{name} must be an object, got {type(value).__name__}")


@dataclass(frozen=True)
class Message:
    """Base of every wire message: symmetric to_wire/from_wire with checks."""

    TYPE: ClassVar[str] = ""

    def to_wire(self) -> dict:
        out: dict[str, Any] = {"type": self.TYPE}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_wire(cls, data: dict) -> "Message":
        if not isinstance(data, dict):
            raise WireError(f"wire message must be an object, got {type(data).__name__}")
        if data.get("type") != cls.TYPE:
            raise WireError(f"expected message type {cls.TYPE!r}, got {data.get('type')!r}")
        payload = {key: value for key, value in data.items() if key != "type"}
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise WireError(f"{cls.TYPE} message has unknown keys {sorted(unknown)}")
        required = {
            f.name
            for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING
        }
        missing = required - set(payload)
        if missing:
            raise WireError(f"{cls.TYPE} message is missing keys {sorted(missing)}")
        return cls(**payload)


# ----------------------------------------------------------------------
# Node lifecycle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Register(Message):
    """A worker node announcing itself to the coordinator."""

    TYPE = "register"
    name: str

    def __post_init__(self) -> None:
        _check_str(self.TYPE, "name", self.name)


@dataclass(frozen=True)
class Registered(Message):
    """Registration reply: the node's identity and heartbeat contract."""

    TYPE = "registered"
    node_id: int
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 10.0

    def __post_init__(self) -> None:
        _check_int(self.TYPE, "node_id", self.node_id)
        _check_float(self.TYPE, "heartbeat_interval", self.heartbeat_interval, minimum=0.0)
        _check_float(self.TYPE, "heartbeat_timeout", self.heartbeat_timeout, minimum=0.0)


# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LeaseRequest(Message):
    """A registered node asking for work."""

    TYPE = "lease-request"
    node_id: int

    def __post_init__(self) -> None:
        _check_int(self.TYPE, "node_id", self.node_id)


@dataclass(frozen=True)
class LeaseGrant(Message):
    """One shard range of one scenario, leased to one node.

    ``(lease_id, attempt)`` is the lease token the worker must tag every
    record batch, heartbeat and completion with; ``indices`` are the trial
    indices still remaining (a reclaimed lease re-grants only what its
    previous node left behind).
    """

    TYPE = "lease-grant"
    job_id: str
    scenario_index: int
    scenario: dict
    lease_id: int
    attempt: int
    indices: tuple = field(default_factory=tuple)
    seed: int = 0
    images: int = 64
    batch_size: int = 64
    fused_trials: int = 8

    def __post_init__(self) -> None:
        _check_str(self.TYPE, "job_id", self.job_id, allow_empty=False)
        _check_int(self.TYPE, "scenario_index", self.scenario_index)
        _check_dict(self.TYPE, "scenario", self.scenario)
        _check_int(self.TYPE, "lease_id", self.lease_id)
        _check_int(self.TYPE, "attempt", self.attempt)
        if not isinstance(self.indices, (list, tuple)):
            raise WireError(f"{self.TYPE}.indices must be an array, got {self.indices!r}")
        for index in self.indices:
            _check_int(self.TYPE, "indices[]", index)
        object.__setattr__(self, "indices", tuple(self.indices))
        _check_int(self.TYPE, "seed", self.seed, minimum=-(2**63))
        _check_int(self.TYPE, "images", self.images, minimum=1)
        _check_int(self.TYPE, "batch_size", self.batch_size, minimum=1)
        _check_int(self.TYPE, "fused_trials", self.fused_trials, minimum=1)


@dataclass(frozen=True)
class NoWork(Message):
    """Nothing leasable right now; ask again after ``retry_after`` seconds."""

    TYPE = "no-work"
    retry_after: float = 0.5

    def __post_init__(self) -> None:
        _check_float(self.TYPE, "retry_after", self.retry_after, minimum=0.0)


# ----------------------------------------------------------------------
# Record streaming
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecordBatch(Message):
    """A batch of finished trial records from one lease attempt.

    The first batch of a lease carries the scenario meta the coordinator
    needs for the checkpoint header (``baseline_accuracy``,
    ``inferences_per_second``, ``num_images``) — the network twin of the
    local worker's ``meta`` queue message.
    """

    TYPE = "record-batch"
    node_id: int
    job_id: str
    lease_id: int
    attempt: int
    scenario_index: int
    records: tuple = field(default_factory=tuple)
    baseline_accuracy: float | None = None
    inferences_per_second: float | None = None
    num_images: int | None = None

    def __post_init__(self) -> None:
        _check_int(self.TYPE, "node_id", self.node_id)
        _check_str(self.TYPE, "job_id", self.job_id, allow_empty=False)
        _check_int(self.TYPE, "lease_id", self.lease_id)
        _check_int(self.TYPE, "attempt", self.attempt)
        _check_int(self.TYPE, "scenario_index", self.scenario_index)
        if not isinstance(self.records, (list, tuple)):
            raise WireError(f"{self.TYPE}.records must be an array, got {self.records!r}")
        for record in self.records:
            _check_dict(self.TYPE, "records[]", record)
        object.__setattr__(self, "records", tuple(self.records))
        _check_opt_float(self.TYPE, "baseline_accuracy", self.baseline_accuracy)
        _check_opt_float(self.TYPE, "inferences_per_second", self.inferences_per_second)
        if self.num_images is not None:
            _check_int(self.TYPE, "num_images", self.num_images, minimum=1)


@dataclass(frozen=True)
class BatchAck(Message):
    """Receipt of a record batch.  ``current=False`` tells the worker its
    lease was reclaimed (records were still merged — they are deterministic
    and keyed by index — but the node should stop serving the lease)."""

    TYPE = "batch-ack"
    accepted: int
    current: bool = True

    def __post_init__(self) -> None:
        _check_int(self.TYPE, "accepted", self.accepted)
        _check_bool(self.TYPE, "current", self.current)


# ----------------------------------------------------------------------
# Heartbeats and completion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Heartbeat(Message):
    """Liveness signal for one lease attempt."""

    TYPE = "heartbeat"
    node_id: int
    job_id: str
    lease_id: int
    attempt: int

    def __post_init__(self) -> None:
        _check_int(self.TYPE, "node_id", self.node_id)
        _check_str(self.TYPE, "job_id", self.job_id, allow_empty=False)
        _check_int(self.TYPE, "lease_id", self.lease_id)
        _check_int(self.TYPE, "attempt", self.attempt)


@dataclass(frozen=True)
class HeartbeatAck(Message):
    """Whether the heartbeat's token still owns the lease."""

    TYPE = "heartbeat-ack"
    current: bool

    def __post_init__(self) -> None:
        _check_bool(self.TYPE, "current", self.current)


@dataclass(frozen=True)
class LeaseComplete(Message):
    """A node reporting the end of its lease service.

    ``ok=False`` is an explicit failure (the worker raised): the
    coordinator reclaims immediately instead of waiting out the heartbeat
    deadline, with ``error`` joining the lease's failure history.
    """

    TYPE = "lease-complete"
    node_id: int
    job_id: str
    lease_id: int
    attempt: int
    ok: bool = True
    error: str = ""

    def __post_init__(self) -> None:
        _check_int(self.TYPE, "node_id", self.node_id)
        _check_str(self.TYPE, "job_id", self.job_id, allow_empty=False)
        _check_int(self.TYPE, "lease_id", self.lease_id)
        _check_int(self.TYPE, "attempt", self.attempt)
        _check_bool(self.TYPE, "ok", self.ok)
        _check_str(self.TYPE, "error", self.error)


@dataclass(frozen=True)
class CompleteAck(Message):
    """Whether the completion was honoured (False = stale token)."""

    TYPE = "complete-ack"
    accepted: bool

    def __post_init__(self) -> None:
        _check_bool(self.TYPE, "accepted", self.accepted)


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSubmit(Message):
    """A sweep spec (the raw dict a spec file parses to) to run as a job."""

    TYPE = "job-submit"
    spec: dict

    def __post_init__(self) -> None:
        _check_dict(self.TYPE, "spec", self.spec)


@dataclass(frozen=True)
class JobAccepted(Message):
    """The queued job's identity."""

    TYPE = "job-accepted"
    job_id: str

    def __post_init__(self) -> None:
        _check_str(self.TYPE, "job_id", self.job_id, allow_empty=False)


@dataclass(frozen=True)
class JobStatus(Message):
    """Progress snapshot of one job."""

    TYPE = "job-status"
    job_id: str
    state: str
    scenarios_total: int = 0
    scenarios_done: int = 0
    trials_total: int = 0
    trials_done: int = 0
    leases: int = 0
    reclaimed: int = 0
    nodes: int = 0
    error: str = ""
    artifacts_dir: str = ""

    def __post_init__(self) -> None:
        _check_str(self.TYPE, "job_id", self.job_id, allow_empty=False)
        if self.state not in JOB_STATES:
            raise WireError(
                f"{self.TYPE}.state must be one of {'/'.join(JOB_STATES)}, got {self.state!r}"
            )
        for name in ("scenarios_total", "scenarios_done", "trials_total",
                     "trials_done", "leases", "reclaimed", "nodes"):
            _check_int(self.TYPE, name, getattr(self, name))
        _check_str(self.TYPE, "error", self.error)
        _check_str(self.TYPE, "artifacts_dir", self.artifacts_dir)


#: Every concrete message class, keyed by its wire ``type``.
MESSAGE_TYPES: dict[str, type[Message]] = {
    cls.TYPE: cls
    for cls in (
        Register, Registered, LeaseRequest, LeaseGrant, NoWork,
        RecordBatch, BatchAck, Heartbeat, HeartbeatAck,
        LeaseComplete, CompleteAck, JobSubmit, JobAccepted, JobStatus,
    )
}


def parse_message(data: Any) -> Message:
    """Dispatch a decoded JSON object to its message class, validating it."""
    if not isinstance(data, dict):
        raise WireError(f"wire message must be an object, got {type(data).__name__}")
    kind = data.get("type")
    cls = MESSAGE_TYPES.get(kind)
    if cls is None:
        raise WireError(f"unknown wire message type {kind!r}")
    return cls.from_wire(data)
