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

The checks live in one place, :class:`repro.utils.checked.Checked`, which
every message derives from: each field is checked against its annotation
on construction, and the few domain bounds (a minimum, a non-empty job id,
the allowed job states) are declared once in the field's metadata.  A
message class here is only its field list.

Conventions
-----------

* ``attempt`` fields carry the **token attempt** of a
  :class:`repro.core.leasebook.ShardLease` (first service of a lease is
  attempt ``0``), the same token every transport of the lease book uses.
* Integers are non-negative unless a field sets another minimum.
* Floats must be finite: JSON has no portable NaN/Inf, and a baseline of
  NaN would silently break the determinism cross-check.
* Record payloads travel as the plain dicts of
  :meth:`repro.core.results.TrialRecord.to_dict`, so checkpoint lines and
  wire batches share one serialisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.utils.checked import Checked


class WireError(ValueError):
    """A wire message failed structural validation."""


#: Lifecycle states a job status message may report.
JOB_STATES = ("queued", "running", "done", "failed")

#: Field metadata of a job id, which is never empty.
_JOB_ID = {"nonempty": True}


@dataclass(frozen=True)
class Message(Checked):
    """Base of every wire message, checked on init; :func:`parse_message`
    inverts :meth:`to_wire`."""

    TYPE: ClassVar[str] = ""
    ERROR = WireError

    def to_wire(self) -> dict:
        return {"type": self.TYPE, **self.to_dict()}


# ----------------------------------------------------------------------
# Node lifecycle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Register(Message):
    """A worker node announcing itself to the coordinator."""

    TYPE = "register"
    name: str


@dataclass(frozen=True)
class Registered(Message):
    """Registration reply: the node's identity and heartbeat contract."""

    TYPE = "registered"
    node_id: int
    heartbeat_interval: float = field(default=1.0, metadata={"min": 0.0})
    heartbeat_timeout: float = field(default=10.0, metadata={"min": 0.0})


# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LeaseRequest(Message):
    """A registered node asking for work."""

    TYPE = "lease-request"
    node_id: int


@dataclass(frozen=True)
class LeaseGrant(Message):
    """One shard range of one scenario, leased to one node.

    ``(lease_id, attempt)`` is the lease token the worker must tag every
    record batch, heartbeat and completion with; ``indices`` are the trial
    indices still remaining (a reclaimed lease re-grants only what its
    previous node left behind).
    """

    TYPE = "lease-grant"
    job_id: str = field(metadata=_JOB_ID)
    scenario_index: int
    scenario: dict
    lease_id: int
    attempt: int
    indices: tuple[int, ...] = ()
    seed: int = field(default=0, metadata={"min": -(2**63)})
    images: int = field(default=64, metadata={"min": 1})
    batch_size: int = field(default=64, metadata={"min": 1})


@dataclass(frozen=True)
class NoWork(Message):
    """Nothing leasable right now; ask again after ``retry_after`` seconds."""

    TYPE = "no-work"
    retry_after: float = field(default=0.5, metadata={"min": 0.0})


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
    job_id: str = field(metadata=_JOB_ID)
    lease_id: int
    attempt: int
    scenario_index: int
    records: tuple[dict, ...] = ()
    baseline_accuracy: float | None = None
    inferences_per_second: float | None = None
    num_images: int | None = field(default=None, metadata={"min": 1})


@dataclass(frozen=True)
class BatchAck(Message):
    """Receipt of a record batch.  ``current=False`` tells the worker its
    lease was reclaimed (records were still merged — they are deterministic
    and keyed by index — but the node should stop serving the lease)."""

    TYPE = "batch-ack"
    accepted: int
    current: bool = True


# ----------------------------------------------------------------------
# Heartbeats and completion
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Heartbeat(Message):
    """Liveness signal for one lease attempt."""

    TYPE = "heartbeat"
    node_id: int
    job_id: str = field(metadata=_JOB_ID)
    lease_id: int
    attempt: int


@dataclass(frozen=True)
class HeartbeatAck(Message):
    """Whether the heartbeat's token still owns the lease."""

    TYPE = "heartbeat-ack"
    current: bool


@dataclass(frozen=True)
class LeaseComplete(Message):
    """A node reporting the end of its lease service.

    ``ok=False`` is an explicit failure (the worker raised): the
    coordinator reclaims immediately instead of waiting out the heartbeat
    deadline, with ``error`` joining the lease's failure history.
    """

    TYPE = "lease-complete"
    node_id: int
    job_id: str = field(metadata=_JOB_ID)
    lease_id: int
    attempt: int
    ok: bool = True
    error: str = ""


@dataclass(frozen=True)
class CompleteAck(Message):
    """Whether the completion was honoured (False = stale token)."""

    TYPE = "complete-ack"
    accepted: bool


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSubmit(Message):
    """A sweep spec (the raw dict a spec file parses to) to run as a job."""

    TYPE = "job-submit"
    spec: dict


@dataclass(frozen=True)
class JobAccepted(Message):
    """The queued job's identity."""

    TYPE = "job-accepted"
    job_id: str = field(metadata=_JOB_ID)


@dataclass(frozen=True)
class JobStatus(Message):
    """Progress snapshot of one job."""

    TYPE = "job-status"
    job_id: str = field(metadata=_JOB_ID)
    state: str = field(metadata={"choices": JOB_STATES})
    scenarios_total: int = 0
    scenarios_done: int = 0
    trials_total: int = 0
    trials_done: int = 0
    leases: int = 0
    reclaimed: int = 0
    nodes: int = 0
    error: str = ""
    artifacts_dir: str = ""


#: Every concrete message class, keyed by its wire ``type``.
MESSAGE_TYPES: dict[str, type[Message]] = {cls.TYPE: cls for cls in Message.__subclasses__()}


def parse_message(data: Any) -> Message:
    """Dispatch a decoded JSON object to its message class, validating it."""
    if not isinstance(data, dict):
        raise WireError(f"wire message must be an object, got {type(data).__name__}")
    kind = data.get("type")
    # A list or object type would raise TypeError from the lookup, not WireError.
    cls = MESSAGE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise WireError(f"unknown wire message type {kind!r}")
    return cls.from_dict({key: value for key, value in data.items() if key != "type"})
