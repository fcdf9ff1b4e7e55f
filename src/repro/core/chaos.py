"""Deterministic chaos harness for the campaign scheduler's transports.

Fault-injection campaigns study faults in the *accelerator*; this module
injects faults into the *harness that runs them* — dead workers, hung
workers, slow workers — so the recovery machinery of the lease book
(:mod:`repro.core.leasebook`) can be exercised deterministically in tests
and CI instead of waiting for real infrastructure failures.

A :class:`ChaosPlan` is a seeded, serialisable list of :class:`ChaosEvent`
entries.  Each event names a logical point in a worker's life — *worker
slot*, *lease attempt*, *records emitted so far* — and an action:

* ``kill`` — the worker exits immediately with a nonzero code (after
  flushing its result queue, so records already produced survive — the
  re-leased shard then re-emits some of them, which is exactly the
  duplicate-record case the checkpoint merge must resolve);
* ``hang`` — the worker stops making progress (sleeps far past any
  per-shard deadline) until the worker pool declares it hung and terminates
  it;
* ``delay`` — the worker sleeps for ``seconds`` and then continues (a slow
  worker, not a failed one; no recovery should trigger).

Events fire at *logical* points, never wall-clock ones, so a plan replays
identically across runs and machines.  Because campaign trials are pure
functions of ``(seed, index)``, a campaign disturbed by any plan must
produce records byte-identical to an undisturbed run — the chaos test
suite and the CI chaos gate assert exactly that.

Plans come from three places:

* :meth:`ChaosPlan.seeded` — derive a plan from a seed (used by tests/CI);
* a JSON file (``repro campaign --chaos-plan plan.json``);
* a compact inline spec (``--chaos-plan "seed=3,workers=2,kills=1,hangs=1"``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.utils.logging import get_logger
from repro.utils.rng import SeededRNG

logger = get_logger(__name__)

#: Actions a chaos event may take inside a worker.
ACTIONS = ("kill", "hang", "delay")

#: Exit code of a chaos-killed worker (distinctive, so recovery logs and
#: recovery provenance make the cause obvious).
KILL_EXIT_CODE = 73

#: How long a "hung" worker sleeps.  Far past any sane per-shard deadline;
#: the worker pool terminates the worker long before this expires, and the
#: sleep never holds a queue lock so termination is safe.
HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class ChaosEvent:
    """One injected harness fault at a logical point in a worker's life."""

    action: str
    #: Worker: the pool slot (lease ``w`` of a round runs on slot ``w``),
    #: or the node ordinal of a fleet worker.
    worker: int
    #: Strike once the worker has emitted this many records in this attempt
    #: (0 = right after its baseline/meta message, before the first record).
    after_records: int
    #: Only strike on this attempt — the pool slot's epoch (0 = its first
    #: process) or the fleet lease's attempt — so a killed shard's retry
    #: runs clean and the campaign can complete.
    attempt: int = 0
    #: Sleep duration for ``delay`` events (ignored for kill/hang).
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"chaos action must be one of {'/'.join(ACTIONS)}, got {self.action!r}"
            )
        for name in ("worker", "after_records", "attempt"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"chaos event {name} must be a non-negative int, got {value!r}")
        if self.seconds < 0:
            raise ValueError(f"chaos event seconds must be >= 0, got {self.seconds!r}")

    def to_dict(self) -> dict:
        out = {
            "action": self.action,
            "worker": self.worker,
            "after_records": self.after_records,
            "attempt": self.attempt,
        }
        if self.seconds:
            out["seconds"] = self.seconds
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosEvent":
        if not isinstance(data, dict):
            raise ValueError(f"chaos event must be an object, got {type(data).__name__}")
        unknown = set(data) - {"action", "worker", "after_records", "attempt", "seconds"}
        if unknown:
            raise ValueError(f"chaos event has unknown keys {sorted(unknown)}")
        try:
            return cls(
                action=data["action"],
                worker=data["worker"],
                after_records=data["after_records"],
                attempt=data.get("attempt", 0),
                seconds=float(data.get("seconds", 0.0)),
            )
        except KeyError as exc:
            raise ValueError(f"chaos event {data!r} is missing key {exc}") from None


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic, picklable fault plan for the campaign harness."""

    events: tuple[ChaosEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def for_worker(self, worker: int, attempt: int) -> tuple[ChaosEvent, ...]:
        """The events that strike worker ``worker`` on lease ``attempt``."""
        return tuple(
            sorted(
                (e for e in self.events if e.worker == worker and e.attempt == attempt),
                key=lambda e: e.after_records,
            )
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def seeded(
        cls,
        seed: int,
        workers: int,
        *,
        kills: int = 1,
        hangs: int = 0,
        delays: int = 0,
        max_after: int = 3,
        delay_seconds: float = 0.05,
    ) -> "ChaosPlan":
        """Derive a plan from a seed: which workers fail, where, and how.

        Strike points are drawn from ``[0, max_after]`` records into the
        first attempt; at most one kill-or-hang lands per worker (a worker
        cannot both die and hang in one attempt), drawn without
        replacement while workers remain.  Deterministic: the same
        ``(seed, workers, counts)`` always yields the same plan.
        """
        if workers < 1:
            raise ValueError("chaos plan needs workers >= 1")
        if kills + hangs > workers:
            raise ValueError(
                f"cannot place {kills} kill(s) + {hangs} hang(s) on {workers} worker(s): "
                "at most one fatal event per worker"
            )
        rng = SeededRNG(seed).stream("chaos-plan")
        fatal_slots = list(rng.permutation(workers)[: kills + hangs])
        events = []
        for i, slot in enumerate(fatal_slots):
            events.append(
                ChaosEvent(
                    action="kill" if i < kills else "hang",
                    worker=int(slot),
                    after_records=int(rng.integers(0, max_after + 1)),
                )
            )
        for _ in range(delays):
            events.append(
                ChaosEvent(
                    action="delay",
                    worker=int(rng.integers(0, workers)),
                    after_records=int(rng.integers(0, max_after + 1)),
                    seconds=delay_seconds,
                )
            )
        return cls(events=tuple(events))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosPlan":
        if not isinstance(data, dict):
            raise ValueError(f"chaos plan must be an object, got {type(data).__name__}")
        unknown = set(data) - {"events"}
        if unknown:
            raise ValueError(f"chaos plan has unknown keys {sorted(unknown)}")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ValueError(f"chaos plan 'events' must be an array, got {type(events).__name__}")
        return cls(events=tuple(ChaosEvent.from_dict(e) for e in events))

    @classmethod
    def from_file(cls, path: Path | str) -> "ChaosPlan":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ValueError(f"cannot read chaos plan {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"chaos plan {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def load_plan(spec: str) -> ChaosPlan:
    """Build a :class:`ChaosPlan` from a CLI argument.

    Accepts either a path to a JSON plan file, or a compact inline spec of
    the form ``seed=<int>,workers=<int>[,kills=N][,hangs=N][,delays=N]``
    feeding :meth:`ChaosPlan.seeded`.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty chaos plan spec")
    if "=" not in spec or Path(spec).exists():
        return ChaosPlan.from_file(spec)
    params: dict[str, int] = {}
    for item in spec.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in ("seed", "workers", "kills", "hangs", "delays", "max_after"):
            raise ValueError(
                f"bad chaos plan item {item.strip()!r}; expected "
                "seed=<int>,workers=<int>[,kills=N][,hangs=N][,delays=N][,max_after=N] "
                "or a path to a JSON plan file"
            )
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"chaos plan item {key!r} needs an integer, got {value!r}") from None
    for required in ("seed", "workers"):
        if required not in params:
            raise ValueError(f"inline chaos plan spec needs {required}=<int> ({spec!r})")
    seed = params.pop("seed")
    workers = params.pop("workers")
    return ChaosPlan.seeded(seed, workers, **params)


#: Actions a network chaos event may take at the coordinator's HTTP
#: boundary (fleet execution, :mod:`repro.service`).
NETWORK_ACTIONS = ("drop", "partition", "slow-link", "dup-delivery")


@dataclass(frozen=True)
class NetworkEvent:
    """One injected network fault at a logical point in a node's traffic.

    Events key on *request ordinals* — the n-th authenticated request the
    coordinator receives from node ``node`` — never wall-clock time, so a
    plan replays identically across runs:

    * ``drop`` — the request is discarded before processing and the
      connection closed without a response (a packet lost on the wire;
      the client's bounded retry re-sends it);
    * ``partition`` — like ``drop``, but for ``count`` consecutive
      requests: the node is unreachable for a window, its heartbeats go
      missing, and the coordinator reclaims its leases;
    * ``slow-link`` — the request is delayed by ``seconds`` and then
      processed normally (no recovery should trigger);
    * ``dup-delivery`` — the request is applied twice (a retransmit the
      original of which also arrived); every fleet endpoint must be
      idempotent for records to stay byte-identical.
    """

    action: str
    #: Node ordinal (registration order, == node_id).
    node: int
    #: Strike once the coordinator has seen this many prior requests from
    #: the node (0 = the node's very first request).
    after_requests: int
    #: Window length for ``partition`` (number of consecutive requests).
    count: int = 1
    #: Delay for ``slow-link`` (ignored for the other actions).
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in NETWORK_ACTIONS:
            raise ValueError(
                f"network chaos action must be one of {'/'.join(NETWORK_ACTIONS)}, "
                f"got {self.action!r}"
            )
        for name in ("node", "after_requests"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(
                    f"network chaos event {name} must be a non-negative int, got {value!r}"
                )
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 1:
            raise ValueError(f"network chaos event count must be an int >= 1, got {self.count!r}")
        if self.seconds < 0:
            raise ValueError(f"network chaos event seconds must be >= 0, got {self.seconds!r}")

    def to_dict(self) -> dict:
        out = {
            "action": self.action,
            "node": self.node,
            "after_requests": self.after_requests,
        }
        if self.count != 1:
            out["count"] = self.count
        if self.seconds:
            out["seconds"] = self.seconds
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkEvent":
        if not isinstance(data, dict):
            raise ValueError(f"network chaos event must be an object, got {type(data).__name__}")
        unknown = set(data) - {"action", "node", "after_requests", "count", "seconds"}
        if unknown:
            raise ValueError(f"network chaos event has unknown keys {sorted(unknown)}")
        try:
            return cls(
                action=data["action"],
                node=data["node"],
                after_requests=data["after_requests"],
                count=data.get("count", 1),
                seconds=float(data.get("seconds", 0.0)),
            )
        except KeyError as exc:
            raise ValueError(f"network chaos event {data!r} is missing key {exc}") from None


@dataclass(frozen=True)
class NetworkChaosPlan:
    """A deterministic network-fault plan for the fleet coordinator."""

    events: tuple[NetworkEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def seeded(
        cls,
        seed: int,
        nodes: int,
        *,
        drops: int = 1,
        partitions: int = 0,
        slow_links: int = 0,
        dups: int = 0,
        max_after: int = 6,
        partition_length: int = 4,
        slow_seconds: float = 0.05,
    ) -> "NetworkChaosPlan":
        """Derive a plan from a seed: which nodes suffer what, and when."""
        if nodes < 1:
            raise ValueError("network chaos plan needs nodes >= 1")
        rng = SeededRNG(seed).stream("net-chaos-plan")
        events = []
        for action, quota in (
            ("drop", drops),
            ("partition", partitions),
            ("slow-link", slow_links),
            ("dup-delivery", dups),
        ):
            for _ in range(quota):
                events.append(
                    NetworkEvent(
                        action=action,
                        node=int(rng.integers(0, nodes)),
                        after_requests=int(rng.integers(0, max_after + 1)),
                        count=partition_length if action == "partition" else 1,
                        seconds=slow_seconds if action == "slow-link" else 0.0,
                    )
                )
        return cls(events=tuple(events))

    def to_dict(self) -> dict:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkChaosPlan":
        if not isinstance(data, dict):
            raise ValueError(f"network chaos plan must be an object, got {type(data).__name__}")
        unknown = set(data) - {"events"}
        if unknown:
            raise ValueError(f"network chaos plan has unknown keys {sorted(unknown)}")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ValueError(
                f"network chaos plan 'events' must be an array, got {type(events).__name__}"
            )
        return cls(events=tuple(NetworkEvent.from_dict(e) for e in events))

    @classmethod
    def from_file(cls, path: Path | str) -> "NetworkChaosPlan":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ValueError(f"cannot read network chaos plan {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"network chaos plan {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def load_network_plan(spec: str) -> NetworkChaosPlan:
    """Build a :class:`NetworkChaosPlan` from a CLI argument.

    Accepts a path to a JSON plan file, or a compact inline spec of the
    form ``seed=<int>,nodes=<int>[,drops=N][,partitions=N][,slow_links=N]
    [,dups=N][,max_after=N][,partition_length=N]``.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty network chaos plan spec")
    if "=" not in spec or Path(spec).exists():
        return NetworkChaosPlan.from_file(spec)
    allowed = ("seed", "nodes", "drops", "partitions", "slow_links", "dups",
               "max_after", "partition_length")
    params: dict[str, int] = {}
    for item in spec.split(","):
        key, sep, value = item.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or key not in allowed:
            raise ValueError(
                f"bad network chaos plan item {item.strip()!r}; expected "
                "seed=<int>,nodes=<int>[,drops=N][,partitions=N][,slow_links=N][,dups=N] "
                "or a path to a JSON plan file"
            )
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(
                f"network chaos plan item {key!r} needs an integer, got {value!r}"
            ) from None
    for required in ("seed", "nodes"):
        if required not in params:
            raise ValueError(f"inline network chaos plan spec needs {required}=<int> ({spec!r})")
    seed = params.pop("seed")
    nodes = params.pop("nodes")
    return NetworkChaosPlan.seeded(seed, nodes, **params)


class NetworkChaos:
    """Coordinator-side executor of a :class:`NetworkChaosPlan`.

    Counts authenticated requests per node and reports which events strike
    the current one.  Strictly logical (request ordinals, not wall-clock),
    so a fleet disturbed by any plan converges to records byte-identical
    to an undisturbed run — the fleet chaos tests assert exactly that.

    Call :meth:`on_request` under the coordinator's state lock (the
    counter must be race-free); apply any ``slow-link`` sleep *outside*
    the lock so a slow link never stalls other nodes' requests.
    """

    def __init__(self, plan: NetworkChaosPlan | None):
        self.plan = plan
        self._requests: dict[int, int] = {}

    def on_request(self, node: int) -> tuple[NetworkEvent, ...]:
        """Consume one request ordinal for ``node``; return striking events."""
        ordinal = self._requests.get(node, 0)
        self._requests[node] = ordinal + 1
        if self.plan is None:
            return ()
        struck = []
        for event in self.plan.events:
            if event.node != node:
                continue
            if event.action == "partition":
                if event.after_requests <= ordinal < event.after_requests + event.count:
                    struck.append(event)
            elif event.after_requests == ordinal:
                struck.append(event)
        return tuple(struck)


class ChaosMonkey:
    """Worker-side executor of a plan, the one for every transport.

    Built once per worker attempt (a pool slot's epoch, a fleet lease's
    attempt).  The transport reports its startup via ``on_record(0)`` and
    the trial server each emitted record via :meth:`record_emitted`; the
    monkey fires whatever events the plan scheduled at that point.

    ``delay`` sleeps and carries on.  ``kill`` first calls the transport's
    ``flush()``, which delivers every record already produced (the pool
    joins its result queue, a fleet node posts its pending batch) — the
    deterministic way to manufacture the delivered-then-re-executed
    duplicates that re-leased shards create.  It then calls
    ``stop(event)``, or exits hard without one.  ``hang`` sleeps until the
    pool terminates the worker, unless the transport passes a ``stop``: a
    fleet node has no supervisor to terminate it, so it flushes and stops
    (``os._exit``, or abandoning the lease as fatal in thread mode).
    """

    def __init__(
        self,
        plan: ChaosPlan | None,
        worker: int,
        attempt: int,
        *,
        flush: Callable[[], None] | None = None,
        stop: Callable[[ChaosEvent], None] | None = None,
    ):
        self.worker = worker
        self.attempt = attempt
        self.flush = flush
        self.stop = stop
        self.emitted = 0
        self._pending = list(plan.for_worker(worker, attempt)) if plan is not None else []

    def on_record(self, records_emitted: int) -> None:
        """Fire every event scheduled at or before ``records_emitted``."""
        while self._pending and self._pending[0].after_records <= records_emitted:
            self._strike(self._pending.pop(0))

    def record_emitted(self) -> None:
        """Count one more emitted record and strike what is due."""
        self.emitted += 1
        self.on_record(self.emitted)

    def _strike(self, event: ChaosEvent) -> None:
        if event.action == "delay":
            logger.info(
                "chaos: worker %d attempt %d delaying %.3fs",
                self.worker, self.attempt, event.seconds,
            )
            time.sleep(event.seconds)
            return
        verb = "hanging" if event.action == "hang" else "dying"
        logger.info("chaos: worker %d attempt %d %s", self.worker, self.attempt, verb)
        if self.stop is None and event.action == "hang":
            time.sleep(event.seconds or HANG_SECONDS)
            return
        # Flush, then go down hard — no finally blocks, no atexit, exactly
        # like a process killed from outside between two deliveries.
        if self.flush is not None:
            self.flush()
        if self.stop is not None:
            self.stop(event)
        else:
            os._exit(KILL_EXIT_CODE)
