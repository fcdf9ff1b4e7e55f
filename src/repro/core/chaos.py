"""Deterministic chaos harness for the campaign scheduler's transports.

Fault-injection campaigns study faults in the *accelerator*; this module
injects faults into the *harness that runs them* — dead workers, hung
workers, slow workers, lost and duplicated requests — so the recovery
machinery of the lease book (:mod:`repro.core.leasebook`) can be exercised
deterministically in tests and CI instead of waiting for real
infrastructure failures.

A :class:`ChaosPlan` is a seeded, serialisable list of events of two
families, told apart by their action names: :class:`NetworkEvent` network
faults, struck by the fleet coordinator's :class:`NetworkChaos` at a
node's n-th request, and :class:`ChaosEvent` worker faults, struck by the
worker-side :class:`ChaosMonkey` at a *worker slot*, *lease attempt* and
*records emitted so far*:

* ``kill`` — the worker exits immediately with a nonzero code (after
  the records already produced have reached the parent, so they survive —
  the re-leased shard then re-emits some of them, which is exactly the
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
suite and the CI chaos and fleet gates assert exactly that.

Plans come from three places, all through :func:`load_plan`, in one
format for both families:

* :meth:`ChaosPlan.seeded` / :meth:`ChaosPlan.seeded_network` — derive a
  plan from a seed (used by tests/CI);
* a JSON file (``--chaos-plan plan.json``, ``--net-chaos plan.json``);
* a compact inline spec (``--chaos-plan "seed=3,workers=2,kills=1,hangs=1"``,
  ``--net-chaos "seed=3,nodes=2,drops=1"``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.utils.checked import Checked
from repro.utils.logging import get_logger
from repro.utils.rng import SeededRNG

logger = get_logger(__name__)

#: Actions a chaos event may take inside a worker.
ACTIONS = ("kill", "hang", "delay")

#: Actions a network chaos event may take at the coordinator's HTTP
#: boundary (fleet execution, :mod:`repro.service`).
NETWORK_ACTIONS = ("drop", "partition", "slow-link", "dup-delivery")

#: Exit code of a chaos-killed worker (distinctive, so recovery logs and
#: recovery provenance make the cause obvious).
KILL_EXIT_CODE = 73

#: How long a "hung" worker sleeps.  Far past any sane per-shard deadline;
#: the worker pool terminates the worker long before this expires.
HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class ChaosEvent(Checked):
    """One injected harness fault at a logical point in a worker's life."""

    action: str = field(metadata={"choices": ACTIONS})
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
    seconds: float = field(default=0.0, metadata={"min": 0.0, "omit_default": True})


@dataclass(frozen=True)
class NetworkEvent(Checked):
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

    action: str = field(metadata={"choices": NETWORK_ACTIONS})
    #: Node ordinal (registration order, == node_id).
    node: int
    #: Strike once the coordinator has seen this many prior requests from
    #: the node (0 = the node's very first request).
    after_requests: int
    #: Window length for ``partition`` (number of consecutive requests).
    count: int = field(default=1, metadata={"min": 1, "omit_default": True})
    #: Delay for ``slow-link`` (ignored for the other actions).
    seconds: float = field(default=0.0, metadata={"min": 0.0, "omit_default": True})


#: Each event family with the actions that name it.
_FAMILIES: dict[type, tuple[str, ...]] = {ChaosEvent: ACTIONS, NetworkEvent: NETWORK_ACTIONS}

#: Inline-spec keywords of each seeded generator, keyed by the target-count
#: keyword that selects it (``workers=`` or ``nodes=``).
_INLINE_KEYS = {
    "workers": ("kills", "hangs", "delays", "max_after"),
    "nodes": ("drops", "partitions", "slow_links", "dups", "max_after", "partition_length"),
}


def _event_from_dict(data: Any) -> ChaosEvent | NetworkEvent:
    """One plan-file event, its family told apart by its action name."""
    if not isinstance(data, dict):
        raise ValueError(f"chaos event must be an object, got {type(data).__name__}")
    for family, actions in _FAMILIES.items():
        if data.get("action") in actions:
            return family.from_dict(data)
    raise ValueError(
        f"chaos event action must be one of {'/'.join(ACTIONS + NETWORK_ACTIONS)}, "
        f"got {data.get('action')!r}"
    )


@dataclass(frozen=True)
class ChaosPlan:
    """A deterministic, picklable fault plan for the harness and the fleet."""

    events: tuple[ChaosEvent | NetworkEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def for_worker(self, worker: int, attempt: int) -> tuple[ChaosEvent, ...]:
        """The events that strike worker ``worker`` on lease ``attempt``."""
        return tuple(
            sorted(
                (
                    e for e in self.events
                    if isinstance(e, ChaosEvent) and e.worker == worker and e.attempt == attempt
                ),
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
        """Derive a worker plan from a seed: which workers fail, where, and how.

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

    @classmethod
    def seeded_network(
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
    ) -> "ChaosPlan":
        """Derive a network plan from a seed: which nodes suffer what, and when."""
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

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Any) -> "ChaosPlan":
        if not isinstance(data, dict):
            raise ValueError(f"chaos plan must be an object, got {type(data).__name__}")
        unknown = set(data) - {"events"}
        if unknown:
            raise ValueError(f"chaos plan has unknown keys {sorted(unknown)}")
        events = data.get("events", [])
        if not isinstance(events, list):
            raise ValueError(f"chaos plan 'events' must be an array, got {type(events).__name__}")
        return cls(events=tuple(_event_from_dict(e) for e in events))

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


def load_plan(spec: str, family: type | None = None) -> ChaosPlan:
    """Build a :class:`ChaosPlan` from a CLI argument.

    Accepts a path to a JSON plan file, or a compact inline spec whose
    ``workers=`` or ``nodes=`` key picks :meth:`ChaosPlan.seeded` or
    :meth:`ChaosPlan.seeded_network` (keywords in :data:`_INLINE_KEYS`).
    With ``family`` (:class:`ChaosEvent` or :class:`NetworkEvent`, the
    events one executor strikes) a plan holding other events is rejected.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty chaos plan spec")
    if "=" not in spec or Path(spec).exists():
        plan = ChaosPlan.from_file(spec)
    else:
        plan = _inline_plan(spec)
    if family is not None:
        stray = sorted({e.action for e in plan.events if not isinstance(e, family)})
        if stray:
            raise ValueError(
                f"chaos plan has {'/'.join(stray)} event(s), which this executor cannot "
                f"strike; it takes only {'/'.join(_FAMILIES[family])} events"
            )
    return plan


def _inline_plan(spec: str) -> ChaosPlan:
    """The seeded plan an inline ``key=value,...`` spec describes."""
    items = [item.partition("=") for item in spec.split(",")]
    target = "nodes" if any(key.strip() == "nodes" for key, _, _ in items) else "workers"
    allowed = ("seed", target, *_INLINE_KEYS[target])
    params: dict[str, int] = {}
    for raw_key, sep, value in items:
        key = raw_key.strip()
        if target == "nodes":
            key = key.replace("-", "_")
        if not sep or key not in allowed:
            usages = " or ".join(
                f"seed=<int>,{name}=<int>" + "".join(f"[,{k}=N]" for k in keys)
                for name, keys in _INLINE_KEYS.items()
            )
            raise ValueError(
                f"bad chaos plan item {(raw_key + sep + value).strip()!r}; expected "
                f"{usages} or a path to a JSON plan file"
            )
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(f"chaos plan item {key!r} needs an integer, got {value!r}") from None
    for required in ("seed", target):
        if required not in params:
            raise ValueError(f"inline chaos plan spec needs {required}=<int> ({spec!r})")
    seed = params.pop("seed")
    count = params.pop(target)
    generator = ChaosPlan.seeded_network if target == "nodes" else ChaosPlan.seeded
    return generator(seed, count, **params)


class NetworkChaos:
    """Coordinator-side executor of a plan's :class:`NetworkEvent` entries.

    Counts authenticated requests per node and reports which events strike
    the current one.  Strictly logical (request ordinals, not wall-clock),
    so a fleet disturbed by any plan converges to records byte-identical
    to an undisturbed run — the fleet chaos tests assert exactly that.

    Call :meth:`on_request` under the coordinator's state lock (the
    counter must be race-free); apply any ``slow-link`` sleep *outside*
    the lock so a slow link never stalls other nodes' requests.
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._requests: dict[int, int] = {}

    def on_request(self, node: int) -> tuple[NetworkEvent, ...]:
        """Consume one request ordinal for ``node``; return striking events."""
        ordinal = self._requests.get(node, 0)
        self._requests[node] = ordinal + 1
        struck = []
        for event in self.plan.events:
            if not isinstance(event, NetworkEvent) or event.node != node:
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
    ``flush()``, if it has one, which delivers every record already
    produced (a fleet node posts its pending batch; a pool worker needs
    none, as its pipe writes have landed by the time they return) — the
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
