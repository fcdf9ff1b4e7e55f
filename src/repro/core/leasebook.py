"""The campaign scheduler: one I/O-free lease book per campaign.

Every execution topology — the in-process loop (``workers=1``), the
persistent process pool and the HTTP fleet coordinator — drives the same
:class:`LeaseBook`.  The book owns all scheduling decisions; a transport
only moves indices out to whoever evaluates them and feeds what comes
back (records, baselines, completions, failures) into the book.

Lease lifecycle (one lease = one shard of trial indices)::

              grant                  complete (all records in)
    WAITING ---------> RUNNING ---------------------------------> DONE
       ^                  |
       |   fail: error,   |   retries left: wait backoff_delay(...)
       |   dead, hung,    |
       +------------------+
                          |   retries exhausted
                          +---------------------------------> POISON
                                (raise, or quarantine and keep going)

* A lease is served by one attempt at a time, fenced by the token
  ``(lease_id, attempt)`` (``attempt`` is 0 for the first service).  A
  stale token never changes lease state: completions, failures and
  heartbeats from a reclaimed attempt are ignored.
* Records are deterministic and keyed by trial index, so they merge from
  **any** attempt, even a reclaimed one.  A batch is validated as a whole
  (every index an ``int`` inside the campaign's index space) before any
  of it merges; identical duplicates collapse, while a *conflicting*
  duplicate breaks the ``(seed, index)`` purity of trials and raises
  :class:`DeterminismError`.
* A re-leased shard re-runs only its remaining indices, after
  :func:`backoff_delay`; after ``max_retries`` re-attempts it turns
  poison and is either raised (:class:`PoisonShardError`) or quarantined
  into the :class:`RecoveryLog`.

Rounds.  The trial index space is executed in rounds: an adaptive plan
(:class:`~repro.core.stats.AdaptiveCampaignPlan`) supplies its round
bounds, and a fixed-budget campaign is a single round.  The next round's
leases open only at the round barrier — every lease of the current round
settled — and only if the plan's stopping rule, a pure function of the
complete rounds' records, says to continue.  The same barrier replays
the rule over the records a resumed campaign starts with, so a resumed
campaign stops at exactly the round an uninterrupted one would.  A round
left with holes by a quarantined poison lease ends the campaign at its
last complete round.  A campaign with nothing to evaluate and no known
baseline (a zero-trial scenario) still gets one empty lease, whose only
job is to report the baseline accuracy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

from repro.utils.logging import get_logger
from repro.utils.telemetry import TELEMETRY

logger = get_logger(__name__)

#: Ceiling on one exponential-backoff wait between lease attempts.
BACKOFF_CAP = 30.0


def backoff_delay(backoff: float, retries_used: int) -> float:
    """Exponential backoff before re-attempt ``retries_used + 1`` (capped)."""
    if not backoff:
        return 0.0
    return min(backoff * (2 ** retries_used), BACKOFF_CAP)


def _reason_line(reason: str) -> str:
    """A failure reason in one line: its first line joined to its last
    non-empty line, which for a traceback is the exception raised."""
    lines = [line.strip() for line in reason.splitlines() if line.strip()]
    return f"{lines[0]} {lines[-1]}" if len(lines) > 1 else "".join(lines)


class LeaseState(Enum):
    RUNNING = "running"
    #: Opened or reclaimed; waiting for (the backoff before) its next attempt.
    WAITING = "waiting"
    DONE = "done"
    POISON = "poison"


@dataclass
class ShardLease:
    """One shard of trial indices and its execution state."""

    lease_id: int
    indices: list[int]
    #: Indices not yet merged as records (shrinks across attempts, so a
    #: re-leased shard re-runs only what its failed attempt left behind).
    remaining: set[int] = field(default_factory=set)
    #: Attempts started so far (the current token's attempt is this - 1).
    attempt: int = 0
    state: LeaseState = LeaseState.WAITING
    #: Token of the current attempt (matches the tag on worker messages).
    token: tuple[int, int] | None = None
    last_progress: float = 0.0
    #: Earliest clock time the next attempt may start (backoff).
    retry_at: float = 0.0
    #: One entry per failed attempt: what went wrong (traceback or reason).
    failures: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.remaining:
            self.remaining = set(self.indices)


class PoisonShardError(RuntimeError):
    """A lease exhausted its retries under ``poison_policy="raise"``."""

    def __init__(self, lease: ShardLease, where: str = ""):
        self.lease = lease
        detail = lease.failures[-1] if lease.failures else "unknown failure"
        super().__init__(
            f"lease {lease.lease_id}{where} failed {lease.attempt} attempt(s) "
            f"({len(lease.remaining)} of {len(lease.indices)} trial(s) unfinished); "
            f"completed trials are kept (a checkpointed campaign resumes with "
            f"resume=True).  Last failure:\n{detail}"
        )


class DeterminismError(RuntimeError):
    """Two evaluations of the same campaign disagreed (baseline or record)."""


@dataclass
class RecoveryLog:
    """Counters and provenance of everything the scheduler had to heal."""

    leases: int = 0
    attempts: int = 0
    reclaimed: int = 0
    dead_workers: int = 0
    hung_workers: int = 0
    worker_errors: int = 0
    poison: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "leases": self.leases,
            "attempts": self.attempts,
            "reclaimed": self.reclaimed,
            "dead_workers": self.dead_workers,
            "hung_workers": self.hung_workers,
            "worker_errors": self.worker_errors,
            "poison_shards": list(self.poison),
        }


class LeaseBook:
    """Lease, record and round state of one campaign; performs no I/O.

    Parameters
    ----------
    total_trials:
        Size of the strategy's trial index space; records must carry an
        index in ``[0, total_trials)``.
    plan:
        Adaptive stopping plan, or ``None`` for one fixed-budget round.
    records, baseline, ips:
        What a resumed campaign already holds (checkpoint records, header
        baseline accuracy and emulated inferences per second).
    split:
        ``split(indices) -> shards``: how a round's pending indices are cut
        into leases (round-robin per pool slot, contiguous per fleet lease).
    lease_id:
        ``lease_id(position) -> id`` for the shard at ``position`` of an
        opened round.  The default reuses ids ``0..n-1`` every round, so
        lease ``w`` always runs on pool slot ``w``; the fleet hands out ids
        that are unique across its whole job.
    max_retries, backoff, poison_policy:
        Re-attempts before a lease turns poison, the base of the
        exponential backoff between attempts, and whether poison raises
        or is quarantined.
    recovery:
        Shared :class:`RecoveryLog` (one per fleet job); a fresh one if
        omitted.
    tags:
        Extra fields for every ``lease.*`` telemetry event (e.g. the job).
    scenario:
        Scenario id named in log lines and poison entries (fleet jobs).
    """

    def __init__(
        self,
        total_trials: int,
        *,
        plan=None,
        records: dict | None = None,
        baseline: float | None = None,
        ips: float | None = None,
        split: Callable[[list[int]], list[list[int]]] = lambda indices: [indices],
        lease_id: Callable[[int], int] = lambda position: position,
        max_retries: int = 2,
        backoff: float = 0.25,
        poison_policy: str = "raise",
        clock: Callable[[], float] = time.monotonic,
        recovery: RecoveryLog | None = None,
        tags: dict | None = None,
        scenario: str | None = None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff < 0:
            raise ValueError("retry backoff must be >= 0")
        if poison_policy not in ("raise", "quarantine"):
            raise ValueError(
                f"poison_policy must be 'raise' or 'quarantine', got {poison_policy!r}"
            )
        self.total_trials = total_trials
        self.plan = plan
        self.budget = plan.budget(total_trials) if plan is not None else total_trials
        self.bounds = plan.round_bounds(self.budget) if plan is not None else [(0, total_trials)]
        self.records = dict(records or {})
        self.baseline = baseline
        self.ips = ips
        self.split = split
        self.lease_id = lease_id
        self.max_retries = max_retries
        self.backoff = backoff
        self.poison_policy = poison_policy
        self.clock = clock
        self.recovery = recovery if recovery is not None else RecoveryLog()
        self.tags = dict(tags or {})
        self.scenario = scenario
        #: Leases of the current round (or of the baseline-only lease).
        self.leases: dict[int, ShardLease] = {}
        #: Which current lease owns each of its trial indices.
        self._owner: dict[int, ShardLease] = {}
        #: Whether any lease was ever opened (else a baseline-only lease is due).
        self._opened = False
        self.completed_rounds = 0
        #: Trial-index bound of the complete rounds so far.
        self.stop_end = 0
        self.done = False
        self._advance()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def due(self) -> list[ShardLease]:
        """WAITING leases whose backoff has elapsed, in lease-id order."""
        now = self.clock()
        return [
            lease for _, lease in sorted(self.leases.items())
            if lease.state is LeaseState.WAITING and now >= lease.retry_at
        ]

    def current(self, lease_id: int, attempt: int) -> ShardLease | None:
        """The RUNNING lease that token ``(lease_id, attempt)`` still owns."""
        lease = self.leases.get(lease_id)
        if lease is None or lease.state is not LeaseState.RUNNING:
            return None
        return lease if lease.token == (lease_id, attempt) else None

    def silent(self, timeout: float) -> list[ShardLease]:
        """RUNNING leases with no progress for longer than ``timeout``."""
        now = self.clock()
        return [
            lease for lease in self.leases.values()
            if lease.state is LeaseState.RUNNING and now - lease.last_progress > timeout
        ]

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def grant(self, lease: ShardLease) -> tuple[int, int]:
        """Start the next attempt of a due lease; returns its token."""
        if lease.attempt:
            logger.info(
                "re-leasing shard %d (attempt %d, %d trial(s) remaining)",
                lease.lease_id, lease.attempt + 1, len(lease.remaining),
            )
        lease.attempt += 1
        self.recovery.attempts += 1
        lease.token = (lease.lease_id, lease.attempt - 1)
        lease.state = LeaseState.RUNNING
        lease.last_progress = self.clock()
        TELEMETRY.event(
            "lease.launch", **self.tags, lease=lease.lease_id, attempt=lease.attempt,
            remaining=len(lease.remaining),
        )
        return lease.token

    def touch(self, lease_id: int, attempt: int) -> bool:
        """Progress (heartbeat, record or baseline) from a token; True if current."""
        lease = self.current(lease_id, attempt)
        if lease is not None:
            lease.last_progress = self.clock()
        return lease is not None

    def merge_meta(self, baseline: float, ips: float | None) -> None:
        """Adopt (or cross-check) the baseline accuracy an evaluator reported."""
        if self.baseline is None:
            self.baseline = baseline
        elif baseline != self.baseline:
            raise DeterminismError(
                f"baseline accuracy {baseline!r}{self._of()} disagrees with "
                f"{self.baseline!r}; the platform or dataset is not deterministic, "
                "so campaign records would not be reproducible"
            )
        if self.ips is None:
            self.ips = ips

    def merge(self, records: Iterable) -> list:
        """Merge a record batch, all or nothing; returns the new records.

        Raises :class:`ValueError` (nothing merged) for a record outside
        the index space and :class:`DeterminismError` for a conflicting
        duplicate.
        """
        batch: dict[int, object] = {}
        for record in records:
            index = record.trial_index
            if not isinstance(index, int) or isinstance(index, bool) or not (
                0 <= index < self.total_trials
            ):
                raise ValueError(
                    f"trial_index {index!r} is outside the campaign's index space "
                    f"[0, {self.total_trials})"
                )
            known = self.records.get(index, batch.get(index))
            if known is not None and known != record:
                raise DeterminismError(
                    f"trial {index}{self._of()} was reported twice with different "
                    "contents; trials are pure functions of (seed, index), so "
                    "conflicting duplicates mean the records cannot be trusted"
                )
            if index not in self.records:
                batch[index] = record
        for index, record in batch.items():
            self.records[index] = record
            owner = self._owner.get(index)
            if owner is not None:
                owner.remaining.discard(index)
        return list(batch.values())

    def complete(self, lease_id: int, attempt: int) -> bool:
        """The attempt reports its shard finished; True if the lease is DONE."""
        lease = self.current(lease_id, attempt)
        if lease is None:
            return False
        if lease.remaining:
            # Transports deliver an attempt's records before its completion,
            # so trials still unaccounted for were genuinely never run.
            self.fail(
                lease_id, attempt,
                f"lease {lease_id} completed with {len(lease.remaining)} "
                f"trial(s) unaccounted for",
            )
            return False
        lease.state = LeaseState.DONE
        TELEMETRY.event("lease.done", **self.tags, lease=lease_id, attempt=lease.attempt)
        self._settle()
        return True

    def fail(self, lease_id: int, attempt: int, reason: str, cause: str | None = None) -> bool:
        """Reclaim the attempt's lease (or poison it); False for a stale token.

        ``cause`` names the :class:`RecoveryLog` counter the failure is
        charged to: ``worker_errors``, ``dead_workers`` or ``hung_workers``.
        """
        lease = self.current(lease_id, attempt)
        if lease is None:
            return False
        if cause is not None:
            setattr(self.recovery, cause, getattr(self.recovery, cause) + 1)
        lease.failures.append(reason)
        retries_used = lease.attempt - 1
        if retries_used >= self.max_retries:
            self._poison(lease)
            return True
        self.recovery.reclaimed += 1
        wait = backoff_delay(self.backoff, retries_used)
        lease.state = LeaseState.WAITING
        lease.retry_at = self.clock() + wait
        summary = _reason_line(reason)
        TELEMETRY.event(
            "lease.reclaim", **self.tags, lease=lease_id, attempt=lease.attempt,
            remaining=len(lease.remaining), reason=summary, backoff_seconds=wait,
        )
        logger.warning(
            "lease %d%s failed (attempt %d/%d): %s; retrying in %.2fs",
            lease_id, self._of(), lease.attempt, self.max_retries + 1, summary, wait,
        )
        return True

    # ------------------------------------------------------------------
    # Poison, settlement and round barriers
    # ------------------------------------------------------------------
    def _poison(self, lease: ShardLease) -> None:
        lease.state = LeaseState.POISON
        TELEMETRY.event(
            "lease.poison", **self.tags, lease=lease.lease_id, attempts=lease.attempt,
            unfinished=len(lease.remaining),
        )
        entry = {"lease": lease.lease_id}
        if self.scenario is not None:
            entry["scenario"] = self.scenario
        entry.update(
            indices=sorted(lease.indices),
            unfinished=sorted(lease.remaining),
            attempts=lease.attempt,
            failures=list(lease.failures),
        )
        self.recovery.poison.append(entry)
        if self.poison_policy == "raise":
            raise PoisonShardError(lease, self._of())
        logger.error(
            "lease %d%s quarantined as poison after %d attempt(s); %d trial(s) unfinished",
            lease.lease_id, self._of(), lease.attempt, len(lease.remaining),
        )
        self._settle()

    def _settle(self) -> None:
        if not any(
            lease.state in (LeaseState.RUNNING, LeaseState.WAITING)
            for lease in self.leases.values()
        ):
            self._advance()

    def _advance(self) -> None:
        """Pass every round barrier the merged records allow, then open the
        next round's leases or finish the campaign."""
        while self.completed_rounds < len(self.bounds):
            start, end = self.bounds[self.completed_rounds]
            missing = [index for index in range(start, end) if index not in self.records]
            if missing and not self.leases:
                self._open(missing)
                return
            if missing:
                # Quarantined poison left holes: the stopping rule is a pure
                # function of *complete* rounds, so the campaign ends at the
                # last full barrier.
                if self.plan is not None:
                    logger.error(
                        "%sround %d is missing %d trial(s) from poison lease(s); "
                        "stopping after round %d",
                        self._prefix(), self.completed_rounds + 1, len(missing),
                        self.completed_rounds,
                    )
                break
            self.completed_rounds += 1
            self.stop_end = end
            self.leases = {}
            if self.plan is not None and self.plan.should_stop(
                self.completed_rounds, [self.records[index] for index in range(end)]
            ):
                break
        else:
            if self.baseline is None and not self._opened:
                self._open([])
                return
        self.done = True
        logger.info("%scomplete: %d record(s)", self._prefix(), len(self.records))

    def _open(self, indices: list[int]) -> None:
        self.leases, self._owner = {}, {}
        shards = self.split(indices) or [[]]
        for position, shard in enumerate(shards):
            lease = ShardLease(self.lease_id(position), list(shard))
            self.leases[lease.lease_id] = lease
            self._owner.update((index, lease) for index in shard)
        if len(self.leases) != len(shards):
            raise ValueError("lease ids must be unique")
        self._opened = True
        self.recovery.leases += len(self.leases)

    # ------------------------------------------------------------------
    # Log text
    # ------------------------------------------------------------------
    def _of(self) -> str:
        return f" of scenario {self.scenario}" if self.scenario is not None else ""

    def _prefix(self) -> str:
        return f"scenario {self.scenario}: " if self.scenario is not None else "campaign: "
