"""Parallel, resumable fault-injection campaign execution.

Campaign trials are embarrassingly parallel: each one evaluates an
independent :class:`~repro.faults.injector.InjectionConfig` on the same
frozen platform.  This module shards the trial index space of an indexable
:class:`~repro.core.strategies.InjectionStrategy` across a pool of worker
processes and guarantees that the resulting
:class:`~repro.core.results.CampaignResult` records are **identical to the
serial run** for any worker count and across interrupt/resume:

* Trial *i* is a pure function of ``(seed, i)`` — strategies derive all
  randomness from :meth:`SeededRNG.child <repro.utils.rng.SeededRNG.child>`
  streams keyed by the trial's own coordinates, never from iteration order.
* Sharding is deterministic: worker ``w`` of ``N`` evaluates the pending
  indices ``pending[w::N]`` of each round (round-robin, so structured
  strategies spread evenly).  Because records are keyed by trial index,
  the assignment cannot influence the result, only the wall-clock balance.
* Each worker warms up one :class:`TrialServer` from a picklable
  :class:`PlatformSpec` and streams one record per finished trial back to
  the parent, which appends it to a JSONL checkpoint file.

One :class:`TrialServer` turns a platform recipe into records for every
transport — the in-process loop, each pool worker and each fleet node
(:mod:`repro.service.worker`) — and :func:`campaign_result` and
:func:`checkpoint_header_line` turn a finished lease book into the
campaign's result and checkpoint header, for the local runner and the
fleet coordinator (:mod:`repro.service.jobs`) alike.

Checkpoint format (one JSON object per line)::

    {"kind": "header", "version": 1, "strategy": ..., "seed": ...,
     "num_images": ..., "total_trials": ..., "batch_size": ...,
     "baseline_accuracy": ..., "emulated_inferences_per_second": ...}
    {"kind": "record", "trial_index": 0, "description": ..., ...}
    {"kind": "record", "trial_index": 3, ...}

Records may appear in any order (workers finish out of order) and the file
tolerates a torn final line (a run killed mid-write), corrupted mid-file
lines (skipped and counted) and duplicate records from re-leased shards
(collapsed by trial index).  ``resume=True`` loads the completed trial
indices, validates the header against the requested campaign, and evaluates
only the remainder.

Execution is supervised, not fail-fast.  One
:class:`~repro.core.leasebook.LeaseBook` schedules every campaign — a
fixed-budget campaign is a single round — and a transport drives it: an
in-process loop for ``workers=1`` and a :class:`WorkerPool` of persistent
worker processes otherwise, which detects dead and hung workers and lets
the book re-lease their remaining trials with bounded retries or
quarantine (or raise on) shards that keep failing.  See
:mod:`repro.core.chaos` for the deterministic fault harness that proves
recovered runs stay byte-identical.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import queue as queue_module
import signal
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from repro.core.campaign import CampaignConfig
from repro.core.chaos import ChaosMonkey
from repro.core.platform import EmulationPlatform, PlatformConfig
from repro.core.results import CampaignResult, TrialRecord
from repro.core.stats import AdaptiveCampaignPlan
from repro.core.strategies import InjectionStrategy, StrategyTrial
from repro.core.leasebook import LeaseBook, ShardLease
from repro.faults.sites import FaultUniverse
from repro.runtime.gemm import GEMM_STATS
from repro.utils.durable import fsync_fileobj
from repro.utils.logging import get_logger
from repro.utils.telemetry import TELEMETRY
from repro.utils.rng import SeededRNG

logger = get_logger(__name__)

#: Version tag written into checkpoint headers.
CHECKPOINT_VERSION = 1

#: Default result-queue poll interval when no hang deadline bounds it.
DEFAULT_POLL = 0.5

#: Trials :meth:`TrialServer.records` hands the platform per call: the
#: records of one call reach the checkpoint and the result queue together.
TRIALS_PER_CALL = 8


@dataclass(frozen=True)
class CampaignIdentity:
    """The fields that name a campaign in its checkpoint header.

    A resumed checkpoint must match every one of them (and the adaptive
    plan).  ``batch_size`` is part of the identity because cycle-dependent
    fault models (per-cycle transients) derive their firing pattern from
    each sample's position within its evaluation batch chunk — resuming
    under a different batch size would silently mix records computed under
    different effective fault behaviour.
    """

    strategy: str
    seed: int
    num_images: int
    total_trials: int | None
    batch_size: int


def checkpoint_header_line(campaign: CampaignIdentity, book: LeaseBook) -> str:
    """The canonical JSONL header line of a campaign checkpoint.

    Byte-identity of checkpoints is an invariant across *execution
    topologies*: the serial runner, the multiprocessing pool and the fleet
    coordinator (:mod:`repro.service.jobs`) all write their headers here.
    """
    payload: dict = {
        "kind": "header",
        "version": CHECKPOINT_VERSION,
        **asdict(campaign),
        "baseline_accuracy": book.baseline,
        "emulated_inferences_per_second": book.ips,
    }
    if book.plan is not None:
        payload["plan"] = book.plan.to_dict()
    return json.dumps(payload) + "\n"


def checkpoint_record_line(record: TrialRecord) -> str:
    """The canonical JSONL line of one trial record (see header note)."""
    return json.dumps({"kind": "record", **record.to_dict()}) + "\n"


def campaign_result(campaign: CampaignIdentity, book: LeaseBook) -> CampaignResult:
    """The result of a finished book, for every transport.

    A fixed-budget campaign keeps every merged record; an adaptive one
    keeps exactly the complete rounds up to its stopping barrier — records
    a round left incomplete (by a quarantined poison lease) never count.
    """
    if book.baseline is None:
        # No evaluator survived long enough to report a baseline (every
        # lease quarantined before its first report) and no checkpoint
        # header carried one either.
        raise RuntimeError("campaign finished without establishing a baseline accuracy")
    result = CampaignResult(
        baseline_accuracy=book.baseline,
        strategy=campaign.strategy,
        num_images=campaign.num_images,
        seed=campaign.seed,
        emulated_inferences_per_second=book.ips,
    )
    plan = book.plan
    if plan is None:
        result.records = [book.records[index] for index in sorted(book.records)]
        return result
    result.records = [book.records[index] for index in range(book.stop_end)]
    interval = plan.interval(result.records)
    result.adaptive = {
        "plan": plan.to_dict(),
        "budget": book.budget,
        "rounds_completed": book.completed_rounds,
        "trials_evaluated": book.stop_end,
        "stopped_early": book.stop_end < book.budget,
        "final_half_width": interval.half_width if interval is not None else None,
        "final_interval": interval.to_dict() if interval is not None else None,
    }
    return result


# ----------------------------------------------------------------------
# Platform specification (picklable platform recipe for workers)
# ----------------------------------------------------------------------
@dataclass
class PlatformSpec:
    """A picklable recipe from which a worker process builds its platform.

    :class:`~repro.core.platform.EmulationPlatform` itself holds compiled
    loadables, open runtimes and other state that should not cross process
    boundaries; a spec instead carries the trained weights plus everything
    needed to rebuild the platform deterministically.

    Attributes
    ----------
    graph_builder:
        Module-level callable returning the (untrained) model graph; must be
        picklable, i.e. importable by name in the worker process.
    builder_kwargs:
        Keyword arguments for ``graph_builder``.
    state:
        Trained weights, as produced by ``Graph.state_dict()``.
    calibration_images:
        Calibration batch used to quantise the model at build time.
    platform_config:
        Optional :class:`~repro.core.platform.PlatformConfig`; workers and
        the parent must share it for results to be identical.
    """

    graph_builder: Callable
    builder_kwargs: dict
    state: dict[str, np.ndarray]
    calibration_images: np.ndarray
    platform_config: PlatformConfig | None = None

    def geometry(self):
        return (self.platform_config or PlatformConfig()).geometry

    def universe(self) -> FaultUniverse:
        """The fault universe of the platform this spec builds."""
        geometry = self.geometry()
        return FaultUniverse(geometry.num_macs, geometry.muls_per_mac)

    def build(self) -> EmulationPlatform:
        """Construct the platform (expensive: compiles and calibrates)."""
        graph = self.graph_builder(**self.builder_kwargs)
        graph.load_state_dict(self.state)
        graph.eval()
        return EmulationPlatform(graph, self.calibration_images, config=self.platform_config)


# ----------------------------------------------------------------------
# Checkpoint I/O
# ----------------------------------------------------------------------
def load_checkpoint(
    path: Path | str,
) -> tuple[dict | None, dict[int, TrialRecord], dict[str, int]]:
    """Read a JSONL checkpoint, returning ``(header, records_by_index, stats)``.

    Crash-safe: tolerates a torn final line, corrupted mid-file lines
    (bit-rot, a write torn by a kill anywhere in the file) and duplicate
    records from re-leased shards — a worker that delivered a record and
    then died leaves the record in the file, and the shard's re-run appends
    it again.  Duplicates collapse by trial index; since trials are pure
    functions of ``(seed, index)``, duplicate entries that *disagree* mean
    the determinism invariant is broken and raise instead of being silently
    merged.  ``stats`` counts what was healed: ``corrupt_lines``,
    ``duplicate_records`` and ``unknown_lines``.
    """
    header: dict | None = None
    records: dict[int, TrialRecord] = {}
    stats = {"corrupt_lines": 0, "duplicate_records": 0, "unknown_lines": 0}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            logger.warning("checkpoint %s: skipping corrupt line %d", path, lineno)
            stats["corrupt_lines"] += 1
            continue
        if not isinstance(data, dict):
            logger.warning(
                "checkpoint %s: skipping non-object line %d (%s)",
                path, lineno, type(data).__name__,
            )
            stats["corrupt_lines"] += 1
            continue
        kind = data.pop("kind", None)
        if kind == "header":
            if header is None:
                header = data
        elif kind == "record":
            try:
                record = TrialRecord.from_dict(data)
            except ValueError as exc:
                logger.warning(
                    "checkpoint %s: skipping malformed record on line %d (%s)",
                    path, lineno, exc,
                )
                stats["corrupt_lines"] += 1
                continue
            existing = records.get(record.trial_index)
            if existing is None:
                records[record.trial_index] = record
            elif existing == record:
                stats["duplicate_records"] += 1
            else:
                raise ValueError(
                    f"checkpoint {path}: line {lineno} repeats trial "
                    f"{record.trial_index} with different contents; trials are "
                    "pure functions of (seed, index), so conflicting duplicates "
                    "mean the records cannot be trusted — delete the checkpoint "
                    "and re-run"
                )
        else:
            logger.warning("checkpoint %s: skipping unknown line kind %r", path, kind)
            stats["unknown_lines"] += 1
    if stats["corrupt_lines"] or stats["duplicate_records"]:
        logger.info(
            "checkpoint %s: healed %d corrupt line(s), collapsed %d duplicate record(s)",
            path, stats["corrupt_lines"], stats["duplicate_records"],
        )
    return header, records, stats


def shard_indices(indices: Sequence[int], workers: int) -> list[list[int]]:
    """Deterministic round-robin partition of ``indices`` across ``workers``.

    Every index appears in exactly one shard; empty shards are dropped.
    Round-robin interleaving spreads structured strategies (e.g. the
    exhaustive sweep's per-value blocks) evenly across workers.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    shards = [list(indices[w::workers]) for w in range(workers)]
    return [shard for shard in shards if shard]


# ----------------------------------------------------------------------
# The trial server: from a platform recipe to records, for every transport
# ----------------------------------------------------------------------
class TrialServer:
    """One warmed-up platform serving trial records to any transport.

    The in-process loop, every pool worker and every fleet node evaluate
    trials through this class and nothing else, so records are
    bit-identical by construction whatever host drives them.  Building
    one is the whole warm-up: build the platform from its
    :class:`PlatformSpec` (or take a built one), start a fresh clean-state
    tape, and run the baseline pass, which records the tape.  Then
    :meth:`records` evaluates any list of trial indices.

    A transport owns only its wire: where indices come from, where
    records and the ``(baseline, ips)`` report go, and how a
    :class:`~repro.core.chaos.ChaosMonkey` flushes and stops.
    """

    def __init__(
        self,
        platform_or_spec: EmulationPlatform | PlatformSpec,
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int,
    ):
        self._gemm_before = GEMM_STATS.as_dict()
        self._stages_before = TELEMETRY.stage_totals()
        if isinstance(platform_or_spec, PlatformSpec):
            platform_or_spec = platform_or_spec.build()
        self.platform: EmulationPlatform = platform_or_spec
        # Fresh tape per server: deterministic memory profile, and reused
        # platforms (serial campaigns) don't carry entries across campaigns.
        self.platform.reset_caches()
        self.images = images
        self.labels = labels
        self.baseline = self.platform.baseline_accuracy(images, labels, batch_size=batch_size)
        self.ips = self.platform.inferences_per_second()

    def trial_source(self, strategy: InjectionStrategy, seed: int):
        """``(trial_at(index), total_trials)`` of ``strategy`` on this platform.

        A strategy that implements only ``trials()`` is enumerated once up
        front, so it runs through the same index-keyed book as the rest.
        """
        universe = self.platform.universe
        rng = SeededRNG(seed)
        if strategy.supports_random_access:
            return (
                lambda index: strategy.trial_at(universe, rng, index),
                strategy.expected_trials(universe),
            )
        trials = list(strategy.trials(universe, rng))
        return trials.__getitem__, len(trials)

    def records(
        self,
        indices: Sequence[int],
        trial_at: Callable[[int], StrategyTrial],
        config: CampaignConfig,
        monkey: ChaosMonkey | None = None,
    ) -> Iterator[TrialRecord]:
        """Yield the records of ``indices`` in order.

        Consecutive trials go to
        :meth:`EmulationPlatform.accuracies_with_faults`
        :data:`TRIALS_PER_CALL` at a time; the platform decides which of
        them share an engine pass.  Records are bit-identical to per-trial
        evaluation, so sharding, resuming and fusing compose freely.
        ``monkey`` strikes after each yielded record.
        """
        pairs = [(index, trial_at(index)) for index in indices]
        for start in range(0, len(pairs), TRIALS_PER_CALL):
            chunk = pairs[start : start + TRIALS_PER_CALL]
            accuracies = self.platform.accuracies_with_faults(
                [trial.config for _, trial in chunk],
                self.images, self.labels, batch_size=config.batch_size,
            )
            for (index, trial), accuracy in zip(chunk, accuracies):
                yield TrialRecord(
                    trial_index=index,
                    description=trial.config.describe(),
                    num_faults=trial.num_faults,
                    injected_value=trial.injected_value,
                    mac_unit=trial.mac_unit,
                    multiplier=trial.multiplier,
                    accuracy=accuracy,
                    accuracy_drop=self.baseline - accuracy,
                    metadata=dict(trial.metadata),
                )
                if monkey is not None:
                    monkey.record_emitted()

    def stats(self) -> dict:
        """Execution statistics since the server was built, for aggregation.

        The GEMM counters and stage totals are process-global and only
        grow, so each server reports its own share as a delta.
        """
        stages = _since(TELEMETRY.stage_totals(), self._stages_before)
        return {
            "gemm": _since(GEMM_STATS.as_dict(), self._gemm_before),
            "tape": self.platform.tape_stats(),
            "profile": {stage: entry for stage, entry in stages.items() if entry["calls"]},
        }


def _since(now: dict, before: dict) -> dict:
    """``now - before`` leaf by leaf for (nested) counter dicts."""
    return {
        key: _since(value, before.get(key, {})) if isinstance(value, dict)
        else value - before.get(key, 0)
        for key, value in now.items()
    }


def _sum_leaves(parts: list[dict]) -> dict:
    """Sum the numeric leaves of (nested) counter dicts.

    Booleans and ``*_rate`` values are dropped: they do not add.
    """
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, dict):
                total[key] = _sum_leaves([total.get(key, {}), value])
            elif isinstance(value, (int, float)) and not isinstance(value, bool) \
                    and not key.endswith("_rate"):
                total[key] = total.get(key, 0) + value
    return total


def merge_runtime_stats(parts: Sequence[dict | None], workers: int) -> dict | None:
    """Merge runtime-stats payloads into one ``CampaignResult.runtime_stats``.

    A part is either one process's :meth:`TrialServer.stats` or an already
    merged ``runtime_stats`` (one per scenario of a sweep).  ``gemm``,
    ``tape`` and ``profile`` sum leaf by leaf, ``processes`` counts the
    processes behind every part, and the tape hit rate is recomputed from
    the summed counters.
    """
    parts = [part for part in parts if part]
    if not parts:
        return None
    merged: dict = {
        "processes": sum(part.get("processes", 1) for part in parts),
        "workers": workers,
    }
    for group in ("gemm", "tape", "profile"):
        present = [part[group] for part in parts if part.get(group) is not None]
        merged[group] = _sum_leaves(present) if present else None
    tape = merged["tape"]
    if tape is not None:
        layers = tape.get("layer_hits", 0) + tape.get("layer_misses", 0)
        tape["layer_hit_rate"] = (tape.get("layer_hits", 0) / layers) if layers else 0.0
    return merged


def _worker_setup() -> None:
    """Reset per-process state a forked worker inherited from the parent."""
    # Ctrl-C belongs to the parent: it terminates the pool, flushes the
    # checkpoint and prints a resume hint.  Workers reacting to the terminal's
    # SIGINT on their own would just spray KeyboardInterrupt tracebacks over
    # that one-line message.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # The parent may have installed a raising SIGTERM handler (graceful
        # CLI termination with a resume hint); forked workers inherit it,
        # but for them SIGTERM is the pool's terminate_process() and
        # must keep its default kill semantics.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # pragma: no cover - non-main-thread start methods
        pass
    # The parent's telemetry sink (if --trace armed one) was inherited
    # across fork; workers must not write to the shared file descriptor.
    TELEMETRY.disable_inherited()


def _round_worker(
    token: tuple[int, int],
    spec: PlatformSpec,
    strategy: InjectionStrategy,
    config: CampaignConfig,
    images: np.ndarray,
    labels: np.ndarray,
    tasks: mp.Queue,
    results: mp.Queue,
) -> None:
    """Worker entry point: warm up one trial server, then serve leases.

    Serves index lists from ``tasks`` until the ``None`` sentinel arrives;
    a ``round-done`` message completes each one.  Workers stay alive
    between leases, so an adaptive campaign's later rounds reuse the
    built platform.

    ``token`` is ``(pool slot, epoch)``: the epoch bumps every time the
    slot's process is respawned after a failure, so a terminated worker's
    late lifecycle messages can never complete a later epoch's lease.
    ``images`` and ``labels`` arrive with the process: fork shares the
    parent's pages, and spawn pickles them.
    """

    def flush() -> None:
        # Push every queued message through the pipe to the parent.
        results.close()
        results.join_thread()

    try:
        _worker_setup()
        monkey = ChaosMonkey(config.chaos, *token, flush=flush)
        server = TrialServer(spec, images, labels, config.batch_size)
        results.put(("meta", token, (server.baseline, server.ips)))
        monkey.on_record(0)
        trial_at, _ = server.trial_source(strategy, config.seed)
        while (indices := tasks.get()) is not None:
            for record in server.records(indices, trial_at, config, monkey):
                results.put(("record", token, record))
            results.put(("round-done", token, None))
        results.put(("stats", token, server.stats()))
        results.put(("done", token, None))
    except Exception:  # pragma: no cover - exercised via the parent's error path
        results.put(("error", token, traceback.format_exc()))


def terminate_process(proc, grace: float = 5.0) -> None:
    """Stop a worker process for good: terminate, then kill if it lingers."""
    if proc is None:
        return
    if proc.is_alive():
        proc.terminate()
        proc.join(grace)
        if proc.is_alive():  # pragma: no cover - SIGTERM normally suffices
            proc.kill()
            proc.join(grace)
    else:
        proc.join(grace)


@dataclass
class _PoolSlot:
    """One persistent worker slot; the epoch bumps on every respawn."""

    slot_id: int
    proc: object | None = None
    tasks: object | None = None
    epoch: int = -1
    #: Book token of the lease the slot is serving (``None`` when idle).
    token: tuple[int, int] | None = None


class WorkerPool:
    """The process-pool transport: persistent worker slots serving a book.

    Lease ``w`` always runs on slot ``w``, whose messages arrive on one
    shared ``results`` queue as ``(kind, (slot, epoch), payload)``.  The
    pool only moves messages and watches processes; every scheduling
    decision — fencing, merge, reclaim, backoff, poison, round barriers —
    is the :class:`~repro.core.leasebook.LeaseBook`'s.

    * Records and baselines merge from any epoch (they are deterministic
      and keyed by trial index); lifecycle messages (``round-done``,
      ``error``) count only from the epoch serving the slot's lease.
    * A slot whose process exited before completing its lease is reported
      **dead** — but only once the queue reads empty, so a worker's
      trailing messages are consumed first.
    * A lease with no progress (any message from its current attempt)
      for ``timeout`` seconds is **hung**: its worker is terminated.  The
      deadline bounds the gap between records, not shard duration, so
      size it as several multiples of the slowest trial group.

    ``start(slot, epoch) -> (proc, tasks)`` launches a slot's process.
    """

    def __init__(self, size: int, *, start, results, timeout: float | None = None):
        self.slots = [_PoolSlot(slot_id) for slot_id in range(size)]
        self.start = start
        self.results = results
        self.timeout = timeout
        #: Queue polls must wake often enough to notice a hang deadline.
        self.poll = min(DEFAULT_POLL, timeout / 4.0) if timeout else DEFAULT_POLL

    def serve(self, book: LeaseBook, sink: Callable[[str, object], None]) -> None:
        """Drive ``book`` until it is done; ``sink`` receives merged records,
        baseline reports and worker stats."""
        while not book.done:
            for lease in book.due():
                self._launch(book, lease)
            try:
                message = self.results.get(timeout=self.poll)
            except queue_module.Empty:
                self._scan(book, queue_drained=True)
                continue
            self._dispatch(book, message, sink)
            self._scan(book, queue_drained=False)

    def _launch(self, book: LeaseBook, lease: ShardLease) -> None:
        slot = self.slots[lease.lease_id]
        slot.token = book.grant(lease)
        if slot.proc is None or not slot.proc.is_alive():
            slot.epoch += 1
            slot.proc, slot.tasks = self.start(slot.slot_id, slot.epoch)
        slot.tasks.put(sorted(lease.remaining))

    def _dispatch(self, book: LeaseBook, message, sink) -> None:
        kind, (slot_id, epoch), payload = message
        slot = self.slots[slot_id]
        token = slot.token if epoch == slot.epoch else None
        if kind == "record":
            for record in book.merge([payload]):
                sink("record", record)
        elif kind == "meta":
            book.merge_meta(*payload)
            sink("meta", payload)
        elif kind == "stats":
            sink("stats", payload)
        if token is None:
            return  # an idle slot or a terminated epoch's straggler
        if kind in ("record", "meta"):
            book.touch(*token)
        elif kind == "error":
            # The worker returns right after reporting: let it exit on its
            # own.  A SIGTERM landing while its feeder thread still holds the
            # shared results queue's write lock would leave the lock taken,
            # and every later worker would block on its first message.
            slot.proc.join(5.0)
            self._fail(book, slot, f"worker raised:\n{payload}", "worker_errors")
        elif kind == "round-done":
            slot.token = None
            if not book.complete(*token):
                # The book reclaimed the lease, whose next attempt needs a
                # new epoch.  Retire this idle worker with the sentinel, as
                # shutdown does: a SIGTERM could land while its feeder thread
                # holds the shared results queue's lock (see the error path).
                # Kill it only if it lingers.
                slot.tasks.put(None)
                slot.proc.join(5.0)
                terminate_process(slot.proc)

    def _scan(self, book: LeaseBook, queue_drained: bool) -> None:
        hung = {lease.lease_id for lease in book.silent(self.timeout)} if self.timeout else ()
        for slot in self.slots:
            if slot.token is None:
                continue
            if not slot.proc.is_alive():
                if queue_drained:
                    self._fail(
                        book, slot,
                        f"worker process died with exit code {slot.proc.exitcode} "
                        f"before completing its lease",
                        "dead_workers",
                    )
            elif slot.token[0] in hung:
                logger.warning(
                    "lease %d: no progress for over %.1fs; terminating worker",
                    slot.token[0], self.timeout,
                )
                self._fail(
                    book, slot,
                    f"worker made no progress for {self.timeout}s "
                    f"(hung; terminated by the supervisor)",
                    "hung_workers",
                )

    def _fail(self, book: LeaseBook, slot: _PoolSlot, reason: str, cause: str) -> None:
        # The slot's worker is unusable: stop it, so the lease's next
        # attempt respawns the slot under a new epoch.
        token, slot.token = slot.token, None
        terminate_process(slot.proc)
        book.fail(*token, reason, cause)

    def shutdown(self, book: LeaseBook, sink, deadline: float = 30.0) -> None:
        """Retire surviving workers, collecting their final stats.

        Deadline-aware: a worker that dies or hangs *during shutdown*
        forfeits its stats (they are observational) instead of stalling
        the campaign.
        """
        waiting = set()
        for slot in self.slots:
            if slot.proc is not None and slot.proc.is_alive():
                slot.tasks.put(None)
                waiting.add(slot.slot_id)
        deadline_at = time.monotonic() + deadline
        while waiting and time.monotonic() < deadline_at:
            try:
                message = self.results.get(timeout=0.25)
            except queue_module.Empty:
                waiting -= {s.slot_id for s in self.slots if not s.proc.is_alive()}
                continue
            kind, (slot_id, epoch), _ = message
            if epoch != self.slots[slot_id].epoch:
                continue  # a terminated epoch's stragglers
            if kind == "done":
                waiting.discard(slot_id)
                self.slots[slot_id].proc.join()
            else:
                self._dispatch(book, message, sink)
        for slot in self.slots:
            if slot.slot_id in waiting:  # pragma: no cover - shutdown stall
                logger.warning(
                    "pool worker %d did not retire within %.0fs; terminating",
                    slot.slot_id, deadline,
                )

    def close(self) -> None:
        for slot in self.slots:
            terminate_process(slot.proc)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class ParallelCampaignRunner:
    """Executes a campaign's trials across a pool of worker processes.

    Serial execution (``workers=1``) is the special case used by
    :class:`~repro.core.campaign.FaultInjectionCampaign`; it accepts either
    an already-built :class:`~repro.core.platform.EmulationPlatform` or a
    :class:`PlatformSpec`.  Parallel execution requires a spec (platforms do
    not cross process boundaries) and a strategy that supports random trial
    access (:meth:`~repro.core.strategies.InjectionStrategy.trial_at`).

    Example
    -------
    ::

        spec, case = case_study_platform_spec()
        runner = ParallelCampaignRunner(
            spec, RandomMultipliers(), CampaignConfig(seed=0),
            workers=4, checkpoint="campaign.jsonl",
        )
        result = runner.run(images, labels)          # kill it mid-run, then:
        runner = ParallelCampaignRunner(..., resume=True)
        result = runner.run(images, labels)          # identical records
    """

    def __init__(
        self,
        platform_or_spec: EmulationPlatform | PlatformSpec,
        strategy: InjectionStrategy,
        config: CampaignConfig | None = None,
        *,
        workers: int = 1,
        checkpoint: Path | str | None = None,
        resume: bool = False,
        start_method: str | None = None,
        plan: AdaptiveCampaignPlan | None = None,
    ):
        if isinstance(platform_or_spec, PlatformSpec):
            self.spec: PlatformSpec | None = platform_or_spec
            self.platform: EmulationPlatform | None = None
        elif isinstance(platform_or_spec, EmulationPlatform):
            self.spec = None
            self.platform = platform_or_spec
        else:
            raise TypeError(
                f"expected EmulationPlatform or PlatformSpec, got {type(platform_or_spec).__name__}"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers > 1 and self.spec is None:
            raise ValueError(
                "parallel execution needs a picklable PlatformSpec; an "
                "EmulationPlatform cannot be shipped to worker processes"
            )
        if workers > 1 and not strategy.supports_random_access:
            raise TypeError(
                f"strategy {strategy.name!r} overrides only trials() and cannot be "
                "sharded; implement trial_at()/expected_trials() for parallel runs"
            )
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")
        if plan is not None and not strategy.supports_random_access:
            raise TypeError(
                f"adaptive campaigns evaluate the trial index space in rounds; "
                f"strategy {strategy.name!r} must implement trial_at()/expected_trials()"
            )
        self.plan = plan
        self.strategy = strategy
        self.config = config or CampaignConfig()
        self.workers = workers
        self.checkpoint = Path(checkpoint) if checkpoint is not None else None
        self.resume = resume
        self.start_method = start_method
        #: What load_checkpoint had to heal on resume (folded into the
        #: result's recovery provenance).
        self._checkpoint_stats: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, images: np.ndarray, labels: np.ndarray) -> CampaignResult:
        """Execute all (remaining) trials and return the merged result."""
        cfg = self.config
        if cfg.max_images is not None:
            images = images[: cfg.max_images]
            labels = labels[: cfg.max_images]
        if len(images) != len(labels):
            raise ValueError("images and labels must have the same length")
        if len(images) == 0:
            raise ValueError("campaign needs at least one evaluation image")

        campaign = CampaignIdentity(
            strategy=self.strategy.name,
            seed=cfg.seed,
            num_images=len(labels),
            total_trials=self._total_trials(),
            batch_size=cfg.batch_size,
        )
        header, completed = self._load_resume_state(campaign)
        start = time.perf_counter()
        with TELEMETRY.span(
            "campaign.run",
            strategy=type(self.strategy).__name__,
            workers=self.workers,
            resumed=len(completed),
        ) as span:
            result = self._execute(images, labels, campaign, header, completed)
            result.wall_seconds = time.perf_counter() - start
            result.sort_records()
            span["num_records"] = len(result)
        self._emit_runtime_telemetry(result)
        return result

    # ------------------------------------------------------------------
    # Resume / checkpoint plumbing
    # ------------------------------------------------------------------
    def _total_trials(self) -> int | None:
        universe = self.platform.universe if self.platform is not None else self.spec.universe()
        try:
            return self.strategy.expected_trials(universe)
        except NotImplementedError:
            return None

    def _load_resume_state(
        self, campaign: CampaignIdentity
    ) -> tuple[dict | None, dict[int, TrialRecord]]:
        """Load and validate the checkpoint; returns (header, completed records)."""
        if self.checkpoint is None or not self.checkpoint.exists():
            if self.resume and self.checkpoint is not None:
                logger.info("checkpoint %s does not exist yet; starting fresh", self.checkpoint)
            return None, {}
        if not self.resume:
            raise FileExistsError(
                f"checkpoint {self.checkpoint} already exists; pass resume=True "
                "(--resume) to continue it or delete it to start over"
            )
        header, completed, stats = load_checkpoint(self.checkpoint)
        self._checkpoint_stats = stats
        if header is None:
            if completed:
                # Never silently truncate completed work: a missing/corrupt
                # header with intact records needs a human decision.
                raise ValueError(
                    f"checkpoint {self.checkpoint} has {len(completed)} records but no "
                    "readable header; repair the header line or delete the file to start over"
                )
            logger.warning("checkpoint %s has no readable header; starting fresh", self.checkpoint)
            return None, {}
        expected = {
            **asdict(campaign),
            # The adaptive plan is campaign identity: it decides *which*
            # trials get evaluated (the stopping round), so resuming under a
            # different plan — or resuming a fixed-budget checkpoint
            # adaptively — would yield records a one-shot run of this
            # campaign could never produce.  Legacy checkpoints carry no
            # "plan" key, which get() maps to None = fixed-budget.
            "plan": self.plan.to_dict() if self.plan is not None else None,
        }
        for key, value in expected.items():
            if key == "batch_size" and key not in header:
                # Legacy checkpoint written before batch_size joined the
                # identity (i.e. before cycle-dependent fault models existed,
                # whose firing pattern is the reason it matters); accept it.
                continue
            if header.get(key) != value:
                raise ValueError(
                    f"checkpoint {self.checkpoint} belongs to a different campaign: "
                    f"{key}={header.get(key)!r} but this run has {key}={value!r}"
                )
        logger.info(
            "resuming from %s: %d/%s trials already complete",
            self.checkpoint,
            len(completed),
            header.get("total_trials", "?"),
        )
        return header, completed

    def _open_checkpoint(self, fresh: bool) -> IO[str] | None:
        if self.checkpoint is None:
            return None
        self.checkpoint.parent.mkdir(parents=True, exist_ok=True)
        if fresh:
            return self.checkpoint.open("w")
        writer = self.checkpoint.open("a")
        # A run killed mid-write can leave a torn final line with no trailing
        # newline; terminate it so appended records start on their own line
        # (the torn fragment itself is skipped by load_checkpoint).
        size = self.checkpoint.stat().st_size
        if size > 0:
            with self.checkpoint.open("rb") as handle:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    writer.write("\n")
        return writer

    @staticmethod
    def _write_line(writer: IO[str] | None, line: str) -> None:
        if writer is None:
            return
        writer.write(line)
        # fsync, not just flush: the checkpoint is what survives a node
        # power-loss, and a header that never reached stable storage makes
        # every following record unresumable.
        fsync_fileobj(writer)

    # ------------------------------------------------------------------
    # Runtime statistics (observational; never part of campaign identity)
    # ------------------------------------------------------------------
    @staticmethod
    def _emit_runtime_telemetry(result: CampaignResult) -> None:
        """Ship the aggregated kernel/tape counters and stage totals to the
        trace sink (a stage's ``seconds``/``calls`` as
        ``profile.<stage>.seconds``/``profile.<stage>.calls``).

        Purely observational (counter events never feed back into records);
        a single attribute check when tracing is off.
        """
        if not TELEMETRY.enabled:
            return
        stats = result.runtime_stats or {}
        for group in ("gemm", "tape", "profile"):
            counters = stats.get(group)
            if not counters:
                continue
            for key in sorted(counters):
                value = counters[key]
                if isinstance(value, dict):
                    for field in sorted(value):
                        TELEMETRY.counter(f"{group}.{key}.{field}", value[field])
                else:
                    TELEMETRY.counter(f"{group}.{key}", value)
        TELEMETRY.event(
            "campaign.runtime-stats",
            strategy=result.strategy,
            num_records=len(result),
            processes=stats.get("processes"),
            workers=stats.get("workers"),
        )

    # ------------------------------------------------------------------
    # The one campaign body: a lease book driven by a transport
    # ------------------------------------------------------------------
    def _execute(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        campaign: CampaignIdentity,
        header: dict | None,
        completed: dict[int, TrialRecord],
    ) -> CampaignResult:
        cfg = self.config
        server = None
        if self.workers == 1:
            server = TrialServer(
                self.platform if self.platform is not None else self.spec,
                images, labels, cfg.batch_size,
            )
            trial_at, total = server.trial_source(self.strategy, cfg.seed)
        else:
            total = campaign.total_trials  # pool strategies support random access
        book = LeaseBook(
            total,
            plan=self.plan,
            records=completed,
            baseline=header["baseline_accuracy"] if header is not None else None,
            ips=header.get("emulated_inferences_per_second") if header is not None else None,
            split=lambda pending: shard_indices(pending, self.workers),
            max_retries=cfg.max_shard_retries,
            backoff=cfg.retry_backoff,
            poison_policy=cfg.poison_policy,
        )
        header_written = header is not None
        stats_parts: list[dict] = []
        writer = None

        def sink(kind: str, payload) -> None:
            nonlocal header_written
            if kind == "meta" and not header_written:
                self._write_line(writer, checkpoint_header_line(campaign, book))
                header_written = True
            elif kind == "record":
                self._write_line(writer, checkpoint_record_line(payload))
            elif kind == "stats":
                stats_parts.append(payload)

        try:
            writer = self._open_checkpoint(fresh=header is None)
            if server is not None:
                self._serve_in_process(book, sink, server, trial_at)
            else:
                self._serve_pool(book, sink, images, labels)
        finally:
            if writer is not None:
                writer.close()

        result = campaign_result(campaign, book)
        result.runtime_stats = merge_runtime_stats(stats_parts, self.workers)
        if server is None:
            result.recovery = book.recovery.to_dict()
            if any(self._checkpoint_stats.values()):
                result.recovery["checkpoint"] = dict(self._checkpoint_stats)
        return result

    def _serve_in_process(self, book, sink, server: TrialServer, trial_at) -> None:
        """The ``workers=1`` transport: serve every lease in this process.

        A trial's exception propagates directly — there is no process to
        lose, so nothing is retried.
        """
        book.merge_meta(server.baseline, server.ips)
        sink("meta", None)
        while not book.done:
            for lease in book.due():
                token = book.grant(lease)
                for record in server.records(sorted(lease.remaining), trial_at, self.config):
                    for merged in book.merge([record]):
                        sink("record", merged)
                book.complete(*token)
        sink("stats", server.stats())

    def _serve_pool(self, book, sink, images, labels) -> None:
        """The ``workers>1`` transport: persistent worker processes."""
        cfg = self.config
        # fork is cheap (the spec crosses the process boundary by page
        # sharing, not pickling) but only reliably safe on Linux; macOS
        # frameworks (Accelerate, libdispatch) are not fork-safe.
        method = self.start_method or (
            "fork"
            if sys.platform == "linux" and "fork" in mp.get_all_start_methods()
            else "spawn"
        )
        ctx = mp.get_context(method)
        results: mp.Queue = ctx.Queue()

        def start(slot_id: int, epoch: int):
            tasks = ctx.Queue()
            proc = ctx.Process(
                target=_round_worker,
                args=((slot_id, epoch), self.spec, self.strategy, cfg, images,
                      labels, tasks, results),
                daemon=True,
            )
            proc.start()
            return proc, tasks

        pool = WorkerPool(self.workers, start=start, results=results,
                          timeout=cfg.shard_timeout)
        try:
            pool.serve(book, sink)
            pool.shutdown(book, sink)
        finally:
            pool.close()
