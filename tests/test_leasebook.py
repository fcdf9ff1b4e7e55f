"""The campaign scheduler on its own: a LeaseBook against a fake clock.

Every transport (in-process loop, process pool, HTTP fleet) drives the
same :class:`~repro.core.leasebook.LeaseBook`, so its invariants are
tested once, here, under random interleavings of grants, records with
current or stale tokens, heartbeats, completions, failures, deadline
expiry and clock advances.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.leasebook import (
    DeterminismError,
    LeaseBook,
    LeaseState,
    backoff_delay,
)
from repro.core.results import TrialRecord
from repro.core.stats import AdaptiveCampaignPlan
from tests.test_fleet import FakeClock, record_dict

TOTAL = 7
MAX_RETRIES = 2
BACKOFF = 0.25
TIMEOUT = 1.0


def make_record(index: int, conflicting: bool = False) -> TrialRecord:
    accuracy = 0.125 if conflicting else 0.5 + 0.0625 * (index % 3)
    return TrialRecord.from_dict(record_dict(index, accuracy=accuracy))


class LeaseBookMachine(RuleBasedStateMachine):
    """Fleet-style book: contiguous 2-trial leases with job-unique ids."""

    plan = None

    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        ids = itertools.count()
        self.book = LeaseBook(
            TOTAL,
            plan=self.plan,
            baseline=0.9,
            split=lambda indices: [indices[i : i + 2] for i in range(0, len(indices), 2)],
            lease_id=lambda position: next(ids),
            max_retries=MAX_RETRIES,
            backoff=BACKOFF,
            poison_policy="quarantine",
            clock=self.clock,
        )
        self.tokens: list[tuple[int, int]] = []
        self.seen = {}
        #: The machine's own record of each lease's newest token, so token
        #: fencing is checked against a model rather than the book itself.
        self.latest: dict[int, tuple[int, int]] = {}
        self.merged: set[int] = set()

    # -- helpers --------------------------------------------------------
    def _snapshot(self):
        return {
            lease_id: (lease.state, lease.attempt, lease.token, lease.retry_at,
                       len(lease.failures), lease.last_progress)
            for lease_id, lease in self.book.leases.items()
        }, self.book.completed_rounds, self.book.done

    def _is_current(self, token):
        lease = self.seen[token[0]]
        return lease.state is LeaseState.RUNNING and self.latest[token[0]] == token

    def _fail(self, token, cause):
        lease = self.seen[token[0]] if self._is_current(token) else None
        before = self._snapshot()
        assert self.book.fail(*token, f"{cause} at t={self.clock.now}", cause) == (
            lease is not None
        )
        if lease is None:
            assert self._snapshot() == before  # a stale token changes nothing
        elif lease.state is LeaseState.WAITING:
            # Re-attempt k (after the k-th failure) waits backoff_delay(., k-1).
            assert lease.retry_at == self.clock.now + backoff_delay(BACKOFF, lease.attempt - 1)

    # -- rules ----------------------------------------------------------
    @precondition(lambda self: self.book.due())
    @rule(data=st.data())
    def grant(self, data):
        lease = data.draw(st.sampled_from(self.book.due()))
        assert self.clock.now >= lease.retry_at
        token = self.book.grant(lease)
        assert token == (lease.lease_id, lease.attempt - 1)
        self.tokens.append(token)
        self.seen[lease.lease_id] = lease
        self.latest[lease.lease_id] = token

    @precondition(lambda self: self.tokens)
    @rule(data=st.data())
    def record(self, data):
        token = data.draw(st.sampled_from(self.tokens))
        index = data.draw(st.sampled_from(self.seen[token[0]].indices or [0]))
        for record in self.book.merge([make_record(index)]):
            assert record.trial_index not in self.merged  # each index merges once
            self.merged.add(record.trial_index)
        self.heartbeat_with(token)

    @precondition(lambda self: self.merged)
    @rule(data=st.data())
    def conflicting_record(self, data):
        index = data.draw(st.sampled_from(sorted(self.merged)))
        records = dict(self.book.records)
        with pytest.raises(DeterminismError, match="twice"):
            self.book.merge([make_record(index, conflicting=True)])
        assert self.book.records == records

    @precondition(lambda self: self.tokens)
    @rule(data=st.data())
    def heartbeat(self, data):
        self.heartbeat_with(data.draw(st.sampled_from(self.tokens)))

    def heartbeat_with(self, token):
        current = self._is_current(token)
        before = self._snapshot()
        assert self.book.touch(*token) == current
        if not current:
            assert self._snapshot() == before

    @precondition(lambda self: self.tokens)
    @rule(data=st.data(), ok=st.booleans())
    def complete(self, data, ok):
        token = data.draw(st.sampled_from(self.tokens))
        if not ok:
            self._fail(token, "worker_errors")
            return
        current = self._is_current(token)
        before = self._snapshot()
        done = self.book.complete(*token)
        if not current:
            assert not done and self._snapshot() == before
        elif done:
            assert not self.seen[token[0]].remaining

    @rule()
    def expire(self):
        for lease in self.book.silent(TIMEOUT):
            self._fail(lease.token, "hung_workers")

    @rule(seconds=st.sampled_from([0.1, 0.25, 0.5, 1.5]))
    def advance(self, seconds):
        self.clock.now += seconds

    # -- invariants -----------------------------------------------------
    @invariant()
    def attempts_are_bounded(self):
        for lease in self.book.leases.values():
            assert lease.attempt <= MAX_RETRIES + 1

    @invariant()
    def settled_rounds_are_whole_or_name_their_holes(self):
        if not self.book.done:
            return
        named = {i for entry in self.book.recovery.poison for i in entry["unfinished"]}
        opened = {i for lease in self.seen.values() for i in lease.indices}
        for number, (start, end) in enumerate(self.book.bounds):
            missing = {i for i in range(start, end) if i not in self.book.records}
            if number < self.book.completed_rounds:
                assert not missing
            elif number == self.book.completed_rounds and opened & set(range(start, end)):
                assert missing <= named


class AdaptiveLeaseBookMachine(LeaseBookMachine):
    """The same book over 3-trial adaptive rounds."""

    plan = AdaptiveCampaignPlan(target_half_width=0.05, round_size=3, min_rounds=1)


TestLeaseBookMachine = LeaseBookMachine.TestCase
TestLeaseBookMachine.settings = settings(max_examples=150, stateful_step_count=40,
                                         deadline=None)
TestAdaptiveLeaseBookMachine = AdaptiveLeaseBookMachine.TestCase
TestAdaptiveLeaseBookMachine.settings = settings(max_examples=150, stateful_step_count=40,
                                                 deadline=None)


def test_zero_trial_book_opens_one_baseline_lease():
    book = LeaseBook(0)
    (lease,) = book.due()
    assert lease.indices == [] and not book.done
    token = book.grant(lease)
    book.merge_meta(0.75, None)
    assert book.complete(*token) and book.done
    assert book.baseline == 0.75 and book.records == {}


def test_resume_replays_the_stopping_rule():
    # A checkpoint whose first complete round already satisfies the plan
    # decides the campaign: no lease opens, exactly as the uninterrupted
    # run stopped after that round.
    plan = AdaptiveCampaignPlan(target_half_width=10.0, round_size=3, min_rounds=1)
    records = {i: make_record(i) for i in range(4)}
    book = LeaseBook(TOTAL, plan=plan, records=records, baseline=0.9)
    assert book.done and book.leases == {}
    assert (book.completed_rounds, book.stop_end) == (1, 3)


def test_baseline_disagreement_is_loud():
    book = LeaseBook(2, baseline=0.9)
    with pytest.raises(DeterminismError, match="baseline"):
        book.merge_meta(0.8, None)


def test_failure_warning_names_the_exception(caplog):
    book = LeaseBook(2, max_retries=1)
    (lease,) = book.due()
    token = book.grant(lease)
    reason = (
        "worker raised:\n"
        "Traceback (most recent call last):\n"
        '  File "worker.py", line 1, in run\n'
        "ValueError: batch_size must be an integer >= 1\n"
    )
    with caplog.at_level("WARNING", logger="repro.core.leasebook"):
        assert book.fail(*token, reason, "worker_errors")
    assert "worker raised: ValueError: batch_size must be an integer >= 1; retrying" in caplog.text
