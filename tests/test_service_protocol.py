"""Property-based tests of the fleet wire protocol.

Every message type must survive ``parse_message(json.loads(json.dumps(
msg.to_wire())))`` unchanged — the contract both service ends rely on —
and structurally invalid payloads (unknown type, unknown/missing keys,
out-of-domain values, non-finite floats) must be rejected with
:class:`WireError` instead of leaking into the lease book.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

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
    MESSAGE_TYPES,
    NoWork,
    RecordBatch,
    Register,
    Registered,
    WireError,
    parse_message,
)

# Wire payloads must survive JSON, so strategies generate JSON-clean
# values only: finite floats (NaN breaks equality and JSON portability)
# and text without surrogates.
finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
small_int = st.integers(min_value=0, max_value=10_000)
text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=40
)
nonempty_text = text.filter(bool)

#: A JSON-object payload (scenario wire dicts, spec dicts, trial records).
json_dict = st.dictionaries(
    keys=text,
    values=st.one_of(small_int, finite, text, st.booleans(), st.none()),
    max_size=4,
)

MESSAGE_STRATEGIES = {
    Register: st.builds(Register, name=text),
    Registered: st.builds(
        Registered,
        node_id=small_int,
        heartbeat_interval=finite,
        heartbeat_timeout=finite,
    ),
    LeaseRequest: st.builds(LeaseRequest, node_id=small_int),
    LeaseGrant: st.builds(
        LeaseGrant,
        job_id=nonempty_text,
        scenario_index=small_int,
        scenario=json_dict,
        lease_id=small_int,
        attempt=small_int,
        indices=st.lists(small_int, max_size=8).map(tuple),
        seed=st.integers(min_value=-(2**31), max_value=2**31),
        images=st.integers(min_value=1, max_value=1024),
        batch_size=st.integers(min_value=1, max_value=1024),
    ),
    NoWork: st.builds(NoWork, retry_after=finite),
    RecordBatch: st.builds(
        RecordBatch,
        node_id=small_int,
        job_id=nonempty_text,
        lease_id=small_int,
        attempt=small_int,
        scenario_index=small_int,
        records=st.lists(json_dict, max_size=4).map(tuple),
        baseline_accuracy=st.one_of(st.none(), finite),
        inferences_per_second=st.one_of(st.none(), finite),
        num_images=st.one_of(st.none(), st.integers(min_value=1, max_value=4096)),
    ),
    BatchAck: st.builds(BatchAck, accepted=small_int, current=st.booleans()),
    Heartbeat: st.builds(
        Heartbeat,
        node_id=small_int,
        job_id=nonempty_text,
        lease_id=small_int,
        attempt=small_int,
    ),
    HeartbeatAck: st.builds(HeartbeatAck, current=st.booleans()),
    LeaseComplete: st.builds(
        LeaseComplete,
        node_id=small_int,
        job_id=nonempty_text,
        lease_id=small_int,
        attempt=small_int,
        ok=st.booleans(),
        error=text,
    ),
    CompleteAck: st.builds(CompleteAck, accepted=st.booleans()),
    JobSubmit: st.builds(JobSubmit, spec=json_dict),
    JobAccepted: st.builds(JobAccepted, job_id=nonempty_text),
    JobStatus: st.builds(
        JobStatus,
        job_id=nonempty_text,
        state=st.sampled_from(("queued", "running", "done", "failed")),
        scenarios_total=small_int,
        scenarios_done=small_int,
        trials_total=small_int,
        trials_done=small_int,
        leases=small_int,
        reclaimed=small_int,
        nodes=small_int,
        error=text,
        artifacts_dir=text,
    ),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


def test_every_message_type_has_a_strategy():
    # If a new message type joins MESSAGE_TYPES without a round-trip
    # strategy, the protocol loses its property coverage silently.
    assert {cls for cls in MESSAGE_TYPES.values()} == set(MESSAGE_STRATEGIES)


@given(message=any_message)
@settings(max_examples=300, deadline=None)
def test_round_trip_through_json(message):
    wire = json.loads(json.dumps(message.to_wire()))
    assert parse_message(wire) == message


@given(message=any_message)
@settings(max_examples=100, deadline=None)
def test_wire_form_is_plain_json(message):
    wire = message.to_wire()
    assert wire["type"] == message.TYPE
    # No tuples leak onto the wire: everything json.dumps round-trips as-is.
    assert json.loads(json.dumps(wire)) == wire


@given(message=any_message, junk=nonempty_text)
@settings(max_examples=100, deadline=None)
def test_unknown_keys_rejected(message, junk):
    wire = message.to_wire()
    key = "x_" + junk  # never collides with a real field name
    wire[key] = 1
    with pytest.raises(WireError):
        parse_message(wire)


@given(message=any_message)
@settings(max_examples=100, deadline=None)
def test_unknown_type_rejected(message):
    wire = message.to_wire()
    wire["type"] = "no-such-message"
    with pytest.raises(WireError):
        parse_message(wire)


def test_missing_required_keys_rejected():
    wire = Heartbeat(node_id=1, job_id="job-0000", lease_id=0, attempt=0).to_wire()
    del wire["lease_id"]
    with pytest.raises(WireError, match="missing"):
        parse_message(wire)


def test_non_finite_floats_rejected():
    with pytest.raises(WireError, match="finite"):
        NoWork(retry_after=float("nan"))
    with pytest.raises(WireError, match="finite"):
        RecordBatch(
            node_id=0, job_id="j", lease_id=0, attempt=0, scenario_index=0,
            baseline_accuracy=float("inf"),
        )


def test_bool_is_not_an_int():
    # JSON decodes true/false into bool, which is an int subclass; counters
    # must reject it or accounting silently arithmetics on booleans.
    with pytest.raises(WireError):
        LeaseRequest(node_id=True)


def test_unhashable_type_rejected():
    for bad in ([], {}, ["register"]):
        with pytest.raises(WireError, match="unknown wire message type"):
            parse_message({"type": bad})


def test_non_object_payloads_rejected():
    for bad in (None, 3, "register", ["register"]):
        with pytest.raises(WireError):
            parse_message(bad)
