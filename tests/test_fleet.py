"""Fleet execution tests: coordinator + worker agents, in process.

The load-bearing property is **byte-identity**: a fleet run's merged
artifacts — per-scenario checkpoint JSONL and ``sweep.jsonl`` — are
byte-for-byte identical to a local serial ``SweepRunner`` run of the same
spec, for any node count and under kills, partitions and duplicated
deliveries.  Telemetry is observational: a traced fleet produces the same
bytes as an untraced one.

Workers run as threads against a real ``ThreadingHTTPServer`` coordinator
on a loopback port; chaos kills use the agent's thread mode (abandon the
lease and stop, simulating SIGKILL without losing the pytest process) and
partitions are manufactured server-side by the network chaos engine.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chaos import (
    KILL_EXIT_CODE,
    ChaosEvent,
    ChaosPlan,
    NetworkEvent,
)
from repro.core.parallel import PlatformSpec
from repro.core.platform import EmulationPlatform
from repro.core.results import TrialRecord
from repro.core.sweep import ExperimentSpec, SweepRunner
from repro.service.client import CoordinatorClient, ServiceError
from repro.service.coordinator import CampaignCoordinator
from repro.service.jobs import FleetJob, scenario_from_wire, scenario_to_wire
from repro.service.worker import WorkerAgent
from repro.utils.telemetry import TELEMETRY
from tests.test_sweep import GOLDEN_SPEC

JOB_DEADLINE = 120.0


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_resolver(tiny_platform_spec, tiny_dataset):
    def resolver(scenario):
        return (
            tiny_platform_spec,
            tiny_dataset.test_images[:16],
            tiny_dataset.test_labels[:16],
        )

    return resolver


@pytest.fixture(scope="module")
def serial_artifacts(tmp_path_factory, fleet_resolver):
    """The reference bytes: the golden spec run serially on one host."""
    out = tmp_path_factory.mktemp("serial-golden")
    spec = ExperimentSpec.from_dict(GOLDEN_SPEC)
    SweepRunner(spec.grid(), workers=1, sweep_dir=out, resolver=fleet_resolver).run()
    return out


def make_coordinator(tmp_path, **overrides):
    settings = dict(
        host="127.0.0.1",
        port=0,
        artifacts_dir=tmp_path / "fleet",
        heartbeat_interval=0.05,
        heartbeat_timeout=0.5,
        shard_size=2,
        retry_backoff=0.05,
    )
    settings.update(overrides)
    coordinator = CampaignCoordinator(**settings)
    coordinator.start()
    return coordinator


def start_worker(coordinator, name, resolver, *, chaos=None, jitter_seed=0):
    """Start one agent thread and wait for its registration, so node ids
    are assigned in a deterministic order (chaos plans key on them)."""
    agent = WorkerAgent(
        coordinator.url,
        name=name,
        resolver=resolver,
        poll_interval=0.05,
        max_idle=0.6,
        chaos=chaos,
        timeout=5.0,
        retries=2,
        backoff=0.05,
        jitter_seed=jitter_seed,
    )
    outcome = {}

    def target():
        outcome["code"] = agent.run()

    thread = threading.Thread(target=target, name=name, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while agent.node_id is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert agent.node_id is not None, f"{name} never registered"
    return agent, thread, outcome


def wait_for_job(client, job_id, deadline=JOB_DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status = client.job_status(job_id)
        if status.state in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not settle within {deadline}s")


def run_fleet(tmp_path, resolver, *, nodes=1, worker_chaos=None, **coordinator_kw):
    """Run the golden spec on a fresh fleet; returns (artifacts_dir, status,
    per-node exit codes)."""
    coordinator = make_coordinator(tmp_path, **coordinator_kw)
    try:
        client = CoordinatorClient(coordinator.url, timeout=5.0, retries=3, backoff=0.05)
        job_id = client.submit_job(dict(GOLDEN_SPEC)).job_id
        threads, outcomes = [], []
        for ordinal in range(nodes):
            chaos = (worker_chaos or {}).get(ordinal)
            _, thread, outcome = start_worker(
                coordinator, f"node-{ordinal}", resolver,
                chaos=chaos, jitter_seed=ordinal,
            )
            threads.append(thread)
            outcomes.append(outcome)
        status = wait_for_job(client, job_id)
        for thread in threads:
            thread.join(timeout=30.0)
        return coordinator.artifacts_dir / job_id, status, outcomes
    finally:
        coordinator.shutdown()


def assert_byte_identical(serial_dir, fleet_dir):
    serial_checkpoints = sorted(
        path.relative_to(serial_dir) for path in (serial_dir / "scenarios").rglob("*.jsonl")
    )
    fleet_checkpoints = sorted(
        path.relative_to(fleet_dir) for path in (fleet_dir / "scenarios").rglob("*.jsonl")
    )
    assert serial_checkpoints == fleet_checkpoints
    for rel in serial_checkpoints:
        assert (fleet_dir / rel).read_bytes() == (serial_dir / rel).read_bytes(), (
            f"fleet checkpoint {rel} differs from the serial run"
        )
    assert (
        (fleet_dir / "sweep.jsonl").read_bytes()
        == (serial_dir / "sweep.jsonl").read_bytes()
    )


# ----------------------------------------------------------------------
# Byte-identity under fleet execution and chaos
# ----------------------------------------------------------------------
class TestFleetByteIdentity:
    def test_single_node_matches_serial(self, tmp_path, fleet_resolver, serial_artifacts):
        fleet_dir, status, outcomes = run_fleet(tmp_path, fleet_resolver, nodes=1)
        assert status.state == "done"
        assert outcomes[0]["code"] == 0
        assert_byte_identical(serial_artifacts, fleet_dir)
        result = json.loads((fleet_dir / "result.json").read_text())
        assert result["state"] == "done"
        assert result["recovery"]["reclaimed"] == 0

    def test_killed_and_partitioned_nodes_match_serial(
        self, tmp_path, fleet_resolver, serial_artifacts
    ):
        # Node 0 dies (SIGKILL-equivalent) after delivering one record of its
        # first lease; node 1 is cut off by a server-side partition window.
        # Recovery must re-run only what was lost and converge on bytes
        # identical to the undisturbed serial run.
        kill = ChaosPlan((ChaosEvent(action="kill", worker=0, after_records=1),))
        partition = ChaosPlan(
            (NetworkEvent(action="partition", node=1, after_requests=4, count=6),)
        )
        fleet_dir, status, outcomes = run_fleet(
            tmp_path,
            fleet_resolver,
            nodes=2,
            worker_chaos={0: kill},
            net_chaos=partition,
        )
        assert status.state == "done"
        assert outcomes[0]["code"] == KILL_EXIT_CODE
        assert outcomes[1]["code"] == 0
        assert status.reclaimed >= 1  # the dead node's lease was re-leased
        assert_byte_identical(serial_artifacts, fleet_dir)

    @pytest.mark.parametrize("action,nodes,code", [
        ("hang", 2, KILL_EXIT_CODE),  # falls silent: flush, then the node stops
        ("delay", 1, 0),  # slow but healthy: no recovery may trigger
    ])
    def test_hung_and_delayed_nodes_match_serial(
        self, tmp_path, fleet_resolver, serial_artifacts, action, nodes, code
    ):
        event = ChaosEvent(
            action=action, worker=0, after_records=1,
            seconds=0.2 if action == "delay" else 0.0,
        )
        fleet_dir, status, outcomes = run_fleet(
            tmp_path, fleet_resolver, nodes=nodes, worker_chaos={0: ChaosPlan((event,))}
        )
        assert status.state == "done"
        assert [outcome["code"] for outcome in outcomes] == [code] + [0] * (nodes - 1)
        if action == "hang":
            assert status.reclaimed >= 1  # the silent node's lease was re-leased
        else:
            assert status.reclaimed == 0
        assert_byte_identical(serial_artifacts, fleet_dir)

    def test_one_warm_up_per_cell(self, tmp_path, fleet_resolver, serial_artifacts, monkeypatch):
        # The golden spec's two scenarios share one (model, platform) cell:
        # the node serves both scenarios' leases from one trial server.
        calls = {"build": 0, "baseline": 0}
        real_build = PlatformSpec.build
        real_baseline = EmulationPlatform.baseline_accuracy

        def counting_build(self):
            calls["build"] += 1
            return real_build(self)

        def counting_baseline(self, *args, **kwargs):
            calls["baseline"] += 1
            return real_baseline(self, *args, **kwargs)

        monkeypatch.setattr(PlatformSpec, "build", counting_build)
        monkeypatch.setattr(EmulationPlatform, "baseline_accuracy", counting_baseline)
        fleet_dir, status, outcomes = run_fleet(tmp_path, fleet_resolver, nodes=1)
        assert status.state == "done" and outcomes[0]["code"] == 0
        assert status.scenarios_total == 2 and status.leases == 2
        assert calls == {"build": 1, "baseline": 1}
        assert_byte_identical(serial_artifacts, fleet_dir)

    def test_dup_delivery_is_idempotent(self, tmp_path, fleet_resolver, serial_artifacts):
        dups = ChaosPlan(
            tuple(
                NetworkEvent(action="dup-delivery", node=0, after_requests=n)
                for n in (1, 2, 3, 4, 5)
            )
        )
        fleet_dir, status, _ = run_fleet(
            tmp_path, fleet_resolver, nodes=1, net_chaos=dups
        )
        assert status.state == "done"
        assert_byte_identical(serial_artifacts, fleet_dir)

    def test_traced_fleet_identical_to_untraced(
        self, tmp_path, fleet_resolver, serial_artifacts
    ):
        trace_path = tmp_path / "trace.jsonl"
        TELEMETRY.configure(str(trace_path))
        try:
            fleet_dir, status, _ = run_fleet(tmp_path, fleet_resolver, nodes=1)
        finally:
            TELEMETRY.close()
        assert status.state == "done"
        # Tracing is purely observational: same bytes as serial (and hence
        # as the untraced fleet run of test_single_node_matches_serial).
        assert_byte_identical(serial_artifacts, fleet_dir)
        names = [json.loads(line)["name"] for line in trace_path.read_text().splitlines()
                 if json.loads(line).get("event") == "point"]
        for expected in ("node.register", "job.submit", "lease.grant", "job.done"):
            assert expected in names, f"missing telemetry point {expected}"


# ----------------------------------------------------------------------
# Service endpoints and failure escalation
# ----------------------------------------------------------------------
class TestServiceEndpoints:
    def test_healthz_and_job_status(self, tmp_path, fleet_resolver):
        coordinator = make_coordinator(tmp_path)
        try:
            client = CoordinatorClient(coordinator.url, timeout=5.0, retries=2, backoff=0.05)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["nodes"] == 0 and health["jobs"] == {}
            job_id = client.submit_job(dict(GOLDEN_SPEC)).job_id
            status = client.job_status(job_id)
            assert status.state == "queued"
            assert status.scenarios_total == 2
            assert status.trials_total == 4
            assert client.healthz()["jobs"] == {job_id: "queued"}
        finally:
            coordinator.shutdown()

    def test_unknown_job_and_endpoint_rejected(self, tmp_path):
        coordinator = make_coordinator(tmp_path)
        try:
            client = CoordinatorClient(coordinator.url, timeout=5.0, retries=2, backoff=0.05)
            with pytest.raises(ServiceError):
                client.job_status("job-9999")
            with pytest.raises(ServiceError):
                client.http.call("/no-such-endpoint")
        finally:
            coordinator.shutdown()

    def test_unregistered_node_rejected(self, tmp_path):
        from repro.service.protocol import LeaseRequest

        coordinator = make_coordinator(tmp_path)
        try:
            client = CoordinatorClient(coordinator.url, timeout=5.0, retries=2, backoff=0.05)
            with pytest.raises(ServiceError, match="register"):
                client.http.call("/lease", LeaseRequest(node_id=99))
        finally:
            coordinator.shutdown()

    def test_exhausted_retries_escalate_to_poison_and_fail_job(
        self, tmp_path, fleet_resolver
    ):
        # max_shard_retries=0: the first lost lease is poison, and the
        # default raise policy fails the whole job with the failure history.
        kill = ChaosPlan((ChaosEvent(action="kill", worker=0, after_records=0),))
        fleet_dir, status, outcomes = run_fleet(
            tmp_path,
            fleet_resolver,
            nodes=1,
            worker_chaos={0: kill},
            max_shard_retries=0,
        )
        assert status.state == "failed"
        assert "heartbeat" in status.error or "attempt" in status.error


# ----------------------------------------------------------------------
# Lease book unit tests (no HTTP, fake clock)
# ----------------------------------------------------------------------
def record_dict(index, accuracy=0.5):
    return TrialRecord(
        trial_index=index,
        description=f"trial {index}",
        num_faults=1,
        accuracy=accuracy,
        accuracy_drop=round(0.9 - accuracy, 3),
    ).to_dict()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_job(tmp_path, **overrides):
    settings = dict(
        artifacts_dir=tmp_path / "job",
        shard_size=2,
        max_retries=1,
        backoff=0.25,
        heartbeat_timeout=1.0,
    )
    settings.update(overrides)
    clock = FakeClock()
    spec = ExperimentSpec.from_dict(GOLDEN_SPEC)
    return FleetJob("job-test", spec, clock=clock, **settings), clock


class TestFleetJobLeaseBook:
    def test_grant_exhausts_then_nothing(self, tmp_path):
        job, _ = make_job(tmp_path)
        grants = [job.grant(node_id=0), job.grant(node_id=0)]
        assert [g.lease_id for g in grants] == [0, 1]
        assert [g.attempt for g in grants] == [0, 0]
        assert job.grant(node_id=0) is None  # everything is leased out

    def test_heartbeat_timeout_reclaims_with_backoff(self, tmp_path):
        job, clock = make_job(tmp_path)
        grant = job.grant(node_id=0)
        clock.now = 2.0  # past the 1.0s heartbeat deadline
        job.check_timeouts()
        assert job.recovery.reclaimed == 1
        assert not job.heartbeat(grant.lease_id, grant.attempt)  # token stale
        # Not re-grantable until the backoff elapses.
        regrant = job.grant(node_id=1)
        assert regrant is None or regrant.lease_id != grant.lease_id
        clock.now = 2.0 + 0.25
        regrant = job.grant(node_id=1)
        assert regrant is not None and regrant.lease_id == grant.lease_id
        assert regrant.attempt == 1

    def test_stale_attempt_records_still_merge(self, tmp_path):
        job, clock = make_job(tmp_path)
        grant = job.grant(node_id=0)
        clock.now = 2.0
        job.check_timeouts()  # grant's token is now stale
        accepted, current = job.add_records(
            grant.lease_id, grant.attempt, grant.scenario_index,
            [record_dict(grant.indices[0])], baseline=0.9,
        )
        assert accepted == 1 and current is False
        # The re-leased attempt only has the leftover index to run.
        clock.now = 3.0
        regrant = job.grant(node_id=1)
        assert regrant.lease_id == grant.lease_id
        assert regrant.indices == grant.indices[1:]

    def test_conflicting_duplicate_fails_job(self, tmp_path):
        job, _ = make_job(tmp_path)
        grant = job.grant(node_id=0)
        job.add_records(
            grant.lease_id, grant.attempt, grant.scenario_index,
            [record_dict(0, accuracy=0.5)], baseline=0.9,
        )
        job.add_records(
            grant.lease_id, grant.attempt, grant.scenario_index,
            [record_dict(0, accuracy=0.25)],
        )
        assert job.state == "failed"
        assert "twice" in job.error

    def test_baseline_disagreement_fails_job(self, tmp_path):
        job, _ = make_job(tmp_path)
        grant = job.grant(node_id=0)
        job.add_records(grant.lease_id, grant.attempt, grant.scenario_index,
                        [], baseline=0.9)
        job.add_records(grant.lease_id, grant.attempt, grant.scenario_index,
                        [], baseline=0.8)
        assert job.state == "failed"
        assert "baseline" in job.error

    def test_incomplete_completion_reclaims(self, tmp_path):
        job, _ = make_job(tmp_path)
        grant = job.grant(node_id=0)
        assert job.complete(grant.lease_id, grant.attempt, ok=True)
        # Nothing was delivered: the lease must go back to WAITING, not DONE.
        assert job.recovery.reclaimed == 1

    def test_quarantine_leaves_holes_and_finishes(self, tmp_path):
        job, clock = make_job(tmp_path, max_retries=0, poison_policy="quarantine")
        for node in range(2):
            grant = job.grant(node_id=node)
            job.add_records(grant.lease_id, grant.attempt, grant.scenario_index,
                            [], baseline=0.9, ips=100.0, num_images=16)
        clock.now = 2.0
        job.check_timeouts()  # both leases poison immediately (max_retries=0)
        assert job.state == "done"
        assert len(job.recovery.poison) == 2
        result = json.loads((tmp_path / "job" / "result.json").read_text())
        assert result["scenarios"][0]["records"] == 0

    def test_quarantine_without_baseline_fails_job(self, tmp_path):
        # No lease ever reported a baseline: the job fails loudly, like a
        # local campaign, instead of writing artifacts with a made-up one.
        job, clock = make_job(tmp_path, max_retries=0, poison_policy="quarantine")
        for node in range(2):
            job.grant(node_id=node)
        clock.now = 2.0
        job.check_timeouts()
        assert job.state == "failed" and "baseline" in job.error
        assert not (tmp_path / "job" / "result.json").exists()

    def test_adaptive_quarantine_keeps_records_to_the_last_barrier(self, tmp_path):
        # A quarantined round-2 lease leaves that round incomplete, so the
        # campaign stops at the round-1 barrier: the artifacts hold exactly
        # the records before it, as a local runner's result does, even
        # though round 2's other lease delivered records past it.
        spec = ExperimentSpec.from_dict(dict(
            GOLDEN_SPEC,
            faults=GOLDEN_SPEC["faults"][:1],
            strategies=[{"name": "random", "kind": "random", "counts": [1, 2], "trials": 4}],
            adaptive={"target_half_width": 1e-9, "round_size": 4},
        ))
        clock = FakeClock()
        job = FleetJob(
            "job-test", spec, clock=clock, artifacts_dir=tmp_path / "job", shard_size=2,
            max_retries=0, poison_policy="quarantine", heartbeat_timeout=1.0,
        )
        assert job.scenarios[0].total_trials == 8

        def deliver(grant):
            records = [record_dict(i, accuracy=0.5 + 0.01 * i) for i in grant.indices]
            job.add_records(grant.lease_id, grant.attempt, grant.scenario_index, records,
                            baseline=0.9, ips=100.0, num_images=16)
            assert job.complete(grant.lease_id, grant.attempt, ok=True)

        deliver(job.grant(node_id=0))  # round 1: [0, 1]
        deliver(job.grant(node_id=0))  # round 1: [2, 3]
        deliver(job.grant(node_id=0))  # round 2: [4, 5]
        lost = job.grant(node_id=1)  # round 2: [6, 7], never delivered
        assert lost.indices == (6, 7)
        clock.now = 2.0
        job.check_timeouts()  # poison at once (max_retries=0), quarantined
        assert job.state == "done"
        book = job.scenarios[0].book
        assert book.stop_end == 4 and sorted(book.records) == [0, 1, 2, 3, 4, 5]
        lines = [
            json.loads(line)
            for line in (tmp_path / "job" / "sweep.jsonl").read_text().splitlines()
        ]
        assert [line["trial_index"] for line in lines if line["kind"] == "record"] == [0, 1, 2, 3]
        assert lines[0]["total_trials"] == 4
        result = json.loads((tmp_path / "job" / "result.json").read_text())
        assert result["scenarios"][0]["records"] == 4

    @pytest.mark.parametrize("batch", [
        [record_dict(10**6)],
        [record_dict(-3)],
        [dict(record_dict(1), trial_index="1")],
        [dict(record_dict(1), trial_index=True)],
        [record_dict(0), {"trial_index": 1}],  # valid, then malformed
        [record_dict(0), record_dict(2)],  # valid, then past the 2-trial scenario
    ])
    def test_malformed_batch_merges_nothing(self, tmp_path, batch):
        job, _ = make_job(tmp_path)
        grant = job.grant(node_id=0)
        before = job.status()
        with pytest.raises(ValueError):
            job.add_records(grant.lease_id, grant.attempt, grant.scenario_index,
                            batch, baseline=0.9)
        assert job.status() == before
        state = job.scenarios[grant.scenario_index]
        assert state.records == {} and state.baseline is None
        assert state.book.leases[grant.lease_id].remaining == set(grant.indices)

    def test_scenario_wire_round_trip(self):
        # Wire form is a fixed point: to_dict() normalises implicit axis
        # defaults into explicit params, so compare wire-to-wire rather
        # than dataclass equality.
        spec = ExperimentSpec.from_dict(GOLDEN_SPEC)
        for scenario in spec.grid():
            wire = json.loads(json.dumps(scenario_to_wire(scenario)))
            rebuilt = scenario_from_wire(wire)
            assert rebuilt.scenario_id == scenario.scenario_id
            assert rebuilt.cell == scenario.cell
            assert scenario_to_wire(rebuilt) == wire


# ----------------------------------------------------------------------
# Coordinator POST handler under hostile input (live HTTP, fuzzed)
# ----------------------------------------------------------------------
#: Valid message templates for the running lease of the fuzz fixture; the
#: fuzzer breaks exactly one thing about each.
FUZZ_TEMPLATES = {
    "record-batch": {"type": "record-batch", "node_id": 0, "job_id": "job-0000",
                     "lease_id": 0, "attempt": 0, "scenario_index": 0, "records": []},
    "heartbeat": {"type": "heartbeat", "node_id": 0, "job_id": "job-0000",
                  "lease_id": 0, "attempt": 0},
    "lease-complete": {"type": "lease-complete", "node_id": 0, "job_id": "job-0000",
                       "lease_id": 0, "attempt": 0, "ok": True},
}

_not_int = st.one_of(st.text(max_size=4), st.floats(allow_nan=False), st.booleans(),
                     st.none(), st.lists(st.integers(), max_size=2))
_not_str = st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), st.none())


def _with(kind, **changes):
    return json.dumps({**FUZZ_TEMPLATES[kind], **changes}).encode()


_bad_bodies = st.one_of(
    # not JSON, truncated JSON, JSON that is not an object
    st.binary(max_size=64).filter(lambda b: not b.strip().startswith(b"{")),
    st.sampled_from(sorted(FUZZ_TEMPLATES)).flatmap(
        lambda kind: st.integers(1, len(_with(kind)) - 1).map(lambda n: _with(kind)[:n])
    ),
    st.one_of(st.integers(), st.text(max_size=8), st.lists(st.integers(), max_size=3))
    .map(lambda value: json.dumps(value).encode()),
    # wrong field types
    st.tuples(
        st.sampled_from(sorted(FUZZ_TEMPLATES)),
        st.sampled_from(["node_id", "lease_id", "attempt"]),
        _not_int,
    ).map(lambda t: _with(t[0], **{t[1]: t[2]})),
    st.sampled_from(sorted(FUZZ_TEMPLATES)).flatmap(
        lambda kind: _not_str.map(lambda value: _with(kind, job_id=value))
    ),
    # unknown job ids, unknown lease ids, unregistered nodes
    st.sampled_from(sorted(FUZZ_TEMPLATES)).flatmap(
        lambda kind: st.text(min_size=1, max_size=8)
        .filter(lambda job_id: job_id != "job-0000")
        .map(lambda job_id: _with(kind, job_id=job_id))
    ),
    st.tuples(st.sampled_from(sorted(FUZZ_TEMPLATES)), st.integers(2, 10**6))
    .map(lambda t: _with(t[0], lease_id=t[1])),
    st.tuples(st.sampled_from(sorted(FUZZ_TEMPLATES)), st.integers(1, 10**6))
    .map(lambda t: _with(t[0], node_id=t[1])),
    # out-of-range scenario index, and the malformed record batches
    st.integers(2, 10**6).map(lambda i: _with("record-batch", scenario_index=i)),
    st.sampled_from([
        [record_dict(10**6)],
        [record_dict(-3)],
        [dict(record_dict(1), trial_index="1")],
        [record_dict(0), {"trial_index": 1}],
        [record_dict(0), record_dict(2)],
    ]).map(lambda records: _with("record-batch", records=records, baseline_accuracy=0.9)),
)


def _post(coordinator, body: bytes) -> int:
    connection = http.client.HTTPConnection(coordinator.host, coordinator.port, timeout=5.0)
    try:
        connection.request("POST", "/fuzz", body=body,
                           headers={"Content-Type": "application/json"})
        return connection.getresponse().status
    finally:
        connection.close()


class TestCoordinatorFuzz:
    @pytest.fixture
    def live(self, tmp_path):
        """A coordinator with one registered node holding lease 0 of job-0000
        (deadlines far away, so nothing changes unless a request changes it)."""
        coordinator = make_coordinator(tmp_path, heartbeat_timeout=600.0)
        client = CoordinatorClient(coordinator.url, timeout=5.0, retries=2, backoff=0.05)
        node = client.register("fuzz").node_id
        job_id = client.submit_job(dict(GOLDEN_SPEC)).job_id
        grant = client.request_lease(node)
        assert (node, job_id, grant.lease_id, grant.attempt) == (0, "job-0000", 0, 0)
        try:
            yield coordinator, coordinator.jobs[job_id]
        finally:
            coordinator.shutdown()

    def test_hostile_posts_get_4xx_and_change_nothing(self, live):
        coordinator, job = live
        before = job.status()

        @settings(max_examples=150, deadline=None, database=None)
        @given(body=_bad_bodies)
        def check(body):
            assert 400 <= _post(coordinator, body) < 500
            assert coordinator._lock.acquire(timeout=5.0)
            coordinator._lock.release()
            assert job.status() == before

        check()

    def test_unparseable_nesting_and_unhashable_type_get_400(self, live):
        coordinator, job = live
        before = job.status()
        for body in (b"[" * 100_000 + b"]" * 100_000, b'{"type": []}', b'{"type": {}}'):
            assert _post(coordinator, body) == 400
        assert job.status() == before

    def test_negative_content_length_is_rejected_without_reading(self, live):
        coordinator, job = live
        with socket.create_connection((coordinator.host, coordinator.port), timeout=3.0) as sock:
            sock.sendall(b"POST /records HTTP/1.0\r\nContent-Length: -1\r\n\r\n")
            reply = sock.recv(64)
        assert reply.startswith(b"HTTP/1.0 400")

    def test_oversized_content_length_is_refused_without_reading(self, live):
        coordinator, job = live
        before = job.status()
        with socket.create_connection((coordinator.host, coordinator.port), timeout=3.0) as sock:
            sock.sendall(b"POST /records HTTP/1.0\r\nContent-Length: 1099511627776\r\n\r\n")
            reply = sock.recv(64)
        assert reply.startswith(b"HTTP/1.0 413")
        assert job.status() == before
