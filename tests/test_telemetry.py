"""Tests for the telemetry span/counter sink and its instrumentation.

The non-negotiable invariant: telemetry is strictly observational.  A
campaign or sweep run with ``--trace`` produces byte-identical result
records to one without — wall-clock durations live only in the trace
stream, never in result identity.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.utils.telemetry import TELEMETRY, TelemetrySink
from tests.test_parallel_campaign import run_campaign
from tests.test_sweep import GOLDEN_STRUCTURE_DIGEST, run_golden_sweep


@pytest.fixture
def tiny_resolver(tiny_platform_spec, tiny_dataset):
    def resolver(scenario):
        return (
            tiny_platform_spec,
            tiny_dataset.test_images[:16],
            tiny_dataset.test_labels[:16],
        )

    return resolver


@pytest.fixture
def sink(tmp_path):
    """A configured throwaway sink plus a reader for its emitted records."""
    path = tmp_path / "trace.jsonl"
    s = TelemetrySink()
    s.configure(str(path))
    try:
        yield s, lambda: [json.loads(line) for line in path.read_text().splitlines()]
    finally:
        s.close()


@pytest.fixture
def global_trace(tmp_path):
    """Arm the process-global sink the way ``--trace`` does, with teardown."""
    path = tmp_path / "trace.jsonl"
    TELEMETRY.configure(str(path))
    try:
        yield path
    finally:
        TELEMETRY.close()


def read_trace(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestTelemetrySink:
    def test_disabled_sink_is_inert(self, tmp_path):
        s = TelemetrySink()
        s.event("x", a=1)
        s.counter("y", 2)
        with s.span("z") as extra:
            extra["k"] = "v"
        assert extra == {} or extra == {"k": "v"}  # yielded dict is discarded
        assert not s.enabled

    def test_stage_totals_accumulate_while_trace_is_off(self):
        s = TelemetrySink()
        for _ in range(3):
            s.tock("requant", s.tick())
        s.tock("correction", s.tick())
        totals = s.stage_totals()
        assert list(totals) == ["correction", "requant"]
        assert totals["requant"]["calls"] == 3 and totals["correction"]["calls"] == 1
        assert all(entry["seconds"] >= 0.0 for entry in totals.values())
        assert not s.enabled

    def test_events_counters_spans_roundtrip(self, sink):
        s, read = sink
        s.event("boot", phase="init")
        s.counter("cache.hits", 7, layer="gemm")
        with s.span("work", shard=3) as extra:
            extra["items"] = 12
        records = read()
        assert [r["event"] for r in records] == ["point", "counter", "span"]
        assert records[0]["name"] == "boot" and records[0]["phase"] == "init"
        assert records[1]["value"] == 7 and records[1]["layer"] == "gemm"
        span = records[2]
        assert span["shard"] == 3 and span["items"] == 12
        assert span["dur"] >= 0 and span["t"] >= 0

    def test_seq_is_a_strict_emission_order(self, sink):
        s, read = sink
        with s.span("outer"):
            s.event("inner-1")
            s.event("inner-2")
        seqs = [r["seq"] for r in read()]
        assert seqs == [1, 2, 3]
        # the outer span is emitted last despite starting first
        assert [r["name"] for r in read()] == ["inner-1", "inner-2", "outer"]

    def test_nonfinite_and_exotic_attrs_sanitised(self, sink):
        s, read = sink
        s.event("odd", nan=float("nan"), inf=float("inf"),
                nested={"p": (1, float("-inf"))}, obj=object())
        (record,) = read()
        assert record["nan"] is None and record["inf"] is None
        assert record["nested"] == {"p": [1, None]}
        assert record["obj"].startswith("<object object")

    def test_span_emits_even_when_body_raises(self, sink):
        s, read = sink
        with pytest.raises(RuntimeError):
            with s.span("doomed"):
                raise RuntimeError("boom")
        (record,) = read()
        assert record["name"] == "doomed"

    def test_disable_inherited_silences_without_closing_fd(self, sink):
        s, read = sink
        s.event("parent")
        fh = s._fh
        s.disable_inherited()
        s.event("child-should-not-appear")
        assert not s.enabled
        assert not fh.closed  # the parent still owns the descriptor
        fh.close()
        assert [r["name"] for r in read()] == ["parent"]

    def test_configure_resets_clock_and_seq(self, tmp_path):
        s = TelemetrySink()
        s.configure(str(tmp_path / "a.jsonl"))
        s.event("one")
        s.configure(str(tmp_path / "b.jsonl"))
        s.event("two")
        s.close()
        (record,) = read_trace(tmp_path / "b.jsonl")
        assert record["seq"] == 1


class TestCampaignTracing:
    def test_traced_campaign_is_byte_identical_and_trace_is_rich(
        self, tiny_platform_spec, tiny_dataset, tmp_path, global_trace
    ):
        TELEMETRY.close()  # baseline run without tracing
        baseline = run_campaign(tiny_platform_spec, tiny_dataset, workers=2)
        TELEMETRY.configure(str(global_trace))
        traced = run_campaign(tiny_platform_spec, tiny_dataset, workers=2)
        TELEMETRY.close()

        assert [r.to_dict() for r in traced.records] == [
            r.to_dict() for r in baseline.records
        ]
        assert traced.baseline_accuracy == baseline.baseline_accuracy

        records = read_trace(global_trace)
        by_name: dict[str, list[dict]] = {}
        for record in records:
            assert record["event"] in ("span", "point", "counter")
            by_name.setdefault(record["name"], []).append(record)

        (run_span,) = by_name["campaign.run"]
        assert run_span["event"] == "span"
        assert run_span["strategy"] == "RandomMultipliers"
        assert run_span["workers"] == 2
        assert run_span["num_records"] == len(traced.records)

        launches = by_name["lease.launch"]
        dones = by_name["lease.done"]
        assert len(launches) == len(dones) == 2  # one lease per worker shard
        assert {p["lease"] for p in launches} == {p["lease"] for p in dones}

        assert by_name["campaign.runtime-stats"][0]["event"] == "point"
        gemm_counters = {n for n in by_name if n.startswith("gemm.")}
        assert "gemm.int64_calls" in gemm_counters
        assert any(n.startswith("tape.") for n in by_name)

    def test_traced_campaign_carries_stage_totals(
        self, tiny_platform_spec, tiny_dataset, global_trace
    ):
        result = run_campaign(tiny_platform_spec, tiny_dataset, workers=2)
        TELEMETRY.close()
        counters = {
            r["name"]: r["value"] for r in read_trace(global_trace) if r["event"] == "counter"
        }
        profile = result.runtime_stats["profile"]
        assert counters["profile.correction.calls"] == profile["correction"]["calls"] > 0
        assert counters["profile.correction.seconds"] == profile["correction"]["seconds"]

    def test_workers_never_write_to_the_parent_trace(
        self, tiny_platform_spec, tiny_dataset, global_trace
    ):
        run_campaign(tiny_platform_spec, tiny_dataset, workers=4)
        TELEMETRY.close()
        seqs = [r["seq"] for r in read_trace(global_trace)]
        # a forked worker writing to the inherited fd would duplicate seqs
        assert seqs == sorted(seqs) and len(seqs) == len(set(seqs))


class TestSweepTracing:
    def test_traced_sweep_preserves_golden_digest_and_bytes(
        self, tiny_resolver, tmp_path, global_trace
    ):
        plain_dir = tmp_path / "plain"
        TELEMETRY.close()
        run_golden_sweep(tiny_resolver, workers=1, sweep_dir=plain_dir)

        traced_dir = tmp_path / "traced"
        TELEMETRY.configure(str(global_trace))
        result = run_golden_sweep(tiny_resolver, workers=1, sweep_dir=traced_dir)
        TELEMETRY.close()

        assert result.structure_digest() == GOLDEN_STRUCTURE_DIGEST
        assert (traced_dir / "sweep.jsonl").read_bytes() == (
            plain_dir / "sweep.jsonl"
        ).read_bytes()

        spans = [
            r for r in read_trace(global_trace) if r["name"] == "sweep.scenario"
        ]
        assert len(spans) == len(result.scenario_results) == 2
        assert [s["number"] for s in spans] == [1, 2]
        assert {s["scenario"] for s in spans} == {
            sr.scenario.scenario_id for sr in result.scenario_results
        }
        assert all(s["total"] == 2 and s["num_records"] > 0 for s in spans)


class TestLoggingConfig:
    """Satellite: library logging must not clobber a host app's setup.

    Configuration targets the library root logger (``repro``), never the
    process root.
    """

    @pytest.fixture(autouse=True)
    def reset(self, monkeypatch):
        import repro.utils.logging as rlog

        lib = logging.getLogger("repro")
        saved_handlers, saved_level = lib.handlers[:], lib.level
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        monkeypatch.setattr(rlog, "_configured", False)
        lib.handlers[:] = []
        lib.setLevel(logging.NOTSET)
        yield
        lib.handlers[:] = saved_handlers
        lib.setLevel(saved_level)

    def test_first_configuration_defaults_to_warning(self):
        from repro.utils.logging import get_logger

        logger = get_logger("unit")
        assert logger.name == "repro.unit"
        lib = logging.getLogger("repro")
        assert lib.level == logging.WARNING
        assert len(lib.handlers) == 1

    def test_host_app_level_is_not_clobbered(self):
        from repro.utils.logging import get_logger

        lib = logging.getLogger("repro")
        lib.addHandler(logging.NullHandler())
        lib.setLevel(logging.DEBUG)
        get_logger("unit")
        assert lib.level == logging.DEBUG
        assert len(lib.handlers) == 1  # no second handler piled on

    def test_host_app_level_without_handlers_is_kept(self):
        from repro.utils.logging import get_logger

        lib = logging.getLogger("repro")
        lib.setLevel(logging.INFO)
        get_logger("unit")
        assert lib.level == logging.INFO
        assert len(lib.handlers) == 1  # handler still supplied

    def test_env_override_wins(self, monkeypatch):
        import repro.utils.logging as rlog

        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        rlog.get_logger("unit")
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_numeric_env_override(self, monkeypatch):
        import repro.utils.logging as rlog

        monkeypatch.setenv("REPRO_LOG_LEVEL", "10")
        rlog.get_logger("unit")
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_invalid_env_value_falls_back_to_warning(self, monkeypatch):
        import repro.utils.logging as rlog

        monkeypatch.setenv("REPRO_LOG_LEVEL", "chatty")
        rlog.get_logger("unit")
        assert logging.getLogger("repro").level == logging.WARNING

    def test_set_verbosity_accepts_level_names(self):
        from repro.utils.logging import set_verbosity

        lib = logging.getLogger("repro")
        set_verbosity("info")
        assert lib.level == logging.INFO
        set_verbosity(logging.ERROR)
        assert lib.level == logging.ERROR
        with pytest.raises(ValueError, match="unknown log level"):
            set_verbosity("loud")
