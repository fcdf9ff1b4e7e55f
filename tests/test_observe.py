"""Tests for the longitudinal observability subsystem (`repro.observe`).

Load-bearing properties:

* **Store determinism** — ingesting the same artifacts twice, or in any
  shuffled order, yields a byte-identical store file, trend JSON and trend
  dashboard HTML; re-ingestion is a recognised duplicate, never a mutation.
* **Interval-gated regression flags** — a shift between versions flags
  only when the confidence intervals are disjoint in the worsening
  direction; point deltas with overlapping intervals never flag.
* **Machine-checked report QC** — QC is green on a genuine report and
  detects a single tampered count, a widened CI, a reshuffled severity
  ranking, and a byte-tampered HTML render.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.results import CampaignResult, TrialRecord
from repro.observe import LongitudinalStore, build_trends, qc_files, qc_report
from repro.observe.store import _numeric_leaves
from repro.report import build_report, render_html, render_trends_html
from repro.report.model import load_results
from repro.utils.jsonsafe import dump_json_safe

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_campaign(strategy, drops, *, seed=0, wall=4.0):
    result = CampaignResult(
        baseline_accuracy=0.8, strategy=strategy, num_images=32, seed=seed,
        wall_seconds=wall,
    )
    for index, drop in enumerate(drops):
        result.add(
            TrialRecord(
                trial_index=index,
                description=f"site {index}",
                num_faults=1 + index % 3,
                accuracy=0.8 - drop,
                accuracy_drop=drop,
                injected_value=0,
                mac_unit=index % 4,
                metadata={"stratum": index % 4},
            )
        )
    return result


#: Tight, well-separated drop series: v1 is benign, v2 regresses hard
#: (disjoint t and Wilson intervals), v3 recovers (improvement).
V1_DROPS = [0.001 * i for i in range(12)]
V2_DROPS = [0.3 + 0.002 * i for i in range(12)]
V3_DROPS = [0.002 * i for i in range(12)]


def sweep_payload(drops, scenario="m/const0/random/8x8"):
    return {
        "wall_seconds": 4.0,
        "structure_digest": "feed" * 16,
        "registry_digest": "cafe" * 16,
        "scenarios": [
            {
                "scenario": scenario,
                "cell": [0, 0, 0, 0],
                "provenance": {"registry_digest": "cafe" * 16},
                "result": make_campaign("random", drops).to_dict(),
            }
        ],
    }


@pytest.fixture
def artifacts(tmp_path):
    paths = {}
    for label, drops in (("v1", V1_DROPS), ("v2", V2_DROPS), ("v3", V3_DROPS)):
        path = tmp_path / f"sweep_{label}.json"
        path.write_text(dump_json_safe(sweep_payload(drops), indent=2, sort_keys=True))
        paths[label] = path
    bench = tmp_path / "bench_throughput.json"
    bench.write_text(json.dumps(
        {"regimes": {"fused": {"speedup": 3.5}, "serial": {"speedup": 1.0}},
         "label": "not-a-number", "ok": True}
    ))
    paths["bench"] = bench
    return paths


class TestStoreDeterminism:
    def test_reingest_is_recognised_duplicate(self, tmp_path, artifacts):
        store = LongitudinalStore(tmp_path / "store.jsonl")
        first = store.ingest([artifacts["v1"]], version="v1")
        assert first == {"added": 1, "duplicates": 0, "total": 1}
        again = store.ingest([artifacts["v1"]], version="v1")
        assert again == {"added": 0, "duplicates": 1, "total": 1}

    def test_shuffled_ingestion_is_byte_identical(self, tmp_path, artifacts):
        orders = [["v1", "v2", "v3"], ["v3", "v1", "v2"], ["v2", "v3", "v1"]]
        outputs = []
        for index, order in enumerate(orders):
            store = LongitudinalStore(tmp_path / f"store_{index}.jsonl")
            for label in order:
                store.ingest([artifacts[label]], version=label)
            store.ingest([artifacts["bench"]], version="v1")
            trends = build_trends(store.entries())
            outputs.append(
                (
                    store.path.read_bytes(),
                    dump_json_safe(trends, sort_keys=True),
                    render_trends_html(trends),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_batch_order_within_one_ingest_is_irrelevant(self, tmp_path, artifacts):
        files = [artifacts["v1"], artifacts["v2"], artifacts["v3"]]
        a = LongitudinalStore(tmp_path / "a.jsonl")
        a.ingest(files, version="x")
        b = LongitudinalStore(tmp_path / "b.jsonl")
        shuffled = list(files)
        random.Random(3).shuffle(shuffled)
        b.ingest(shuffled, version="x")
        assert a.path.read_bytes() == b.path.read_bytes()

    def test_store_lines_are_sorted_dump_json_safe(self, tmp_path, artifacts):
        store = LongitudinalStore(tmp_path / "store.jsonl")
        store.ingest([artifacts["v1"], artifacts["bench"]], version="v1")
        lines = store.path.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert lines == [dump_json_safe(e, sort_keys=True) for e in parsed]
        assert [
            (e["kind"], e["scenario"], e["version"], e["id"]) for e in parsed
        ] == sorted((e["kind"], e["scenario"], e["version"], e["id"]) for e in parsed)

    def test_version_defaults_to_registry_digest_prefix(self, tmp_path, artifacts):
        store = LongitudinalStore(tmp_path / "store.jsonl")
        store.ingest([artifacts["v1"]])
        (entry,) = store.entries()
        assert entry["version"] == ("cafe" * 16)[:12]
        assert entry["key"]["structure_digest"] == "feed" * 16

    def test_campaign_artifact_gets_local_structure_digest(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(make_campaign("random", V1_DROPS).to_json())
        store = LongitudinalStore(tmp_path / "store.jsonl")
        store.ingest([path], version="v1")
        (entry,) = store.entries()
        assert entry["kind"] == "campaign"
        assert entry["scenario"] == "random"
        digest = entry["key"]["structure_digest"]
        assert isinstance(digest, str) and len(digest) == 64
        # The digest strips volatile accuracy floats: same trial structure
        # with different accuracies maps to the same key.
        other = tmp_path / "campaign2.json"
        other.write_text(make_campaign("random", [d + 0.1 for d in V1_DROPS]).to_json())
        store.ingest([other], version="v2")
        entries = store.entries()
        assert {e["key"]["structure_digest"] for e in entries} == {digest}

    def test_benchmark_numeric_leaves_flattened(self, tmp_path, artifacts):
        store = LongitudinalStore(tmp_path / "store.jsonl")
        store.ingest([artifacts["bench"]], version="v1")
        (entry,) = store.entries()
        assert entry["kind"] == "benchmark"
        assert entry["metrics"] == {
            "regimes.fused.speedup": 3.5,
            "regimes.serial.speedup": 1.0,
        }

    def test_profile_artifact_classified(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(
            {"profile": {"tape": {"seconds": 1.5, "calls": 8}},
             "gemm": {"float32_calls": 10}, "wall_seconds": 2.0, "num_trials": 4}
        ))
        store = LongitudinalStore(tmp_path / "store.jsonl")
        store.ingest([path], version="v1")
        (entry,) = store.entries()
        assert entry["kind"] == "profile"
        assert entry["metrics"]["profile.tape.seconds"] == 1.5

    def test_perfbench_trajectory_keeps_quartiles_only(self, tmp_path):
        """A committed ``BENCH_<label>.json`` becomes one entry per
        workload: parent/change median and quartiles of every end-to-end
        metric plus the traced round's values, without the raw runs."""
        source = REPO_ROOT / "BENCH_pr17.json"
        payload = json.loads(source.read_text())
        store = LongitudinalStore(tmp_path / "store.jsonl")
        assert store.ingest([source]) == {"added": 2, "duplicates": 0, "total": 2}
        entries = {entry["scenario"]: entry for entry in store.entries()}
        assert set(entries) == set(payload["workloads"]) == {"fleet-mem-48", "pool-fused-8"}
        for name, entry in entries.items():
            workload = payload["workloads"][name]
            assert entry["kind"] == "perfbench" and entry["version"] == "pr17"
            assert entry["key"]["provenance"]["seed"] == workload["seed"]
            want = {
                f"{metric}.{side}.{stat}": sides[side][stat]
                for metric, sides in workload["metrics"].items()
                for side in ("parent", "change")
                for stat in ("median", "q1", "q3")
            }
            want.update(
                (f"traced.{metric}.{side}", sides[side])
                for metric, sides in workload["traced_round"]["metrics"].items()
                for side in ("parent", "change")
            )
            assert entry["metrics"] == want
            assert not any("runs" in key or "failed" in key for key in entry["metrics"])
        trends = build_trends(store.entries())
        series = {(s["source"], s["metric"]): s["points"] for s in trends["benchmarks"]}
        assert series[("fleet-mem-48", "trials_per_s.change.median")] == [{
            "id": entries["fleet-mem-48"]["id"], "version": "pr17",
            "value": payload["workloads"]["fleet-mem-48"]["metrics"]["trials_per_s"]["change"]["median"],
        }]

    def test_malformed_perfbench_trajectory_fails(self, tmp_path):
        payload = json.loads((REPO_ROOT / "BENCH_pr17.json").read_text())
        del payload["workloads"]["fleet-mem-48"]["metrics"]["peak_rss_mb"]["change"]["q3"]
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(payload))
        store = LongitudinalStore(tmp_path / "store.jsonl")
        with pytest.raises(ValueError, match=r"fleet-mem-48\.metrics\.peak_rss_mb\.change\.q3 must be a number"):
            store.ingest([path])
        payload["workloads"] = {}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="non-empty"):
            store.ingest([path])
        assert not store.path.exists()

    def test_corrupt_inputs_fail_loudly(self, tmp_path):
        store = LongitudinalStore(tmp_path / "store.jsonl")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            store.ingest([bad])
        bad.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not an object"):
            store.ingest([bad])
        store.path.write_text("{broken\n")
        with pytest.raises(ValueError, match="corrupt store line"):
            store.entries()

    def test_numeric_leaves_skips_bools_and_strings(self):
        assert _numeric_leaves({"a": True, "b": "x", "c": {"d": 2}, "e": [1.5]}) == {
            "c.d": 2,
            "e.0": 1.5,
        }


class TestTrends:
    def _entries(self, tmp_path, artifacts, labels):
        store = LongitudinalStore(tmp_path / "store.jsonl")
        for label in labels:
            store.ingest([artifacts[label]], version=label)
        return store.entries()

    def test_disjoint_intervals_flag_regression(self, tmp_path, artifacts):
        trends = build_trends(self._entries(tmp_path, artifacts, ["v1", "v2"]))
        (series,) = trends["scenarios"]
        metrics = sorted(flag["metric"] for flag in series["regressions"])
        assert metrics == ["mean_accuracy_drop", "sdc_rate"]
        flag = series["regressions"][0]
        assert flag["from_version"] == "v1" and flag["to_version"] == "v2"
        assert flag["to_interval"]["low"] > flag["from_interval"]["high"]
        assert trends["num_regressions"] == 2

    def test_recovery_is_improvement_not_regression(self, tmp_path, artifacts):
        trends = build_trends(self._entries(tmp_path, artifacts, ["v1", "v2", "v3"]))
        (series,) = trends["scenarios"]
        assert [f["to_version"] for f in series["regressions"]] == ["v2", "v2"]
        assert {f["to_version"] for f in series["improvements"]} == {"v3"}

    def test_overlapping_intervals_never_flag(self, tmp_path, artifacts):
        # v1 vs v3 differ pointwise (0.001 vs 0.002 steps) but their
        # intervals overlap: a point delta must not raise a flag.
        trends = build_trends(self._entries(tmp_path, artifacts, ["v1", "v3"]))
        (series,) = trends["scenarios"]
        p1, p3 = series["points"]
        assert p1["mean_accuracy_drop"] != p3["mean_accuracy_drop"]
        assert series["regressions"] == []
        assert series["improvements"] == []

    def test_single_version_has_no_flags(self, tmp_path, artifacts):
        trends = build_trends(self._entries(tmp_path, artifacts, ["v1"]))
        (series,) = trends["scenarios"]
        assert len(series["points"]) == 1
        assert series["regressions"] == [] and series["improvements"] == []

    def test_ci_width_and_throughput_are_informational(self, tmp_path, artifacts):
        trends = build_trends(self._entries(tmp_path, artifacts, ["v1", "v2"]))
        (series,) = trends["scenarios"]
        for point in series["points"]:
            assert point["ci_width"] is not None and point["ci_width"] > 0
            assert point["throughput_trials_per_second"] == pytest.approx(12 / 4.0)
        assert not any(
            flag["metric"] in ("ci_width", "throughput_trials_per_second")
            for flag in series["regressions"] + series["improvements"]
        )

    def test_benchmark_series_tracked_per_metric(self, tmp_path, artifacts):
        store = LongitudinalStore(tmp_path / "store.jsonl")
        store.ingest([artifacts["bench"]], version="v1")
        store.ingest([artifacts["bench"]], version="v2")
        trends = build_trends(store.entries())
        assert [s["metric"] for s in trends["benchmarks"]] == [
            "regimes.fused.speedup",
            "regimes.serial.speedup",
        ]
        assert [p["version"] for p in trends["benchmarks"][0]["points"]] == ["v1", "v2"]


def _two_scenario_results(tmp_path):
    sweep = {
        "scenarios": [
            {"scenario": "a/benign", "result": make_campaign("random", V1_DROPS).to_dict()},
            {"scenario": "b/fragile", "result": make_campaign("random", V2_DROPS, seed=1).to_dict()},
        ]
    }
    path = tmp_path / "sweep.json"
    path.write_text(dump_json_safe(sweep, indent=2, sort_keys=True))
    return path, load_results(path)[1]


def _roundtrip(report):
    return json.loads(dump_json_safe(report))


class TestReportQC:
    def test_genuine_report_passes(self, tmp_path):
        path, results = _two_scenario_results(tmp_path)
        report = _roundtrip(build_report(results, kind="sweep", source=str(path)))
        assert qc_report(report, results) == []
        html = render_html(report, title="report")
        assert qc_report(report, results, html_text=html) == []

    def test_single_tampered_count_detected(self, tmp_path):
        path, results = _two_scenario_results(tmp_path)
        report = _roundtrip(build_report(results, kind="sweep", source=str(path)))
        report["reliability"]["outcomes"]["critical"] += 1
        findings = qc_report(report, results)
        assert [f["check"] for f in findings] == ["reliability.outcomes.critical"]

    def test_widened_ci_detected(self, tmp_path):
        path, results = _two_scenario_results(tmp_path)
        report = _roundtrip(build_report(results, kind="sweep", source=str(path)))
        ci = report["scenarios"][0]["summary"]["mean_drop_ci"]
        ci["low"] -= 0.01
        ci["high"] += 0.01
        findings = qc_report(report, results)
        checks = {f["check"] for f in findings}
        assert "scenarios[0].summary.mean_drop_ci.low" in checks
        assert "scenarios[0].summary.mean_drop_ci.high" in checks

    def test_severity_ranking_tamper_detected(self, tmp_path):
        path, results = _two_scenario_results(tmp_path)
        report = _roundtrip(build_report(results, kind="sweep", source=str(path)))
        assert report["reliability"]["most_fragile_scenario"] == "b/fragile"
        report["reliability"]["most_fragile_scenario"] = "a/benign"
        findings = qc_report(report, results)
        assert any(f["check"] == "reliability.most_fragile_scenario" for f in findings)

    def test_strata_ranking_tamper_detected(self, tmp_path):
        path, results = _two_scenario_results(tmp_path)
        report = _roundtrip(build_report(results, kind="sweep", source=str(path)))
        strata = report["scenarios"][0]["strata"]
        assert len(strata) >= 2
        strata.reverse()
        findings = qc_report(report, results)
        assert any(f["check"].startswith("scenarios[0].strata") for f in findings)

    def test_html_byte_tamper_detected(self, tmp_path):
        path, results = _two_scenario_results(tmp_path)
        report = _roundtrip(build_report(results, kind="sweep", source=str(path)))
        html = render_html(report, title="report")
        findings = qc_report(report, results, html_text=html.replace("critical", "crit", 1))
        assert [f["check"] for f in findings] == ["html"]

    def test_missing_section_is_a_finding(self, tmp_path):
        path, results = _two_scenario_results(tmp_path)
        report = _roundtrip(build_report(results, kind="sweep", source=str(path)))
        del report["reliability"]
        findings = qc_report(report, results)
        assert findings[0]["check"] == "reliability"
        assert "missing" in findings[0]["note"]

    def test_source_path_and_registry_digest_are_exempt(self, tmp_path):
        path, results = _two_scenario_results(tmp_path)
        report = _roundtrip(build_report(results, kind="sweep", source=str(path)))
        report["source"] = "/some/other/machine/sweep.json"
        report["registry_digest"] = "0" * 64
        assert qc_report(report, results) == []

    def test_qc_files_end_to_end(self, tmp_path):
        path, results = _two_scenario_results(tmp_path)
        report = build_report(results, kind="sweep", source=str(path))
        report_path = tmp_path / "report.json"
        report_path.write_text(dump_json_safe(report, indent=2, sort_keys=True) + "\n")
        html_path = tmp_path / "report.html"
        html_path.write_text(render_html(_roundtrip(report), title="t"))
        assert qc_files(report_path, path, html_path) == []
        tampered = json.loads(report_path.read_text())
        tampered["reliability"]["total_trials"] += 1
        report_path.write_text(dump_json_safe(tampered, indent=2, sort_keys=True) + "\n")
        findings = qc_files(report_path, path)
        assert any(f["check"] == "reliability.total_trials" for f in findings)


class TestObserveCLI:
    def test_ingest_trends_qc_flow(self, tmp_path, artifacts, capsys):
        store = str(tmp_path / "observe" / "store.jsonl")
        for label in ("v1", "v2"):
            assert main([
                "observe", "ingest", "--store", store,
                str(artifacts[label]), "--version", label,
            ]) == 0
        trends_json = tmp_path / "trends.json"
        trends_html = tmp_path / "trends.html"
        assert main([
            "observe", "trends", "--store", store,
            "--json", str(trends_json), "--html", str(trends_html),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 regression(s) flagged" in out
        assert "REGRESSION" in out
        assert json.loads(trends_json.read_text())["num_regressions"] == 2
        assert trends_html.read_text().startswith("<!DOCTYPE html>")

    def test_trends_gate_fails_on_regression(self, tmp_path, artifacts):
        store = str(tmp_path / "store.jsonl")
        for label in ("v1", "v2"):
            main(["observe", "ingest", "--store", store,
                  str(artifacts[label]), "--version", label])
        assert main(["observe", "trends", "--store", store, "--gate"]) == 1

    def test_trends_on_empty_store_is_user_error(self, tmp_path, capsys):
        assert main(["observe", "trends", "--store", str(tmp_path / "none.jsonl")]) == 2
        assert "is empty" in capsys.readouterr().err

    def test_report_qc_flag_green_and_observe_qc_detects_tamper(
        self, tmp_path, artifacts, capsys
    ):
        report_json = tmp_path / "report.json"
        report_html = tmp_path / "report.html"
        assert main([
            "report", "--input", str(artifacts["v1"]),
            "--html", str(report_html), "--json", str(report_json), "--qc",
        ]) == 0
        assert "report QC: every claim recomputed" in capsys.readouterr().out
        assert main([
            "observe", "qc", "--report", str(report_json),
            "--source", str(artifacts["v1"]), "--html", str(report_html),
        ]) == 0
        tampered = json.loads(report_json.read_text())
        tampered["scenarios"][0]["summary"]["num_trials"] += 1
        report_json.write_text(dump_json_safe(tampered, indent=2, sort_keys=True))
        assert main([
            "observe", "qc", "--report", str(report_json),
            "--source", str(artifacts["v1"]),
        ]) == 1
        err = capsys.readouterr().err
        assert "QC FAIL" in err and "num_trials" in err
