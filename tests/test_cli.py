"""Tests for the command-line interface (argument parsing and small end-to-end runs)."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


#: CLI arguments selecting a tiny, quickly trained model for end-to-end runs.
TINY_MODEL_ARGS = [
    "--width", "0.125",
    "--epochs", "1",
    "--train-images", "120",
    "--test-images", "40",
    "--seed", "21",
]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_describe_defaults(self):
        args = build_parser().parse_args(["describe"])
        assert args.command == "describe"
        assert args.width == 0.25

    def test_campaign_arguments(self):
        args = build_parser().parse_args(
            ["campaign", "--strategy", "per-mac", "--values", "0", "-1", "--trials", "3"]
        )
        assert args.strategy == "per-mac"
        assert args.values == [0, -1]
        assert args.trials == 3

    def test_heatmap_arguments(self):
        args = build_parser().parse_args(["heatmap", "--value", "-1", "--images", "32"])
        assert args.value == -1
        assert args.images == 32

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "--spec", "grid.toml", "--workers", "4", "--resume", "--list"]
        )
        assert args.spec == "grid.toml"
        assert args.workers == 4
        assert args.resume is True
        assert args.list is True
        assert args.sweep_dir == "sweep-out"

    def test_sweep_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_profile_and_fused_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--profile", "--fused-trials", "4"]
        )
        assert args.profile is True
        assert args.fused_trials == 4
        args = build_parser().parse_args(["campaign"])
        assert args.profile is False and args.fused_trials == 8
        args = build_parser().parse_args(
            ["sweep", "--spec", "grid.toml", "--profile", "--fused-trials", "2"]
        )
        assert args.profile is True and args.fused_trials == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestEndToEnd:
    def test_describe_and_table1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # REPRO_CACHE_DIR is read at import time by repro.zoo; patch the module
        # attribute directly so the tiny model is cached in tmp_path.
        import repro.zoo as zoo

        monkeypatch.setattr(zoo, "DEFAULT_CACHE_DIR", tmp_path)

        assert main(["describe", *TINY_MODEL_ARGS]) == 0
        out = capsys.readouterr().out
        assert "fault sites: 64" in out
        assert "int8 accuracy" in out

        assert main(["table1", *TINY_MODEL_ARGS]) == 0
        out = capsys.readouterr().out
        assert "NVDLA + FI (variable error)" in out

    def test_campaign_and_heatmap(self, tmp_path, capsys, monkeypatch):
        import repro.zoo as zoo

        monkeypatch.setattr(zoo, "DEFAULT_CACHE_DIR", tmp_path)
        campaign_out = tmp_path / "campaign.json"
        checkpoint = tmp_path / "campaign.jsonl"
        code = main([
            "campaign", *TINY_MODEL_ARGS,
            "--values", "0",
            "--counts", "1", "8",
            "--trials", "1",
            "--images", "16",
            "--output", str(campaign_out),
            "--checkpoint", str(checkpoint),
            "--profile",
        ])
        assert code == 0
        records = json.loads(campaign_out.read_text())
        assert len(records["records"]) == 2
        out = capsys.readouterr().out
        assert "baseline accuracy" in out
        assert "stage profile written" in out
        profile = json.loads((tmp_path / "campaign.jsonl.profile.json").read_text())
        assert profile["num_trials"] == 2
        assert "correction" in profile["profile"]
        assert profile["gemm"]["float32_calls"] > 0

        heatmap_out = tmp_path / "heatmap.json"
        code = main([
            "heatmap", *TINY_MODEL_ARGS,
            "--value", "0",
            "--images", "8",
            "--output", str(heatmap_out),
        ])
        assert code == 0
        data = json.loads(heatmap_out.read_text())
        assert len(data["heatmap"]) == 8
        out = capsys.readouterr().out
        assert "most sensitive site" in out

    def test_sweep(self, tmp_path, capsys, monkeypatch):
        import repro.zoo as zoo

        monkeypatch.setattr(zoo, "DEFAULT_CACHE_DIR", tmp_path)
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({
            "images": 16,
            "models": [{
                "name": "tiny",
                "params": {"width_multiplier": 0.125, "epochs": 1,
                           "num_train": 120, "num_test": 40, "seed": 21},
            }],
            "faults": [
                {"name": "const0", "kind": "const", "values": [0]},
                {"name": "acc", "kind": "acc-stuck", "bits": [21], "stuck": 1},
            ],
            "strategies": [
                {"name": "random", "kind": "random", "counts": [1], "trials": 1},
            ],
        }))

        assert main(["sweep", "--spec", str(spec_path), "--list"]) == 0
        out = capsys.readouterr().out
        assert "2 scenario(s)" in out
        assert "tiny/acc/random/8x8" in out

        sweep_dir = tmp_path / "out"
        code = main([
            "sweep", "--spec", str(spec_path),
            "--sweep-dir", str(sweep_dir),
            "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "structure digest:" in out
        merged = (sweep_dir / "sweep.jsonl").read_text()
        assert merged.count('"kind": "scenario"') == 2
        payload = json.loads((sweep_dir / "sweep.json").read_text())
        assert len(payload["scenarios"]) == 2

        # resume over the finished sweep is a no-op with identical artifacts
        code = main([
            "sweep", "--spec", str(spec_path),
            "--sweep-dir", str(sweep_dir),
            "--workers", "2",
            "--resume",
        ])
        assert code == 0
        assert (sweep_dir / "sweep.jsonl").read_text() == merged

    def test_sweep_profile_ingests_as_profile(self, tmp_path, capsys, monkeypatch):
        import repro.zoo as zoo

        monkeypatch.setattr(zoo, "DEFAULT_CACHE_DIR", tmp_path)
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({
            "images": 8,
            "models": [{
                "name": "tiny",
                "params": {"width_multiplier": 0.125, "epochs": 1,
                           "num_train": 120, "num_test": 40, "seed": 21},
            }],
            "faults": [{"name": "const0", "kind": "const", "values": [0]}],
            "strategies": [
                {"name": "random", "kind": "random", "counts": [1], "trials": 2},
            ],
        }))
        sweep_dir = tmp_path / "out"
        assert main([
            "sweep", "--spec", str(spec_path), "--sweep-dir", str(sweep_dir), "--profile",
        ]) == 0
        assert "stage profile written" in capsys.readouterr().out
        profile = json.loads((sweep_dir / "profile.json").read_text())
        assert profile["num_trials"] == 2 and profile["processes"] == 1
        assert "correction" in profile["profile"]
        assert set(profile["scenarios"]) == {"tiny/const0/random/8x8"}

        store = tmp_path / "store.jsonl"
        assert main([
            "observe", "ingest", str(sweep_dir / "profile.json"), "--store", str(store),
        ]) == 0
        kinds = {json.loads(line)["kind"] for line in store.read_text().splitlines()}
        assert kinds == {"profile"}


class TestValidateAndCleanErrors:
    """`repro validate` plus the traceback-free error path of `main()`."""

    REPO_ROOT = Path(__file__).resolve().parent.parent
    BROKEN_SPEC = str(REPO_ROOT / "tests" / "data" / "broken_sweep.toml")

    GOOD_SPEC = {
        "images": 16,
        "faults": [{"name": "const0", "kind": "const", "values": [0]}],
        "strategies": [
            {"name": "random", "kind": "random", "counts": [1], "trials": 1},
        ],
    }

    def _write_good_spec(self, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(self.GOOD_SPEC))
        return path

    def test_validate_accepts_good_spec(self, tmp_path, capsys):
        path = self._write_good_spec(tmp_path)
        assert main(["validate", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "is valid: 1 scenario(s)" in out
        assert "registry digest:" in out

    def test_validate_lists_registered_kinds(self, capsys):
        assert main(["validate", "--kinds"]) == 0
        out = capsys.readouterr().out
        assert "fault kinds:" in out and "strategy kinds:" in out
        assert "const" in out and "stratified" in out
        assert "registry digest:" in out

    def test_validate_requires_spec_or_kinds(self, capsys):
        assert main(["validate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--spec" in err

    def test_validate_reports_every_problem_in_broken_spec(self, tmp_path, capsys):
        assert main(["validate", "--spec", self.BROKEN_SPEC]) == 1
        err = capsys.readouterr().err
        assert "5 problem(s)" in err
        assert "spec key 'images' must be an integer" in err
        assert "unknown sweep spec keys ['bogus_key']" in err
        # unknown-kind errors enumerate the live registry, not a frozen list
        assert "unknown kind 'no-such-fault'" in err
        assert "registered fault kinds:" in err and "bitflip" in err
        assert "parameter 'counts' must be a list of integers" in err
        assert "unknown parameters ['typo']" in err
        assert "Traceback" not in err
        # A spec written for the removed clean-GEMM cache knob fails through
        # the same unknown-parameter error.
        legacy = dict(self.GOOD_SPEC, platforms=[
            {"name": "8x8", "num_macs": 8, "muls_per_mac": 8, "gemm_cache_entries": 128},
        ])
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(legacy))
        assert main(["validate", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert (
            "unknown parameters ['gemm_cache_entries'] for platform kind 'nvdla'" in err
        )
        assert "Traceback" not in err

    def test_example_specs_all_validate(self, capsys):
        specs = sorted((self.REPO_ROOT / "examples").glob("*.toml"))
        assert specs, "expected at least one example spec"
        for spec in specs:
            assert main(["validate", "--spec", str(spec)]) == 0, spec
        assert "is valid" in capsys.readouterr().out

    def test_sweep_rejects_broken_spec_without_traceback(self, capsys):
        assert main(["sweep", "--spec", self.BROKEN_SPEC, "--list"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "unknown kind 'no-such-fault'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv,event", [
        (["campaign", "--chaos-plan"],
         {"action": "delay", "worker": 0, "after_records": 0, "seconds": [1]}),
        (["serve", "--port", "0", "--net-chaos"],
         {"action": "slow-link", "node": 0, "after_requests": 0, "seconds": [1]}),
        # A plan of the other executor's events.
        (["campaign", "--chaos-plan"], {"action": "drop", "node": 0, "after_requests": 0}),
        (["serve", "--port", "0", "--net-chaos"],
         {"action": "kill", "worker": 0, "after_records": 0}),
    ], ids=["campaign-seconds", "serve-seconds", "campaign-network", "serve-worker"])
    def test_broken_chaos_plan_is_a_clean_error(self, tmp_path, capsys, argv, event):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"events": [event]}))
        assert main([*argv, str(plan)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_malformed_toml_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "mangled.toml"
        path.write_text("[[faults]\nname =")
        assert main(["validate", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_missing_spec_file_is_a_clean_error(self, capsys):
        assert main(["sweep", "--spec", "does/not/exist.toml", "--list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
