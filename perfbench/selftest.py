"""Self-test of the benchmark: a minimum-scale run of every workload.

Run from the root of the repository (takes a few minutes once the
case-study model is cached)::

    python3 perfbench/selftest.py

It checks that

* ``run.py --smoke`` prints, for every workload, exactly the end-to-end
  metrics ``BENCHMARK.json`` names (``--trace 0``) and exactly its
  per-layer metrics (``--trace 1``), each with its unit, and passes the
  correctness gate with nothing failed;
* a tampered reference digest (``--tamper``) trips the gate;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, ``run.py`` exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=900,
    )


def _result(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: {result}"
    return result


def _check_metrics(result: dict, expected: list[dict], what: str) -> None:
    units = {m["name"]: m["unit"] for m in expected}
    printed = {name: value["unit"] for name, value in result["metrics"].items()}
    assert printed == units, f"{what}: printed {printed}, expected {units}"
    for name, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), f"{what}: {name} = {value}"


def main() -> int:
    root = HERE.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)

    for workload in wl.WORKLOADS:
        for trace, expected in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            what = f"{workload} --trace {trace}"
            result = _result(
                _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", trace, "--smoke"], root),
                what,
            )
            _check_metrics(result, expected, what)
            assert result["correct"] and result["failed"] == 0, f"{what}: {result}"
            print(f"ok: {what}: {result['attempted']} trials, all metrics printed", flush=True)

    tampered = _result(
        _run(["--workload", "pool-fused-8", "--seed", "1", "--seconds", "1",
              "--trace", "0", "--smoke", "--tamper"], root),
        "tampered run",
    )
    assert tampered["correct"] is False and tampered["failed"] > 0, tampered
    print("ok: a tampered reference digest fails the correctness gate", flush=True)

    bare = root / ".bench_build" / "perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "pool-fused-8", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    shutil.rmtree(bare)
    print("ok: without the program's sources run.py fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
