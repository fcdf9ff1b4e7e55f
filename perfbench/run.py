"""FT-campaign benchmark: fault-injection trials per second, end to end.

Run from the root of the repository::

    python3 perfbench/run.py --workload pool-fused-8 --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``pool-fused-8`` (2-process
ParallelCampaignRunner) and ``fleet-mem-48`` (in-process coordinator plus
two ``repro worker`` subprocesses).

The run repeats the workload in rounds, each a fresh process launched with
the workload's BLAS thread budget (cores split evenly between the
processes that evaluate trials), until the rounds have measured
``--seconds``.  Every round sets up once and runs the same campaign (the
fleet: the same job) a fixed number of times, each campaign one timed
sample; the last line of stdout is one JSON object.

Throughput is the median over the samples of a run: ``trials_per_s`` is
the median campaign's trials / (its wall - its start-up), and
``cpu_s_per_trial`` the median of the campaigns' CPU per trial.  The
speed of a small shared host swings by up to ~45% for seconds to minutes
at a time, so a run takes several samples spread over its whole length
(the fastest sample is in the provenance line).  ``setup_s`` is the
median over rounds.
``peak_rss_mb`` is the smallest timed-phase resident-set peak of any process
that evaluates trials (pool workers, fleet nodes): a fleet node's peak
swings by up to ~150 MB with the order its leases happened to arrive in,
which the smallest of the run's nodes rides out; the largest peak of any
process is in the provenance line.

* ``--trace 0`` reports the end-to-end metrics of untraced rounds.
* ``--trace 1`` alternates untraced and traced rounds and reports the
  per-layer metrics of the traced ones (see ``layers.py``), the share of
  trial wall time they attribute, and the tracing overhead.  The per-op
  rows are written to ``.bench_build/perfbench/trace-<workload>-<seed>.json``.

Correctness gate, on every run: all rounds must produce byte-identical
records; the first round compares them with a reference (a serial run of
the same campaign, or a serial sweep for the fleet), checks the baseline
accuracy against the bit-exact CPU backend, and checks the cycle-model
statistics (not validated against FPGA hardware) against their pinned
values.

The first run in a checkout trains and caches the case-study model under
``.bench_build/perfbench/model-cache`` (about 3 minutes on 2 cores).
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent

#: End-to-end metric name -> unit.
END_TO_END = {
    "trials_per_s": "trials/s",
    "images_per_s": "images/s",
    "setup_s": "s",
    "cpu_s_per_trial": "s",
    "peak_rss_mb": "MB",
    "delivered_fraction": "ratio",
}

#: Rounds a run needs before it may stop: untraced rounds without
#: tracing; (untraced, traced) rounds with it.
MIN_ROUNDS = 2
MIN_TRACE_ROUNDS = (1, 1)
#: No new round starts after this many seconds of a run.
ROUND_CUTOFF_S = 110.0
#: Seconds one round may take (a round takes ~15-25 s), so that two rounds
#: stay inside a run's time limit; the model training has its own limit.
ROUND_TIMEOUT_S = 75.0
PREPARE_TIMEOUT_S = 850.0


class BenchError(RuntimeError):
    pass


def _run(command: list[str], env: dict, timeout: float) -> None:
    """Run a round (or the model preparation) in its own process group, so
    a timeout also stops the pool or fleet workers it started."""
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(command[:4])} ... timed out after {timeout:.0f}s")
    if proc.returncode != 0:
        tail = output.decode(errors="replace")[-4000:]
        raise BenchError(f"{' '.join(command[:4])} ... exited {proc.returncode}:\n{tail}")


def _median(rounds: list[dict], value) -> float:
    return statistics.median(value(r) for r in rounds)


def _rates(rounds: list[dict]) -> list[float]:
    """Trials per second of every timed campaign of ``rounds``."""
    return [trials / wall for r in rounds for trials, wall, _ in r["samples"]]


def _throughput(rounds: list[dict]) -> float:
    return statistics.median(_rates(rounds))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="FT-campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-scale campaigns (benchmark self-test)")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt the reference digest (must fail the gate)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src}/repro not found; run from the repository root", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    out_dir = root / ".bench_build" / "perfbench"
    cache = out_dir / "model-cache"
    work = out_dir / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    python_path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    threads = wl.blas_threads(workload)
    env = {**os.environ, "PYTHONPATH": python_path, **wl.blas_env(threads)}
    round_py = str(HERE / "round.py")
    _run(
        [sys.executable, round_py, "--prepare", "--cache", str(cache)],
        {**env, **wl.blas_env(wl.cores())},
        PREPARE_TIMEOUT_S,
    )

    rounds: list[dict] = []
    started = time.perf_counter()
    measured = 0.0
    while True:
        number = len(rounds)
        traced = bool(args.trace) and number % 2 == 1
        result_path = work / f"round-{number}.json"
        command = [
            sys.executable, round_py,
            "--workload", workload.name,
            "--seed", str(args.seed),
            "--cache", str(cache),
            "--work", str(work / f"round-{number}"),
            "--result", str(result_path),
        ]
        command += ["--verify"] if number == 0 else []
        command += ["--traced"] if traced else []
        command += ["--smoke"] if args.smoke else []
        command += ["--tamper"] if args.tamper else []
        _run(command, env, ROUND_TIMEOUT_S)
        rounds.append(json.loads(result_path.read_text()))
        measured += rounds[-1]["wall_s"]
        untraced = sum(1 for r in rounds if not r["traced"])
        if args.trace:
            enough = untraced >= MIN_TRACE_ROUNDS[0] and (
                len(rounds) - untraced >= MIN_TRACE_ROUNDS[1]
            )
        else:
            enough = untraced >= MIN_ROUNDS
        if enough and (
            measured >= args.seconds or time.perf_counter() - started > ROUND_CUTOFF_S
        ):
            break

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    failures = [f"round {i}: {f}" for i, r in enumerate(rounds) for f in r["failures"]]
    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        failures.append(f"rounds produced {len(digests)} different record digests")
    correct = not failures and rounds[0]["verified"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(
        r["attempted"] if r["failures"] else r["attempted"] - r["trials"] + r["reclaimed"]
        for r in rounds
    )
    if len(digests) != 1:
        failed = attempted

    if args.trace:
        import layers

        metrics = {
            name: {
                "value": statistics.median(r["layers"][name] for r in traced_rounds),
                "unit": unit,
            }
            for name, unit in layers.UNITS.items()
            if name != "tracing_overhead"
        }
        metrics["tracing_overhead"] = {
            "value": _throughput(plain) / _throughput(traced_rounds) - 1.0,
            "unit": layers.UNITS["tracing_overhead"],
        }
        trace_path = out_dir / f"trace-{workload.name}-{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed,
             "rounds": [{"layers": r["layers"], "ops": r["ops"]} for r in traced_rounds]},
            indent=1, sort_keys=True,
        ))
        print(f"per-op trace rows: {trace_path}")
    else:
        values = {
            "trials_per_s": _throughput(plain),
            "images_per_s": _throughput(plain) * workload.images,
            "setup_s": _median(plain, lambda r: r["setup_s"]),
            "cpu_s_per_trial": statistics.median(
                cpu / trials for r in plain for trials, _, cpu in r["samples"]
            ),
            "peak_rss_mb": min(
                (mb for r in plain for mb in r["worker_peaks_mb"]), default=0.0
            ),
            "delivered_fraction": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    first = rounds[0]
    provenance = {
        "workload": workload.name,
        "inputs": first["inputs"],
        "rounds": len(rounds),
        "traced_rounds": len(traced_rounds),
        "measured_s": measured,
        "samples": len(_rates(plain)),
        "best_trials_per_s": max(_rates(plain)),
        "largest_process_rss_mb": max(r["peak_rss_mb"] for r in plain),
        "cores": wl.cores(),
        "processes": workload.processes,
        "blas_threads_per_process": threads,
        "blas": first["blas"],
        "blas_version": first["blas_version"],
        "blas_config": first["blas_config"],
        "numpy": first["numpy"],
        "python": host.python_version(),
        "machine": host.machine(),
        "failed_fraction": failed / attempted,
        "failures": failures,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
