"""One round of a benchmark workload, in a fresh process.

``run.py`` launches this with the workload's BLAS thread budget and
``PYTHONPATH`` set; it is not meant to be run by hand, but can be::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/round.py \\
        --workload pool-fused-8 --seed 0 --cache .bench_build/perfbench/model-cache \\
        --work round-out --result round.json [--verify] [--traced]

A round sets the platform up, runs the workload's campaign (or fleet job)
a fixed number of times through the public API and writes one JSON object
to ``--result``: its set-up time, one timed *sample* per campaign (trials,
wall seconds, CPU seconds), the digest of its records, the checks it
failed and, when traced, its per-layer metrics and per-op rows.
``--verify`` adds the correctness gate's reference computation after the
timed phase.  ``--prepare`` trains and caches the case-study model,
nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import procstat
import workloads as wl

HERE = Path(__file__).resolve().parent
clock = time.perf_counter

#: Seconds a fleet round may take before it is abandoned.
FLEET_TIMEOUT = 60.0
#: Exit codes of a fleet worker that served its round: idle exit, or the
#: SIGTERM the round sends once its last job is done.
WORKER_EXITS = (0, 143)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _records_digest(records) -> str:
    from repro.core.parallel import checkpoint_record_line

    ordered = sorted(records, key=lambda r: r.trial_index)
    return _digest("".join(checkpoint_record_line(r) for r in ordered))


def _window(case, inputs: wl.Inputs):
    start, stop = inputs.image_offset, inputs.image_offset + inputs.images
    return case.dataset.test_images[start:stop], case.dataset.test_labels[start:stop]


def _product_strategy(inputs: wl.Inputs):
    """Whole-array constant-0 product faults at 1-4 multipliers."""
    from repro.core.strategies import RandomMultipliers

    return RandomMultipliers(
        values=(0,), fault_counts=(1, 2, 3, 4), trials_per_point=inputs.trials // 4
    )


def _load(cache: str):
    from repro.zoo import CaseStudySpec, case_study_platform_spec

    return case_study_platform_spec(CaseStudySpec(), cache_dir=cache)


class Gate:
    """The correctness checks one round failed (empty = passed)."""

    def __init__(self, tamper: bool):
        self.tamper = tamper
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def reference(self, digest: str) -> str:
        """A reference digest as the gate compares it (``--tamper`` corrupts
        it, which must make the round fail)."""
        return _digest("tampered:" + digest) if self.tamper else digest

    def simulated(self, ips: float | None, macs: int) -> None:
        # Cycle-model numbers, not checked against FPGA hardware.
        self.expect(
            ips == wl.SIMULATED_INFERENCES_PER_SECOND,
            f"simulated inferences/s {ips!r} != {wl.SIMULATED_INFERENCES_PER_SECOND!r}",
        )
        self.expect(
            macs == wl.SIMULATED_MACS_PER_INFERENCE,
            f"simulated MACs/inference {macs} != {wl.SIMULATED_MACS_PER_INFERENCE}",
        )

    def baseline(self, platform, images, labels, baseline: float) -> None:
        reference = platform.cpu_reference_accuracy(images, labels)
        self.expect(
            baseline == reference,
            f"baseline accuracy {baseline!r} != CPU reference {reference!r}",
        )


class Tally:
    """The campaigns of one round: their records and timed samples."""

    def __init__(self, gate: Gate):
        self.gate = gate
        self.trials = self.attempted = self.reclaimed = 0
        self.digests: list[str] = []
        #: ``[trials, wall seconds, CPU seconds]`` of each timed campaign.
        self.samples: list[list[float]] = []

    def add(self, *, trials: int, attempted: int, reclaimed: int, digest: str,
            sample: list[float] | None) -> None:
        self.trials += trials
        self.attempted += attempted
        self.reclaimed += reclaimed
        self.digests.append(digest)
        if sample is not None:
            self.samples.append(sample)

    def output(self, *, setup_s: float, wall_s: float, peaks: procstat.PeakSampler,
               workers: list[int], baseline: float | None) -> dict:
        distinct = len(set(self.digests))
        self.gate.expect(distinct == 1, f"the round's campaigns produced {distinct} record digests")
        return {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "samples": self.samples,
            "peak_rss_mb": peaks.peak(),
            "worker_peaks_mb": peaks.peaks_of(workers),
            "attempted": self.attempted,
            "trials": self.trials,
            "reclaimed": self.reclaimed,
            "digest": self.digests[0],
            "baseline": baseline,
        }


# ----------------------------------------------------------------------
# pool: pool-fused-8
# ----------------------------------------------------------------------
class _FirstRecord(threading.Thread):
    """Polls a campaign's checkpoint; the first record line ends the
    campaign's start-up and begins its timed sample."""

    def __init__(self, path: Path, peaks: procstat.PeakSampler, period: float = 0.002):
        super().__init__(daemon=True)
        self.path = path
        self.peaks = peaks
        self.period = period
        self.at: float | None = None
        self.cpu = 0.0
        self.workers: list[int] = []
        self._halt = threading.Event()

    def _landed(self) -> bool:
        try:
            return b'"kind": "record"' in self.path.read_bytes()
        except FileNotFoundError:
            return False

    def _begin(self, at: float) -> None:
        self.at = at
        self.cpu = procstat.tree_cpu()
        self.workers = procstat.forked_children()
        self.peaks.begin()

    def run(self) -> None:
        while not self._halt.wait(self.period):
            if self._landed():
                self._begin(clock())
                return

    def stop(self, end: float) -> None:
        self._halt.set()
        self.join()
        if self.at is None:  # every record landed after the last poll
            self._begin(end)


def run_pool(inputs: wl.Inputs, args, gate: Gate) -> dict:
    from repro.core.campaign import CampaignConfig
    from repro.core.parallel import ParallelCampaignRunner

    work = Path(args.work)
    peaks = procstat.PeakSampler()
    tally = Tally(gate)
    setup_s = None
    start = clock()
    spec, case = _load(args.cache)
    images, labels = _window(case, inputs)
    strategy = _product_strategy(inputs)
    config = CampaignConfig(seed=inputs.strategy_seed)
    workers: list[int] = []
    for number in range(inputs.campaigns):
        checkpoint = work / f"pool-checkpoint-{number}.jsonl"
        checkpoint.unlink(missing_ok=True)
        watcher = _FirstRecord(checkpoint, peaks)
        watcher.start()
        runner = ParallelCampaignRunner(
            spec,
            strategy,
            config,
            workers=wl.WORKLOADS[inputs.workload].processes,
            checkpoint=checkpoint,
        )
        result = runner.run(images, labels)
        end = clock()
        watcher.stop(end)
        peaks.end()
        cpu = procstat.tree_cpu() - watcher.cpu
        workers += watcher.workers
        if setup_s is None:
            setup_s = watcher.at - start
        tally.add(
            trials=len(result.records),
            attempted=strategy.expected_trials(spec.universe()),
            reclaimed=(result.recovery or {}).get("reclaimed", 0),
            digest=_records_digest(result.records),
            sample=[len(result.records), end - watcher.at, cpu],
        )
    out = tally.output(
        setup_s=setup_s, wall_s=end - start, peaks=peaks, workers=workers,
        baseline=result.baseline_accuracy,
    )
    if args.verify:
        platform = spec.build()
        gate.baseline(platform, images, labels, result.baseline_accuracy)
        gate.simulated(result.emulated_inferences_per_second, platform.loadable.total_macs())
        serial = ParallelCampaignRunner(platform, strategy, config).run(images, labels)
        gate.expect(
            out["digest"] == gate.reference(_records_digest(serial.records)),
            "pool records differ from a serial run of the same campaign",
        )
    return out


# ----------------------------------------------------------------------
# fleet: fleet-mem-48
# ----------------------------------------------------------------------
def _spawn_worker(number: int, url: str, args, trace_dir: Path | None):
    command = [sys.executable]
    if trace_dir is not None:
        command += [str(HERE / "fleet_worker.py"), str(trace_dir), "--"]
    else:
        command += ["-m", "repro"]
    command += [
        "worker",
        "--coordinator", url,
        "--name", f"node-{number}",
        "--cache-dir", args.cache,
        # Workers idle between jobs and in a job's tail; the round stops
        # them itself once its last job is done.
        "--max-idle", "30",
        "--jitter-seed", str(number),
    ]
    log = open(Path(args.work) / f"worker-{number}.log", "w")
    try:
        return subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
    finally:
        log.close()


def _reap(procs: list) -> list[int | None]:
    codes = []
    for proc in procs:
        try:
            codes.append(proc.wait(timeout=30))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            codes.append(None)
    return codes


def run_fleet(inputs: wl.Inputs, args, gate: Gate, trace_dir: Path | None) -> dict:
    """Jobs run one after another on the same two workers.  The first is
    the warm-up: it ends set-up (its first record) and builds each
    worker's platform; every later job is one timed sample, from its
    submission to its completion."""
    import shutil

    from repro.core.sweep import ExperimentSpec
    from repro.service.coordinator import CampaignCoordinator
    from repro.service.jobs import JOB_DONE, JOB_FAILED

    artifacts = Path(args.work) / "fleet-artifacts"
    shutil.rmtree(artifacts, ignore_errors=True)
    spec = ExperimentSpec.from_dict(wl.fleet_spec(inputs))
    peaks = procstat.PeakSampler()
    tally = Tally(gate)
    start = clock()
    # Idle workers poll every heartbeat_interval / 2, so a submitted job
    # is picked up within 0.1 s.
    coordinator = CampaignCoordinator(
        "127.0.0.1", 0, artifacts_dir=artifacts, heartbeat_interval=0.2, shard_size=4
    )
    coordinator.start()
    procs: list = []
    jobs: list = []
    samples: dict[str, list[float]] = {}
    first_record: float | None = None
    try:
        procs = [
            _spawn_worker(n, f"127.0.0.1:{coordinator.port}", args, trace_dir)
            for n in range(wl.WORKLOADS[inputs.workload].processes)
        ]
        deadline = start + FLEET_TIMEOUT
        for number in range(inputs.campaigns):
            if number == 1:
                peaks.begin()
            cpu = procstat.tree_cpu()
            submitted = clock()
            job = coordinator.jobs[coordinator.submit(spec)]
            jobs.append(job)
            while job.state not in (JOB_DONE, JOB_FAILED):
                if clock() > deadline or all(p.poll() is not None for p in procs):
                    break
                if first_record is None and any(s.records for s in job.scenarios):
                    first_record = clock()
                time.sleep(0.005)
            done = clock()
            if job.state != JOB_DONE:
                break
            if number > 0:
                trials = sum(len(s.records) for s in job.scenarios)
                samples[job.job_id] = [trials, done - submitted, procstat.tree_cpu() - cpu]
        peaks.end()
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        codes = _reap(procs)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        coordinator.shutdown()
    gate.expect(all(code in WORKER_EXITS for code in codes), f"worker exit codes {codes}")
    gate.expect(len(jobs) == inputs.campaigns, f"{len(jobs)} of {inputs.campaigns} jobs ran")
    for job in jobs:
        gate.expect(job.state == JOB_DONE, f"fleet {job.job_id} ended {job.state}: {job.error}")
        sweep = artifacts / job.job_id / "sweep.jsonl"
        tally.add(
            trials=sum(len(s.records) for s in job.scenarios),
            attempted=sum(s.total_trials for s in job.scenarios),
            reclaimed=job.recovery.reclaimed,
            digest=_digest(sweep.read_text() if sweep.exists() else ""),
            sample=samples.get(job.job_id),
        )
    out = tally.output(
        setup_s=(first_record or done) - start, wall_s=done - start, peaks=peaks,
        workers=[proc.pid for proc in procs], baseline=jobs[0].scenarios[0].baseline,
    )
    out["job_done_at"] = done
    if args.verify:
        _verify_fleet(spec, args, artifacts / jobs[0].job_id, out, gate)
    return out


def _verify_fleet(spec, args, job_dir: Path, out: dict, gate: Gate) -> None:
    """The job's ``sweep.jsonl`` must be byte-identical to a serial sweep."""
    from repro.core.campaign import CampaignConfig
    from repro.core.parallel import ParallelCampaignRunner
    from repro.core.sweep import ScenarioResult, SweepResult
    from repro.zoo import case_study_platform_spec

    scenarios = list(spec.grid())
    platform_spec, case = case_study_platform_spec(
        scenarios[0].model.case_spec(),
        platform_config=scenarios[0].platform_config(),
        cache_dir=args.cache,
    )
    platform = platform_spec.build()
    images = case.dataset.test_images[: spec.images]
    labels = case.dataset.test_labels[: spec.images]
    config = CampaignConfig(batch_size=spec.batch_size, seed=spec.seed)
    serial = SweepResult([
        ScenarioResult(
            scenario=scenario,
            result=ParallelCampaignRunner(platform, scenario.build_strategy(), config).run(
                images, labels
            ),
        )
        for scenario in scenarios
    ])
    gate.expect(
        out["digest"] == gate.reference(_digest(serial.merged_jsonl_text())),
        "fleet sweep.jsonl differs from a serial sweep of the same spec",
    )
    gate.baseline(platform, images, labels, out["baseline"])
    headers = sorted((job_dir / "scenarios").rglob("*.jsonl"))
    ips = json.loads(headers[0].read_text().splitlines()[0]).get(
        "emulated_inferences_per_second"
    ) if headers else None
    gate.simulated(ips, platform.loadable.total_macs())


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    }


def prepare(cache: str) -> int:
    from repro.zoo import CaseStudySpec, train_case_study_model

    spec = CaseStudySpec()
    if not (Path(cache) / f"{spec.cache_key()}.npz").exists():
        train_case_study_model(spec, cache_dir=cache)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--work")
    parser.add_argument("--result")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)
    if args.prepare:
        return prepare(args.cache)

    workload = wl.WORKLOADS[args.workload]
    inputs = wl.make_inputs(workload, args.seed, smoke=args.smoke)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    trace_dir = work / "spans" if args.traced else None
    tracer = None
    if trace_dir is not None:
        import shutil

        import spantrace

        shutil.rmtree(trace_dir, ignore_errors=True)
        tracer = spantrace.install(trace_dir)
    gate = Gate(args.tamper)
    if workload.kind == "pool":
        out = run_pool(inputs, args, gate)
    else:
        out = run_fleet(inputs, args, gate, trace_dir)
    if tracer is not None:
        import layers

        tracer.uninstall()
        dumps = [tracer.dump()] + [
            json.loads(path.read_text()) for path in sorted(trace_dir.glob("spans-*.json"))
        ]
        out["layers"], out["ops"] = layers.analyse(
            dumps,
            {
                "first_record_s": out["setup_s"],
                "supervisor_reclaimed": out["reclaimed"] if workload.kind == "pool" else 0,
                "service_reclaimed": out["reclaimed"] if workload.kind == "fleet" else 0,
                "job_done_at": out.get("job_done_at"),
            },
        )
    out.update(
        workload=workload.name,
        traced=bool(args.traced),
        verified=bool(args.verify),
        failures=gate.failures,
        inputs=inputs.__dict__,
        **_blas(),
    )
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
