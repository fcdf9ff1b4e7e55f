"""Per-trial campaign throughput of the delta engine, with a full-forward oracle.

The delta-propagation trial engine (clean-activation tape, idle-op replay,
dirty-region suffix re-execution, fused multi-trial corrections) exists for
one number: how many fault-injection trials per second a campaign
sustains.  Every regime below runs one campaign through two execution paths
on the same trained case-study platform:

* ``full_forward`` — the tape-less reference platform (``tape_bytes=0``),
  one trial per engine pass: every trial re-executes the whole network;
* ``delta``        — clean-activation tape + automatic fused grouping (the
  defaults).

Records must be **bit-identical** between the two paths in every regime
(hard gate).  Three regimes are measured, because the engine's levers
differ by workload:

* **scaling-48** (multiplier faults, 48 images; 1 value x 4 fault counts x
  10 subsets): persistent whole-array faults are live at every conv, so the
  tape can skip at most the stem and the delta path is a full forward.
  Its gate is an absolute trials/s floor on the delta path.
* **small-batch-8** (the same campaign at 8 images): per-trial dispatch
  overhead dominates and fused groups show their gain; also an absolute
  trials/s floor.
* **memory-48** (48 images): the three memory-fault families of the
  ``fleet-mem-48`` perfbench workload — activation flips dwelling at
  GEMM 5 and GEMM 15 and a weight flip at GEMM 12 held for two GEMMs,
  1-2 sites each.  The suffix after a flip differs from the tape at a few
  output positions, so idle-op replay and dirty-region re-execution give
  the delta path a real edge; its gate is a delta / full-forward ratio
  floor.

Each regime takes ``SAMPLES`` interleaved (full forward, delta) campaign
pairs and gates on the median.  The floors were calibrated on a 2-vCPU
x86_64 VM (OpenBLAS 0.3.31, smoke scale) as the median over 5 runs of this
benchmark minus a bound set from their spread (see ``FLOORS``); the
measured values travel in ``benchmarks/out/trial_throughput.json``.

The JSON also records the cold start a trial process pays before its
first trial, without a floor: ``load_s`` (:func:`case_study_platform_spec`
on the cached model) and ``build_s`` (:meth:`PlatformSpec.build`: fold,
calibrate, quantise, compile).
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time

from repro.core.campaign import CampaignConfig
from repro.core.parallel import ParallelCampaignRunner
from repro.core.platform import PlatformConfig
from repro.core.strategies import RandomMultipliers
from repro.faults.models import ActivationBitFlip, WeightBitFlip
from repro.utils.tabulate import format_table
from repro.zoo import CaseStudySpec, case_study_platform_spec

from benchmarks.conftest import write_json, write_report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false", "False")

#: 1 value x 4 fault counts x 10 subsets = 40 trials (acceptance geometry).
MULTIPLIER_STRATEGY = RandomMultipliers(
    values=(0,), fault_counts=(1, 2, 3, 4), trials_per_point=10
)
#: The fleet-mem-48 fault families: 3 families x 2 site counts x 4 trials.
MEMORY_STRATEGY = RandomMultipliers(
    models=(
        ActivationBitFlip(dwell_start=5, dwell=1),
        ActivationBitFlip(dwell_start=15, dwell=1),
        WeightBitFlip(dwell_start=12, dwell=2),
    ),
    fault_counts=(1, 2),
    trials_per_point=4,
)

#: regime -> (strategy, evaluation images, gated metric).
REGIMES = {
    "scaling-48": (MULTIPLIER_STRATEGY, 48, "trials_per_s"),
    "small-batch-8": (MULTIPLIER_STRATEGY, 8, "trials_per_s"),
    "memory-48": (MEMORY_STRATEGY, 48, "speedup"),
}

#: Interleaved (full forward, delta) campaign pairs per regime.
SAMPLES = 5

#: Floors on each regime's gated metric (median over SAMPLES), each set
#: max(25%, 3 IQR) below the median of calibration runs of this benchmark
#: at smoke scale on a 2-vCPU x86_64 VM: scaling-48 median 8.45 trials/s
#: (IQR 0.6, 10 runs 7.5-9.7), small-batch-8 median 45.4 trials/s (IQR
#: 4.6, 10 runs 36.2-68.2), memory-48 median 4.40x (IQR 0.09, 5 runs
#: 4.29-4.56).  The trials/s floors catch a lost GEMM tier (forced int64
#: reads 1.5 and 7.9 trials/s), not host-to-host speed; the ratio floor
#: catches lost dirty-region re-execution (the regime reads 2.75x with it
#: turned off).  Full scale has no CI run and keeps the record gate and a
#: ratio floor of 1.
FLOORS = (
    {"scaling-48": 6.3, "small-batch-8": 31.7, "memory-48": 3.3}
    if SMOKE
    else {"scaling-48": 0.0, "small-batch-8": 0.0, "memory-48": 1.0}
)


def _runner(spec, strategy, *, tape: bool):
    config = dataclasses.replace(
        spec.platform_config or PlatformConfig(),
        tape_bytes=(256 << 20) if tape else 0,
    )
    platform = dataclasses.replace(spec, platform_config=config).build()
    # Without a tape the platform runs one full forward per trial; with
    # one it caps fused groups itself.
    return ParallelCampaignRunner(platform, strategy, CampaignConfig(batch_size=64, seed=0))


def _measure(spec, strategy, images, labels) -> dict:
    """Medians over SAMPLES interleaved campaign pairs of both paths."""
    runners = {
        "full_forward": _runner(spec, strategy, tape=False),
        "delta": _runner(spec, strategy, tape=True),
    }
    walls = {name: [] for name in runners}
    for _ in range(SAMPLES):
        records = {}
        for name, runner in runners.items():
            start = time.perf_counter()
            result = runner.run(images, labels)
            walls[name].append(time.perf_counter() - start)
            records[name] = result.records
        assert records["delta"] == records["full_forward"], (
            "delta-propagation path diverged from the full-forward path's records"
        )
    trials = len(records["delta"])
    speedups = [f / d for f, d in zip(walls["full_forward"], walls["delta"])]
    return {
        "wall_s": {name: statistics.median(times) for name, times in walls.items()},
        "trials_per_s": statistics.median(trials / wall for wall in walls["delta"]),
        "speedup": statistics.median(speedups),
        "speedup_samples": speedups,
        "trials": trials,
        "images": len(labels),
    }


def test_trial_throughput():
    case_spec = (
        CaseStudySpec(width_multiplier=0.125, num_train=160, num_test=64, epochs=1)
        if SMOKE
        else CaseStudySpec()
    )
    start = time.perf_counter()
    spec, case = case_study_platform_spec(case_spec)
    load_s = time.perf_counter() - start
    start = time.perf_counter()
    spec.build()
    build_s = time.perf_counter() - start
    test_images, test_labels = case.dataset.test_images, case.dataset.test_labels

    results = {
        regime: _measure(spec, strategy, test_images[:images], test_labels[:images])
        for regime, (strategy, images, _) in REGIMES.items()
    }

    rows = []
    for regime, (_, _, metric) in REGIMES.items():
        result = results[regime]
        rows.append([
            regime,
            f"{result['wall_s']['full_forward']:.2f}",
            f"{result['wall_s']['delta']:.2f}",
            f"{result['trials_per_s']:.1f}",
            f"{result['speedup']:.2f}x",
            f"{metric} >= {FLOORS[regime]:g}",
        ])
    text = format_table(
        ["regime", "full-forward wall (s)", "delta wall (s)", "trials/s", "speedup", "gate"],
        rows,
        title=f"Per-trial campaign throughput "
              f"({'smoke' if SMOKE else 'full'} scale, median of {SAMPLES} pairs)",
    )
    text += f"\ncold start: load {load_s:.2f} s, build {build_s:.2f} s (no floor)"
    write_report("trial_throughput.txt", text)
    write_json(
        "trial_throughput.json",
        {
            "benchmark": "trial_throughput",
            "smoke": SMOKE,
            "samples": SAMPLES,
            "records_identical": True,
            "cold_start": {"load_s": load_s, "build_s": build_s},
            "scenarios": {regime.replace("-", "_"): r for regime, r in results.items()},
            "floors": {regime.replace("-", "_"): f for regime, f in FLOORS.items()},
        },
    )

    failures = [
        f"{regime}: {metric} {results[regime][metric]:.2f} below its floor {FLOORS[regime]:g}"
        for regime, (_, _, metric) in REGIMES.items()
        if results[regime][metric] < FLOORS[regime]
    ]
    assert not failures, "; ".join(failures)
