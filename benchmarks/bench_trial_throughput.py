"""Per-trial campaign throughput: delta-propagation engine vs full forwards.

The delta-propagation trial engine (clean-activation tape, suffix-only
re-execution, in-place SDP chain, fused multi-trial corrections) exists for
one number: how many fault-injection trials per second a campaign sustains.
This benchmark runs the 40-trial scaling campaign (Fig. 2 style: one
injected value, four fault counts, ten random subsets each — the geometry
of ``bench_parallel_scaling``) through two execution paths on the same
trained case-study platform:

* ``full_forward`` — the tape-less reference platform (``tape_bytes=0``),
  one trial per engine pass: every trial re-executes the whole network;
* ``delta``        — clean-activation tape + automatic fused grouping (the
  defaults).

Both paths run the same op loop and SDP chain, so the ratio measures what
the tape and fusion save over a full forward per trial.

Two regimes are measured, because the engine's levers differ by workload:

* **scaling-48** (48-image batches): persistent whole-array faults perturb
  30–90 % of every downstream activation, so suffix skipping only covers
  the clean prefix and the win comes from the tape (no GEMM at clean-input
  layers).  The speedup
  here is bounded by the irreducible suffix recomputation — the ISSUE's
  3x aspiration assumed suffix-proportional trial cost, which dense
  divergence defeats; the measured ratio travels in the JSON artifact so
  the trajectory is tracked honestly.
* **small-batch-8** (8-image batches): per-trial dispatch overhead
  dominates, the fused stack stays cache-resident, and grouped evaluation
  shows its intended gain.

Records must be **bit-identical** between the paths in both regimes (hard
gate), and each regime's speedup must clear its floor
(``REPRO_BENCH_MIN_TRIAL_SPEEDUP`` / ``REPRO_BENCH_MIN_FUSED_SPEEDUP``).
Timings are interleaved and best-of-``REPS`` to tame single-core noise.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.core.campaign import CampaignConfig
from repro.core.parallel import ParallelCampaignRunner
from repro.core.platform import PlatformConfig
from repro.core.strategies import RandomMultipliers
from repro.utils.tabulate import format_table
from repro.zoo import CaseStudySpec, case_study_platform_spec

from benchmarks.conftest import write_json, write_report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false", "False")

#: 1 value x 4 fault counts x 10 subsets = 40 trials (acceptance geometry).
STRATEGY = RandomMultipliers(values=(0,), fault_counts=(1, 2, 3, 4), trials_per_point=10)

#: Evaluation images of the two regimes.
SCALING_IMAGES = 48
SMALL_IMAGES = 8

#: Required speedups (shared-runner noise keeps the CI floors conservative;
#: the JSON artifact carries the actual measured ratios).
MIN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_TRIAL_SPEEDUP", "1.15" if SMOKE else "1.2")
)
MIN_FUSED_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_FUSED_SPEEDUP", "1.2" if SMOKE else "1.3")
)

REPS = 1 if SMOKE else 2


def _runner(spec, *, tape: bool):
    config = dataclasses.replace(
        spec.platform_config or PlatformConfig(),
        tape_bytes=(256 << 20) if tape else 0,
    )
    platform = dataclasses.replace(spec, platform_config=config).build()
    # The reference runs one full forward per trial, while the delta path
    # keeps the defaults (auto-capped fusion).
    campaign = CampaignConfig(batch_size=64, seed=0, fused_trials=8 if tape else 1)
    return ParallelCampaignRunner(platform, STRATEGY, campaign)


def _measure(spec, images, labels) -> dict:
    """Interleaved best-of-REPS campaign walls for both paths."""
    runners = {"full_forward": _runner(spec, tape=False), "delta": _runner(spec, tape=True)}
    walls = {name: [] for name in runners}
    records = {}
    for _ in range(REPS):
        for name, runner in runners.items():
            start = time.perf_counter()
            result = runner.run(images, labels)
            walls[name].append(time.perf_counter() - start)
            records[name] = result.records
    assert records["delta"] == records["full_forward"], (
        "delta-propagation path diverged from the full-forward path's records"
    )
    best = {name: min(times) for name, times in walls.items()}
    return {
        "wall_s": best,
        "speedup": best["full_forward"] / best["delta"],
        "trials": len(records["delta"]),
        "images": len(labels),
    }


def test_trial_throughput():
    case_spec = (
        CaseStudySpec(width_multiplier=0.125, num_train=160, num_test=64, epochs=1)
        if SMOKE
        else CaseStudySpec()
    )
    spec, case = case_study_platform_spec(case_spec)
    test_images, test_labels = case.dataset.test_images, case.dataset.test_labels

    scaling = _measure(spec, test_images[:SCALING_IMAGES], test_labels[:SCALING_IMAGES])
    small = _measure(spec, test_images[:SMALL_IMAGES], test_labels[:SMALL_IMAGES])

    rows = []
    for label, scenario, floor in (
        ("scaling-48", scaling, MIN_SPEEDUP),
        ("small-batch-8", small, MIN_FUSED_SPEEDUP),
    ):
        rows.append([
            label,
            f"{scenario['wall_s']['full_forward']:.2f}",
            f"{scenario['wall_s']['delta']:.2f}",
            f"{scenario['trials'] / scenario['wall_s']['delta']:.2f}",
            f"{scenario['speedup']:.2f}x (floor {floor:g}x)",
        ])
    text = format_table(
        ["regime", "full-forward wall (s)", "delta wall (s)", "trials/s", "speedup"],
        rows,
        title=f"Per-trial campaign throughput, {scaling['trials']} trials "
              f"({'smoke' if SMOKE else 'full'} scale, best of {REPS})",
    )
    write_report("trial_throughput.txt", text)
    write_json(
        "trial_throughput.json",
        {
            "benchmark": "trial_throughput",
            "smoke": SMOKE,
            "trials": scaling["trials"],
            "records_identical": True,
            "scenarios": {"scaling_48": scaling, "small_batch_8": small},
            "floors": {
                "scaling_48": MIN_SPEEDUP,
                "small_batch_8": MIN_FUSED_SPEEDUP,
            },
        },
    )

    assert scaling["speedup"] >= MIN_SPEEDUP, (
        f"delta path is only {scaling['speedup']:.2f}x faster than the "
        f"full-forward path on the scaling campaign (floor {MIN_SPEEDUP}x)"
    )
    assert small["speedup"] >= MIN_FUSED_SPEEDUP, (
        f"fused delta path is only {small['speedup']:.2f}x faster than the "
        f"full-forward path on small batches (floor {MIN_FUSED_SPEEDUP}x)"
    )
