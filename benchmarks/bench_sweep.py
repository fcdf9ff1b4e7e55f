"""Sweep benchmark: an experiment matrix through the parallel runner.

Runs a scenario grid (fault-model families x strategies on the case-study
model) with 1 and 2 workers per scenario, verifies the merged sweep
artifact is bit-identical across worker counts (the determinism invariant
of the sweep subsystem), and reports per-scenario wall-clock and aggregate
throughput.  ``REPRO_BENCH_FULL=1`` adds the exhaustive single-site /
accumulator sweeps on the full test set.
"""

from __future__ import annotations

import dataclasses
import time

from repro.core.sweep import (
    ExperimentSpec,
    FaultAxis,
    ModelAxis,
    PlatformAxis,
    StrategyAxis,
    SweepRunner,
)
from repro.utils.tabulate import format_table
from repro.zoo import case_study_platform_spec

from benchmarks.conftest import FULL_SCALE, write_json, write_report

WORKER_COUNTS = (1, 2)


def _spec() -> ExperimentSpec:
    strategies = [
        StrategyAxis(name="random", kind="random", params={"counts": [1, 4], "trials": 2}),
    ]
    if FULL_SCALE:
        strategies.append(StrategyAxis(name="exhaustive", kind="exhaustive"))
    return ExperimentSpec(
        models=[ModelAxis(name="default")],
        faults=[
            FaultAxis(name="const0", kind="const", params={"values": [0]}),
            FaultAxis(name="acc-stuck1", kind="acc-stuck", params={"bits": [21], "stuck": 1}),
            FaultAxis(name="transient", kind="transient", params={"values": [-1], "duty": 0.5}),
        ],
        strategies=strategies,
        platforms=[PlatformAxis(name="8x8")],
    )


def test_sweep_matrix(dataset, eval_images):
    images, labels = eval_images
    if not FULL_SCALE:
        images, labels = images[:48], labels[:48]
    platform_spec, _ = case_study_platform_spec()

    def resolver(scenario):
        return platform_spec, images, labels

    spec = dataclasses.replace(_spec(), images=len(labels))
    grid = spec.grid()

    walls: dict[int, float] = {}
    merged: dict[int, str] = {}
    sweep = None
    for workers in WORKER_COUNTS:
        start = time.perf_counter()
        sweep = SweepRunner(grid, workers=workers, resolver=resolver).run()
        walls[workers] = time.perf_counter() - start
        merged[workers] = sweep.merged_jsonl_text()

    total_trials = sum(len(sr.result) for sr in sweep.scenario_results)
    rows = [
        [sr.scenario.scenario_id, len(sr.result), f"{sr.result.baseline_accuracy:.3f}",
         f"{sr.result.mean_accuracy_drop():.3f}"]
        for sr in sweep.scenario_results
    ]
    rows.append(["TOTAL", total_trials, "", ""])
    text = format_table(
        ["scenario", "trials", "baseline", "mean drop"],
        rows,
        title=f"Scenario sweep: {len(grid)} scenarios x {len(labels)} images — "
              + ", ".join(f"{w}w: {walls[w]:.1f}s" for w in WORKER_COUNTS),
    )
    write_report("sweep.txt", text)
    write_json(
        "sweep.json",
        {
            "benchmark": "sweep",
            "full_scale": FULL_SCALE,
            "scenarios": len(grid),
            "trials": total_trials,
            "images": len(labels),
            "structure_digest": sweep.structure_digest(),
            "results": {
                str(workers): {
                    "workers": workers,
                    "wall_s": walls[workers],
                    "trials_per_s": total_trials / walls[workers],
                    "speedup": walls[1] / walls[workers],
                }
                for workers in WORKER_COUNTS
            },
        },
    )

    # Correctness before speed: merged artifacts identical for any worker count.
    assert merged[1] == merged[2]
    assert len(grid) >= 3
