"""The benchmark's pinned workloads and the inputs generated from a seed.

Importing this module loads neither numpy nor ``repro``: the entry point
reads the workload table before it has set the BLAS thread budget of the
processes it launches.

Each workload is a fault-injection campaign on the case-study ResNet-18
(width 0.25, trained from the synthetic dataset and cached) running on the
paper's 8x8 MAC array.  A run of the benchmark repeats the workload in
*rounds*; every round is a fresh process that sets the platform up, runs
a fixed number of campaigns (or fleet jobs) and reports their timings, so
set-up is measured once per round and throughput once per campaign.  All
campaigns of one run use the same inputs, which makes their records
byte-identical by construction.

A serial ``dense-48`` workload (48 images, one trial per pass) is not
part of the benchmark: the time limit on all runs leaves room for two
workloads of the run length this host's speed swings need, and every
layer it loads also runs on ``fleet-mem-48`` (48 images, GEMM, correction
and requant on every trial) or ``pool-fused-8``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

#: Test images in the case-study dataset (``CaseStudySpec.num_test``).
TEST_IMAGES = 300

#: Cycle-model statistics of the case-study platform.  They come from the
#: timing model of the emulated accelerator, have not been checked against
#: FPGA hardware, and must not change when only the emulator gets faster.
SIMULATED_INFERENCES_PER_SECOND = 256.8933036478849
SIMULATED_MACS_PER_INFERENCE = 35046656


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``pool`` (ParallelCampaignRunner, forked workers) or ``fleet``
    #: (in-process coordinator plus ``repro worker`` subprocesses).
    kind: str
    #: Evaluation images per trial.
    images: int
    #: Processes that evaluate trials; the BLAS thread budget is split
    #: evenly between them.
    processes: int
    #: Trials of one campaign (fleet: one job) at full scale and in smoke mode.
    trials: int
    smoke_trials: int
    #: Campaigns (fleet: jobs, the first a warm-up) one round runs back to
    #: back after its set-up, at full scale and in smoke mode.
    campaigns: int
    smoke_campaigns: int


#: Why each workload exists is recorded in ``BENCHMARK.json``.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pool-fused-8",
            kind="pool",
            images=8,
            processes=2,
            trials=96,
            smoke_trials=8,
            campaigns=3,
            smoke_campaigns=1,
        ),
        Workload(
            name="fleet-mem-48",
            kind="fleet",
            images=48,
            processes=2,
            trials=36,
            smoke_trials=6,
            campaigns=3,
            smoke_campaigns=2,
        ),
    )
}


def cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def blas_threads(workload: Workload) -> int:
    """BLAS threads per process: the cores split evenly between the
    processes that evaluate trials, at least one each."""
    return max(1, cores() // workload.processes)


def blas_env(threads: int) -> dict[str, str]:
    """Environment that fixes the BLAS thread count of a new process."""
    value = str(threads)
    return {
        "OPENBLAS_NUM_THREADS": value,
        "OMP_NUM_THREADS": value,
        "MKL_NUM_THREADS": value,
    }


@dataclass(frozen=True)
class Inputs:
    """Everything a round feeds the program, derived from the run's seed."""

    workload: str
    seed: int
    #: Campaign seed (trial site draws derive from it).
    strategy_seed: int
    #: First test image of the evaluation window.  The fleet worker always
    #: evaluates the head of the test split, so the fleet workload varies
    #: only its campaign seed.
    image_offset: int
    images: int
    trials: int
    campaigns: int


def make_inputs(workload: Workload, seed: int, smoke: bool = False) -> Inputs:
    rng = random.Random(f"{workload.name}:{seed}")
    strategy_seed = rng.randrange(1 << 31)
    offset = 0 if workload.kind == "fleet" else rng.randrange(TEST_IMAGES - workload.images + 1)
    return Inputs(
        workload=workload.name,
        seed=seed,
        strategy_seed=strategy_seed,
        image_offset=offset,
        images=workload.images,
        trials=workload.smoke_trials if smoke else workload.trials,
        campaigns=workload.smoke_campaigns if smoke else workload.campaigns,
    )


def fleet_spec(inputs: Inputs) -> dict:
    """The 3-scenario memory-fault sweep of ``fleet-mem-48``.

    Two activation flips dwelling at GEMM 5 and GEMM 15 and a weight flip
    at GEMM 12 held for two GEMMs, each swept with random site counts 1-2.
    """
    per_point = inputs.trials // 6
    return {
        "images": inputs.images,
        "seed": inputs.strategy_seed,
        "batch_size": 64,
        "models": [{"name": "w0.25", "variant": "w0.25"}],
        "faults": [
            {"name": "aflip-g5", "kind": "activation-bitflip", "dwell_start": 5, "dwell": 1},
            {"name": "aflip-g15", "kind": "activation-bitflip", "dwell_start": 15, "dwell": 1},
            {"name": "wflip-g12", "kind": "weight-bitflip", "dwell_start": 12, "dwell": 2},
        ],
        "strategies": [{"name": "random", "kind": "random", "counts": [1, 2], "trials": per_point}],
    }
