"""GEMM backend benchmark: exact BLAS core vs the int64-einsum seed path.

The emulator spends essentially all of its wall-clock in per-layer integer
contractions.  This benchmark runs the same fault-free ResNet-18 forward
pass (batch 48, the zoo case-study platform) two ways:

* ``int64``  — the seed implementation's einsum contraction, forced via
  :func:`repro.runtime.gemm.gemm_backend`;
* ``blas``   — the exact float-BLAS tiered kernels (the new default).

Logits must be **bit-identical** across both (the exactness claim),
and the BLAS path must be at least ``REPRO_BENCH_MIN_SPEEDUP`` (default 3x)
faster end-to-end.  Synthetic GEMMs deeper than one certified float32 SGEMM
(:data:`DEEP_GEMMS`, which the smoke model never reaches) are timed per
backend too, and each must equal the int64 result while the default
backend serves it from the float32 tier (split-K).  Results are written as
a text table and as ``benchmarks/out/gemm_backends.json`` for the perf
trajectory; CI runs the benchmark in smoke mode (``REPRO_BENCH_SMOKE=1``: a
tiny model, relaxed floor) and uploads the JSON artifact.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.runtime.gemm import GEMM_STATS, exact_matmul, gemm_backend
from repro.utils.tabulate import format_table
from repro.zoo import CaseStudySpec, build_case_study_platform

from benchmarks.conftest import write_json, write_report

#: Batch size of the timed forward pass (acceptance criterion geometry).
BATCH = 48

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("0", "", "false", "False")

#: End-to-end speedup floor for the BLAS path.  Smoke mode (CI) is
#: report-only: best-of-1 millisecond-scale timings of a tiny model on a
#: shared runner are a scheduling lottery, so only bit-exactness gates
#: there and the measured ratios travel in the JSON artifact instead.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "0.0" if SMOKE else "3.0"))

REPS = 1 if SMOKE else 3

#: Split-K rows: ``(O, R) x (N, R, P)`` int8 GEMMs deeper than the 1023
#: terms one float32 SGEMM certifies — the case study's layer-4 3x3 conv at
#: batch 48, and a full-width (IC 512) layer-4 conv at batch 8.
DEEP_GEMMS = {
    "layer4-1152": ((128, 1152), (48, 1152, 16)),
    "depth-4608": ((512, 4608), (8, 4608, 16)),
}

#: Tier counter -> tier name.
TIERS = {"float32_calls": "float32", "float64_calls": "float64", "int64_calls": "int64"}


def _timed_forward(platform, images, reps: int):
    """Best-of-``reps`` wall-clock of one forward pass, plus its logits."""
    accelerator, loadable = platform.accelerator, platform.loadable
    logits = None
    best = float("inf")
    for _ in range(reps + 1):  # one extra warm-up iteration
        start = time.perf_counter()
        logits = accelerator.execute(loadable, images)
        wall = time.perf_counter() - start
        best = min(best, wall)
    return best, np.asarray(logits)


def _deep_gemm_rows() -> dict[str, dict[str, dict]]:
    """Tier and best-of-``REPS`` ms per backend of every deep GEMM.

    Hard gate: every backend's result equals the int64 contraction, and
    the default backend keeps the GEMM on float32.
    """
    rng = np.random.default_rng(0)
    rows = {}
    for name, (w_shape, cols_shape) in DEEP_GEMMS.items():
        for fill in ("min", "random"):
            if fill == "min":
                w = np.full(w_shape, -128, dtype=np.int8)
                cols = np.full(cols_shape, -128, dtype=np.int8)
            else:
                w = rng.integers(-128, 128, size=w_shape).astype(np.int8)
                cols = rng.integers(-128, 128, size=cols_shape).astype(np.int8)
            row, results = {}, {}
            for backend in ("int64", "float64", "auto"):
                with gemm_backend(backend):
                    best = float("inf")
                    for _ in range(REPS):
                        GEMM_STATS.reset()
                        start = time.perf_counter()
                        results[backend] = exact_matmul(w, cols)
                        best = min(best, time.perf_counter() - start)
                    stats = GEMM_STATS.as_dict()
                    tier = next(TIERS[key] for key in TIERS if stats[key])
                row[backend] = {"tier": tier, "ms": best * 1e3}
            label = f"{name}/{fill}"
            for backend in ("float64", "auto"):
                np.testing.assert_array_equal(
                    results[backend], results["int64"], err_msg=f"{label}: {backend} != int64"
                )
            assert row["auto"]["tier"] == "float32", f"{label}: auto took {row['auto']['tier']}"
            rows[label] = row
    return rows


def test_gemm_backend_speedup():
    spec = (
        CaseStudySpec(width_multiplier=0.125, num_train=160, num_test=64, epochs=1)
        if SMOKE
        else CaseStudySpec()
    )
    platform, case = build_case_study_platform(spec)
    images = case.dataset.test_images[:BATCH]

    walls: dict[str, float] = {}
    stats: dict[str, dict[str, int]] = {}
    logits: dict[str, np.ndarray] = {}

    # Chunk-less executions never touch the tape, so each repetition pays
    # the full GEMM cost.
    for backend in ("int64", "blas"):
        with gemm_backend("int64" if backend == "int64" else "auto"):
            GEMM_STATS.reset()
            walls[backend], logits[backend] = _timed_forward(platform, images, REPS)
            stats[backend] = GEMM_STATS.as_dict()

    # Correctness before speed: the exactness argument says bit-identical.
    np.testing.assert_array_equal(logits["int64"], logits["blas"])

    deep = _deep_gemm_rows()

    speedup_blas = walls["int64"] / walls["blas"]
    rows = [
        ["int64-einsum (seed)", f"{walls['int64'] * 1e3:.1f}", f"{BATCH / walls['int64']:.1f}", "1.00x"],
        ["exact BLAS", f"{walls['blas'] * 1e3:.1f}", f"{BATCH / walls['blas']:.1f}", f"{speedup_blas:.2f}x"],
    ]
    geometry = platform.config.geometry
    text = format_table(
        ["backend", "wall (ms)", "images/s", "speedup"],
        rows,
        title=f"Fault-free ResNet-18 forward, batch {BATCH} "
        f"({geometry.num_macs}x{geometry.muls_per_mac} array"
        f"{', smoke' if SMOKE else ''}): logits bit-identical across backends",
    )
    deep_text = format_table(
        ["GEMM", *(f"{b} tier / ms" for b in ("int64", "float64", "auto"))],
        [
            [label, *(f"{r['tier']} / {r['ms']:.1f}" for r in row.values())]
            for label, row in deep.items()
        ],
        title="Deep int8 GEMMs (depth > 1023): every backend equals int64",
    )
    write_report("gemm_backends.txt", text + "\n\n" + deep_text)
    write_json(
        "gemm_backends.json",
        {
            "benchmark": "gemm_backends",
            "smoke": SMOKE,
            "batch": BATCH,
            "reps": REPS,
            "geometry": {
                "num_macs": geometry.num_macs,
                "muls_per_mac": geometry.muls_per_mac,
            },
            "model": case.spec.cache_key(),
            "results": {
                backend: {
                    "wall_s": walls[backend],
                    "images_per_s": BATCH / walls[backend],
                    "gemm_calls": stats[backend],
                }
                for backend in walls
            },
            "deep_gemms": deep,
            "speedup_blas_vs_int64": speedup_blas,
            "bit_identical": True,
            "min_speedup_required": MIN_SPEEDUP,
        },
    )

    assert speedup_blas >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x end-to-end speedup from the exact BLAS "
        f"core, measured {speedup_blas:.2f}x"
    )
