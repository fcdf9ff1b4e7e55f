"""Bit-exactness suite for the BLAS-backed integer GEMM core.

The fast-math core (:mod:`repro.runtime.gemm`) routes integer contractions
through float BLAS kernels whenever an overflow bound certifies that every
partial sum is exactly representable.  These tests pin the load-bearing
claim — *bit-identical to the int64 einsum reference, always* — across
random shapes and dtypes, at the worst-case operand magnitudes, on the tier
boundaries, and through the forced-fallback path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator.engine import VectorisedEngine
from repro.faults.injector import InjectionConfig
from repro.faults.models import ConstantValue
from repro.faults.sites import FaultSite
from repro.runtime import gemm
from repro.runtime.gemm import (
    FLOAT32_EXACT_BOUND,
    FLOAT64_EXACT_BOUND,
    GEMM_STATS,
    accumulation_bound,
    exact_matmul,
    gemm_backend,
    get_gemm_backend,
    operand_bound,
    set_gemm_backend,
)

from tests.conftest import make_qconv, random_int8


def reference_int64(w: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The seed implementation's contraction, verbatim."""
    w64 = w.astype(np.int64)
    c64 = cols.astype(np.int64)
    if w64.ndim == 2 and c64.ndim == 3:
        return np.einsum("or,nrp->nop", w64, c64, optimize=True)
    return np.matmul(w64, c64)


class TestExactMatmulProperty:
    @given(
        o=st.integers(min_value=1, max_value=12),
        r=st.integers(min_value=1, max_value=40),
        p=st.integers(min_value=1, max_value=17),
        n=st.integers(min_value=1, max_value=3),
        dtype=st.sampled_from([np.int8, np.int16]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_int64_einsum(self, o, r, p, n, dtype, seed):
        rng = np.random.default_rng(seed)
        info = np.iinfo(dtype)
        w = rng.integers(info.min, info.max + 1, size=(o, r)).astype(dtype)
        cols = rng.integers(info.min, info.max + 1, size=(n, r, p)).astype(dtype)
        np.testing.assert_array_equal(exact_matmul(w, cols), reference_int64(w, cols))

    def test_worst_case_magnitudes_float32_tier(self):
        # depth 1023 of (-128)*(-128) products sits one step under the
        # float32 exactness bound: 1023 * 2**14 = 2**24 - 2**14.
        depth = 1023
        w = np.full((4, depth), -128, dtype=np.int8)
        cols = np.full((2, depth, 5), -128, dtype=np.int8)
        assert accumulation_bound(w, cols) < FLOAT32_EXACT_BOUND
        GEMM_STATS.reset()
        result = exact_matmul(w, cols)
        assert GEMM_STATS.float32_calls == 1
        np.testing.assert_array_equal(result, np.full((2, 4, 5), depth * 16384, dtype=np.int64))

    def test_worst_case_magnitudes_float64_tier(self):
        # One more accumulation step crosses into the float64 tier; the
        # result (2**24) is exactly the first integer float32 cannot hold +0.
        depth = 1024
        w = np.full((3, depth), -128, dtype=np.int8)
        cols = np.full((1, depth, 3), -128, dtype=np.int8)
        assert FLOAT32_EXACT_BOUND <= accumulation_bound(w, cols) < FLOAT64_EXACT_BOUND
        GEMM_STATS.reset()
        result = exact_matmul(w, cols)
        assert GEMM_STATS.float64_calls == 1
        np.testing.assert_array_equal(result, np.full((1, 3, 3), depth * 16384, dtype=np.int64))

    def test_int16_extremes_use_float64(self):
        w = np.full((2, 8), np.iinfo(np.int16).min, dtype=np.int16)
        cols = np.full((1, 8, 2), np.iinfo(np.int16).min, dtype=np.int16)
        GEMM_STATS.reset()
        result = exact_matmul(w, cols)
        assert GEMM_STATS.float64_calls == 1
        np.testing.assert_array_equal(result, reference_int64(w, cols))

    def test_overflow_bound_forces_int64_fallback(self):
        # 2**31 * 2**31 = 2**62 cannot be certified for float64 (bound >=
        # 2**53): the core must refuse BLAS and produce the exact value.
        a = np.array([[1 << 31]], dtype=np.int64)
        b = np.array([[[1 << 31]]], dtype=np.int64)
        assert accumulation_bound(a, b) >= FLOAT64_EXACT_BOUND
        GEMM_STATS.reset()
        result = exact_matmul(a, b)
        assert GEMM_STATS.int64_calls == 1
        assert GEMM_STATS.bound_fallbacks == 1
        assert int(result[0, 0, 0]) == 1 << 62

    def test_int64_operands_with_small_values_still_use_blas(self):
        # Wide dtype but small actual magnitudes: the data pass certifies BLAS.
        rng = np.random.default_rng(0)
        a = rng.integers(-100, 101, size=(5, 7)).astype(np.int64)
        b = rng.integers(-100, 101, size=(2, 7, 3)).astype(np.int64)
        GEMM_STATS.reset()
        np.testing.assert_array_equal(exact_matmul(a, b), reference_int64(a, b))
        assert GEMM_STATS.float32_calls == 1

    def test_2d_matmul_shapes(self):
        rng = np.random.default_rng(1)
        x = rng.integers(-128, 128, size=(6, 20)).astype(np.int8)
        w = rng.integers(-128, 128, size=(9, 20)).astype(np.int8)
        np.testing.assert_array_equal(
            exact_matmul(x, w.T), x.astype(np.int64) @ w.astype(np.int64).T
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            exact_matmul(np.zeros((2, 3), dtype=np.int8), np.zeros((4, 2), dtype=np.int8))

    def test_float_operands_rejected(self):
        with pytest.raises(TypeError):
            exact_matmul(np.zeros((2, 3), dtype=np.float32), np.zeros((3, 2), dtype=np.float32))


class TestBackendSelection:
    def test_forced_int64_backend_is_bit_identical(self):
        rng = np.random.default_rng(2)
        w = rng.integers(-128, 128, size=(8, 30)).astype(np.int8)
        cols = rng.integers(-128, 128, size=(2, 30, 11)).astype(np.int8)
        auto = exact_matmul(w, cols)
        with gemm_backend("int64"):
            forced = exact_matmul(w, cols)
        np.testing.assert_array_equal(auto, forced)

    def test_forced_float32_never_returns_inexact_results(self):
        # A float32 request that the bound cannot certify must widen, not lie.
        depth = 4096  # bound = depth * 2**14 = 2**26 >= FLOAT32_EXACT_BOUND
        w = np.full((2, depth), -128, dtype=np.int8)
        cols = np.full((1, depth, 2), -128, dtype=np.int8)
        GEMM_STATS.reset()
        with gemm_backend("float32"):
            result = exact_matmul(w, cols)
        assert GEMM_STATS.float64_calls == 1
        assert GEMM_STATS.bound_fallbacks == 1
        np.testing.assert_array_equal(result, np.full((1, 2, 2), depth * 16384, dtype=np.int64))

    def test_backend_context_restores_previous(self):
        before = get_gemm_backend()
        with gemm_backend("int64"):
            assert get_gemm_backend() == "int64"
        assert get_gemm_backend() == before

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            set_gemm_backend("quantum")

    def test_operand_bound_dtype_fast_paths(self):
        assert operand_bound(np.zeros(3, dtype=np.int8)) == 128
        assert operand_bound(np.zeros(3, dtype=np.int16)) == 1 << 15
        assert operand_bound(np.array([-5, 3], dtype=np.int64)) == 5
        assert operand_bound(np.array([], dtype=np.int64)) == 0


class TestEngineUsesExactCore:
    def test_conv_worst_case_magnitudes_bit_exact(self):
        # Every operand at the int8 extreme, accumulation depth 64*3*3=576:
        # well inside the float32 tier, and the engine must match the seed
        # formula exactly.
        node = make_qconv(64, 8, 3, padding=1, seed=0)
        node.weight[:] = -128
        x = np.full((1, 64, 5, 5), -128, dtype=np.int8)
        acc = VectorisedEngine().conv_accumulate(x, node)
        from repro.nn.functional import im2col

        cols = im2col(x.astype(np.int64), 3, 1, 1)
        ref = np.einsum(
            "or,nrp->nop", node.weight.astype(np.int64).reshape(8, -1), cols, optimize=True
        ).reshape(acc.shape)
        np.testing.assert_array_equal(acc, ref)

    def test_engine_forced_int64_matches_auto(self):
        node = make_qconv(8, 8, 3, padding=1, seed=4)
        x = random_int8((2, 8, 6, 6), seed=5)
        config = InjectionConfig.single(FaultSite(2, 3), ConstantValue(7))
        auto = VectorisedEngine().conv_accumulate(x, node, config)
        with gemm_backend("int64"):
            forced = VectorisedEngine().conv_accumulate(x, node, config)
        np.testing.assert_array_equal(auto, forced)
