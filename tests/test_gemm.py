"""Bit-exactness suite for the BLAS-backed integer GEMM core.

The fast-math core (:mod:`repro.runtime.gemm`) routes integer contractions
through float BLAS kernels whenever an overflow bound certifies that every
partial sum is exactly representable.  These tests pin the load-bearing
claim — *bit-identical to the int64 einsum reference, always* — across
random shapes and dtypes, at the worst-case operand magnitudes, on the tier
and split-K chunk boundaries, and through the forced-fallback path.
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
    _int64_matmul,
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
        # One more accumulation step crosses the single-SGEMM bound (the
        # result, 2**24, is exactly the first integer float32 cannot hold +0).
        # Two int8 operands still certify 1023-deep chunks, so split-K keeps
        # the call on float32: the float64 tier is left to wide operands.
        depth = 1024
        w = np.full((3, depth), -128, dtype=np.int8)
        cols = np.full((1, depth, 3), -128, dtype=np.int8)
        assert FLOAT32_EXACT_BOUND <= accumulation_bound(w, cols) < FLOAT64_EXACT_BOUND
        GEMM_STATS.reset()
        result = exact_matmul(w, cols)
        assert GEMM_STATS.float32_calls == 1
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


#: Contraction depths around the int8 x int8 chunk limit (1023): the last
#: single-SGEMM depth, one and two chunks' edges, and full-width layer 4.
SPLIT_DEPTHS = [1023, 1024, 2046, 2047, 2048, 4608]

#: Narrow operand pairs that certify split-K chunks (chunk depth in brackets):
#: int8 x int8 (1023), uint8 x uint8 (258), int8 x uint8 (514),
#: bool x int16 (511) and bool x uint16 (256).
SPLIT_DTYPES = [
    (np.int8, np.int8),
    (np.uint8, np.uint8),
    (np.int8, np.uint8),
    (np.bool_, np.int16),
    (np.uint16, np.bool_),
]


def _operand(rng, shape, dtype, fill):
    """Random values, or every element at the dtype's largest magnitude."""
    if dtype is np.bool_:
        return np.ones(shape, dtype=bool) if fill == "extreme" else rng.random(shape) < 0.5
    info = np.iinfo(dtype)
    if fill == "extreme":
        return np.full(shape, info.min if info.min else info.max, dtype=dtype)
    return rng.integers(info.min, info.max + 1, size=shape).astype(dtype)


def _assert_split_k_exact(a, b):
    """``exact_matmul`` equals the int64 oracle, served by one float32 call."""
    GEMM_STATS.reset()
    result = exact_matmul(a, b)
    np.testing.assert_array_equal(result, _int64_matmul(a, b))
    assert result.dtype == np.int64
    assert GEMM_STATS.as_dict() == {
        "float32_calls": 1, "float64_calls": 0, "int64_calls": 0, "bound_fallbacks": 0,
    }
    return result


class TestSplitK:
    """Contractions too deep for one certified SGEMM, split along K."""

    @pytest.mark.parametrize("fill", ["extreme", "random"])
    @pytest.mark.parametrize("depth", SPLIT_DEPTHS)
    def test_conv_layout_int8(self, depth, fill):
        rng = np.random.default_rng(depth)
        w = _operand(rng, (5, depth), np.int8, fill)
        cols = _operand(rng, (3, depth, 4), np.int8, fill)
        result = _assert_split_k_exact(w, cols)
        assert result.flags.c_contiguous
        if fill == "extreme":
            np.testing.assert_array_equal(result, np.full((3, 5, 4), depth << 14))

    @pytest.mark.parametrize("depth", SPLIT_DEPTHS)
    def test_odd_sum_above_float32_range(self, depth):
        # Worst-case magnitudes plus one odd product: above 2**24 the total
        # is not a float32 value, so any chunk that overran would round it.
        w = np.full((2, depth), -128, dtype=np.int8)
        cols = np.full((1, depth, 3), -128, dtype=np.int8)
        w[:, depth // 2] = -127
        cols[:, depth // 2, :] = 127
        expected = (depth - 1) * (1 << 14) - 127 * 127
        np.testing.assert_array_equal(_assert_split_k_exact(w, cols), expected)

    @pytest.mark.parametrize("fill", ["extreme", "random"])
    @pytest.mark.parametrize("depth", SPLIT_DEPTHS)
    def test_fc_layout_int8(self, depth, fill):
        # The FC call site passes the transposed weight view: (N, F) x (F, O).
        rng = np.random.default_rng(depth + 1)
        x = _operand(rng, (4, depth), np.int8, fill)
        weight = _operand(rng, (6, depth), np.int8, fill)
        _assert_split_k_exact(x, weight.T)

    @pytest.mark.parametrize("depth", SPLIT_DEPTHS)
    def test_non_contiguous_operand_views(self, depth):
        # The shapes _site_correction gathers: fancy-indexed weight rows and
        # cols[:, rows, :], plus plainly strided views of both operands.
        rng = np.random.default_rng(depth + 2)
        w_mat = _operand(rng, (16, 2 * depth), np.int8, "random")
        cols = _operand(rng, (2, 2 * depth, 5), np.int8, "random")
        rows = rng.permutation(2 * depth)[:depth]
        oc_sel = np.arange(1, 16, 4)
        _assert_split_k_exact(w_mat[np.ix_(oc_sel, rows)], cols[:, rows, :])
        _assert_split_k_exact(w_mat[::3, ::2], cols[:, 1::2, ::2])

    @pytest.mark.parametrize(
        "dtypes", SPLIT_DTYPES, ids=lambda d: f"{d[0].__name__}-{d[1].__name__}"
    )
    @pytest.mark.parametrize("fill", ["extreme", "random"])
    def test_narrow_dtype_pairs(self, dtypes, fill):
        rng = np.random.default_rng(7)
        depth = 2048
        a = _operand(rng, (3, depth), dtypes[0], fill)
        b = _operand(rng, (2, depth, 3), dtypes[1], fill)
        assert accumulation_bound(a, b) >= FLOAT32_EXACT_BOUND
        _assert_split_k_exact(a, b)
        _assert_split_k_exact(b[0].T, a.T)  # 2-D layout, dtypes swapped

    def test_vector_and_batched_operands(self):
        rng = np.random.default_rng(8)
        a = _operand(rng, (2, 3, 2047), np.int8, "random")
        b = _operand(rng, (2, 2047, 4), np.int8, "random")
        _assert_split_k_exact(a, b)
        _assert_split_k_exact(a[0, 0], b[0, :, 0])

    @given(
        depth=st.integers(min_value=1000, max_value=4700),
        dtypes=st.sampled_from(SPLIT_DTYPES),
        layout=st.sampled_from(["conv", "fc"]),
        fill=st.sampled_from(["extreme", "random"]),
        o=st.integers(min_value=1, max_value=6),
        p=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_k_bit_identical_to_int64(self, depth, dtypes, layout, fill, o, p, seed):
        rng = np.random.default_rng(seed)
        a = _operand(rng, (o, depth), dtypes[0], fill)
        b_shape = (2, depth, p) if layout == "conv" else (depth, p)
        b = _operand(rng, b_shape, dtypes[1], fill)
        GEMM_STATS.reset()
        np.testing.assert_array_equal(exact_matmul(a, b), _int64_matmul(a, b))
        assert GEMM_STATS.float32_calls == 1 and GEMM_STATS.float64_calls == 0

    def test_forced_float64_keeps_dgemm(self):
        w = np.full((2, 1152), -128, dtype=np.int8)
        cols = np.full((1, 1152, 2), -128, dtype=np.int8)
        GEMM_STATS.reset()
        with gemm_backend("float64"):
            result = exact_matmul(w, cols)
        assert GEMM_STATS.float64_calls == 1 and GEMM_STATS.float32_calls == 0
        np.testing.assert_array_equal(result, np.full((1, 2, 2), 1152 << 14))

    def test_eight_by_sixteen_bit_pairs_keep_dgemm(self):
        # int8 x int16 certifies chunks of only 3 terms: not worth a split.
        rng = np.random.default_rng(9)
        a = _operand(rng, (3, 1024), np.int8, "random")
        b = _operand(rng, (1024, 2), np.int16, "random")
        GEMM_STATS.reset()
        np.testing.assert_array_equal(exact_matmul(a, b), _int64_matmul(a, b))
        assert GEMM_STATS.float64_calls == 1 and GEMM_STATS.bound_fallbacks == 0


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
        # Too deep for one SGEMM, but int8 x int8 certifies 1023-deep
        # chunks: split-K serves the float32 request exactly.
        depth = 4096  # bound = depth * 2**14 = 2**26 >= FLOAT32_EXACT_BOUND
        w = np.full((2, depth), -128, dtype=np.int8)
        cols = np.full((1, depth, 2), -128, dtype=np.int8)
        GEMM_STATS.reset()
        with gemm_backend("float32"):
            result = exact_matmul(w, cols)
        assert GEMM_STATS.float32_calls == 1
        np.testing.assert_array_equal(result, np.full((1, 2, 2), depth * 16384, dtype=np.int64))
        # A float32 request that no chunk can certify (a single int16 x
        # int16 product reaches 2**30) must widen, not lie.
        w16 = np.full((2, 1), np.iinfo(np.int16).min, dtype=np.int16)
        cols16 = np.full((1, 1, 2), np.iinfo(np.int16).min, dtype=np.int16)
        GEMM_STATS.reset()
        with gemm_backend("float32"):
            result = exact_matmul(w16, cols16)
        assert GEMM_STATS.float64_calls == 1
        assert GEMM_STATS.bound_fallbacks == 1
        np.testing.assert_array_equal(result, np.full((1, 2, 2), 1 << 30, dtype=np.int64))

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
