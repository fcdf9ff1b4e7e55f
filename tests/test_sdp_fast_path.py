"""The SDP's few-pass path against its oracles.

* Residual adds are one lookup in a 256x256 int8 table per ``QAdd``; every
  table of the case-study model is checked over all 65,536 operand pairs
  against the CPU backend's add, which runs the ``requantize`` oracle.
* The 34-bit accumulator clamps are skipped only when
  :func:`~repro.accelerator.engine.clamp_free` certifies that they cannot
  fire.  The certificate rests on every product-stage fault model driving
  the signed 18-bit product bus, checked here as a property; a layer the
  certificate does not cover keeps both clamps and stays bit-exact against
  the scalar reference engine when they do fire.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator.engine import VectorisedEngine, clamp_free
from repro.accelerator.geometry import PAPER_GEOMETRY, ArrayGeometry
from repro.accelerator.reference import ScalarReferenceEngine
from repro.accelerator.sdp import SDP
from repro.compiler.compile import compile_model
from repro.faults.injector import InjectionConfig
from repro.faults.models import (
    AccumulatorStuckAt,
    BitFlip,
    ConstantValue,
    FaultModel,
    StuckAtOne,
    StuckAtZero,
    TransientCycleFault,
)
from repro.faults.sites import FaultSite
from repro.quant.qlayers import QAdd, QConv, QLinear
from repro.quant.qscheme import RequantParams, requantize
from repro.runtime.cpu_backend import CPUBackend
from repro.utils.bitops import ACCUMULATOR_WIDTH, PARTIAL_SUM_WIDTH, PRODUCT_WIDTH

from tests.conftest import make_qlinear

BUS_MIN = -(1 << (PRODUCT_WIDTH - 1))
BUS_MAX = (1 << (PRODUCT_WIDTH - 1)) - 1


@pytest.fixture(scope="module")
def case_study_model():
    from repro.zoo import train_case_study_model

    case = train_case_study_model()
    return compile_model(case.graph, case.dataset.calibration_batch(64)).quantized_model


def _every_pair() -> tuple[np.ndarray, np.ndarray]:
    """All 65,536 int8 operand pairs as two ``(1, 1, 256, 256)`` tensors."""
    values = np.arange(-128, 128, dtype=np.int8)
    a, b = np.meshgrid(values, values, indexing="ij")
    return a[None, None], b[None, None]


def requant_of(multiplier, shift) -> RequantParams:
    return RequantParams(multiplier=np.asarray(multiplier, dtype=np.int64), shift=shift)


class TestResidualTables:
    def test_every_case_study_table_is_exact(self, case_study_model):
        adds = [node for node in case_study_model.nodes if isinstance(node, QAdd)]
        assert len(adds) == 8
        a, b = _every_pair()
        sdp = SDP()
        for node in adds:
            expected = CPUBackend._add(a, b, node)
            np.testing.assert_array_equal(sdp.elementwise_add_owned(a, b, node), expected)
            assert sdp.residual_table(node).nbytes == 1 << 16

    def test_result_keeps_the_operand_layout(self):
        node = QAdd(
            name="add", inputs=["a", "b"],
            requant_a=requant_of(3, 2), requant_b=requant_of(5, 3), relu=False,
        )
        rng = np.random.default_rng(0)
        a = rng.integers(-128, 128, (2, 3, 4, 5), dtype=np.int8)
        b = rng.integers(-128, 128, (2, 4, 5, 3), dtype=np.int8).transpose(0, 3, 1, 2)
        out = SDP().elementwise_add_owned(a, b, node)
        np.testing.assert_array_equal(out, CPUBackend._add(a, b, node))
        assert out.flags.c_contiguous
        out = SDP().elementwise_add_owned(b, a, node)
        np.testing.assert_array_equal(out, CPUBackend._add(b, a, node))
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_per_channel_rescale_is_refused(self):
        node = QAdd(
            name="add", inputs=["a", "b"],
            requant_a=requant_of(np.array([3, 4]), 2), requant_b=requant_of(5, 3),
        )
        x = np.zeros((1, 2, 1, 1), np.int8)
        with pytest.raises(ValueError, match="per tensor"):
            SDP().elementwise_add_owned(x, x, node)


#: One strategy per product-stage fault model.
PRODUCT_MODELS = {
    ConstantValue: st.builds(ConstantValue, st.integers(BUS_MIN, BUS_MAX)),
    StuckAtZero: st.just(StuckAtZero()),
    StuckAtOne: st.just(StuckAtOne()),
    BitFlip: st.builds(BitFlip, st.integers(0, PRODUCT_WIDTH - 1)),
    TransientCycleFault: st.builds(
        TransientCycleFault, st.integers(BUS_MIN, BUS_MAX), st.floats(0.0, 1.0),
        st.integers(0, 2**16),
    ),
}


def _product_stage_classes(cls=FaultModel) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        if sub.stage == "product":
            found.add(sub)
        found |= _product_stage_classes(sub)
    return found


class TestProductBusPremise:
    def test_every_product_stage_model_is_covered(self):
        assert set(PRODUCT_MODELS) == _product_stage_classes()

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.one_of(*PRODUCT_MODELS.values()),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_faulty_products_fit_the_18_bit_bus(self, model, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-128, 128, size=64)
        b = rng.integers(-128, 128, size=64)
        products = np.concatenate([a * b, [128 * 128, -128 * 127, 0]]).astype(np.int64)
        if model.cycle_dependent:
            cycles = rng.integers(0, 2**40, size=products.shape)
            faulty = model.apply_at(products, cycles)
        else:
            faulty = model.apply(products)
        assert faulty.min() >= BUS_MIN and faulty.max() <= BUS_MAX


class TestClampCertificate:
    def test_paper_regime_is_certified_on_every_case_study_layer(self, case_study_model):
        stuck = InjectionConfig.single(FaultSite(3, 5), StuckAtOne())
        pulse = InjectionConfig.single(FaultSite(0, 0), ConstantValue(BUS_MIN))
        layers = [n for n in case_study_model.nodes if isinstance(n, (QConv, QLinear))]
        assert layers
        for node in layers:
            assert clamp_free(node, [stuck, pulse], PAPER_GEOMETRY), node.name

    def test_certified_post_matches_the_oracle(self, case_study_model):
        rng = np.random.default_rng(7)
        for node in case_study_model.nodes:
            if not isinstance(node, QConv):
                continue
            depth = PAPER_GEOMETRY.pad_channels(node.in_channels) * node.kernel_size**2
            bound = depth << (PRODUCT_WIDTH - 1)
            acc = rng.integers(-bound, bound + 1, size=(2, node.out_channels, 3, 3))
            acc[0, :, 0, 0] = bound
            acc[0, :, 0, 1] = -bound
            expected = requantize(
                acc + node.bias[None, :, None, None], node.requant, channel_axis=1, relu=node.relu
            )
            out = SDP().conv_post_owned(acc.copy(), node, clamp_free=True)
            np.testing.assert_array_equal(out, expected)

    def test_accumulator_stage_fault_or_large_bias_revokes_it(self):
        node = make_qlinear(16, 8, final=False)
        acc_fault = InjectionConfig.single(FaultSite(0, 0), AccumulatorStuckAt(bit=3))
        assert clamp_free(node, [InjectionConfig.fault_free()], PAPER_GEOMETRY)
        assert not clamp_free(node, [InjectionConfig.fault_free(), acc_fault], PAPER_GEOMETRY)
        node.bias = node.bias.copy()
        node.bias[5] = -(1 << (ACCUMULATOR_WIDTH - 1)) + 16 * (1 << (PRODUCT_WIDTH - 1))
        assert not clamp_free(node, [InjectionConfig.fault_free()], PAPER_GEOMETRY)
        node.bias[5] += 1
        assert clamp_free(node, [InjectionConfig.fault_free()], PAPER_GEOMETRY)

    def test_one_certificate_per_op_evaluation(self, tiny_platform, tiny_dataset, monkeypatch):
        from repro.accelerator import accelerator, engine

        calls = {"clamp_free": 0, "_gemm_out": 0}

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(engine, "clamp_free")
        counted(accelerator, "clamp_free")
        counted(accelerator.NVDLAAccelerator, "_gemm_out")
        stuck = InjectionConfig.single(FaultSite(3, 5), StuckAtOne())
        tiny_platform.accuracy_with_faults(
            stuck, tiny_dataset.test_images[:8], tiny_dataset.test_labels[:8]
        )
        assert calls["_gemm_out"] > 0
        assert calls["clamp_free"] == calls["_gemm_out"]

    def test_uncertified_layer_clamps_like_the_scalar_reference(self):
        """An accumulator-stage sign-bit fault drives 4100 partial sums to
        about -2**21 each, past -2**33: both clamps must stay and fire."""
        geometry = ArrayGeometry(num_macs=1, muls_per_mac=8)
        node = make_qlinear(8 * 4100, 1, final=True)
        node.bias = np.array([1000], dtype=np.int64)
        x = np.zeros((1, node.in_features), dtype=np.int8)
        sign = AccumulatorStuckAt(bit=PARTIAL_SUM_WIDTH - 1, stuck=1)
        config = InjectionConfig.single(FaultSite(0, 0), sign)
        certified = clamp_free(node, [config], geometry)
        assert not certified
        outputs = []
        for engine in (VectorisedEngine(geometry), ScalarReferenceEngine(geometry)):
            acc = engine.linear_accumulate(x, node, config)
            outputs.append(SDP().conv_post_owned(acc, node, clamp_free=certified))
        floor = -(1 << (ACCUMULATOR_WIDTH - 1))
        assert 4100 * -(1 << (PARTIAL_SUM_WIDTH - 1)) < floor
        np.testing.assert_array_equal(outputs[0], [[floor + 1000]])
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_large_bias_saturates_after_the_add(self):
        node = make_qlinear(8, 2, final=True)
        top = (1 << (ACCUMULATOR_WIDTH - 1)) - 1
        node.bias = np.array([top - 5, -5], dtype=np.int64)
        assert not clamp_free(node, [InjectionConfig.fault_free()], PAPER_GEOMETRY)
        acc = np.array([[100, 100]], dtype=np.int64)
        out = SDP().conv_post_owned(acc, node)
        np.testing.assert_array_equal(out, [[top, 95]])
