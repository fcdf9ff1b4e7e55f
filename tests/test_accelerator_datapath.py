"""Tests for the scalar datapath primitives: multiplier, MAC unit, CMAC, CACC, SDP, PDP."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator.cacc import Accumulator, saturating_accumulate
from repro.accelerator.cmac import CMACArray
from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
from repro.accelerator.mac_unit import MACUnit
from repro.accelerator.multiplier import Int8Multiplier
from repro.accelerator.pdp import PDP, max_pool_int8
from repro.accelerator.sdp import SDP
from repro.faults.injector import FaultInjector, InjectionConfig
from repro.faults.models import BitFlip, ConstantValue, StuckAtZero
from repro.faults.sites import FaultSite
from repro.quant.qlayers import QAdd, QGlobalAvgPool, QMaxPool
from repro.quant.qscheme import compute_requant_params

int8s = st.integers(min_value=-128, max_value=127)


class TestInt8Multiplier:
    def test_healthy_product(self):
        assert Int8Multiplier().multiply(-3, 7) == -21

    def test_operand_range_enforced(self):
        with pytest.raises(ValueError):
            Int8Multiplier().multiply(128, 1)

    def test_injector_overrides_product(self):
        mul = Int8Multiplier(injector=FaultInjector.full_override(0))
        assert mul.multiply(100, 100) == 0
        assert mul.faulty

    def test_fault_model_applied(self):
        mul = Int8Multiplier(fault_model=ConstantValue(7))
        assert mul.multiply(3, 3) == 7

    def test_injector_takes_precedence_over_model(self):
        mul = Int8Multiplier(
            injector=FaultInjector.full_override(1), fault_model=ConstantValue(99)
        )
        assert mul.multiply(2, 2) == 1

    def test_clear_faults(self):
        mul = Int8Multiplier(fault_model=StuckAtZero())
        mul.clear_faults()
        assert not mul.faulty
        assert mul.multiply(2, 3) == 6

    def test_cycle_counter(self):
        mul = Int8Multiplier()
        for _ in range(5):
            mul.multiply(1, 1)
        assert mul.cycles == 5

    @given(int8s, int8s)
    @settings(max_examples=200)
    def test_product_matches_python(self, a, b):
        assert Int8Multiplier().multiply(a, b) == a * b

    @given(int8s, int8s, st.integers(min_value=0, max_value=17))
    @settings(max_examples=100)
    def test_bitflip_model_consistency(self, a, b, bit):
        mul = Int8Multiplier(fault_model=BitFlip(bit))
        expected = int(BitFlip(bit).apply(np.array([a * b]))[0])
        assert mul.multiply(a, b) == expected


class TestMACUnit:
    def test_dot_product(self):
        mac = MACUnit(4)
        assert mac.multiply_accumulate([1, 2, 3, 4], [1, 1, 1, 1]) == 10

    def test_short_operands_padded(self):
        mac = MACUnit(8)
        assert mac.multiply_accumulate([2, 3], [5, 5]) == 25

    def test_too_long_operands_rejected(self):
        mac = MACUnit(2)
        with pytest.raises(ValueError):
            mac.multiply_accumulate([1, 2, 3], [1, 1, 1])

    def test_fault_on_lane_changes_sum(self):
        mac = MACUnit(4)
        mac.set_fault(2, StuckAtZero())
        # lane 2 product (3*1) replaced by 0
        assert mac.multiply_accumulate([1, 2, 3, 4], [1, 1, 1, 1]) == 7
        assert mac.faulty_lanes() == [2]

    def test_fault_fires_on_padded_lane(self):
        mac = MACUnit(4)
        mac.set_fault(3, ConstantValue(100))
        # operands only cover lanes 0-1; lane 3 would be 0*0 but injects 100
        assert mac.multiply_accumulate([1, 1], [1, 1]) == 102

    def test_invalid_lane_rejected(self):
        mac = MACUnit(4)
        with pytest.raises(ValueError):
            mac.set_fault(4, StuckAtZero())

    def test_clear_faults(self):
        mac = MACUnit(4)
        mac.set_fault(0, StuckAtZero())
        mac.clear_faults()
        assert mac.faulty_lanes() == []


class TestCMACArray:
    def test_atomic_op_computes_all_kernels(self):
        cmac = CMACArray(ArrayGeometry(2, 4))
        sums = cmac.atomic_op([1, 2, 3, 4], [[1, 1, 1, 1], [2, 2, 2, 2]])
        assert sums == [10, 20]

    def test_too_many_kernels_rejected(self):
        cmac = CMACArray(ArrayGeometry(2, 4))
        with pytest.raises(ValueError):
            cmac.atomic_op([1], [[1], [1], [1]])

    def test_apply_injection_config(self):
        cmac = CMACArray(PAPER_GEOMETRY)
        config = InjectionConfig.uniform(
            [FaultSite(0, 0), FaultSite(7, 7)], StuckAtZero()
        )
        cmac.apply_injection_config(config)
        assert set(cmac.faulty_sites()) == {FaultSite(0, 0), FaultSite(7, 7)}

    def test_reconfiguration_clears_previous(self):
        cmac = CMACArray(PAPER_GEOMETRY)
        cmac.apply_injection_config(InjectionConfig.single(FaultSite(1, 1), StuckAtZero()))
        cmac.apply_injection_config(InjectionConfig.single(FaultSite(2, 2), StuckAtZero()))
        assert cmac.faulty_sites() == [FaultSite(2, 2)]

    def test_fault_only_affects_its_mac(self):
        cmac = CMACArray(ArrayGeometry(2, 2))
        cmac.set_fault(FaultSite(0, 0), ConstantValue(50))
        sums = cmac.atomic_op([1, 1], [[1, 1], [1, 1]])
        assert sums[0] == 51  # 50 + 1
        assert sums[1] == 2

    def test_total_cycles(self):
        cmac = CMACArray(ArrayGeometry(2, 2))
        cmac.atomic_op([1, 1], [[1, 1]])
        cmac.atomic_op([1, 1], [[1, 1]])
        assert cmac.total_cycles == 2


class TestAccumulator:
    def test_accumulate_and_read(self):
        acc = Accumulator(4)
        acc.accumulate([1, 2, 3, 4])
        acc.accumulate([10, 10, 10, 10])
        np.testing.assert_array_equal(acc.values, [11, 12, 13, 14])

    def test_reset(self):
        acc = Accumulator(2)
        acc.accumulate([1, 1])
        out = acc.read_and_reset()
        np.testing.assert_array_equal(out, [1, 1])
        np.testing.assert_array_equal(acc.values, [0, 0])

    def test_shape_check(self):
        acc = Accumulator(3)
        with pytest.raises(ValueError):
            acc.accumulate([1, 2])

    def test_saturation_at_34_bits(self):
        acc = Accumulator(1)
        huge = 2**33 - 1
        acc.accumulate([huge])
        acc.accumulate([huge])
        assert acc.values[0] == 2**33 - 1  # saturated, not wrapped

    def test_invalid_channel_count(self):
        with pytest.raises(ValueError):
            Accumulator(0)

    def test_vectorised_saturating_sum(self):
        partials = np.array([[2**33 - 1, 1], [2**33 - 1, 1]], dtype=np.int64)
        out = saturating_accumulate(partials, axis=0)
        assert out[0] == 2**33 - 1
        assert out[1] == 2


class TestSDP:
    def test_bias_add_broadcast(self, qlinear_factory):
        sdp = SDP()
        node = qlinear_factory(8, 3, final=True)  # requant=None: raw biased output
        node.bias = np.array([1, 2, 3], dtype=np.int64)
        acc = np.zeros((1, 3, 2, 2), dtype=np.int64)
        out = sdp.conv_post_owned(acc, node)
        assert out[0, 2, 0, 0] == 3

    def test_conv_post_requantises_and_relu(self, qconv_factory):
        sdp = SDP()
        node = qconv_factory(8, 8, 1, relu=True)
        acc = np.full((1, 8, 2, 2), -(10**6), dtype=np.int64)
        out = sdp.conv_post_owned(acc, node)
        assert out.dtype == np.int8
        assert np.all(out >= 0)  # ReLU clamps the large negative accumulator

    def test_conv_post_final_linear_raw(self, qlinear_factory):
        sdp = SDP()
        node = qlinear_factory(8, 4, final=True)
        acc = np.arange(4, dtype=np.int64).reshape(1, 4) * 1000
        out = sdp.conv_post_owned(acc.copy(), node)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, acc + node.bias[None, :])

    def test_elementwise_add_shapes_checked(self):
        sdp = SDP()
        node = QAdd(
            name="add",
            inputs=["a", "b"],
            input_scales=(1.0, 1.0),
            output_scale=1.0,
            requant_a=compute_requant_params(1.0, 1.0, 1.0),
            requant_b=compute_requant_params(1.0, 1.0, 1.0),
        )
        with pytest.raises(ValueError):
            sdp.elementwise_add_owned(
                np.zeros((1, 2, 2, 2), np.int8), np.zeros((1, 3, 2, 2), np.int8), node
            )

    def test_elementwise_add_identity_scales(self):
        sdp = SDP()
        node = QAdd(
            name="add",
            inputs=["a", "b"],
            input_scales=(1.0, 1.0),
            output_scale=1.0,
            requant_a=compute_requant_params(1.0, 1.0, 1.0),
            requant_b=compute_requant_params(1.0, 1.0, 1.0),
            relu=False,
        )
        a = np.full((1, 1, 2, 2), 10, dtype=np.int8)
        b = np.full((1, 1, 2, 2), -3, dtype=np.int8)
        out = sdp.elementwise_add_owned(a, b, node)
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 7, dtype=np.int8))

    def test_global_average(self):
        sdp = SDP()
        node = QGlobalAvgPool(
            name="gap",
            inputs=["x"],
            spatial_size=4,
            input_scale=1.0,
            output_scale=1.0,
            requant=compute_requant_params(1.0, 1.0 / 4, 1.0),
        )
        x = np.full((1, 2, 2, 2), 8, dtype=np.int8)
        out = sdp.global_average_owned(x, node)
        np.testing.assert_array_equal(out, np.full((1, 2), 8, dtype=np.int8))


class TestPDP:
    def test_max_pool_basic(self):
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.int8)
        node = QMaxPool(name="p", inputs=["x"], kernel=2, stride=2, padding=0)
        out = PDP().max_pool(x, node)
        assert out[0, 0, 0, 0] == 4

    def test_max_pool_negative_values(self):
        x = np.full((1, 1, 2, 2), -100, dtype=np.int8)
        out = max_pool_int8(x, 2, 2)
        assert out[0, 0, 0, 0] == -100

    def test_max_pool_padding_uses_int8_min(self):
        x = np.full((1, 1, 2, 2), -50, dtype=np.int8)
        out = max_pool_int8(x, 3, 1, padding=1)
        # padded border must never win over real values
        assert out.max() == -50

    def test_max_pool_requires_int8(self):
        with pytest.raises(TypeError):
            max_pool_int8(np.zeros((1, 1, 2, 2), dtype=np.int32), 2, 2)

    def test_max_pool_matches_float_reference(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-128, 128, size=(2, 3, 8, 8)).astype(np.int8)
        out = max_pool_int8(x, 2, 2)
        from repro.nn.functional import maxpool2d_forward

        ref, _ = maxpool2d_forward(x.astype(np.float32), 2, 2)
        np.testing.assert_array_equal(out, ref.astype(np.int8))
