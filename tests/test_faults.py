"""Tests for fault models, fault sites, the injector mux and the register file."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.injector import FaultInjector, InjectionConfig
from repro.faults.models import (
    BitFlip,
    ConstantValue,
    StuckAtOne,
    StuckAtZero,
    TransientCycleFault,
)
from repro.faults.registers import (
    CTRL_ENABLE,
    REG_CTRL,
    REG_FDATA,
    REG_FSEL,
    REG_SEL_A,
    REG_SEL_B,
    FaultInjectionRegisterFile,
)
from repro.faults.sites import FaultSite, FaultUniverse
from repro.utils.bitops import PRODUCT_WIDTH, to_signed, to_unsigned

product_values = st.integers(min_value=-(2**17), max_value=2**17 - 1)


class TestFaultModels:
    def test_stuck_at_zero(self):
        model = StuckAtZero()
        out = model.apply(np.array([5, -7, 100]))
        np.testing.assert_array_equal(out, [0, 0, 0])
        assert model.constant_override() == 0

    def test_stuck_at_one_is_minus_one(self):
        model = StuckAtOne()
        out = model.apply(np.array([5, 0]))
        np.testing.assert_array_equal(out, [-1, -1])
        assert model.constant_override() == -1

    def test_constant_value(self):
        model = ConstantValue(42)
        np.testing.assert_array_equal(model.apply(np.array([1, 2])), [42, 42])
        assert model.constant_override() == 42
        assert model.bus_pattern() == 42

    def test_constant_value_negative_bus_pattern(self):
        model = ConstantValue(-1)
        assert model.bus_pattern() == 0x3FFFF

    def test_constant_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ConstantValue(2**17)
        with pytest.raises(ValueError):
            ConstantValue(-(2**17) - 1)

    def test_bitflip_flips_exactly_one_bit(self):
        model = BitFlip(bit=3)
        out = model.apply(np.array([0]))
        assert out[0] == 8
        back = model.apply(out)
        assert back[0] == 0

    def test_bitflip_sign_bit(self):
        model = BitFlip(bit=PRODUCT_WIDTH - 1)
        out = model.apply(np.array([0]))
        assert out[0] == -(2**17)

    def test_bitflip_invalid_bit_rejected(self):
        with pytest.raises(ValueError):
            BitFlip(bit=PRODUCT_WIDTH)

    def test_bitflip_is_value_dependent(self):
        assert BitFlip(0).value_dependent is True
        assert ConstantValue(0).value_dependent is False

    def test_transient_duty_extremes(self):
        products = np.arange(10)
        cycles = np.arange(10)
        all_on = TransientCycleFault(value=7, duty=1.0).apply_at(products, cycles)
        np.testing.assert_array_equal(all_on, np.full(10, 7))
        none_on = TransientCycleFault(value=7, duty=0.0).apply_at(products, cycles)
        np.testing.assert_array_equal(none_on, products)

    def test_transient_validation(self):
        with pytest.raises(ValueError, match="duty"):
            TransientCycleFault(value=0, duty=1.5)
        with pytest.raises(ValueError, match="product bus"):
            TransientCycleFault(value=2**20, duty=0.5)
        with pytest.raises(ValueError, match="product bus"):
            TransientCycleFault(value=-(2**17) - 1, duty=0.5)

    def test_labels_are_informative(self):
        assert "0" in StuckAtZero().label()
        assert "42" in ConstantValue(42).label()
        assert "3" in BitFlip(3).label()

    @given(product_values)
    def test_bitflip_roundtrip_property(self, value):
        model = BitFlip(bit=7)
        once = model.apply(np.array([value]))
        twice = model.apply(once)
        assert twice[0] == value

    @given(product_values, st.integers(min_value=0, max_value=PRODUCT_WIDTH - 1))
    @settings(max_examples=200)
    def test_bitflip_changes_exactly_one_bus_bit(self, value, bit):
        model = BitFlip(bit=bit)
        flipped = int(model.apply(np.array([value]))[0])
        diff = to_unsigned(value, PRODUCT_WIDTH) ^ to_unsigned(flipped, PRODUCT_WIDTH)
        assert diff == 1 << bit


class TestFaultSite:
    def test_flat_index_roundtrip(self):
        for flat in range(64):
            site = FaultSite.from_flat_index(flat)
            assert site.flat_index() == flat

    def test_validation(self):
        FaultSite(7, 7).validate()
        with pytest.raises(ValueError):
            FaultSite(8, 0).validate()
        with pytest.raises(ValueError):
            FaultSite(0, -1).validate()

    def test_display_is_one_based(self):
        assert FaultSite(0, 7).display() == "MAC 1 / MUL 8"

    def test_ordering(self):
        assert FaultSite(0, 1) < FaultSite(1, 0)


class TestFaultUniverse:
    def test_size_and_enumeration(self):
        universe = FaultUniverse()
        assert universe.size == 64
        assert len(universe.all_sites()) == 64
        assert len(set(universe.all_sites())) == 64

    def test_sites_in_mac(self):
        universe = FaultUniverse()
        sites = universe.sites_in_mac(3)
        assert len(sites) == 8
        assert all(s.mac_unit == 3 for s in sites)

    def test_sites_at_position(self):
        universe = FaultUniverse()
        sites = universe.sites_at_position(5)
        assert len(sites) == 8
        assert all(s.multiplier == 5 for s in sites)

    def test_random_sites_distinct_and_reproducible(self):
        universe = FaultUniverse()
        a = universe.random_sites(7, np.random.default_rng(3))
        b = universe.random_sites(7, np.random.default_rng(3))
        assert a == b
        assert len(set(a)) == 7

    def test_random_sites_bounds(self):
        universe = FaultUniverse()
        with pytest.raises(ValueError):
            universe.random_sites(65, np.random.default_rng(0))

    def test_contains(self):
        universe = FaultUniverse(2, 2)
        assert FaultSite(1, 1) in universe
        assert FaultSite(2, 0) not in universe

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            FaultUniverse(0, 8)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16))
    def test_universe_size_property(self, macs, muls):
        assert FaultUniverse(macs, muls).size == macs * muls


class TestFaultInjector:
    def test_disabled_passthrough(self):
        injector = FaultInjector.disabled()
        assert not injector.enabled
        assert injector.apply_signed(-1234) == -1234

    def test_full_override(self):
        injector = FaultInjector.full_override(-5)
        assert injector.enabled
        assert injector.apply_signed(9999) == -5
        assert injector.apply_signed(0) == -5

    def test_partial_bit_override(self):
        # Override only bit 0 with 1: products become odd.
        injector = FaultInjector(fsel=0b1, fdata=0b1)
        assert injector.apply_signed(4) == 5
        assert injector.apply_signed(5) == 5

    def test_apply_bus_semantics(self):
        injector = FaultInjector(fsel=0xFF, fdata=0xAB)
        assert injector.apply_bus(0x3FF00) == 0x3FFAB

    def test_array_application(self):
        injector = FaultInjector.full_override(3)
        out = injector.apply_signed(np.array([1, -2, 100]))
        np.testing.assert_array_equal(out, [3, 3, 3])

    def test_configure_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(fsel=1 << PRODUCT_WIDTH, fdata=0)
        with pytest.raises(ValueError):
            FaultInjector(fsel=0, fdata=-1)

    @given(product_values, product_values)
    @settings(max_examples=200)
    def test_full_override_ignores_product(self, product, override):
        injector = FaultInjector.full_override(override)
        assert injector.apply_signed(product) == override


class TestInjectionConfig:
    def test_uniform_and_single(self):
        sites = [FaultSite(0, 0), FaultSite(1, 1)]
        config = InjectionConfig.uniform(sites, StuckAtZero())
        assert len(config) == 2
        single = InjectionConfig.single(FaultSite(2, 2), ConstantValue(1))
        assert single.sites == [FaultSite(2, 2)]

    def test_fault_free(self):
        assert not InjectionConfig.fault_free().enabled
        assert InjectionConfig.fault_free().describe() == "fault-free"

    def test_add_duplicate_rejected(self):
        config = InjectionConfig.single(FaultSite(0, 0), StuckAtZero())
        with pytest.raises(ValueError):
            config.add(FaultSite(0, 0), ConstantValue(1))

    def test_describe_mentions_sites_and_models(self):
        config = InjectionConfig.single(FaultSite(0, 7), ConstantValue(-1))
        text = config.describe()
        assert "MAC 1" in text and "MUL 8" in text and "-1" in text

    def test_model_at(self):
        model = ConstantValue(5)
        config = InjectionConfig.single(FaultSite(3, 3), model)
        assert config.model_at(FaultSite(3, 3)) is model
        assert config.model_at(FaultSite(0, 0)) is None


class TestRegisterFile:
    def test_arm_and_decode_roundtrip(self):
        regs = FaultInjectionRegisterFile()
        sites = [FaultSite(0, 0), FaultSite(4, 7), FaultSite(7, 7)]
        regs.arm_sites(sites, value=-1)
        assert regs.armed_sites() == sorted(sites)
        config = regs.decode_config()
        assert config.sites == sorted(sites)
        assert all(m.constant_override() == -1 for m in config.faults.values())

    def test_sel_b_used_for_high_sites(self):
        regs = FaultInjectionRegisterFile()
        regs.arm_sites([FaultSite(5, 0)], value=0)  # flat index 40 >= 32
        assert regs.read(REG_SEL_A) == 0
        assert regs.read(REG_SEL_B) != 0

    def test_fdata_encoding_of_negative(self):
        regs = FaultInjectionRegisterFile()
        regs.arm_sites([FaultSite(0, 0)], value=-1)
        assert regs.read(REG_FDATA) == 0x3FFFF
        assert to_signed(regs.read(REG_FDATA), PRODUCT_WIDTH) == -1

    def test_disabled_returns_fault_free(self):
        regs = FaultInjectionRegisterFile()
        assert not regs.decode_config().enabled
        assert not regs.injector().enabled

    def test_program_config_uniform_constant(self):
        regs = FaultInjectionRegisterFile()
        config = InjectionConfig.uniform([FaultSite(1, 2), FaultSite(3, 4)], ConstantValue(7))
        regs.program_config(config)
        decoded = regs.decode_config()
        assert decoded.sites == config.sites

    def test_program_config_mixed_models_rejected(self):
        regs = FaultInjectionRegisterFile()
        config = InjectionConfig(faults={
            FaultSite(0, 0): ConstantValue(1),
            FaultSite(1, 1): ConstantValue(2),
        })
        with pytest.raises(ValueError):
            regs.program_config(config)

    def test_program_fault_free_resets(self):
        regs = FaultInjectionRegisterFile()
        regs.arm_sites([FaultSite(0, 0)], value=1)
        regs.program_config(InjectionConfig.fault_free())
        assert regs.read(REG_CTRL) & CTRL_ENABLE == 0

    def test_partial_fsel_decode_rejected(self):
        regs = FaultInjectionRegisterFile()
        regs.write(REG_SEL_A, 1)
        regs.write(REG_FSEL, 0b1)
        regs.write(REG_FDATA, 0b1)
        regs.write(REG_CTRL, CTRL_ENABLE)
        with pytest.raises(ValueError):
            regs.decode_config()

    def test_invalid_offset_rejected(self):
        regs = FaultInjectionRegisterFile()
        with pytest.raises(ValueError):
            regs.write(0x40, 0)
        with pytest.raises(ValueError):
            regs.read(0x44)

    def test_fsel_fdata_masked_to_bus_width(self):
        regs = FaultInjectionRegisterFile()
        regs.write(REG_FDATA, 0xFFFFFFFF)
        assert regs.read(REG_FDATA) == 0x3FFFF

    def test_large_universe_rejected(self):
        with pytest.raises(ValueError):
            FaultInjectionRegisterFile(FaultUniverse(16, 16))
