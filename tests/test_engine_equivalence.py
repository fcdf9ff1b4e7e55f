"""Equivalence tests between the vectorised engine, the scalar reference engine
and the independent CPU backend.

These are the load-bearing correctness tests of the whole reproduction: the
fault-injection results (Fig. 2 / Fig. 3) are only meaningful if the
vectorised engine computes exactly what the per-multiplier hardware model
computes, for clean runs and for every fault model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator.engine import VectorisedEngine
from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
from repro.accelerator.reference import ScalarReferenceEngine
from repro.faults.injector import InjectionConfig
from repro.faults.models import (
    AccumulatorStuckAt,
    BitFlip,
    ConstantValue,
    StuckAtOne,
    StuckAtZero,
    TransientCycleFault,
)
from repro.faults.sites import FaultSite, FaultUniverse
from repro.runtime.gemm import GEMM_STATS
from repro.utils.bitops import PARTIAL_SUM_WIDTH

from tests.conftest import make_qconv, make_qlinear, random_int8


def conv_case(in_channels, out_channels, kernel, stride, padding, spatial, batch=1, seed=0):
    node = make_qconv(in_channels, out_channels, kernel, stride, padding, seed=seed)
    x = random_int8((batch, in_channels, spatial, spatial), seed=seed + 100)
    return node, x


SMALL_CASES = [
    # (in_c, out_c, k, stride, padding, spatial) — chosen to cover aligned,
    # padded-channel, padded-kernel and strided configurations.
    (8, 8, 1, 1, 0, 4),
    (8, 8, 3, 1, 1, 4),
    (3, 8, 3, 1, 1, 4),     # stem-like: input channels < atomic_c (padding lanes)
    (8, 12, 3, 1, 1, 4),    # output channels not a multiple of atomic_k
    (16, 8, 3, 2, 1, 6),    # strided
    (5, 9, 2, 1, 0, 5),     # both dimensions unaligned
]


class TestCleanEquivalence:
    @pytest.mark.parametrize("case", SMALL_CASES)
    def test_vectorised_matches_scalar_fault_free(self, case):
        node, x = conv_case(*case)
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, InjectionConfig.fault_free())
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, InjectionConfig.fault_free())
        np.testing.assert_array_equal(vec, ref)

    def test_vectorised_matches_numpy_matmul(self):
        node, x = conv_case(8, 16, 3, 1, 1, 6, batch=2)
        acc = VectorisedEngine().conv_accumulate(x, node)
        # independent check: float convolution of the int8 tensors
        from repro.nn.functional import conv2d_forward

        ref, _ = conv2d_forward(
            x.astype(np.float32), node.weight.astype(np.float32), None, node.stride, node.padding
        )
        np.testing.assert_array_equal(acc, ref.astype(np.int64))

    def test_linear_matches_scalar(self):
        node = make_qlinear(16, 10, final=True, seed=3)
        x = random_int8((3, 16), seed=4)
        vec = VectorisedEngine().linear_accumulate(x, node)
        ref = ScalarReferenceEngine().linear_accumulate(x, node)
        np.testing.assert_array_equal(vec, ref)

    def test_rejects_non_int8_input(self):
        node, x = conv_case(8, 8, 1, 1, 0, 2)
        with pytest.raises(TypeError):
            VectorisedEngine().conv_accumulate(x.astype(np.int32), node)

    def test_rejects_channel_mismatch(self):
        node, _ = conv_case(8, 8, 1, 1, 0, 2)
        bad = random_int8((1, 4, 2, 2))
        with pytest.raises(ValueError):
            VectorisedEngine().conv_accumulate(bad, node)


class TestFaultEquivalence:
    @pytest.mark.parametrize("case", SMALL_CASES)
    @pytest.mark.parametrize(
        "model", [StuckAtZero(), ConstantValue(1), ConstantValue(-1), StuckAtOne()]
    )
    def test_single_site_constant_models(self, case, model):
        node, x = conv_case(*case)
        site = FaultSite(1, 2)
        config = InjectionConfig.single(site, model)
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    @pytest.mark.parametrize("case", SMALL_CASES[:4])
    def test_multi_site_constant_models(self, case):
        node, x = conv_case(*case)
        config = InjectionConfig.uniform(
            [FaultSite(0, 0), FaultSite(0, 3), FaultSite(5, 1), FaultSite(7, 7)],
            ConstantValue(-2),
        )
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    @pytest.mark.parametrize("bit", [0, 7, 17])
    def test_bitflip_model(self, bit):
        node, x = conv_case(8, 8, 3, 1, 1, 4, seed=bit)
        config = InjectionConfig.single(FaultSite(2, 5), BitFlip(bit))
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_bitflip_on_padded_channel_lanes(self):
        # input channels = 3 so lanes 3..7 are padding; a bit flip on a padding
        # lane turns 0 products into +/-2^bit and must match the scalar model.
        node, x = conv_case(3, 8, 3, 1, 1, 4, seed=9)
        config = InjectionConfig.single(FaultSite(0, 5), BitFlip(4))
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_linear_with_fault(self):
        node = make_qlinear(24, 10, final=True, seed=5)
        x = random_int8((2, 24), seed=6)
        config = InjectionConfig.single(FaultSite(1, 3), ConstantValue(100))
        vec = VectorisedEngine().linear_accumulate(x, node, config)
        ref = ScalarReferenceEngine().linear_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_mixed_models_across_sites(self):
        node, x = conv_case(8, 8, 3, 1, 1, 4, seed=11)
        config = InjectionConfig(
            faults={
                FaultSite(0, 0): StuckAtZero(),
                FaultSite(3, 3): ConstantValue(5),
                FaultSite(6, 1): BitFlip(2),
            }
        )
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_non_paper_geometry(self):
        geometry = ArrayGeometry(num_macs=4, muls_per_mac=4)
        node, x = conv_case(6, 6, 3, 1, 1, 4, seed=13)
        config = InjectionConfig.single(FaultSite(3, 2), ConstantValue(-7))
        vec = VectorisedEngine(geometry).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(geometry).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    @given(
        mac=st.integers(min_value=0, max_value=7),
        mul=st.integers(min_value=0, max_value=7),
        value=st.sampled_from([0, 1, -1, 37, -100]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_single_site_property(self, mac, mul, value, seed):
        node, x = conv_case(8, 8, 3, 1, 1, 3, seed=seed)
        config = InjectionConfig.single(FaultSite(mac, mul), ConstantValue(value))
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)


class TestAccumulatorStageEquivalence:
    """Differential certification of the accumulator-stage stuck-at model.

    Every new fault model must produce bit-identical accumulators on the
    vectorised engine and the cycle-accurate reference engine; these cases
    cover aligned, padded-channel, padded-kernel and strided layers plus
    random geometries.
    """

    @pytest.mark.parametrize("case", SMALL_CASES)
    @pytest.mark.parametrize("model", [
        AccumulatorStuckAt(bit=0, stuck=1),
        AccumulatorStuckAt(bit=12, stuck=0),
        AccumulatorStuckAt(bit=PARTIAL_SUM_WIDTH - 1, stuck=1),  # sign bit
    ])
    def test_single_accumulator_fault(self, case, model):
        node, x = conv_case(*case)
        config = InjectionConfig.single(FaultSite(2, 0), model)
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_multiple_accumulator_faults_on_distinct_macs(self):
        node, x = conv_case(8, 12, 3, 1, 1, 4, seed=17)
        config = InjectionConfig(faults={
            FaultSite(0, 0): AccumulatorStuckAt(bit=3, stuck=1),
            FaultSite(5, 0): AccumulatorStuckAt(bit=20, stuck=0),
        })
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_linear_accumulator_fault(self):
        node = make_qlinear(20, 10, final=True, seed=8)
        x = random_int8((3, 20), seed=9)
        config = InjectionConfig.single(FaultSite(1, 0), AccumulatorStuckAt(bit=7, stuck=1))
        vec = VectorisedEngine().linear_accumulate(x, node, config)
        ref = ScalarReferenceEngine().linear_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_accumulator_fault_with_product_fault_on_other_mac(self):
        """Disjoint MAC units stay additive: both engines must agree."""
        node, x = conv_case(8, 16, 3, 1, 1, 4, seed=23)
        config = InjectionConfig(faults={
            FaultSite(1, 0): AccumulatorStuckAt(bit=10, stuck=1),
            FaultSite(4, 3): ConstantValue(-7),
        })
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_vectorised_rejects_mixed_stages_on_one_mac(self):
        node, x = conv_case(8, 8, 3, 1, 1, 4)
        config = InjectionConfig(faults={
            FaultSite(2, 0): AccumulatorStuckAt(bit=4, stuck=1),
            FaultSite(2, 5): ConstantValue(0),
        })
        with pytest.raises(NotImplementedError, match="accumulator-stage"):
            VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)

    def test_reference_rejects_duplicate_accumulator_faults(self):
        node, x = conv_case(8, 8, 1, 1, 0, 2)
        config = InjectionConfig(faults={
            FaultSite(2, 0): AccumulatorStuckAt(bit=4, stuck=1),
            FaultSite(2, 1): AccumulatorStuckAt(bit=5, stuck=0),
        })
        with pytest.raises(ValueError):
            ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        with pytest.raises(ValueError):
            VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)

    def test_stuck_bit_is_forced_on_partials(self):
        """Semantics check: with stuck=1 every partial sum carries the bit."""
        model = AccumulatorStuckAt(bit=6, stuck=1)
        partials = np.array([0, 1, -1, 64, -64, 1000], dtype=np.int64)
        faulty = model.apply(partials)
        assert ((np.asarray(faulty) >> 6) & 1).all()
        # idempotent: the bus mux is stateless
        np.testing.assert_array_equal(model.apply(faulty), faulty)

    @given(
        num_macs=st.integers(min_value=2, max_value=6),
        muls=st.integers(min_value=2, max_value=6),
        mac=st.integers(min_value=0, max_value=5),
        bit=st.integers(min_value=0, max_value=PARTIAL_SUM_WIDTH - 1),
        stuck=st.integers(min_value=0, max_value=1),
        in_c=st.integers(min_value=1, max_value=9),
        out_c=st.integers(min_value=1, max_value=9),
        kernel=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_geometry_property(
        self, num_macs, muls, mac, bit, stuck, in_c, out_c, kernel, seed
    ):
        geometry = ArrayGeometry(num_macs=num_macs, muls_per_mac=muls)
        node, x = conv_case(in_c, out_c, kernel, 1, kernel // 2, 3, seed=seed)
        config = InjectionConfig.single(
            FaultSite(mac % num_macs, 0), AccumulatorStuckAt(bit=bit, stuck=stuck)
        )
        vec = VectorisedEngine(geometry).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(geometry).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)


class TestTransientCycleEquivalence:
    """Differential certification of the deterministic per-cycle transient."""

    @pytest.mark.parametrize("case", SMALL_CASES)
    def test_single_site_transient(self, case):
        node, x = conv_case(*case, batch=2)
        config = InjectionConfig.single(
            FaultSite(1, 2), TransientCycleFault(value=-9, duty=0.5, salt=4)
        )
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_transient_on_padded_channel_lanes(self):
        # 3 input channels: lanes 3..7 are zero padding, but the transient
        # still fires on their cycles and must match the scalar model.
        node, x = conv_case(3, 8, 3, 1, 1, 4, seed=31)
        config = InjectionConfig.single(
            FaultSite(0, 5), TransientCycleFault(value=77, duty=0.5, salt=1)
        )
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_linear_transient(self):
        node = make_qlinear(24, 10, final=True, seed=12)
        x = random_int8((3, 24), seed=13)
        config = InjectionConfig.single(
            FaultSite(3, 1), TransientCycleFault(value=50, duty=0.25, salt=2)
        )
        vec = VectorisedEngine().linear_accumulate(x, node, config)
        ref = ScalarReferenceEngine().linear_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    def test_duty_zero_is_noop_and_duty_one_is_constant(self):
        node, x = conv_case(8, 8, 3, 1, 1, 4, seed=5)
        engine = VectorisedEngine()
        clean = engine.conv_accumulate(x, node)
        site = FaultSite(1, 1)
        off = engine.conv_accumulate(
            x, node, InjectionConfig.single(site, TransientCycleFault(value=9, duty=0.0))
        )
        np.testing.assert_array_equal(off, clean)
        always = engine.conv_accumulate(
            x, node, InjectionConfig.single(site, TransientCycleFault(value=9, duty=1.0))
        )
        const = engine.conv_accumulate(
            x, node, InjectionConfig.single(site, ConstantValue(9))
        )
        np.testing.assert_array_equal(always, const)

    def test_fires_is_pure_and_order_independent(self):
        model = TransientCycleFault(value=1, duty=0.5, salt=7)
        cycles = np.arange(512, dtype=np.int64)
        forward = model.fires(cycles)
        backward = model.fires(cycles[::-1])[::-1]
        np.testing.assert_array_equal(forward, backward)
        # roughly duty-distributed (binomial bound, not exact)
        assert 0.3 < forward.mean() < 0.7

    def test_multi_site_transient(self):
        node, x = conv_case(8, 12, 3, 1, 1, 4, seed=41)
        config = InjectionConfig.uniform(
            [FaultSite(0, 0), FaultSite(3, 6), FaultSite(7, 7)],
            TransientCycleFault(value=-3, duty=0.5, salt=11),
        )
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)

    @given(
        num_macs=st.integers(min_value=2, max_value=6),
        muls=st.integers(min_value=2, max_value=6),
        mac=st.integers(min_value=0, max_value=5),
        mul=st.integers(min_value=0, max_value=5),
        duty=st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
        salt=st.integers(min_value=0, max_value=2**32),
        value=st.sampled_from([0, 1, -1, 100]),
        in_c=st.integers(min_value=1, max_value=9),
        out_c=st.integers(min_value=1, max_value=9),
        kernel=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_geometry_property(
        self, num_macs, muls, mac, mul, duty, salt, value, in_c, out_c, kernel, seed
    ):
        geometry = ArrayGeometry(num_macs=num_macs, muls_per_mac=muls)
        node, x = conv_case(in_c, out_c, kernel, 1, kernel // 2, 3, seed=seed)
        config = InjectionConfig.single(
            FaultSite(mac % num_macs, mul % muls),
            TransientCycleFault(value=value, duty=duty, salt=salt),
        )
        vec = VectorisedEngine(geometry).conv_accumulate(x, node, config)
        ref = ScalarReferenceEngine(geometry).conv_accumulate(x, node, config)
        np.testing.assert_array_equal(vec, ref)


class TestFaultEffectProperties:
    def test_fault_free_config_is_noop(self):
        node, x = conv_case(8, 16, 3, 1, 1, 5)
        engine = VectorisedEngine()
        a = engine.conv_accumulate(x, node)
        b = engine.conv_accumulate(x, node, InjectionConfig.fault_free())
        np.testing.assert_array_equal(a, b)

    def test_fault_only_affects_mapped_output_channels(self):
        node, x = conv_case(16, 16, 3, 1, 1, 5)
        engine = VectorisedEngine()
        clean = engine.conv_accumulate(x, node)
        site = FaultSite(mac_unit=3, multiplier=0)
        faulty = engine.conv_accumulate(x, node, InjectionConfig.single(site, StuckAtZero()))
        diff = np.abs(clean.astype(np.int64) - faulty.astype(np.int64)).sum(axis=(0, 2, 3))
        affected = {oc for oc in range(16) if oc % 8 == 3}
        for oc in range(16):
            if oc in affected:
                continue
            assert diff[oc] == 0, f"unexpected corruption on output channel {oc}"

    def test_stuck_at_zero_on_all_lanes_zeroes_mac_outputs(self):
        node, x = conv_case(8, 8, 3, 1, 1, 4)
        node.bias[:] = 0
        universe = FaultUniverse()
        config = InjectionConfig.uniform(universe.sites_in_mac(2), StuckAtZero())
        acc = VectorisedEngine().conv_accumulate(x, node, config)
        np.testing.assert_array_equal(acc[:, 2], np.zeros_like(acc[:, 2]))

    def test_affected_fraction(self):
        engine = VectorisedEngine()
        node = make_qconv(16, 16, 3)
        config = InjectionConfig.single(FaultSite(0, 0), StuckAtZero())
        frac = engine.affected_fraction(node, config)
        assert frac == pytest.approx(1 / 64)
        assert engine.affected_fraction(node, InjectionConfig.fault_free()) == 0.0

    def test_corrections_additive_across_sites(self):
        node, x = conv_case(8, 8, 3, 1, 1, 4, seed=21)
        engine = VectorisedEngine()
        clean = engine.conv_accumulate(x, node)
        site_a = FaultSite(1, 1)
        site_b = FaultSite(4, 6)
        only_a = engine.conv_accumulate(x, node, InjectionConfig.single(site_a, ConstantValue(3)))
        only_b = engine.conv_accumulate(x, node, InjectionConfig.single(site_b, ConstantValue(3)))
        both = engine.conv_accumulate(
            x, node, InjectionConfig.uniform([site_a, site_b], ConstantValue(3))
        )
        np.testing.assert_array_equal(both - clean, (only_a - clean) + (only_b - clean))


#: Constant-override models, down to the 18-bit product-bus extremes; a
#: non-zero constant adds an accumulator offset, stuck-at-0 adds none.
FOLD_MODELS = [StuckAtZero(), StuckAtOne(), ConstantValue(-131072), ConstantValue(131071)]


def _fused_matches_per_trial(engine, node, configs, x):
    """Fused stacks (diverged and shared input) equal per-trial evaluations."""
    per_trial = np.concatenate([engine.conv_accumulate(x, node, c) for c in configs])
    stack = np.concatenate([x] * len(configs))
    diverged = engine.conv_accumulate_fused(node, configs, len(x), x_stack=stack)
    shared = engine.conv_accumulate_fused(node, configs, len(x), x_clean=x)
    np.testing.assert_array_equal(diverged, per_trial)
    np.testing.assert_array_equal(shared, per_trial)
    return per_trial


class TestConstantFoldEquivalence:
    """Constant-override faults folded into per-trial weights.

    A folded trial zeroes its faulty lane's weight block and adds the
    constant times the lane's term count (padding lanes included) to the
    affected output channels; these cases pin that against the scalar
    engine, and the fused stacks against per-trial evaluation.
    """

    @pytest.mark.parametrize("model", FOLD_MODELS, ids=lambda m: m.label())
    @pytest.mark.parametrize("in_channels", [3, 12, 20])
    def test_padding_lanes_match_scalar(self, in_channels, model):
        node, x = conv_case(in_channels, 12, 3, 1, 1, 3, batch=2, seed=in_channels)
        # Lane 7 is all padding at 3 channels and partly padding at 12 or 20.
        configs = [
            InjectionConfig.single(FaultSite(1, 2), model),
            InjectionConfig.uniform([FaultSite(5, 7), FaultSite(3, 0)], model),
            InjectionConfig.fault_free(),
        ]
        per_trial = _fused_matches_per_trial(VectorisedEngine(PAPER_GEOMETRY), node, configs, x)
        scalar = ScalarReferenceEngine(PAPER_GEOMETRY)
        ref = np.concatenate([scalar.conv_accumulate(x, node, c) for c in configs])
        np.testing.assert_array_equal(per_trial, ref)

    def test_every_single_site_matches_scalar(self):
        """The Fig. 3 heat-map configurations: each of the 64 sites alone."""
        node, x = conv_case(12, 8, 3, 1, 1, 3, seed=64)
        engine = VectorisedEngine(PAPER_GEOMETRY)
        scalar = ScalarReferenceEngine(PAPER_GEOMETRY)
        for value in (0, -1):
            configs = [
                InjectionConfig.single(site, ConstantValue(value))
                for site in FaultUniverse().all_sites()
            ]
            per_trial = _fused_matches_per_trial(engine, node, configs, x)
            ref = np.concatenate([scalar.conv_accumulate(x, node, c) for c in configs])
            np.testing.assert_array_equal(per_trial, ref)

    @pytest.mark.parametrize("model", FOLD_MODELS, ids=lambda m: m.label())
    def test_linear_matches_scalar(self, model):
        node = make_qlinear(20, 10, final=True, seed=7)
        x = random_int8((3, 20), seed=8)
        configs = [
            InjectionConfig.single(FaultSite(1, 3), model),
            InjectionConfig.uniform([FaultSite(0, 7), FaultSite(2, 4)], model),
        ]
        per_trial = _fused_matches_per_trial(VectorisedEngine(), node, configs, x)
        scalar = ScalarReferenceEngine()
        ref = np.concatenate([scalar.linear_accumulate(x, node, c) for c in configs])
        np.testing.assert_array_equal(per_trial, ref)

    def test_mixed_fused_group_matches_scalar(self):
        """Folded constants beside bit-flip, transient and accumulator-stage
        corrections on distinct MACs, within one trial and across a group."""
        node, x = conv_case(12, 16, 3, 1, 1, 4, batch=2, seed=33)
        const = {FaultSite(0, 1): ConstantValue(-131072), FaultSite(4, 6): StuckAtZero()}
        others = {
            FaultSite(1, 2): BitFlip(9),
            FaultSite(2, 5): TransientCycleFault(value=-40, duty=0.5, salt=6),
            FaultSite(3, 0): AccumulatorStuckAt(bit=14, stuck=1),
        }
        configs = [
            InjectionConfig(faults={**const, **others}),
            InjectionConfig(faults=const),
            InjectionConfig(faults=others),
            InjectionConfig.single(FaultSite(6, 3), StuckAtOne()),
        ]
        per_trial = _fused_matches_per_trial(VectorisedEngine(PAPER_GEOMETRY), node, configs, x)
        scalar = ScalarReferenceEngine(PAPER_GEOMETRY)
        ref = np.concatenate([scalar.conv_accumulate(x, node, c) for c in configs])
        np.testing.assert_array_equal(per_trial, ref)


class TestConstantFoldStructure:
    """Stuck-at trials run no correction term: the faults live in the
    trials' weights.  A diverged stack runs one GEMM per trial, a shared
    input one GEMM for the whole group."""

    @pytest.mark.parametrize("form", ["stack", "shared"])
    @pytest.mark.parametrize("layer", ["conv", "linear"])
    def test_one_gemm_per_trial_and_no_correction(self, layer, form, monkeypatch):
        if layer == "conv":
            node, x = conv_case(12, 16, 3, 1, 1, 4, batch=2, seed=5)
        else:
            node, x = make_qlinear(20, 10, final=True, seed=5), random_int8((2, 20), seed=6)
        configs = [
            InjectionConfig.single(FaultSite(1, 2), StuckAtZero()),
            InjectionConfig.uniform([FaultSite(0, 0), FaultSite(7, 7)], StuckAtZero()),
            InjectionConfig.single(FaultSite(3, 5), StuckAtOne()),
        ]
        engine = VectorisedEngine(PAPER_GEOMETRY)
        expected = np.concatenate([engine.conv_accumulate(x, node, c) for c in configs])

        def no_correction(*args, **kwargs):
            raise AssertionError("a folded fault reached _site_correction")

        monkeypatch.setattr(VectorisedEngine, "_site_correction", no_correction)
        GEMM_STATS.reset()
        if form == "stack":
            stack = np.concatenate([x] * len(configs))
            fused = engine.conv_accumulate_fused(node, configs, len(x), x_stack=stack)
            assert GEMM_STATS.total_calls == GEMM_STATS.float32_calls == len(configs)
        else:
            fused = engine.conv_accumulate_fused(node, configs, len(x), x_clean=x)
            assert GEMM_STATS.total_calls == GEMM_STATS.float32_calls == 1
        np.testing.assert_array_equal(fused, expected)


class TestDeepContractionEquivalence:
    """3x3 convs deeper than one certified float32 GEMM (depth IC * 9 > 1023).

    The case-study layer-4 convs (IC 128, depth 1152) and full-width ones
    (IC 512, depth 4608) run the clean GEMM as split-K float32.  The scalar
    engine never calls the GEMM core, so it is an independent oracle.
    """

    CONFIGS = {
        "fault-free": InjectionConfig.fault_free(),
        "stuck-at": InjectionConfig.single(FaultSite(3, 5), StuckAtZero()),
        "bitflip": InjectionConfig.single(FaultSite(6, 2), BitFlip(6)),
    }

    @pytest.mark.parametrize("operands", ["random", "near-extreme"])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("in_channels", [128, 512])
    def test_vectorised_matches_scalar(self, in_channels, config, operands):
        node, x = conv_case(in_channels, 8, 3, 1, 1, 3, seed=in_channels)
        if operands == "near-extreme":
            # Interior sums reach ~depth * 2**14 > 2**24 with mixed parity:
            # a float32 GEMM over the whole depth would round them.
            node.weight[:] = -127
            x = np.where(np.random.default_rng(1).random(x.shape) < 0.5, 127, 126).astype(np.int8)
        GEMM_STATS.reset()
        vec = VectorisedEngine(PAPER_GEOMETRY).conv_accumulate(x, node, self.CONFIGS[config])
        assert GEMM_STATS.float64_calls == 0
        ref = ScalarReferenceEngine(PAPER_GEOMETRY).conv_accumulate(x, node, self.CONFIGS[config])
        np.testing.assert_array_equal(vec, ref)


class TestAcceleratorVsCPUBackend:
    def test_fault_free_inference_bit_exact(self, tiny_platform, tiny_dataset):
        """The emulator and the independent CPU backend must agree exactly."""
        images = tiny_dataset.test_images[:8]
        emu_logits = tiny_platform.accelerator.execute(tiny_platform.loadable, images)
        cpu_logits = tiny_platform.cpu_backend.run(tiny_platform.quantized_model, images)
        np.testing.assert_array_equal(np.asarray(emu_logits), np.asarray(cpu_logits))

    def test_fault_free_accuracy_identical(self, tiny_platform, tiny_dataset):
        emu = tiny_platform.baseline_accuracy(tiny_dataset.test_images, tiny_dataset.test_labels)
        cpu = tiny_platform.cpu_reference_accuracy(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert emu == pytest.approx(cpu)

    def test_scalar_engine_full_model_matches_on_tiny_input(self, tiny_platform, tiny_dataset):
        """Run the whole model once through the scalar engine (slow, tiny batch)."""
        from repro.accelerator.accelerator import NVDLAAccelerator

        scalar_acc = NVDLAAccelerator(engine="scalar")
        images = tiny_dataset.test_images[:1]
        scalar_logits = scalar_acc.execute(tiny_platform.loadable, images)
        vec_logits = tiny_platform.accelerator.execute(tiny_platform.loadable, images)
        np.testing.assert_array_equal(np.asarray(scalar_logits), np.asarray(vec_logits))
