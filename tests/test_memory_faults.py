"""Memory-resident (CBUF/CSB) fault subsystem tests.

Certifies the tentpole invariants of the memory fault axis:

* the vectorised engine and the scalar reference engine produce
  *bit-identical* accumulators for every memory-resident fault family,
  over fixed small cases and hypothesis-random geometries/sites/dwell
  windows (the two corruption paths are implemented independently —
  uint8-view XOR vs per-byte Python integer arithmetic);
* dwell semantics: a flip is present exactly for the GEMM execution
  indices in ``[dwell_start, dwell_start + dwell)`` and an expired flip
  leaves the result bit-identical to fault-free;
* tape interaction: a tape-armed platform under memory faults matches
  the scalar reference end to end, and input corruption at the DMA
  boundary never replays a taped clean forward;
* site addressing: enumeration, sampling, sorting and flat-index
  round-trips over the memory window.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.accelerator import NVDLAAccelerator
from repro.accelerator.engine import VectorisedEngine, config_fusable
from repro.accelerator.geometry import ArrayGeometry
from repro.accelerator.reference import ScalarReferenceEngine
from repro.faults.injector import InjectionConfig
from repro.faults.models import (
    ActivationBitFlip,
    BitFlip,
    ConstantValue,
    InputCorruption,
    WeightBitFlip,
    flip_int8_bytes,
)
from repro.faults.sites import (
    MEMORY_SURFACES,
    MEMORY_WINDOW_BYTES,
    FaultSite,
    FaultUniverse,
    MemorySite,
    site_sort_key,
)
from tests.conftest import make_qconv, make_qlinear, random_int8


def conv_case(in_c, out_c, kernel, stride, padding, spatial, batch=1, seed=0):
    node = make_qconv(in_c, out_c, kernel, stride=stride, padding=padding, seed=seed)
    x_q = random_int8((batch, in_c, spatial, spatial), seed=seed + 100)
    return node, x_q


SMALL_CASES = [
    (8, 8, 1, 1, 0, 4),
    (8, 8, 3, 1, 1, 4),
    (3, 8, 3, 1, 1, 4),
    (8, 12, 3, 1, 1, 4),
    (16, 8, 3, 2, 1, 6),
    (5, 9, 2, 1, 0, 5),
]


def engines(geometry=None):
    geometry = geometry or ArrayGeometry(num_macs=4, muls_per_mac=4)
    return (
        VectorisedEngine(geometry),
        ScalarReferenceEngine(geometry),
    )


def memory_config(model_cls, sites, **kwargs):
    return InjectionConfig.uniform(sites, model_cls(**kwargs))


# ---------------------------------------------------------------------------
# Site addressing
# ---------------------------------------------------------------------------
class TestMemorySites:
    def test_flat_index_round_trip(self):
        for surface in MEMORY_SURFACES:
            for flat in range(MEMORY_WINDOW_BYTES * 8):
                site = MemorySite.from_flat_index(surface, flat)
                assert site.flat_index() == flat
                site.validate()

    def test_universe_enumeration(self):
        universe = FaultUniverse()
        assert universe.memory_size == MEMORY_WINDOW_BYTES * 8
        sites = universe.memory_sites("weight")
        assert len(sites) == universe.memory_size
        assert len(set(sites)) == universe.memory_size
        assert sites == sorted(sites, key=site_sort_key)
        assert all(s in universe for s in sites)

    def test_random_sampling_distinct_and_sorted(self):
        universe = FaultUniverse()
        rng = np.random.default_rng(7)
        sites = universe.random_memory_sites(10, rng, surface="activation")
        assert len(set(sites)) == 10
        assert all(s.surface == "activation" for s in sites)
        assert sites == sorted(sites, key=site_sort_key)

    def test_unknown_surface_rejected(self):
        universe = FaultUniverse()
        with pytest.raises(ValueError, match="unknown memory surface"):
            universe.memory_sites("csb")
        with pytest.raises(ValueError, match="unknown memory surface"):
            MemorySite("csb", 0, 0).validate()

    def test_sort_key_orders_datapath_before_memory(self):
        mixed = [
            MemorySite("activation", 0, 0),
            FaultSite(1, 2),
            MemorySite("weight", 3, 1),
            FaultSite(0, 0),
        ]
        ordered = sorted(mixed, key=site_sort_key)
        assert ordered == [
            FaultSite(0, 0),
            FaultSite(1, 2),
            MemorySite("weight", 3, 1),
            MemorySite("activation", 0, 0),
        ]

    def test_display_labels(self):
        assert MemorySite("weight", 12, 3).display() == "CBUF weight byte 12 bit 3"


# ---------------------------------------------------------------------------
# Model semantics
# ---------------------------------------------------------------------------
class TestMemoryModels:
    def test_dwell_window(self):
        model = WeightBitFlip(dwell_start=2, dwell=3)
        assert [model.active_at(i) for i in range(7)] == [
            False, False, True, True, True, False, False,
        ]

    def test_dwell_validation(self):
        with pytest.raises(ValueError, match="dwell_start"):
            WeightBitFlip(dwell_start=-1)
        with pytest.raises(ValueError, match="dwell"):
            ActivationBitFlip(dwell=0)

    def test_input_corruption_always_active(self):
        model = InputCorruption()
        assert all(model.active_at(i) for i in range(5))
        assert model.label() == "input-corrupt"

    def test_labels_and_equality(self):
        assert WeightBitFlip(dwell_start=1, dwell=2).label() == "weight-bitflip[dwell=2@1]"
        assert WeightBitFlip(dwell=2) == WeightBitFlip(dwell=2)
        assert WeightBitFlip(dwell=2) != WeightBitFlip(dwell=3)
        assert WeightBitFlip() != ActivationBitFlip()
        assert len({WeightBitFlip(), WeightBitFlip(), ActivationBitFlip()}) == 2

    def test_memory_models_not_fusable(self):
        site = MemorySite("weight", 0, 0)
        assert not config_fusable(InjectionConfig.single(site, WeightBitFlip()))
        assert not config_fusable(
            InjectionConfig.single(MemorySite("input", 1, 1), InputCorruption())
        )
        # datapath configs remain fusable
        assert config_fusable(InjectionConfig.single(FaultSite(0, 0), ConstantValue(0)))

    def test_apply_refuses_bus_semantics(self):
        with pytest.raises(TypeError, match="stored operand bytes"):
            WeightBitFlip().apply(np.zeros(3, dtype=np.int64))

    def test_flip_int8_bytes_wraps_and_involutes(self):
        arr = random_int8((2, 7), seed=3)
        flips = [(5, 1), (12, 7)]  # 12 wraps modulo 7 per sample
        once = flip_int8_bytes(arr, flips, per_sample=True)
        assert once.dtype == np.int8
        assert not np.array_equal(once, arr)
        assert np.array_equal(flip_int8_bytes(once, flips, per_sample=True), arr)
        # whole-array mode wraps modulo the full size
        whole = flip_int8_bytes(arr, [(14, 0)], per_sample=False)
        expected = arr.copy().reshape(-1)
        expected[0] = np.int8(np.uint8(expected[0].view(np.uint8)) ^ np.uint8(1))
        assert np.array_equal(whole.reshape(-1), expected)

    def test_flip_int8_bytes_rejects_wrong_dtype(self):
        with pytest.raises(TypeError, match="int8"):
            flip_int8_bytes(np.zeros(4, dtype=np.int32), [(0, 0)], per_sample=False)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------
class TestInjectionConfigMemory:
    def test_active_flips_split_by_surface(self):
        config = InjectionConfig(
            faults={
                MemorySite("weight", 3, 1): WeightBitFlip(dwell=2),
                MemorySite("activation", 5, 7): ActivationBitFlip(),
                MemorySite("input", 0, 0): InputCorruption(),
                FaultSite(0, 0): ConstantValue(0),
            }
        )
        weight, act = config.active_memory_flips(0)
        assert weight == [(3, 1)]
        assert act == [(5, 7)]
        # activation flip dwell expired at index 1, weight still dwelling
        weight, act = config.active_memory_flips(1)
        assert weight == [(3, 1)]
        assert act == []
        assert config.input_flips() == [(0, 0)]

    def test_surface_mismatch_raises(self):
        config = InjectionConfig.single(MemorySite("activation", 0, 0), WeightBitFlip())
        with pytest.raises(ValueError, match="targets the 'weight' surface"):
            config.active_memory_flips(0)

    def test_datapath_config_strips_memory_faults(self):
        site = FaultSite(1, 1)
        config = InjectionConfig(
            faults={
                site: ConstantValue(5),
                MemorySite("weight", 0, 0): WeightBitFlip(),
            }
        )
        datapath = config.datapath_config()
        assert list(datapath.faults) == [site]
        # a pure-datapath config is returned unchanged (identity fast path)
        pure = InjectionConfig.single(site, ConstantValue(5))
        assert pure.datapath_config() is pure

    def test_describe_mentions_cbuf(self):
        config = InjectionConfig.single(MemorySite("weight", 2, 4), WeightBitFlip())
        assert "CBUF weight byte 2 bit 4=weight-bitflip[dwell=1@0]" in config.describe()


# ---------------------------------------------------------------------------
# Differential equivalence: vectorised vs scalar reference
# ---------------------------------------------------------------------------
class TestMemoryStageEquivalence:
    @pytest.mark.parametrize("case", SMALL_CASES)
    @pytest.mark.parametrize("model_cls", [WeightBitFlip, ActivationBitFlip])
    def test_conv_small_cases(self, case, model_cls):
        node, x_q = conv_case(*case)
        vec, ref = engines()
        surface = model_cls.surface
        sites = [MemorySite(surface, 3, 6), MemorySite(surface, 17, 0)]
        config = memory_config(model_cls, sites)
        acc_vec = vec.conv_accumulate(x_q, node, config)
        acc_ref = ref.conv_accumulate(x_q, node, config)
        assert np.array_equal(acc_vec, acc_ref)
        # the fault must actually perturb the result
        clean = vec.conv_accumulate(x_q, node)
        assert not np.array_equal(acc_vec, clean)

    @pytest.mark.parametrize("model_cls", [WeightBitFlip, ActivationBitFlip])
    def test_conv_dwell_expiry_equals_clean(self, model_cls):
        node, x_q = conv_case(*SMALL_CASES[1])
        vec, ref = engines()
        config = memory_config(
            model_cls, [MemorySite(model_cls.surface, 1, 3)], dwell_start=0, dwell=1
        )
        clean = vec.conv_accumulate(x_q, node)
        # exec_index 0 is inside the dwell window, 1 is after the scrub
        faulty = vec.conv_accumulate(x_q, node, config, exec_index=0)
        assert not np.array_equal(faulty, clean)
        assert np.array_equal(ref.conv_accumulate(x_q, node, config, exec_index=0), faulty)
        scrubbed = vec.conv_accumulate(x_q, node, config, exec_index=1)
        assert np.array_equal(scrubbed, clean)
        assert np.array_equal(
            ref.conv_accumulate(x_q, node, config, exec_index=1), scrubbed
        )

    def test_linear_path(self):
        node = make_qlinear(24, 10)
        x_q = random_int8((3, 24), seed=11)
        vec, ref = engines()
        for model_cls in (WeightBitFlip, ActivationBitFlip):
            config = memory_config(
                model_cls,
                [MemorySite(model_cls.surface, 9, 2), MemorySite(model_cls.surface, 40, 5)],
            )
            acc_vec = vec.linear_accumulate(x_q, node, config)
            acc_ref = ref.linear_accumulate(x_q, node, config)
            assert np.array_equal(acc_vec, acc_ref)
            assert not np.array_equal(acc_vec, vec.linear_accumulate(x_q, node))

    def test_mixed_memory_and_product_config(self):
        node, x_q = conv_case(*SMALL_CASES[3])
        vec, ref = engines()
        config = InjectionConfig(
            faults={
                MemorySite("weight", 2, 5): WeightBitFlip(),
                MemorySite("activation", 7, 1): ActivationBitFlip(),
                FaultSite(0, 1): BitFlip(bit=4),
            }
        )
        acc_vec = vec.conv_accumulate(x_q, node, config)
        acc_ref = ref.conv_accumulate(x_q, node, config)
        assert np.array_equal(acc_vec, acc_ref)

    def test_batched_activation_flip_is_per_sample(self):
        # the activation surface is re-staged per sample: each sample of the
        # batch sees the same (byte, bit) flip of *its own* staging.
        node, x_q = conv_case(*SMALL_CASES[1], batch=3, seed=5)
        vec, ref = engines()
        config = memory_config(ActivationBitFlip, [MemorySite("activation", 6, 7)])
        acc = vec.conv_accumulate(x_q, node, config)
        assert np.array_equal(acc, ref.conv_accumulate(x_q, node, config))
        for sample in range(3):
            single = vec.conv_accumulate(x_q[sample : sample + 1], node, config)
            assert np.array_equal(acc[sample : sample + 1], single)

    @given(
        num_macs=st.integers(min_value=1, max_value=6),
        muls_per_mac=st.integers(min_value=1, max_value=6),
        byte_offset=st.integers(min_value=0, max_value=MEMORY_WINDOW_BYTES - 1),
        bit=st.integers(min_value=0, max_value=7),
        dwell_start=st.integers(min_value=0, max_value=2),
        dwell=st.integers(min_value=1, max_value=3),
        exec_index=st.integers(min_value=0, max_value=4),
        surface_idx=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_geometry_property(
        self, num_macs, muls_per_mac, byte_offset, bit, dwell_start, dwell,
        exec_index, surface_idx, seed,
    ):
        geometry = ArrayGeometry(num_macs=num_macs, muls_per_mac=muls_per_mac)
        node, x_q = conv_case(6, 7, 3, 1, 1, 4, seed=seed % 1000)
        model_cls = (WeightBitFlip, ActivationBitFlip)[surface_idx]
        site = MemorySite(model_cls.surface, byte_offset, bit)
        config = memory_config(model_cls, [site], dwell_start=dwell_start, dwell=dwell)
        vec, ref = engines(geometry)
        acc_vec = vec.conv_accumulate(x_q, node, config, exec_index=exec_index)
        acc_ref = ref.conv_accumulate(x_q, node, config, exec_index=exec_index)
        assert np.array_equal(acc_vec, acc_ref)
        clean = vec.conv_accumulate(x_q, node)
        active = dwell_start <= exec_index < dwell_start + dwell
        if not active:
            assert np.array_equal(acc_vec, clean)


# ---------------------------------------------------------------------------
# Full-model execution: tape interaction and the DMA boundary
# ---------------------------------------------------------------------------
class TestMemoryFaultPlatformExecution:
    def _configs(self):
        return {
            "weight": memory_config(
                WeightBitFlip, [MemorySite("weight", 5, 6)], dwell_start=1, dwell=2
            ),
            "activation": memory_config(
                ActivationBitFlip, [MemorySite("activation", 30, 3)]
            ),
            "input": memory_config(InputCorruption, [MemorySite("input", 2, 7)]),
        }

    def test_taped_platform_matches_scalar_reference(self, tiny_platform, tiny_dataset):
        """A tape-armed vectorised platform must equal the scalar
        reference for every memory fault family — including the weight-dwell
        case whose mid-plan corruption bypasses the tape."""
        images = tiny_dataset.test_images[:2]
        loadable = tiny_platform.loadable
        scalar = NVDLAAccelerator(engine="scalar")
        taped = NVDLAAccelerator(engine="vectorised", tape_bytes=1 << 20)
        # record the tape with a fault-free baseline first, as campaigns do
        chunk = (0,)
        baseline = taped.execute(loadable, images, chunk_key=chunk)
        assert np.array_equal(baseline, scalar.execute(loadable, images))
        for name, config in self._configs().items():
            taped.set_injection_config(config)
            scalar.set_injection_config(config)
            got = taped.execute(loadable, images, chunk_key=chunk)
            want = scalar.execute(loadable, images)
            assert np.array_equal(got, want), f"{name} diverged from scalar reference"
            assert not np.array_equal(got, baseline), f"{name} was a silent no-op"
        # after clearing faults the taped platform replays the clean forward
        taped.clear_faults()
        assert np.array_equal(taped.execute(loadable, images, chunk_key=chunk), baseline)

    def test_dwell_expired_weight_flip_is_clean(self, tiny_platform, tiny_dataset):
        images = tiny_dataset.test_images[:2]
        loadable = tiny_platform.loadable
        num_gemms = len(loadable.conv_like_ops())
        acc = NVDLAAccelerator(engine="vectorised")
        baseline = acc.execute(loadable, images)
        # dwell window entirely beyond the last GEMM op: never active
        acc.set_injection_config(
            memory_config(
                WeightBitFlip, [MemorySite("weight", 0, 7)],
                dwell_start=num_gemms, dwell=1,
            )
        )
        assert np.array_equal(acc.execute(loadable, images), baseline)
        # the same flip dwelling over op 0 must perturb the logits
        acc.set_injection_config(
            memory_config(WeightBitFlip, [MemorySite("weight", 0, 7)])
        )
        assert not np.array_equal(acc.execute(loadable, images), baseline)

    def test_input_corruption_applies_at_dma(self, tiny_platform, tiny_dataset):
        """Input corruption equals executing with pre-flipped quantised input."""
        images = tiny_dataset.test_images[:2]
        loadable = tiny_platform.loadable
        site = MemorySite("input", 11, 4)
        acc = NVDLAAccelerator(engine="vectorised")
        acc.set_injection_config(memory_config(InputCorruption, [site]))
        got = acc.execute(loadable, images)
        # a fault-free accelerator's DMA hook is the identity
        input_node = loadable.model.input_node
        flipped = flip_int8_bytes(
            input_node.quantize(images), [(site.byte_offset, site.bit)], per_sample=True
        )
        clean_acc = NVDLAAccelerator(engine="vectorised")
        assert np.array_equal(clean_acc._dma_input(flipped, clean_acc.injection_config), flipped)
        # execute() quantises internally, so feed the pre-flipped bytes to a
        # clean accelerator through a monkeypatched quantiser: the result
        # must equal the DMA-boundary corruption.
        original_quantize = input_node.quantize
        try:
            input_node.quantize = lambda imgs: flipped
            want = clean_acc.execute(loadable, images)
        finally:
            input_node.quantize = original_quantize
        assert np.array_equal(got, want)
        baseline = NVDLAAccelerator(engine="vectorised").execute(loadable, images)
        assert not np.array_equal(got, baseline)


# ---------------------------------------------------------------------------
# Depthwise workload under memory faults
# ---------------------------------------------------------------------------
class TestDepthwiseMemoryFaults:
    @pytest.fixture(scope="class")
    def dw_case(self):
        from repro.compiler.compile import compile_model
        from repro.nn.mobilenet import SeparableStageSpec, build_mobilenet

        graph = build_mobilenet(
            num_classes=4,
            input_shape=(3, 8, 8),
            stages=(SeparableStageSpec(1, 8, 1), SeparableStageSpec(1, 16, 2)),
            seed=0,
        )
        rng = np.random.default_rng(0)
        images = rng.normal(size=(6, 3, 8, 8)).astype(np.float32)
        loadable = compile_model(graph, calibration_images=images[:4]).loadable
        return loadable, images[:2]

    def test_plan_contains_depthwise_ops(self, dw_case):
        from repro.compiler.ops import DepthwiseConvOp

        loadable, _ = dw_case
        assert any(isinstance(op, DepthwiseConvOp) for op in loadable.ops)

    @pytest.mark.parametrize("model_cls", [WeightBitFlip, ActivationBitFlip])
    def test_scalar_vectorised_identity(self, dw_case, model_cls):
        loadable, images = dw_case
        config = memory_config(
            model_cls, [MemorySite(model_cls.surface, 21, 2)], dwell_start=0, dwell=3
        )
        vec = NVDLAAccelerator(engine="vectorised")
        ref = NVDLAAccelerator(engine="scalar")
        vec.set_injection_config(config)
        ref.set_injection_config(config)
        got = vec.execute(loadable, images)
        want = ref.execute(loadable, images)
        assert np.array_equal(got, want)
        vec.clear_faults()
        assert not np.array_equal(got, vec.execute(loadable, images))


# ---------------------------------------------------------------------------
# Strategy and registry integration
# ---------------------------------------------------------------------------
class TestMemoryFaultStrategies:
    def test_random_multipliers_draws_memory_sites(self):
        from repro.core.strategies import RandomMultipliers
        from repro.utils.rng import SeededRNG

        strategy = RandomMultipliers(
            models=(WeightBitFlip(dwell=2),), fault_counts=(1, 3), trials_per_point=2
        )
        universe = FaultUniverse()
        rng = SeededRNG(42)
        assert strategy.expected_trials(universe) == 4
        for index in range(4):
            trial = strategy.trial_at(universe, rng, index)
            sites = trial.config.sites
            assert all(isinstance(s, MemorySite) for s in sites)
            assert all(s.surface == "weight" for s in sites)
            assert len(sites) == trial.num_faults
            # indexable protocol: re-deriving the trial is deterministic
            again = strategy.trial_at(universe, SeededRNG(42), index)
            assert again.config.sites == sites

    def test_exhaustive_covers_memory_window(self):
        from repro.core.strategies import ExhaustiveSingleSite
        from repro.utils.rng import SeededRNG

        strategy = ExhaustiveSingleSite(models=(ActivationBitFlip(),))
        universe = FaultUniverse()
        rng = SeededRNG(0)
        total = strategy.expected_trials(universe)
        assert total == universe.memory_size
        seen = {
            strategy.trial_at(universe, rng, i).config.sites[0] for i in range(total)
        }
        assert seen == set(universe.memory_sites("activation"))

    def test_stratified_rejects_memory_families(self):
        from repro.core.strategies import StratifiedSampling
        from repro.utils.rng import SeededRNG

        strategy = StratifiedSampling(
            models=(WeightBitFlip(),), allocation=(1,) * FaultUniverse().num_macs
        )
        with pytest.raises(ValueError, match="stratifies over MAC units"):
            strategy.trial_at(FaultUniverse(), SeededRNG(0), 0)


class TestMemoryFaultRegistry:
    def test_families_build_through_registry(self):
        from repro.core.registry import FAULTS

        (weight,) = FAULTS.build("weight-bitflip", {"dwell_start": 1, "dwell": 2})
        assert isinstance(weight, WeightBitFlip)
        assert (weight.dwell_start, weight.dwell) == (1, 2)
        (act,) = FAULTS.build("activation-bitflip", {})
        assert isinstance(act, ActivationBitFlip)
        assert (act.dwell_start, act.dwell) == (0, 1)
        (inp,) = FAULTS.build("input-corrupt", {})
        assert isinstance(inp, InputCorruption)

    def test_dwell_params_validated(self):
        from repro.core.registry import FAULTS

        with pytest.raises(ValueError, match="dwell"):
            FAULTS.build("weight-bitflip", {"dwell": 0})
        with pytest.raises(ValueError, match="dwell_start"):
            FAULTS.build("activation-bitflip", {"dwell_start": -1})

    def test_stratified_axis_rejects_memory_family(self):
        from repro.core.sweep import FaultAxis, StrategyAxis

        models = FaultAxis(name="w", kind="weight-bitflip").build()
        assert models[0].stage == "memory"
        with pytest.raises(ValueError, match="memory-stage"):
            StrategyAxis(name="s", kind="stratified").build(models, "s")

    def test_random_axis_accepts_memory_family(self):
        from repro.core.sweep import FaultAxis, StrategyAxis

        models = FaultAxis(name="a", kind="activation-bitflip").build()
        strategy = StrategyAxis(
            name="r", kind="random", params={"counts": [1], "trials": 1}
        ).build(models, "r")
        assert strategy.expected_trials(FaultUniverse()) == 1

    def test_example_spec_validates(self):
        import tomllib

        from repro.core.sweep import validate_spec_data

        with open("examples/sweep_memory_depthwise.toml", "rb") as fh:
            data = tomllib.load(fh)
        assert validate_spec_data(data) == []
