"""Certification suite of the delta-propagation trial engine.

The engine's contract is absolute: every execution shortcut — taped clean
activations, suffix-only re-execution, fused multi-trial correction stacks,
the in-place SDP chain — must produce logits **bit-identical** to a plain
full forward pass.  These tests certify that contract over random
geometries and every fault-model family (constants, bit flips,
accumulator-stage stuck-ats, deterministic per-cycle transients), plus the
bookkeeping that makes the tape safe (byte budgets, read-only entries,
segment verification, loud overflow).
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator import engine as engine_module
from repro.accelerator.accelerator import NVDLAAccelerator, _reach
from repro.accelerator.engine import VectorisedEngine, config_fusable
from repro.accelerator.geometry import PAPER_GEOMETRY
from repro.accelerator.pdp import PDP
from repro.accelerator.tape import CleanForwardTape, arrays_match
from repro.compiler.ops import ConvOp, FullyConnectedOp, PoolOp
from repro.core import platform as platform_module
from repro.core.campaign import CampaignConfig
from repro.core.parallel import ParallelCampaignRunner
from repro.core.platform import EmulationPlatform, PlatformConfig
from repro.core.strategies import RandomMultipliers
from repro.faults.injector import InjectionConfig
from repro.faults.models import (
    AccumulatorStuckAt,
    ActivationBitFlip,
    BitFlip,
    ConstantValue,
    InputCorruption,
    StuckAtOne,
    StuckAtZero,
    TransientCycleFault,
    WeightBitFlip,
)
from repro.faults.sites import FaultSite, MemorySite
from repro.nn.resnet import RESNET18_STAGES, build_resnet
from repro.quant.qlayers import QMaxPool
from repro.quant.qscheme import (
    RequantParams,
    requantize,
    requantize_in_place,
)

from tests.conftest import make_qconv, make_qlinear, random_int8


#: One representative per fused-compatible fault-model family.
FAMILIES = [
    ConstantValue(0),
    ConstantValue(-3),
    StuckAtZero(),
    StuckAtOne(),
    BitFlip(5),
    AccumulatorStuckAt(bit=20, stuck=1),
    TransientCycleFault(value=7, duty=0.4, salt=3),
]


def _site_for(model, mac: int, mul: int) -> FaultSite:
    if model.stage == "accumulator":
        return FaultSite(mac, 0)
    return FaultSite(mac, mul)


# ----------------------------------------------------------------------
# Fused multi-trial evaluation == per-trial evaluation (layer level)
# ----------------------------------------------------------------------
class TestFusedLayerEquivalence:
    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.label())
    def test_conv_fused_stack_matches_per_trial(self, model):
        node = make_qconv(8, 12, 3, stride=1, padding=1, seed=11)
        configs = [
            InjectionConfig.single(_site_for(model, mac, mul), model)
            for mac, mul in [(0, 0), (1, 2), (7, 7)]
        ]
        per_trial = 3
        x = random_int8((per_trial, 8, 6, 6), seed=21)
        engine = VectorisedEngine(PAPER_GEOMETRY)

        # Diverged-stack form: each trial brings its own activations.
        stack = np.concatenate([x, x, x], axis=0)
        fused = engine.conv_accumulate_fused(node, configs, per_trial, x_stack=stack)
        for g, config in enumerate(configs):
            single = engine.conv_accumulate(x, node, config)
            np.testing.assert_array_equal(
                fused[g * per_trial : (g + 1) * per_trial], single
            )

        # Shared-clean form: one clean input for the whole group.
        fused_clean = engine.conv_accumulate_fused(node, configs, per_trial, x_clean=x)
        np.testing.assert_array_equal(fused_clean, fused)

    @pytest.mark.parametrize("model", FAMILIES[:4], ids=lambda m: m.label())
    def test_linear_fused_stack_matches_per_trial(self, model):
        node = make_qlinear(24, 10, final=True, seed=5)
        configs = [
            InjectionConfig.single(_site_for(model, mac, mul), model)
            for mac, mul in [(2, 1), (5, 6)]
        ]
        x = random_int8((4, 24), seed=9)
        engine = VectorisedEngine(PAPER_GEOMETRY)
        fused = engine.linear_accumulate_fused(node, configs, 4, x_clean=x)
        for g, config in enumerate(configs):
            single = engine.linear_accumulate(x, node, config)
            np.testing.assert_array_equal(fused[g * 4 : (g + 1) * 4], single)

    @settings(max_examples=25, deadline=None)
    @given(
        in_channels=st.integers(3, 12),
        out_channels=st.integers(4, 14),
        kernel=st.sampled_from([1, 3]),
        spatial=st.integers(3, 7),
        batch=st.integers(1, 3),
        mac=st.integers(0, 7),
        mul=st.integers(0, 7),
        model=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**16),
    )
    def test_fused_equivalence_random_geometries(
        self, in_channels, out_channels, kernel, spatial, batch, mac, mul, model, seed
    ):
        node = make_qconv(in_channels, out_channels, kernel, padding=kernel // 2, seed=seed)
        x = random_int8((batch, in_channels, spatial, spatial), seed=seed + 1)
        y = random_int8((batch, in_channels, spatial, spatial), seed=seed + 2)
        configs = [
            InjectionConfig.single(_site_for(model, mac, mul), model),
            InjectionConfig.single(_site_for(model, (mac + 3) % 8, (mul + 5) % 8), model),
        ]
        engine = VectorisedEngine(PAPER_GEOMETRY)
        stack = np.concatenate([x, y], axis=0)
        fused = engine.conv_accumulate_fused(node, configs, batch, x_stack=stack)
        np.testing.assert_array_equal(
            fused[:batch], engine.conv_accumulate(x, node, configs[0])
        )
        np.testing.assert_array_equal(
            fused[batch:], engine.conv_accumulate(y, node, configs[1])
        )

    def test_fusability_gate(self):
        assert config_fusable(InjectionConfig.single(FaultSite(0, 0), ConstantValue(0)))
        assert config_fusable(
            InjectionConfig.single(FaultSite(0, 0), TransientCycleFault(value=1))
        )

    def test_fused_requires_exactly_one_source(self):
        node = make_qconv(8, 8, 1)
        x = random_int8((2, 8, 4, 4))
        engine = VectorisedEngine(PAPER_GEOMETRY)
        config = [InjectionConfig.single(FaultSite(0, 0), ConstantValue(0))]
        with pytest.raises(ValueError, match="exactly one"):
            engine.conv_accumulate_fused(node, config, 2, x_stack=x, x_clean=x)
        with pytest.raises(ValueError, match="exactly one"):
            engine.conv_accumulate_fused(node, config, 2)


# ----------------------------------------------------------------------
# Platform level: tape + suffix execution + fused passes == plain forward
# ----------------------------------------------------------------------
class TestPlatformDeltaEquivalence:
    @pytest.fixture(scope="class")
    def platforms(self, tiny_graph, tiny_dataset):
        """(delta platform, reference platform) built from the same graph."""
        delta = EmulationPlatform(
            tiny_graph,
            tiny_dataset.calibration_batch(32),
            config=PlatformConfig(name="delta"),
        )
        reference = EmulationPlatform(
            tiny_graph,
            tiny_dataset.calibration_batch(32),
            config=PlatformConfig(name="reference", tape_bytes=0),
        )
        return delta, reference

    @pytest.mark.parametrize("model", FAMILIES, ids=lambda m: m.label())
    def test_taped_trials_bit_identical(self, platforms, tiny_dataset, model):
        delta, reference = platforms
        images = tiny_dataset.test_images[:24]
        labels = tiny_dataset.test_labels[:24]
        delta.reset_caches()
        base_delta = delta.baseline_accuracy(images, labels, batch_size=8)
        base_ref = reference.baseline_accuracy(images, labels, batch_size=8)
        assert base_delta == base_ref
        config = InjectionConfig.single(_site_for(model, 1, 2), model)
        assert delta.accuracy_with_faults(
            config, images, labels, batch_size=8
        ) == reference.accuracy_with_faults(config, images, labels, batch_size=8)

    def test_fused_groups_bit_identical(self, platforms, tiny_dataset):
        delta, reference = platforms
        images = tiny_dataset.test_images[:8]
        labels = tiny_dataset.test_labels[:8]
        delta.reset_caches()
        delta.baseline_accuracy(images, labels, batch_size=8)
        configs = [
            InjectionConfig.single(_site_for(model, i % 8, (2 * i) % 8), model)
            for i, model in enumerate(FAMILIES)
        ]
        fused = delta.accuracies_with_faults(configs, images, labels, batch_size=8)
        serial = [
            reference.accuracy_with_faults(c, images, labels, batch_size=8)
            for c in configs
        ]
        assert fused == serial

    def test_evicted_tape_chunks_are_loud(
        self, tiny_graph, tiny_dataset, caplog
    ):
        """A tape too small to hold the clean forward must degrade to full
        re-execution loudly: every dropped chunk segment is counted in the
        tape stats, the recording pass logs one warning, and the records
        still match the tape-less reference platform bit for bit."""
        platform = EmulationPlatform(
            tiny_graph,
            tiny_dataset.calibration_batch(32),
            config=PlatformConfig(name="tiny-tape", tape_bytes=1024),
        )
        images = tiny_dataset.test_images[:16]
        labels = tiny_dataset.test_labels[:16]
        with caplog.at_level(logging.WARNING, logger="repro.accelerator.tape"):
            baseline = platform.baseline_accuracy(images, labels, batch_size=8)
        stats = platform.tape_stats()
        assert stats["segments"] == 0  # everything evicted
        assert stats["segments_dropped"] == 2  # one per batch chunk
        warnings = [r for r in caplog.records if r.name == "repro.accelerator.tape"]
        assert len(warnings) == 1
        assert "dropped 2 chunk segment(s)" in warnings[0].getMessage()
        config = InjectionConfig.single(FaultSite(0, 0), ConstantValue(0))
        accuracy = platform.accuracy_with_faults(config, images, labels, batch_size=8)
        # And the records still match a tape-less reference platform.
        reference = EmulationPlatform(
            tiny_graph,
            tiny_dataset.calibration_batch(32),
            config=PlatformConfig(name="ref", tape_bytes=0),
        )
        assert baseline == reference.baseline_accuracy(images, labels, batch_size=8)
        assert accuracy == reference.accuracy_with_faults(config, images, labels, batch_size=8)

    def test_recording_pass_releases_freed_heap(self, platforms, tiny_dataset, monkeypatch):
        """The baseline pass that records a tape ends by handing the heap
        that set-up freed back to the OS, and the release is a no-op where
        glibc is missing."""
        delta, reference = platforms
        images = tiny_dataset.test_images[:8]
        labels = tiny_dataset.test_labels[:8]
        calls = []
        monkeypatch.setattr(platform_module, "_release_free_heap", lambda: calls.append(1))
        delta.reset_caches()
        delta.baseline_accuracy(images, labels, batch_size=8)
        reference.baseline_accuracy(images, labels, batch_size=8)
        assert calls == [1]  # only the pass that records a tape
        monkeypatch.undo()

        def missing_libc(name):
            raise OSError(name)

        monkeypatch.setattr(platform_module.ctypes, "CDLL", missing_libc)
        platform_module._release_free_heap()

    def test_tape_stats_report_reuse(self, platforms, tiny_dataset):
        delta, _ = platforms
        images = tiny_dataset.test_images[:16]
        labels = tiny_dataset.test_labels[:16]
        delta.reset_caches()
        delta.baseline_accuracy(images, labels, batch_size=8)
        stats = delta.tape_stats()
        assert stats["segments"] == 2
        assert not stats["recording"]
        delta.accuracy_with_faults(
            InjectionConfig.single(FaultSite(0, 0), ConstantValue(0)),
            images,
            labels,
            batch_size=8,
        )
        stats = delta.tape_stats()
        assert stats["segment_hits"] == 2
        assert stats["layer_hits"] >= 2  # at least the stem conv per chunk


def _taped_accelerator(loadable, images, tape_bytes: int = 1 << 20) -> NVDLAAccelerator:
    """A vectorised accelerator whose tape holds the clean forward of
    ``images`` under the chunk key ``(0, len(images))``."""
    accelerator = NVDLAAccelerator(engine="vectorised", tape_bytes=tape_bytes)
    accelerator.tape.start_recording()
    accelerator.execute(loadable, images, chunk_key=(0, len(images)))
    accelerator.tape.finish_recording()
    return accelerator


#: Configurations only a one-config pass may arm: memory faults corrupt
#: the staged operands a fused group shares.
ONE_CONFIG_ONLY = [
    InjectionConfig.uniform(
        [MemorySite("weight", 5, 6)], WeightBitFlip(dwell_start=1, dwell=2)
    ),
    InjectionConfig.uniform(
        [MemorySite("activation", 30, 3)], ActivationBitFlip(dwell_start=2, dwell=3)
    ),
    InjectionConfig.uniform([MemorySite("input", 2, 7)], InputCorruption()),
]


class TestOneOpLoop:
    """``execute`` and ``execute_fused`` share one op loop: a one-config
    fused pass must equal ``execute`` with that configuration armed, for
    every fault family including the ones that never join a fused group."""

    @pytest.mark.parametrize(
        "config",
        [InjectionConfig.single(_site_for(m, 1, 2), m) for m in FAMILIES] + ONE_CONFIG_ONLY,
        ids=lambda c: c.describe(),
    )
    def test_one_config_fused_pass_equals_execute(self, tiny_platform, tiny_dataset, config):
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:2]
        chunk = (0, len(images))
        fused, armed = (_taped_accelerator(loadable, images) for _ in range(2))
        got = fused.execute_fused(loadable, images, [config], chunk_key=chunk)
        armed.set_injection_config(config)
        want = armed.execute(loadable, images, chunk_key=chunk)
        np.testing.assert_array_equal(got, want)
        if any(model.stage == "memory" for model in config.faults.values()):
            scalar = NVDLAAccelerator(engine="scalar")
            scalar.set_injection_config(config)
            np.testing.assert_array_equal(got, scalar.execute(loadable, images))


def _gemm_ops(loadable) -> list:
    return [op for op in loadable.ops if isinstance(op, (ConvOp, FullyConnectedOp))]


def _gemm_names(loadable) -> list[str]:
    return [op.name for op in _gemm_ops(loadable)]


def _log_gemm_work(monkeypatch, accelerator) -> tuple[list[str], list[str]]:
    """Log the node of every engine accumulate and SDP requant call."""
    engine_calls, requant_calls = [], []
    engine = accelerator.engine
    for name in ("conv_accumulate_fused", "linear_accumulate_fused"):
        monkeypatch.setattr(engine, name, lambda node, *a, _f=getattr(engine, name), **k: (
            engine_calls.append(node.name) or _f(node, *a, **k)
        ))
    post = accelerator.sdp.conv_post_owned
    monkeypatch.setattr(accelerator.sdp, "conv_post_owned", lambda acc, node, **k: (
        requant_calls.append(node.name) or post(acc, node, **k)
    ))
    return engine_calls, requant_calls


def _expected_layer_hits(loadable, config, activations, segment) -> tuple[int, int]:
    """``(hits, misses)`` of one trial under the tape's layer-hit rule: a
    GEMM is a hit when its input equals the taped clean input and no memory
    flip dwells at it (its staged operands are the taped ones)."""
    hits = misses = 0
    for index, op in enumerate(_gemm_ops(loadable)):
        hit = np.array_equal(
            activations[op.inputs[0]], segment.entry(op.name).inputs[0]
        ) and not any(config.active_memory_flips(index))
        hits, misses = hits + hit, misses + (not hit)
    return hits, misses


class TestIdleOpSkip:
    """An op on the taped clean input at which no fault is live is served
    from the tape outright: no accumulate, no saturation, no requant."""

    @pytest.mark.parametrize(
        "make_config",
        [
            lambda start: InjectionConfig.uniform(
                [MemorySite("weight", 5, 6)], WeightBitFlip(dwell_start=start, dwell=2)
            ),
            lambda start: InjectionConfig.uniform(
                [MemorySite("activation", 30, 3)], ActivationBitFlip(dwell_start=start)
            ),
        ],
        ids=["weight-bitflip", "activation-bitflip"],
    )
    def test_ops_before_the_dwell_window_are_replayed(
        self, tiny_platform, tiny_dataset, make_config, monkeypatch
    ):
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:2]
        gemms = _gemm_names(loadable)
        taped = _taped_accelerator(loadable, images)
        segment = taped.tape.segment_for((0, 2), loadable.model.input_node.quantize(images))
        reference = NVDLAAccelerator(engine="vectorised", tape_bytes=0)
        engine_calls, requant_calls = _log_gemm_work(monkeypatch, taped)
        want_hits = want_misses = 0
        for start in range(len(gemms)):
            config = make_config(start)
            taped.set_injection_config(config)
            reference.set_injection_config(config)
            engine_calls.clear()
            requant_calls.clear()
            hits_before = taped.tape.layer_hits
            logits, activations = taped.execute(
                loadable, images, return_activations=True, chunk_key=(0, 2)
            )
            np.testing.assert_array_equal(logits, reference.execute(loadable, images))
            assert not set(gemms[:start]) & set(engine_calls + requant_calls)
            assert taped.tape.layer_hits - hits_before >= start
            hits, misses = _expected_layer_hits(loadable, config, activations, segment)
            want_hits, want_misses = want_hits + hits, want_misses + misses
        stats = taped.tape.stats()
        assert (stats["layer_hits"], stats["layer_misses"]) == (want_hits, want_misses)
        assert stats["layer_hit_rate"] == want_hits / (want_hits + want_misses)
        # The scalar oracle, at a dwell start on a downsample branch.
        start = gemms.index("layer2.block0.downsample.conv")
        scalar = NVDLAAccelerator(engine="scalar")
        scalar.set_injection_config(make_config(start))
        taped.set_injection_config(make_config(start))
        np.testing.assert_array_equal(
            taped.execute(loadable, images, chunk_key=(0, 2)), scalar.execute(loadable, images)
        )

    @pytest.mark.parametrize(
        "configs",
        [
            [InjectionConfig.single(FaultSite(1, 2), StuckAtZero())],
            [
                InjectionConfig.single(_site_for(model, 1 + i, 2), model)
                for i, model in enumerate(FAMILIES[:4])
            ],
        ],
        ids=lambda configs: configs[0].describe() if len(configs) == 1 else "fused-group",
    )
    def test_live_datapath_fault_never_skips(
        self, tiny_platform, tiny_dataset, configs, monkeypatch
    ):
        """Every GEMM runs under a live datapath fault.  The first conv
        reads the taped clean input and makes exactly one clean GEMM for
        the whole group (the tape holds no GEMM parts), and the logits
        equal a tape-less pass."""
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:2]
        taped = _taped_accelerator(loadable, images)
        reference = NVDLAAccelerator(engine="vectorised", tape_bytes=0)
        engine_calls, requant_calls = _log_gemm_work(monkeypatch, taped)
        stem = loadable.model.node(_gemm_names(loadable)[0])
        stem_mapping = _gemm_ops(loadable)[0].mapping
        # Channels-last rows (N * P, R) against (R, OC) weights, or the
        # (R, u * OC) weights of u distinct trial weight sets side by side;
        # the spy logs the number of samples the rows cover.
        stem_depth, stem_oc = stem.weight[0].size, stem.weight.shape[0]
        stem_positions = stem_mapping.out_h * stem_mapping.out_w
        stem_gemms = []
        matmul = engine_module.exact_matmul
        monkeypatch.setattr(engine_module, "exact_matmul", lambda a, b: (
            b.shape[0] == stem_depth and b.shape[1] % stem_oc == 0
            and stem_gemms.append((a.shape[0] // stem_positions,))
        ) or matmul(a, b))
        hits = taped.tape.layer_hits
        logits = taped.execute_fused(loadable, images, configs, chunk_key=(0, 2))
        # One GEMM over the shared clean batch, not a stack of G batches.
        assert len(stem_gemms) == 1 and stem_gemms[0][0] == len(images)
        assert taped.tape.layer_hits == hits + 1  # the stem's input was the taped one
        assert engine_calls == requant_calls == _gemm_names(loadable)
        np.testing.assert_array_equal(logits, reference.execute_fused(loadable, images, configs))

    def test_wrong_surface_memory_model_raises_at_first_gemm(
        self, tiny_platform, tiny_dataset, monkeypatch
    ):
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:2]
        taped = _taped_accelerator(loadable, images)
        engine_calls, _ = _log_gemm_work(monkeypatch, taped)
        indices = []
        original = InjectionConfig.active_memory_flips
        monkeypatch.setattr(
            InjectionConfig, "active_memory_flips",
            lambda self, index: indices.append(index) or original(self, index),
        )
        # Dwelling from GEMM 5, so GEMM 0 is otherwise idle.
        taped.set_injection_config(
            InjectionConfig.single(MemorySite("activation", 30, 3), WeightBitFlip(dwell_start=5))
        )
        with pytest.raises(ValueError, match="surface but is armed at site"):
            taped.execute(loadable, images, chunk_key=(0, 2))
        assert indices == [0]
        assert engine_calls == []

    def test_fault_free_replay_makes_no_engine_call(
        self, tiny_platform, tiny_dataset, monkeypatch
    ):
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:2]
        taped = _taped_accelerator(loadable, images)
        engine_calls, requant_calls = _log_gemm_work(monkeypatch, taped)
        logits = taped.execute(loadable, images, chunk_key=(0, 2))
        assert engine_calls == requant_calls == []
        assert taped.tape.stats()["layer_hits"] == len(_gemm_names(loadable))
        segment = taped.tape.segment_for((0, 2), loadable.model.input_node.quantize(images))
        assert logits is segment.entry(loadable.model.output_name).output


# ----------------------------------------------------------------------
# Dirty-region suffix re-execution
# ----------------------------------------------------------------------
#: (kernel, stride, padding) of the windows the case-study networks use.
WINDOWS = [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0), (3, 1, 0), (7, 2, 3)]


def _mask(pattern: str, shape: tuple[int, ...], data) -> np.ndarray:
    """A per-sample position mask: empty, full, the padded border, or drawn."""
    if pattern == "empty":
        return np.zeros(shape, dtype=bool)
    if pattern == "full":
        return np.ones(shape, dtype=bool)
    if pattern == "edges":
        mask = np.zeros(shape, dtype=bool)
        mask[..., 0, :] = mask[..., -1, :] = mask[..., :, 0] = mask[..., :, -1] = True
        return mask
    size = int(np.prod(shape))
    bits = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return np.array(bits, dtype=bool).reshape(shape)


def _memory_config(surface: str, start: int, sites: int, seed: int) -> InjectionConfig:
    rng = np.random.default_rng(seed)
    flips = [
        MemorySite(surface, int(rng.integers(0, 4096)), int(rng.integers(0, 8)))
        for _ in range(sites)
    ]
    model = (
        ActivationBitFlip(dwell_start=start)
        if surface == "activation"
        else WeightBitFlip(dwell_start=start, dwell=2)
    )
    return InjectionConfig.uniform(flips, model)


def _log_positions(monkeypatch, accelerator) -> list[tuple[str, bool]]:
    """Log ``(node, gathered?)`` for every engine accumulate call."""
    calls = []
    engine = accelerator.engine
    for name in ("conv_accumulate_fused", "linear_accumulate_fused"):
        monkeypatch.setattr(engine, name, lambda node, *a, _f=getattr(engine, name), **k: (
            calls.append((node.name, k.get("positions") is not None)) or _f(node, *a, **k)
        ))
    return calls


class TestGatheredPositions:
    """The gathered engine/PDP forms equal the dense op at every listed
    position, and an op's reach covers every output a changed input moves."""

    @settings(max_examples=40, deadline=None)
    @given(
        window=st.sampled_from(WINDOWS),
        batch=st.integers(1, 3),
        in_channels=st.integers(1, 10),
        out_channels=st.integers(1, 12),
        spatial=st.integers(7, 9),
        pattern=st.sampled_from(["empty", "full", "edges", "drawn"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_gathered_conv_equals_dense(
        self, window, batch, in_channels, out_channels, spatial, pattern, seed, data
    ):
        kernel, stride, padding = window
        node = make_qconv(in_channels, out_channels, kernel, stride, padding, seed=seed)
        x = random_int8((batch, in_channels, spatial, spatial), seed=seed + 1)
        engine = VectorisedEngine(PAPER_GEOMETRY)
        dense = engine.conv_accumulate(x, node)
        positions = np.nonzero(_mask(pattern, dense[:, 0].shape, data))
        got = engine.conv_accumulate_fused(
            node, [InjectionConfig.fault_free()], batch, x_stack=x, positions=positions
        )
        assert got.shape == (positions[0].size, out_channels)
        np.testing.assert_array_equal(got, dense[positions[0], :, positions[1], positions[2]])

    @settings(max_examples=20, deadline=None)
    @given(
        batch=st.integers(1, 6),
        in_features=st.integers(1, 40),
        out_features=st.integers(1, 12),
        final=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_gathered_fc_equals_dense(self, batch, in_features, out_features, final, seed, data):
        node = make_qlinear(in_features, out_features, final=final, seed=seed)
        x = random_int8((batch, in_features), seed=seed + 1)
        engine = VectorisedEngine(PAPER_GEOMETRY)
        dense = engine.linear_accumulate(x, node)
        samples = np.nonzero(data.draw(st.lists(st.booleans(), min_size=batch, max_size=batch)))
        got = engine.linear_accumulate_fused(
            node, [InjectionConfig.fault_free()], batch, x_stack=x, positions=samples
        )
        np.testing.assert_array_equal(got, dense[samples[0]])

    @settings(max_examples=30, deadline=None)
    @given(
        window=st.sampled_from(WINDOWS),
        pool=st.booleans(),
        batch=st.integers(1, 3),
        channels=st.integers(1, 6),
        spatial=st.integers(7, 9),
        pattern=st.sampled_from(["empty", "full", "edges", "drawn"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_reach_covers_every_changed_output(
        self, window, pool, batch, channels, spatial, pattern, seed, data
    ):
        kernel, stride, padding = window
        x = random_int8((batch, channels, spatial, spatial), seed=seed)
        dirty = _mask(pattern, x[:, 0].shape, data)
        changed_x = x.copy()
        changed_x.view(np.uint8)[...] ^= np.where(dirty[:, None], np.uint8(0x5A), np.uint8(0))
        if pool:
            op = PoolOp("pool", ("input",), kernel=kernel, stride=stride, padding=padding)
            node = QMaxPool("pool", ["input"], kernel=kernel, stride=stride, padding=padding)
            run = lambda a, at=None: PDP().max_pool(a, node, at)  # noqa: E731
        else:
            op = ConvOp("conv", ("input",))
            node = make_qconv(channels, 5, kernel, stride, padding, seed=seed)
            engine = VectorisedEngine(PAPER_GEOMETRY)
            run = lambda a, at=None: (  # noqa: E731
                engine.conv_accumulate(a, node)
                if at is None
                else engine.conv_accumulate_fused(
                    node, [InjectionConfig.fault_free()], batch, x_stack=a, positions=at
                )
            )
        before, after = run(x), run(changed_x)
        reach = _reach(op, node, [("stack", changed_x, dirty)], [])
        assert reach.shape == after[:, 0].shape
        assert not ((before != after).any(axis=1) & ~reach).any()
        positions = np.nonzero(reach)
        np.testing.assert_array_equal(
            run(changed_x, positions), after[positions[0], :, positions[1], positions[2]]
        )


class TestDirtyRegion:
    """A trial with no datapath fault re-executes only the dirty region of
    each diverged op: the output positions a changed input position (or a
    byte an activation flip corrupts) reaches.  Every other position is the
    taped output, so the logits stay bit-identical to a full forward."""

    @pytest.mark.parametrize("sites", [1, 2])
    @pytest.mark.parametrize("surface", ["activation", "weight"])
    def test_every_dwell_start_matches_tapeless_platform(
        self, tiny_platform, tiny_dataset, surface, sites
    ):
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:4]
        taped = _taped_accelerator(loadable, images, tape_bytes=1 << 23)
        reference = NVDLAAccelerator(engine="vectorised", tape_bytes=0)
        diverged = 0
        for start in range(len(_gemm_names(loadable))):
            config = _memory_config(surface, start, sites, seed=start)
            taped.set_injection_config(config)
            reference.set_injection_config(config)
            logits = taped.execute(loadable, images, chunk_key=(0, 4))
            want = reference.execute(loadable, images)
            np.testing.assert_array_equal(logits, want)
            diverged += not np.array_equal(want, taped.tape.segment_for(
                (0, 4), loadable.model.input_node.quantize(images)
            ).entry(loadable.model.output_name).output)
        stats = taped.tape.stats()
        assert 0 < stats["positions_recomputed"] < stats["positions_total"]
        assert diverged  # the sweep is not trivially clean

    @pytest.mark.parametrize(
        "op_name", ["layer2.block0.branch1.conv", "layer2.block0.downsample.conv"]
    )
    def test_strided_dwell_starts_match_scalar_engine(
        self, tiny_platform, tiny_dataset, op_name, monkeypatch
    ):
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:2]
        start = _gemm_names(loadable).index(op_name)
        # Channel 3, row 6, column 10 of the 16x16 layer-1 map: an even
        # position, so the 1x1 stride-2 kernel reads it.
        config = InjectionConfig.uniform(
            [MemorySite("activation", 3 * 256 + 6 * 16 + 10, 6)],
            ActivationBitFlip(dwell_start=start, dwell=2),
        )
        taped = _taped_accelerator(loadable, images)
        calls = _log_positions(monkeypatch, taped)
        taped.set_injection_config(config)
        scalar = NVDLAAccelerator(engine="scalar")
        scalar.set_injection_config(config)
        np.testing.assert_array_equal(
            taped.execute(loadable, images, chunk_key=(0, 2)), scalar.execute(loadable, images)
        )
        assert (op_name, True) in calls

    def test_flip_a_strided_kernel_never_reads_stays_clean(
        self, tiny_platform, tiny_dataset, monkeypatch
    ):
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:2]
        start = _gemm_names(loadable).index("layer2.block0.downsample.conv")
        # Row 6, column 11: odd, skipped by the 1x1 stride-2 window.
        config = InjectionConfig.uniform(
            [MemorySite("activation", 3 * 256 + 6 * 16 + 11, 6)],
            ActivationBitFlip(dwell_start=start),
        )
        taped = _taped_accelerator(loadable, images)
        calls = _log_positions(monkeypatch, taped)
        taped.set_injection_config(config)
        logits = taped.execute(loadable, images, chunk_key=(0, 2))
        segment = taped.tape.segment_for((0, 2), loadable.model.input_node.quantize(images))
        assert logits is segment.entry(loadable.model.output_name).output
        assert calls == []

    def test_requant_masked_flip_collapses_to_clean(
        self, tiny_platform, tiny_dataset, monkeypatch
    ):
        """A low-bit flip whose accumulator change the requantisation
        rounds away leaves the op's output byte-equal to the tape: the
        state collapses to the taped object and no later op runs."""
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:2]
        name = "layer1.block1.branch1.conv"
        start = _gemm_names(loadable).index(name)
        taped = _taped_accelerator(loadable, images)
        segment = taped.tape.segment_for((0, 2), loadable.model.input_node.quantize(images))
        calls = _log_positions(monkeypatch, taped)
        for offset in range(64):
            calls.clear()
            taped.set_injection_config(InjectionConfig.uniform(
                [MemorySite("activation", offset, 0)], ActivationBitFlip(dwell_start=start)
            ))
            logits, activations = taped.execute(
                loadable, images, return_activations=True, chunk_key=(0, 2)
            )
            if activations[name] is segment.entry(name).output:
                break
        else:
            pytest.fail("no bit-0 flip in the first 64 bytes was masked by requant")
        assert calls == [(name, True)]
        assert logits is segment.entry(loadable.model.output_name).output

    def test_input_corruption_reuses_the_tape(self, tiny_graph, tiny_dataset, monkeypatch):
        """An input-DMA flip verifies the segment against the uncorrupted
        input and enters the stem with the flipped bytes as its dirty
        region; through an ImageNet-style stem this also runs the max-pool
        on its dirty positions only."""
        graph = build_resnet(
            num_classes=tiny_dataset.num_classes, input_shape=tiny_dataset.input_shape,
            stages=RESNET18_STAGES, width_multiplier=0.125, seed=3, imagenet_stem=True,
        )
        graph.eval()
        platform = EmulationPlatform(
            graph, tiny_dataset.calibration_batch(32), config=PlatformConfig(name="pool")
        )
        loadable = platform.loadable
        assert any(op.name == "stem.pool" for op in loadable.ops)
        images = tiny_dataset.test_images[:3]
        taped = _taped_accelerator(loadable, images, tape_bytes=1 << 23)
        calls = _log_positions(monkeypatch, taped)
        pooled = []
        pool = taped.pdp.max_pool
        monkeypatch.setattr(taped.pdp, "max_pool", lambda x, node, at=None: (
            pooled.append(at is not None) or pool(x, node, at)
        ))
        reference = NVDLAAccelerator(engine="vectorised", tape_bytes=0)
        for offset in (0, 5 * 16 + 7, 2 * 256 + 15 * 16 + 15):
            config = InjectionConfig.uniform([MemorySite("input", offset, 6)], InputCorruption())
            taped.set_injection_config(config)
            reference.set_injection_config(config)
            hits = taped.tape.hits
            np.testing.assert_array_equal(
                taped.execute(loadable, images, chunk_key=(0, 3)),
                reference.execute(loadable, images),
            )
            assert taped.tape.hits == hits + 1
        assert calls[0] == ("stem.conv", True)
        assert True in pooled  # a flip in the centre dirties most of the 4x4 pool

    def test_fused_multiplier_trials_never_gather(self, tiny_platform, tiny_dataset, monkeypatch):
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:2]
        taped = _taped_accelerator(loadable, images)
        calls = _log_positions(monkeypatch, taped)
        configs = [
            InjectionConfig.single(_site_for(model, 1 + i, 2), model)
            for i, model in enumerate(FAMILIES[:4])
        ]
        taped.execute_fused(loadable, images, configs, chunk_key=(0, 2))
        taped.execute_fused(loadable, images, configs[:1], chunk_key=(0, 2))
        assert calls and not any(gathered for _, gathered in calls)
        stats = taped.tape.stats()
        assert stats["positions_recomputed"] == stats["positions_total"] > 0

    def test_position_counters_reach_runtime_stats(self, tiny_platform_spec, tiny_dataset):
        strategy = RandomMultipliers(
            models=(ActivationBitFlip(dwell_start=5),), fault_counts=(1,), trials_per_point=2
        )
        runner = ParallelCampaignRunner(
            tiny_platform_spec.build(), strategy, CampaignConfig(batch_size=8, seed=1)
        )
        result = runner.run(tiny_dataset.test_images[:8], tiny_dataset.test_labels[:8])
        tape = result.runtime_stats["tape"]
        assert 0 < tape["positions_recomputed"] < tape["positions_total"]


# ----------------------------------------------------------------------
# Tape bookkeeping
# ----------------------------------------------------------------------
class TestCleanForwardTape:
    def _segment(self, tape, key, nbytes=1024, seed=0):
        qinput = random_int8((nbytes,), seed=seed)
        segment = tape.begin_segment(key, qinput)
        segment.record("op", (qinput,), random_int8((nbytes,), seed=seed + 1))
        return segment

    def test_byte_budget_evicts_lru_segments(self):
        tape = CleanForwardTape(max_bytes=10_000)
        tape.start_recording()
        for i in range(5):
            tape.commit_segment(self._segment(tape, (i, 64), seed=i))
        tape.finish_recording()
        assert tape.nbytes <= 10_000
        assert len(tape) < 5
        assert tape.stats()["segments_dropped"] == 5 - len(tape)
        # Most recently committed chunks survive.
        survivors = {key for key in tape._segments}
        assert (4, 64) in survivors

    def test_oversized_segment_is_discarded(self):
        tape = CleanForwardTape(max_bytes=1000)
        tape.start_recording()
        tape.commit_segment(self._segment(tape, (0, 64), nbytes=4096))
        assert len(tape) == 0
        assert tape.stats()["segments_dropped"] == 1

    def test_segment_verification_rejects_different_input(self):
        tape = CleanForwardTape(max_bytes=1 << 20)
        tape.start_recording()
        qinput = random_int8((256,), seed=1)
        segment = tape.begin_segment((0, 4), qinput)
        segment.record("op", (qinput,), qinput)
        tape.commit_segment(segment)
        tape.finish_recording()
        assert tape.segment_for((0, 4), qinput) is segment
        other = random_int8((256,), seed=2)
        assert tape.segment_for((0, 4), other) is None
        assert tape.segment_for(None, qinput) is None

    def test_recording_required_for_begin_segment(self):
        tape = CleanForwardTape(max_bytes=1 << 20)
        with pytest.raises(RuntimeError, match="recording"):
            tape.begin_segment((0, 1), random_int8((8,)))

    def test_taped_arrays_are_read_only(self):
        tape = CleanForwardTape(max_bytes=1 << 20)
        tape.start_recording()
        qinput = random_int8((64,), seed=3)
        segment = tape.begin_segment((0, 4), qinput)
        out = random_int8((64,), seed=4)
        segment.record("op", (qinput,), out)
        entry = segment.entry("op")
        with pytest.raises(ValueError):
            entry.output[0] = 1
        with pytest.raises(ValueError):
            entry.inputs[0][0] = 1

    def test_arrays_match_identity_and_bytes(self):
        a = random_int8((32,), seed=5)
        assert arrays_match(a, a)
        assert arrays_match(a, a.copy())
        assert not arrays_match(a, random_int8((32,), seed=6))
        assert not arrays_match(a, a[:16])

    def test_chained_ops_intern_shared_activations(self):
        """op k's taped output and op k+1's taped input are the same object
        (identity is what makes replay skips O(1)), and the shared buffer is
        charged once in the byte accounting."""
        tape = CleanForwardTape(max_bytes=1 << 20)
        tape.start_recording()
        qinput = random_int8((64,), seed=11)
        segment = tape.begin_segment((0, 4), qinput)
        mid = random_int8((64,), seed=12)
        out = random_int8((64,), seed=13)
        segment.record("op1", (qinput,), mid)
        segment.record("op2", (mid,), out)
        e1, e2 = segment.entry("op1"), segment.entry("op2")
        assert e2.inputs[0] is e1.output
        assert e1.inputs[0] is segment.qinput
        # qinput + mid + out, each counted exactly once.
        assert segment.nbytes == qinput.nbytes + mid.nbytes + out.nbytes

    def test_clean_replay_skips_by_identity(self, tiny_graph, tiny_dataset):
        """A fault-free replay of a taped chunk must return the taped logits
        object itself — every op of the suffix skipped by pointer identity,
        with no recomputation of the non-GEMM ops."""
        platform = EmulationPlatform(
            tiny_graph,
            tiny_dataset.calibration_batch(32),
            config=PlatformConfig(name="identity"),
        )
        images = tiny_dataset.test_images[:8]
        labels = tiny_dataset.test_labels[:8]
        platform.baseline_accuracy(images, labels, batch_size=8)
        accelerator = platform.accelerator
        add_calls = []
        original = accelerator.sdp.elementwise_add_owned
        accelerator.sdp.elementwise_add_owned = lambda *a, **k: (
            add_calls.append(1) or original(*a, **k)
        )
        try:
            logits = accelerator.execute(platform.loadable, images, chunk_key=(0, 8))
        finally:
            accelerator.sdp.elementwise_add_owned = original
        assert add_calls == []  # every residual add skipped via the tape
        segment = accelerator.tape.segment_for((0, 8), platform.loadable.model.input_node.quantize(images))
        assert logits is segment.entry(platform.loadable.model.output_name).output

    def test_tape_holds_activations_only(self, tiny_platform, tiny_dataset):
        """A recorded segment holds the distinct interned activations and
        nothing else, and the accumulator footprint the fused path sizes
        its groups by is derived from the taped conv/FC output shapes."""
        loadable = tiny_platform.loadable
        images = tiny_dataset.test_images[:4]
        tape = _taped_accelerator(loadable, images).tape
        segment = tape.segment_for((0, 4), loadable.model.input_node.quantize(images))
        activations = {}
        for op in loadable.ops:
            entry = segment.entry(op.name)
            assert set(vars(entry)) == {"inputs", "output", "gemm"}
            assert entry.gemm == isinstance(op, (ConvOp, FullyConnectedOp))
            for array in entry.inputs + (entry.output,):
                activations[id(array)] = array.nbytes
        assert segment.nbytes == tape.nbytes == sum(activations.values())
        per_sample_outputs = [
            segment.entry(op.name).output[0].size for op in _gemm_ops(loadable)
        ]
        assert tape.max_accumulator_bytes_per_sample() == max(per_sample_outputs) * 8


# ----------------------------------------------------------------------
# Requantisation fast path == reference (bit level)
# ----------------------------------------------------------------------
class TestRequantizeInPlace:
    @settings(max_examples=80, deadline=None)
    @given(
        shift=st.integers(0, 24),
        relu=st.booleans(),
        biased=st.booleans(),
        per_channel=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_offset_form_matches_reference(self, shift, relu, biased, per_channel, seed):
        """``(acc*M + (bias*M + o)) >> s`` equals the reference requant of
        ``acc + bias`` over the certified range ``|acc + bias| < 2**33``,
        rounding ties included."""
        rng = np.random.default_rng(seed)
        bias = rng.integers(-(1 << 20), 1 << 20, size=4, dtype=np.int64)
        span = (1 << 33) - (1 << 20)
        acc = rng.integers(-span, span, size=(3, 4, 5), dtype=np.int64)
        # Odd multipliers turn an odd multiple of 2**(s-1) into a tie.
        multiplier = rng.integers(1, 1 << 16, size=(4,) if per_channel else (), dtype=np.int64)
        multiplier |= 1
        if shift:
            half = 1 << (shift - 1)
            acc[0, :, :4] = np.array([half, -half, 3 * half, -3 * half]) - bias[:, None]
        if not biased:
            # The uncertified path requantises saturated 34-bit sums.
            acc[0, :, :4] += bias[:, None]
            acc[1, 0, :2] = [-(1 << 33), (1 << 33) - 1]
            bias = None
        params = RequantParams(multiplier=multiplier, shift=shift)
        total = acc if bias is None else acc + bias[None, :, None]
        expected = requantize(total, params, channel_axis=1, relu=relu)
        actual = requantize_in_place(acc.copy(), params, bias, channel_axis=1, relu=relu)
        np.testing.assert_array_equal(actual, expected)
        assert actual.dtype == np.int8

    def test_result_keeps_the_accumulator_layout(self):
        acc = np.arange(-24, 24, dtype=np.int64).reshape(2, 3, 4, 2).transpose(0, 3, 1, 2)
        params = RequantParams(multiplier=np.int64(3), shift=2)
        out = requantize_in_place(acc.copy(order="K"), params, channel_axis=1, relu=True)
        np.testing.assert_array_equal(out, requantize(acc, params, channel_axis=1, relu=True))
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous
