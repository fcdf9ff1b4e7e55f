"""Cold start without unread work, and without changing one output bit.

A trial process builds its platform from a cached model: the dataset, the
calibration ranges and the quantised model.  Three shortcuts keep that
build to what is read, and each test here fails if its shortcut is wrong:

* dataset splits render on first read, replayed from the generator state
  at the split's start (:class:`~repro.data.synthetic_cifar.SyntheticCIFAR10`);
* the compiler calibrates only the ranges the quantiser reads
  (:func:`~repro.quant.quantize.range_sources`), reducing each activation
  as it is produced and dropping it after its last consumer;
* the 99.9th-percentile range is taken from the tail alone
  (:func:`~repro.quant.calibrate._reduce`), bit-identical to
  ``np.percentile``.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.passes import fold_batchnorm
from repro.data import synthetic_cifar
from repro.data.synthetic_cifar import CLASS_NAMES, SyntheticCIFAR10, generate_image
from repro.nn.functional import conv_output_size
from repro.nn.layers import Conv2D
from repro.quant.calibrate import (
    ActivationRanges,
    _reduce,
    _tail_percentile,
    collect_activation_ranges,
)
from repro.quant.quantize import quantize_graph, range_sources
from repro.zoo import (
    CASE_STUDY_FAMILIES,
    CaseStudySpec,
    _cache_path,
    case_study_builder,
    case_study_platform_spec,
)


def _eager(num_train: int, num_test: int, seed: int, size: int):
    """Both splits rendered image by image from one generator, in order."""
    rng = np.random.default_rng(seed)
    splits = []
    for count in (num_train, num_test):
        labels = np.arange(count) % len(CLASS_NAMES)
        rng.shuffle(labels)
        images = np.stack([generate_image(int(label), rng, size) for label in labels])
        splits.append((images, labels))
    return splits


class TestRenderOnRead:
    @pytest.mark.parametrize(
        "num_train, num_test, seed, size",
        [(160, 50, 3, 16), (64, 32, 5, 32), (23, 17, 11, 8), (7, 12, 0, 32)],
    )
    def test_splits_equal_an_eager_render(self, num_train, num_test, seed, size):
        (train, train_labels), (test, test_labels) = _eager(num_train, num_test, seed, size)
        assert 5 in train_labels  # class 5 draws one number more than the rest
        ds = SyntheticCIFAR10(num_train=num_train, num_test=num_test, seed=seed, image_size=size)
        # Test split and calibration batch first: neither may need the
        # training images rendered.
        np.testing.assert_array_equal(ds.test_images, test)
        np.testing.assert_array_equal(ds.calibration_batch(5), train[:5])
        np.testing.assert_array_equal(ds.train_images, train)
        np.testing.assert_array_equal(ds.calibration_batch(64), train[:64])
        np.testing.assert_array_equal(ds.train_labels, train_labels)
        np.testing.assert_array_equal(ds.test_labels, test_labels)
        for array in (ds.train_images, ds.test_images):
            assert array.dtype == np.float32
        for labels in (ds.train_labels, ds.test_labels):
            assert labels.dtype == np.int64

    def test_dataset_bytes_are_pinned(self):
        ds = SyntheticCIFAR10(num_train=23, num_test=17, seed=11, image_size=8)
        digest = hashlib.sha256()
        for array in (ds.train_images, ds.train_labels, ds.test_images, ds.test_labels):
            digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "8d5a047ce55c51acf5c15edac5a1a352f7694a16528bf934035e6027bc8c865f"
        )

    def test_cached_model_load_renders_only_what_is_read(self, tmp_path, monkeypatch):
        spec = CaseStudySpec()
        graph = case_study_builder(spec.family)(
            num_classes=len(CLASS_NAMES),
            input_shape=(3, 32, 32),
            width_multiplier=spec.width_multiplier,
            seed=spec.seed,
        )
        np.savez(_cache_path(spec, tmp_path), **graph.state_dict())
        rendered = []
        render = synthetic_cifar._render

        def counting(draw, size):
            rendered.append(draw.class_id)
            return render(draw, size)

        monkeypatch.setattr(synthetic_cifar, "_render", counting)
        platform_spec, case = case_study_platform_spec(spec, cache_dir=tmp_path)
        assert len(rendered) == 64
        assert len(platform_spec.calibration_images) == 64
        assert len(case.dataset.test_images) == spec.num_test
        assert len(rendered) == 64 + spec.num_test
        case.dataset.test_images  # cached: no second render
        assert len(rendered) == 64 + spec.num_test


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestTailPercentile:
    @given(
        size=st.integers(min_value=1, max_value=20_000),
        kind=st.sampled_from(["normal", "relu", "ties", "zeros", "nonfinite", "float64"]),
        percentile=st.one_of(
            st.sampled_from([99.9, 99.99, 99, 50, 0, 1.5]),
            st.floats(min_value=0, max_value=100, exclude_max=True),
            st.floats(min_value=90, max_value=100, exclude_max=True).map(np.float64),
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_percentile_bit_for_bit(self, size, kind, percentile, seed):
        # (At 100 and above the range is the maximum, not a percentile.)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(size).astype(np.float32)
        if kind == "relu":
            values = np.maximum(values, 0)
        elif kind == "ties":
            values = rng.integers(-3, 4, size).astype(np.float32)
        elif kind == "zeros":
            values = np.zeros(size, dtype=np.float32)
        elif kind == "nonfinite":
            values[rng.integers(size)] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == "float64":
            values = values.astype(np.float64)
        with np.errstate(invalid="ignore"):
            expected = float(np.percentile(np.abs(values), percentile))
            assert _bits(_reduce(values, percentile)) == _bits(expected)

    def test_shortcut_is_taken_on_a_layer_sized_activation(self):
        rng = np.random.default_rng(1)
        magnitudes = np.abs(np.maximum(rng.standard_normal(524_288), 0).astype(np.float32))
        tail = _tail_percentile(magnitudes, 99.9)
        assert tail is not None
        assert _bits(tail) == _bits(float(np.percentile(magnitudes, 99.9)))


class _Reads(ActivationRanges):
    """Ranges that record every name read."""

    def __init__(self, ranges: ActivationRanges):
        super().__init__(dict(ranges.max_abs))
        self.read: set[str] = set()

    def get(self, name: str) -> float:
        self.read.add(name)
        return super().get(name)


def _folded(family: str):
    graph = case_study_builder(family)(
        num_classes=10, input_shape=(3, 16, 16), width_multiplier=0.125, seed=0
    )
    folded = fold_batchnorm(graph)
    folded.eval()
    return folded


class TestCalibrateWhatIsRead:
    @pytest.mark.parametrize("family", sorted(CASE_STUDY_FAMILIES))
    def test_quantiser_reads_exactly_the_helpers_ranges(self, family):
        folded = _folded(family)
        images = np.random.default_rng(2).standard_normal((12, 3, 16, 16)).astype(np.float32)
        wanted = set(range_sources(folded).values())
        full = collect_activation_ranges(folded, images, batch_size=8)
        assert set(full.max_abs) == {"input", *folded.topological_order()}
        read = _Reads(full)
        quantize_graph(folded, read)
        assert read.read == wanted
        assert len(wanted) < len(full.max_abs)
        partial = collect_activation_ranges(folded, images, batch_size=8, names=wanted)
        assert partial.max_abs == {name: full.max_abs[name] for name in wanted}
        # The model quantised from the partial ranges is the same model.
        from_full = quantize_graph(folded, full)
        from_partial = quantize_graph(folded, partial)
        for a, b in zip(from_full.nodes, from_partial.nodes, strict=True):
            assert a.name == b.name
            assert getattr(a, "output_scale", None) == getattr(b, "output_scale", None)
            assert getattr(a, "scale", None) == getattr(b, "scale", None)


class TestCalibrationMemory:
    def test_calibration_holds_one_layer_at_a_time(self, tiny_graph, tiny_dataset):
        folded = fold_batchnorm(tiny_graph)
        folded.eval()
        images = tiny_dataset.calibration_batch(32)
        batch = len(images)
        shapes = folded.infer_shapes()
        largest_activation = max(int(np.prod(shape)) for shape in shapes.values()) * batch * 4
        largest_cols = 0
        for name in folded.topological_order():
            node = folded.nodes[name]
            layer = node.layer
            if isinstance(layer, Conv2D):
                c, h, w = shapes[node.inputs[0]]
                k = layer.kernel_size
                out_h = conv_output_size(h, k, layer.stride, layer.padding)
                out_w = conv_output_size(w, k, layer.stride, layer.padding)
                largest_cols = max(largest_cols, batch * c * k * k * out_h * out_w * 4)
        # One conv's working set: its im2col buffer and the GEMM's copy of
        # it, plus a few activation-sized arrays (the input a residual join
        # still needs, the padded input, the output and its float32 cast).
        bound = 2 * largest_cols + 4 * largest_activation
        every_activation = sum(int(np.prod(s)) for s in shapes.values()) * batch * 4
        assert every_activation > largest_activation * 8  # holding all of them would show
        collect_activation_ranges(folded, images)  # warm numpy's caches
        tracemalloc.start()
        try:
            collect_activation_ranges(folded, images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)
