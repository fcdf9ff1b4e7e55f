"""Shared fixtures for the test suite.

The heavier fixtures (a trained tiny ResNet and its compiled platform) are
session-scoped so the cost of pure-numpy training is paid once per test run.
All fixtures are deterministic (fixed seeds).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parallel import PlatformSpec
from repro.core.platform import EmulationPlatform, PlatformConfig
from repro.data.synthetic_cifar import SyntheticCIFAR10
from repro.nn.resnet import build_resnet18
from repro.nn.train import TrainConfig, Trainer
from repro.quant.qlayers import QConv, QLinear
from repro.quant.qscheme import QuantParams, compute_requant_params


@pytest.fixture(scope="session")
def tiny_dataset() -> SyntheticCIFAR10:
    """A small synthetic dataset with 16x16 images (fast to train on)."""
    return SyntheticCIFAR10(num_train=160, num_test=50, seed=3, image_size=16)


@pytest.fixture(scope="session")
def cifar_dataset() -> SyntheticCIFAR10:
    """A small synthetic dataset at the paper's 32x32 resolution."""
    return SyntheticCIFAR10(num_train=64, num_test=32, seed=5, image_size=32)


@pytest.fixture(scope="session")
def tiny_graph(tiny_dataset: SyntheticCIFAR10):
    """A width-reduced ResNet-18 trained for two epochs on the tiny dataset."""
    graph = build_resnet18(
        num_classes=tiny_dataset.num_classes,
        input_shape=tiny_dataset.input_shape,
        width_multiplier=0.125,
        seed=3,
    )
    trainer = Trainer(graph, TrainConfig(epochs=2, batch_size=32, lr=0.08, seed=3))
    trainer.fit(
        tiny_dataset.train_images,
        tiny_dataset.train_labels,
        tiny_dataset.test_images,
        tiny_dataset.test_labels,
    )
    graph.eval()
    return graph


@pytest.fixture(scope="session")
def tiny_platform(tiny_graph, tiny_dataset: SyntheticCIFAR10) -> EmulationPlatform:
    """The tiny trained model compiled onto the paper's 8x8 accelerator."""
    return EmulationPlatform(
        tiny_graph,
        tiny_dataset.calibration_batch(32),
        config=PlatformConfig(name="tiny-resnet18"),
    )


@pytest.fixture(scope="session")
def tiny_platform_spec(tiny_graph, tiny_dataset: SyntheticCIFAR10) -> PlatformSpec:
    """Picklable recipe rebuilding exactly the ``tiny_platform`` in a worker."""
    return PlatformSpec(
        graph_builder=build_resnet18,
        builder_kwargs=dict(
            num_classes=tiny_dataset.num_classes,
            input_shape=tiny_dataset.input_shape,
            width_multiplier=0.125,
            seed=3,
        ),
        state=tiny_graph.state_dict(),
        calibration_images=tiny_dataset.calibration_batch(32),
        platform_config=PlatformConfig(name="tiny-resnet18"),
    )


def make_qconv(
    in_channels: int,
    out_channels: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
    relu: bool = True,
    seed: int = 0,
    name: str = "conv",
) -> QConv:
    """Build a standalone quantised convolution with random int8 weights."""
    rng = np.random.default_rng(seed)
    weight = rng.integers(-127, 128, size=(out_channels, in_channels, kernel, kernel)).astype(np.int8)
    bias = rng.integers(-200, 200, size=out_channels).astype(np.int64)
    wparams = QuantParams(scale=np.full(out_channels, 0.01), per_channel=True)
    requant = compute_requant_params(0.02, wparams.scale, 0.05)
    return QConv(
        name=name,
        inputs=["input"],
        weight=weight,
        bias=bias,
        stride=stride,
        padding=padding,
        input_scale=0.02,
        weight_params=wparams,
        output_scale=0.05,
        requant=requant,
        relu=relu,
    )


def make_qlinear(
    in_features: int,
    out_features: int,
    final: bool = True,
    seed: int = 0,
    name: str = "fc",
) -> QLinear:
    """Build a standalone quantised fully-connected layer."""
    rng = np.random.default_rng(seed)
    weight = rng.integers(-127, 128, size=(out_features, in_features)).astype(np.int8)
    bias = rng.integers(-200, 200, size=out_features).astype(np.int64)
    wparams = QuantParams(scale=np.full(out_features, 0.01), per_channel=True)
    requant = None if final else compute_requant_params(0.02, wparams.scale, 0.05)
    return QLinear(
        name=name,
        inputs=["input"],
        weight=weight,
        bias=bias,
        input_scale=0.02,
        weight_params=wparams,
        output_scale=0.05,
        requant=requant,
        relu=False,
    )


def random_int8(shape: tuple[int, ...], seed: int = 0) -> np.ndarray:
    """Random int8 tensor used as quantised activations in datapath tests."""
    rng = np.random.default_rng(seed)
    return rng.integers(-128, 128, size=shape).astype(np.int8)


@pytest.fixture
def qconv_factory():
    return make_qconv


@pytest.fixture
def qlinear_factory():
    return make_qlinear


@pytest.fixture
def int8_factory():
    return random_int8
