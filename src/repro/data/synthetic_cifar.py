"""Procedurally generated CIFAR-10-like dataset.

Each of the ten classes is defined by a parametric image generator that
combines a dominant colour palette, a geometric structure (blob, stripe,
ring, checkerboard, gradient, ...) and instance-level jitter (position,
scale, rotation of the structure, additive noise, brightness).  The result
is a 10-class, 32x32 RGB classification problem that:

* has the exact input tensor shape of CIFAR-10 (3, 32, 32),
* is hard enough that a linear model does not solve it, but
* is learnable by a small ResNet within a few numpy-speed epochs.

Pixel values are produced in ``[0, 1]`` and then standardised per channel,
matching the usual CIFAR-10 preprocessing that the quantiser expects.

A split's images render on first read: building the dataset only draws
each image's random numbers, so a process that reads the calibration
batch and the test split never renders the training images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Names of the ten synthetic classes (loosely mirroring CIFAR-10 semantics).
CLASS_NAMES = (
    "blob",
    "ring",
    "hstripes",
    "vstripes",
    "checker",
    "gradient",
    "cross",
    "dots",
    "diag",
    "square",
)

#: Per-channel normalisation constants applied to every image.
CHANNEL_MEAN = np.array([0.47, 0.45, 0.42], dtype=np.float32)
CHANNEL_STD = np.array([0.25, 0.24, 0.26], dtype=np.float32)

_PALETTES = np.array(
    [
        [0.85, 0.30, 0.25],
        [0.25, 0.70, 0.35],
        [0.25, 0.40, 0.85],
        [0.85, 0.75, 0.25],
        [0.65, 0.30, 0.75],
        [0.30, 0.75, 0.75],
        [0.90, 0.55, 0.20],
        [0.55, 0.55, 0.55],
        [0.20, 0.25, 0.45],
        [0.75, 0.45, 0.55],
    ],
    dtype=np.float32,
)


def _coords(size: int) -> tuple[np.ndarray, np.ndarray]:
    ys, xs = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return ys.astype(np.float32), xs.astype(np.float32)


class _Draw(NamedTuple):
    """Every random number of one image instance, in the order drawn."""

    class_id: int
    cy: float
    cx: float
    scale: float
    phase: float
    period: float
    #: Gradient direction (class 5 only, else ``None``).
    angle: float | None
    fg: np.ndarray
    bg: np.ndarray
    brightness: float
    noise: np.ndarray


def _draw(class_id: int, rng: np.random.Generator, size: int) -> _Draw:
    """Draw one instance's jitter from ``rng`` without rendering it.

    Stepping ``rng`` past an image costs only these draws, which is how
    :class:`SyntheticCIFAR10` reaches a split's start without rendering
    the images before it.
    """
    if not 0 <= class_id < len(CLASS_NAMES):
        raise ValueError(f"class_id must be in [0, {len(CLASS_NAMES)}), got {class_id}")
    cy = size / 2 + rng.uniform(-5, 5)
    cx = size / 2 + rng.uniform(-5, 5)
    scale = rng.uniform(0.7, 1.3)
    phase = rng.uniform(0, 2 * np.pi)
    period = rng.uniform(5, 9) * scale
    angle = rng.uniform(0, np.pi) if class_id == 5 else None
    fg = _PALETTES[class_id] + rng.uniform(-0.08, 0.08, size=3)
    bg_class = (class_id + rng.integers(1, len(CLASS_NAMES))) % len(CLASS_NAMES)
    bg = _PALETTES[bg_class] * 0.4 + 0.25 + rng.uniform(-0.08, 0.08, size=3)
    brightness = rng.uniform(0.85, 1.15)
    noise = rng.normal(0.0, 0.06, size=(3, size, size))
    return _Draw(class_id, cy, cx, scale, phase, period, angle, fg, bg, brightness, noise)


def _structure(d: _Draw, size: int) -> np.ndarray:
    """Return the grayscale structural mask of one instance in [0, 1]."""
    ys, xs = _coords(size)
    cy, cx, scale, phase, period = d.cy, d.cx, d.scale, d.phase, d.period
    class_id = d.class_id

    if class_id == 0:  # blob: soft gaussian bump
        r2 = (ys - cy) ** 2 + (xs - cx) ** 2
        mask = np.exp(-r2 / (2 * (5.5 * scale) ** 2))
    elif class_id == 1:  # ring
        r = np.sqrt((ys - cy) ** 2 + (xs - cx) ** 2)
        mask = np.exp(-((r - 9 * scale) ** 2) / (2 * (2.2 * scale) ** 2))
    elif class_id == 2:  # horizontal stripes
        mask = 0.5 + 0.5 * np.sin(2 * np.pi * ys / period + phase)
    elif class_id == 3:  # vertical stripes
        mask = 0.5 + 0.5 * np.sin(2 * np.pi * xs / period + phase)
    elif class_id == 4:  # checkerboard
        mask = 0.5 + 0.5 * np.sign(
            np.sin(2 * np.pi * ys / period + phase) * np.sin(2 * np.pi * xs / period + phase)
        )
    elif class_id == 5:  # diagonal gradient
        proj = np.cos(d.angle) * xs + np.sin(d.angle) * ys
        mask = (proj - proj.min()) / (proj.max() - proj.min() + 1e-9)
    elif class_id == 6:  # cross
        width = 3.0 * scale
        mask = np.maximum(
            np.exp(-((ys - cy) ** 2) / (2 * width**2)),
            np.exp(-((xs - cx) ** 2) / (2 * width**2)),
        )
    elif class_id == 7:  # dots: a grid of small bumps
        mask = (
            0.5
            + 0.5 * np.sin(2 * np.pi * ys / (period * 0.7) + phase)
            * np.sin(2 * np.pi * xs / (period * 0.7) + phase)
        )
        mask = mask**3
    elif class_id == 8:  # diagonal stripes
        mask = 0.5 + 0.5 * np.sin(2 * np.pi * (xs + ys) / period + phase)
    else:  # class 9, filled square
        half = 8.0 * scale
        mask = (
            (np.abs(ys - cy) < half) & (np.abs(xs - cx) < half)
        ).astype(np.float32)
        # soften the edges slightly
        mask = mask * 0.9 + 0.05
    return np.clip(mask, 0.0, 1.0).astype(np.float32)


def _render(d: _Draw, size: int) -> np.ndarray:
    """The normalised CHW image of one drawn instance."""
    mask = _structure(d, size)
    fg, bg = d.fg, d.bg
    image = mask[None, :, :] * fg[:, None, None] + (1.0 - mask[None, :, :]) * bg[:, None, None]
    image = image * d.brightness  # brightness jitter
    image = image + d.noise  # sensor noise
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return (image - CHANNEL_MEAN[:, None, None]) / CHANNEL_STD[:, None, None]


def generate_image(class_id: int, rng: np.random.Generator, size: int = 32) -> np.ndarray:
    """Generate one normalised CHW image of ``class_id``.

    Returns a ``float32`` array of shape ``(3, size, size)`` standardised with
    :data:`CHANNEL_MEAN` / :data:`CHANNEL_STD`.
    """
    return _render(_draw(class_id, rng, size), size)


@dataclass
class SyntheticCIFAR10:
    """A fixed train/test split of the synthetic dataset.

    Parameters
    ----------
    num_train:
        Number of training images (balanced across the 10 classes).
    num_test:
        Number of test images.
    seed:
        Seed controlling both the class assignment order and image jitter.
    image_size:
        Spatial size; 32 matches CIFAR-10.
    """

    num_train: int = 2000
    num_test: int = 400
    seed: int = 0
    image_size: int = 32

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        #: Generator state at the first image of each split.
        self._starts: dict[str, dict] = {}
        #: Each split's images, once rendered.
        self._images: dict[str, np.ndarray] = {}
        self.train_labels = self._step_past("train", self.num_train, rng)
        self.test_labels = self._step_past("test", self.num_test, rng)

    def _step_past(self, split: str, count: int, rng: np.random.Generator) -> np.ndarray:
        """Shuffle ``split``'s labels, then step ``rng`` past its images by
        drawing them without rendering; returns the labels."""
        labels = np.arange(count) % len(CLASS_NAMES)
        rng.shuffle(labels)
        self._starts[split] = rng.bit_generator.state
        for label in labels:
            _draw(int(label), rng, self.image_size)
        return labels.astype(np.int64)

    def _replay(self, split: str, count: int | None = None) -> np.ndarray:
        """The first ``count`` images of ``split`` (all by default), replayed
        from its start."""
        rng = np.random.default_rng()
        rng.bit_generator.state = self._starts[split]
        labels = self.train_labels if split == "train" else self.test_labels
        return np.stack(
            [generate_image(int(label), rng, self.image_size) for label in labels[:count]]
        )

    def _rendered(self, split: str) -> np.ndarray:
        if split not in self._images:
            self._images[split] = self._replay(split)
        return self._images[split]

    @property
    def train_images(self) -> np.ndarray:
        """The training images, rendered on first read."""
        return self._rendered("train")

    @property
    def test_images(self) -> np.ndarray:
        """The test images, rendered on first read."""
        return self._rendered("test")

    @property
    def num_classes(self) -> int:
        return len(CLASS_NAMES)

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (3, self.image_size, self.image_size)

    def calibration_batch(self, count: int = 64) -> np.ndarray:
        """The first ``count`` training images, used for quantisation
        calibration; renders only those unless the split already is."""
        count = min(count, self.num_train)
        if "train" in self._images:
            return self._images["train"][:count]
        return self._replay("train", count)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SyntheticCIFAR10(train={self.num_train}, test={self.num_test}, "
            f"seed={self.seed})"
        )
