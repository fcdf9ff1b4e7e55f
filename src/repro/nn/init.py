"""Weight initialisers for the float training stack."""

from __future__ import annotations

import numpy as np


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator, fan_in: int | None = None) -> np.ndarray:
    """Kaiming (He) normal initialisation, appropriate for ReLU networks.

    Parameters
    ----------
    shape:
        Shape of the weight tensor.  For convolutions this is
        ``(C_out, C_in, K, K)``; for linear layers ``(out, in)``.
    rng:
        Source of randomness.
    fan_in:
        Override for the fan-in; computed from ``shape`` when omitted.
    """
    if fan_in is None:
        fan_in = _fan_in(shape)
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases, BN beta)."""
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    """All-one initialisation (BN gamma)."""
    return np.ones(shape, dtype=np.float32)


def _fan_in(shape: tuple[int, ...]) -> int:
    if len(shape) == 4:
        return shape[1] * shape[2] * shape[3]
    if len(shape) == 2:
        return shape[1]
    if len(shape) == 1:
        return shape[0]
    raise ValueError(f"unsupported weight shape {shape}")
