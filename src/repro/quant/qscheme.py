"""Symmetric int8 quantisation primitives.

All quantisation in this library is *symmetric* (zero point fixed at 0),
matching the int8 mode of the NVDLA datapath: activations and weights are
signed 8-bit, accumulation is 32-bit (the hardware uses 34-bit partial sums),
and requantisation back to int8 is an integer multiply followed by a
rounding right shift — the exact operation implemented by the SDP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Representable range of the int8 datapath.
INT8_MIN = -128
INT8_MAX = 127

#: Number of fractional bits available to the requantisation multiplier.
REQUANT_MULTIPLIER_BITS = 16


@dataclass(frozen=True)
class QuantParams:
    """Quantisation parameters of one tensor (symmetric, so only a scale).

    ``scale`` maps quantised integers back to real values:
    ``real = scale * quantised``.  For per-channel schemes ``scale`` is an
    array with one entry per output channel.
    """

    scale: np.ndarray  # scalar array () or per-channel array (C,)
    per_channel: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=np.float64))
        if np.any(self.scale <= 0):
            raise ValueError("quantisation scale must be positive")


@dataclass(frozen=True)
class RequantParams:
    """Integer requantisation: ``out = round_shift(acc * multiplier, shift)``.

    ``multiplier`` and ``shift`` encode the real-valued ratio
    ``input_scale * weight_scale / output_scale`` as a fixed-point number
    ``multiplier / 2**shift`` with ``REQUANT_MULTIPLIER_BITS`` bits of
    precision, exactly as a hardware rescaler would.
    """

    multiplier: np.ndarray  # int64 scalar array or per-channel
    shift: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "multiplier", np.asarray(self.multiplier, dtype=np.int64))
        if self.shift < 0 or self.shift > 62:
            raise ValueError(f"requant shift must be in [0, 62], got {self.shift}")


def symmetric_scale(max_abs: float | np.ndarray, num_bits: int = 8) -> np.ndarray:
    """Scale mapping ``[-max_abs, max_abs]`` onto the signed ``num_bits`` range."""
    max_abs = np.asarray(max_abs, dtype=np.float64)
    qmax = float((1 << (num_bits - 1)) - 1)
    # Avoid zero scales for dead channels/tensors.
    max_abs = np.maximum(max_abs, 1e-8)
    return max_abs / qmax


def quantize_tensor(
    values: np.ndarray, params: QuantParams, channel_axis: int = 0
) -> np.ndarray:
    """Quantise a float tensor to int8 using ``params``.

    For per-channel parameters the scale is broadcast along ``channel_axis``.
    """
    scale = params.scale
    if params.per_channel:
        shape = [1] * values.ndim
        shape[channel_axis] = -1
        scale = scale.reshape(shape)
    q = np.round(values / scale)
    return np.clip(q, INT8_MIN, INT8_MAX).astype(np.int8)


def dequantize(values: np.ndarray, params: QuantParams, channel_axis: int = 0) -> np.ndarray:
    """Map int8 values back to real values."""
    scale = params.scale
    if params.per_channel:
        shape = [1] * values.ndim
        shape[channel_axis] = -1
        scale = scale.reshape(shape)
    return values.astype(np.float64) * scale


def compute_requant_params(
    input_scale: float,
    weight_scale: float | np.ndarray,
    output_scale: float,
) -> RequantParams:
    """Encode ``input_scale * weight_scale / output_scale`` as multiplier+shift.

    The returned fixed-point representation keeps
    :data:`REQUANT_MULTIPLIER_BITS` bits in the multiplier, i.e. the largest
    multiplier is ``2**REQUANT_MULTIPLIER_BITS - 1``, and the shift is shared
    across channels (per-channel ratios only differ in the multiplier), which
    mirrors how a single barrel shifter is shared in the SDP datapath.
    """
    ratio = np.asarray(input_scale, dtype=np.float64) * np.asarray(weight_scale, dtype=np.float64)
    ratio = ratio / float(output_scale)
    ratio = np.atleast_1d(ratio)
    if np.any(ratio <= 0):
        raise ValueError("requantisation ratio must be positive")

    # Choose the shift so the largest channel ratio still fits in the
    # multiplier width.
    max_ratio = float(ratio.max())
    shift = 0
    while (max_ratio * (1 << (shift + 1))) < (1 << REQUANT_MULTIPLIER_BITS) and shift < 62 - 1:
        shift += 1
    multiplier = np.round(ratio * (1 << shift)).astype(np.int64)
    multiplier = np.maximum(multiplier, 1)
    if multiplier.size == 1:
        multiplier = multiplier.reshape(())
    return RequantParams(multiplier=multiplier, shift=shift)


def rounding_right_shift(values: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with round-half-away-from-zero.

    This is the rounding mode of the NVDLA SDP truncation stage; it keeps the
    integer pipeline bit-exact between the CPU reference backend and the
    accelerator emulator.
    """
    values = np.asarray(values, dtype=np.int64)
    if shift == 0:
        return values
    offset = np.int64(1) << (shift - 1)
    positive = (values + offset) >> shift
    negative = -((-values + offset) >> shift)
    return np.where(values >= 0, positive, negative)


def requantize_in_place(
    accumulator: np.ndarray,
    params: RequantParams,
    bias: np.ndarray | None = None,
    channel_axis: int = 1,
    relu: bool = False,
) -> np.ndarray:
    """int8 :func:`requantize` of ``accumulator + bias``, computed in place.

    The SDP requantises every conv/FC output of every trial, so this path
    makes as few passes over the accumulator as it can without changing a
    single output bit:

    * the bias rides in the rounding offset: with ``o = 2**(s-1)``,
      ``((acc + bias) * M + o) >> s == (acc * M + (bias * M + o)) >> s``,
      so it costs one per-channel vector instead of a pass;
    * round-half-away-from-zero for a negative ``v = (acc + bias) * M``
      uses ``-((-v + o) >> s) == (v + o - 1) >> s``: one mask of the
      offset sums below ``o``;
    * fused ReLU layers skip that mask: a negative ``v`` rounds to a
      non-positive integer under either rule and the ReLU clamp maps it
      to 0 regardless;
    * the clip writes straight into the fresh int8 result, which keeps the
      accumulator's memory layout.

    ``accumulator`` must be a writeable int64 array the caller owns; it is
    overwritten.  Exact while ``acc * M``, ``bias * M`` and their sum fit in
    int64; the SDP passes 34-bit accumulators and biases and 16-bit
    multipliers, below ``2**51``.  Certified equal to :func:`requantize` by
    ``tests/test_delta_engine.py::TestRequantizeInPlace``.
    """
    acc = accumulator
    multiplier = _along(params.multiplier, acc.ndim, channel_axis)
    shift = params.shift
    rounding = (1 << shift) >> 1
    np.multiply(acc, multiplier, out=acc)
    if bias is not None:
        offset = _along(np.asarray(bias, dtype=np.int64), acc.ndim, channel_axis)
        np.add(acc, offset * multiplier + rounding, out=acc)
    elif rounding:
        acc += rounding
    if shift:
        if not relu:
            np.subtract(acc, acc < rounding, out=acc, casting="unsafe")
        acc >>= shift
    out = np.empty_like(acc, dtype=np.int8)
    np.clip(acc, 0 if relu else INT8_MIN, INT8_MAX, out=out, casting="unsafe")
    return out


def _along(values: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    """A per-channel vector shaped to broadcast along ``axis``; others as is."""
    if values.ndim != 1:
        return values
    shape = [1] * ndim
    shape[axis] = -1
    return values.reshape(shape)


def requantize(
    accumulator: np.ndarray,
    params: RequantParams,
    channel_axis: int = 1,
    relu: bool = False,
    saturate_to_int8: bool = True,
) -> np.ndarray:
    """Requantise a 32/64-bit accumulator tensor back to int8.

    Parameters
    ----------
    accumulator:
        Integer accumulator values (any integer dtype).
    params:
        Multiplier/shift pair from :func:`compute_requant_params`.
    channel_axis:
        Axis along which per-channel multipliers are broadcast
        (1 for NCHW activations, 1 for (N, C) linear outputs).
    relu:
        Apply ReLU (clamp at zero) before saturation, matching the SDP's
        fused activation.
    saturate_to_int8:
        Clamp to the int8 range and cast; disable to inspect raw rescaled
        values.
    """
    acc = np.asarray(accumulator, dtype=np.int64)
    multiplier = _along(params.multiplier, acc.ndim, channel_axis)
    scaled = rounding_right_shift(acc * multiplier, params.shift)
    if relu:
        scaled = np.maximum(scaled, 0)
    if saturate_to_int8:
        return np.clip(scaled, INT8_MIN, INT8_MAX).astype(np.int8)
    return scaled
