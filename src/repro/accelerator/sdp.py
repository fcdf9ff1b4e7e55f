"""The SDP (single-point data processor): post-processing of accumulator data.

After the CMAC/CACC produce raw integer accumulators, the SDP applies, per
output element: bias addition, requantisation (integer multiply + rounding
shift), the fused ReLU, and — for residual connections — the elementwise
addition of a second int8 operand rescaled to the same output scale.  These
are the "Sum, activation, non-linear operations" partitions of the paper's
Fig. 1.
"""

from __future__ import annotations

import numpy as np

from repro.quant.qlayers import QAdd, QConv, QGlobalAvgPool, QLinear
from repro.quant.qscheme import INT8_MAX, INT8_MIN, requantize_owned
from repro.utils.bitops import ACCUMULATOR_WIDTH, saturate


class SDP:
    """Stateless post-processor; every method maps integer arrays to int8.

    The methods may mutate their accumulator argument in place and route
    through :func:`~repro.quant.qscheme.requantize_owned`, shaving the
    temporary allocations a campaign pays per layer per trial.  Callers
    must pass accumulators they own (the engine's are always freshly
    computed or freshly corrected).  The CPU backend keeps the reference
    :func:`~repro.quant.qscheme.requantize` chain as the bit-exact oracle.
    """

    def conv_post_owned(
        self, accumulator: np.ndarray, node: QConv | QLinear, channel_axis: int = 1
    ) -> np.ndarray:
        """Convolution/FC post-processing: bias, 34-bit saturation, requantise, ReLU.

        The bias addition and saturation mutate ``accumulator`` in place.
        For a final :class:`QLinear` with ``requant=None`` the biased raw
        accumulator is returned (int64) instead of an int8 tensor.
        """
        acc = accumulator
        if acc.dtype != np.int64 or not acc.flags.writeable:
            acc = acc.astype(np.int64)
        bias = node.bias.astype(np.int64, copy=False)
        shape = [1] * acc.ndim
        shape[channel_axis] = -1
        np.add(acc, bias.reshape(shape), out=acc)
        saturate(acc, ACCUMULATOR_WIDTH, out=acc)
        if isinstance(node, QLinear) and node.requant is None:
            return acc
        return requantize_owned(acc, node.requant, channel_axis=channel_axis, relu=node.relu)

    def elementwise_add_owned(self, a: np.ndarray, b: np.ndarray, node: QAdd) -> np.ndarray:
        """Residual addition of two int8 tensors with independent rescaling."""
        if a.shape != b.shape:
            raise ValueError(f"elementwise add shapes differ: {a.shape} vs {b.shape}")
        a_scaled = requantize_owned(a, node.requant_a, channel_axis=1, saturate_to_int8=False)
        b_scaled = requantize_owned(b, node.requant_b, channel_axis=1, saturate_to_int8=False)
        np.add(a_scaled, b_scaled, out=a_scaled)
        if node.relu:
            np.maximum(a_scaled, 0, out=a_scaled)
        np.clip(a_scaled, INT8_MIN, INT8_MAX, out=a_scaled)
        return a_scaled.astype(np.int8)

    def global_average_owned(self, x: np.ndarray, node: QGlobalAvgPool) -> np.ndarray:
        """Global average pooling: integer spatial sum then requantisation."""
        acc = np.asarray(x, dtype=np.int64).sum(axis=(2, 3))
        return requantize_owned(acc, node.requant, channel_axis=1, relu=False)
