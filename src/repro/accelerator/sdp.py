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
from repro.quant.qscheme import (
    INT8_MAX,
    INT8_MIN,
    RequantParams,
    requantize,
    requantize_in_place,
)
from repro.utils.bitops import ACCUMULATOR_WIDTH, saturate


class SDP:
    """Post-processor; every method maps integer arrays to int8.

    The methods may overwrite their accumulator argument: callers must pass
    accumulators they own (the engine's are always freshly computed or
    freshly corrected).  :func:`~repro.quant.qscheme.requantize` is the
    bit-exact oracle of every method, and the CPU backend runs it directly.
    The only state is the residual-add tables built so far.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple[int, int, int, int, bool], np.ndarray] = {}

    def conv_post_owned(
        self,
        accumulator: np.ndarray,
        node: QConv | QLinear,
        channel_axis: int = 1,
        clamp_free: bool = False,
    ) -> np.ndarray:
        """Convolution/FC post-processing: bias, 34-bit saturation, requantise, ReLU.

        ``clamp_free`` certifies that ``accumulator + bias`` fits the 34-bit
        accumulator (see :func:`repro.accelerator.engine.clamp_free`): the
        saturation is then skipped and the bias rides in the requant offset.
        Otherwise the bias is added and saturated in place first.  For a
        final :class:`QLinear` with ``requant=None`` the biased raw
        accumulator is returned (int64) instead of an int8 tensor.
        """
        acc = accumulator
        if acc.dtype != np.int64 or not acc.flags.writeable:
            acc = acc.astype(np.int64)
        bias = node.bias.astype(np.int64, copy=False)
        final = isinstance(node, QLinear) and node.requant is None
        if clamp_free and not final:
            return requantize_in_place(
                acc, node.requant, bias, channel_axis=channel_axis, relu=node.relu
            )
        shape = [1] * acc.ndim
        shape[channel_axis] = -1
        np.add(acc, bias.reshape(shape), out=acc)
        if not clamp_free:
            saturate(acc, ACCUMULATOR_WIDTH, out=acc)
        if final:
            return acc
        return requantize_in_place(acc, node.requant, channel_axis=channel_axis, relu=node.relu)

    def elementwise_add_owned(self, a: np.ndarray, b: np.ndarray, node: QAdd) -> np.ndarray:
        """Residual addition of two int8 tensors with independent rescaling.

        One gather from the node's :meth:`residual_table`, indexed by the
        raw bytes of the operand pair; the result keeps ``a``'s layout.
        """
        if a.shape != b.shape:
            raise ValueError(f"elementwise add shapes differ: {a.shape} vs {b.shape}")
        index = np.left_shift(a.view(np.uint8), 8, dtype=np.uint16)
        np.bitwise_or(index, b.view(np.uint8), out=index)
        # Both fresh buffers share one memory order, so their flat 'K'
        # views are views and line up element for element.
        out = np.empty_like(index, dtype=np.int8)
        np.take(self.residual_table(node), index.ravel("K"), out=out.ravel("K"), mode="wrap")
        return out

    def global_average_owned(self, x: np.ndarray, node: QGlobalAvgPool) -> np.ndarray:
        """Global average pooling: integer spatial sum then requantisation."""
        acc = x.sum(axis=(2, 3), dtype=np.int64)
        return requantize_in_place(acc, node.requant, channel_axis=1, relu=False)

    def residual_table(self, node: QAdd) -> np.ndarray:
        """Every output of a residual add: a flat read-only ``(65536,)`` int8 table.

        Entry ``(a as uint8) << 8 | (b as uint8)`` holds the add of the
        int8 pair ``(a, b)``.  Both rescales are per tensor, so the whole add
        is this one table.  It is built from the :func:`requantize` oracle
        over all 65,536 pairs, so it is exact by construction, once per
        parameter set.
        """
        key = (*_per_tensor(node.requant_a), *_per_tensor(node.requant_b), node.relu)
        table = self._tables.get(key)
        if table is None:
            pairs = np.arange(1 << 16, dtype=np.uint16)
            a = (pairs >> 8).astype(np.uint8).view(np.int8)
            b = pairs.astype(np.uint8).view(np.int8)
            total = requantize(a, node.requant_a, saturate_to_int8=False) + requantize(
                b, node.requant_b, saturate_to_int8=False
            )
            if node.relu:
                total = np.maximum(total, 0)
            table = np.clip(total, INT8_MIN, INT8_MAX).astype(np.int8)
            table.flags.writeable = False
            self._tables[key] = table
        return table


def _per_tensor(params: RequantParams) -> tuple[int, int]:
    if params.multiplier.ndim:
        raise ValueError("a residual add rescales each operand per tensor")
    return int(params.multiplier), params.shift
