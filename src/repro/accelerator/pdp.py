"""The PDP (planar data processor): pooling on int8 feature maps.

Max pooling on quantised data is order-preserving and therefore exact;
average pooling sums in a wide register and divides via the SDP-style
requantisation handled by :class:`~repro.accelerator.sdp.SDP`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import conv_output_size, window_view
from repro.quant.qlayers import QMaxPool
from repro.quant.qscheme import INT8_MIN


class PDP:
    """Stateless pooling engine for int8 NCHW tensors."""

    def max_pool(
        self, x: np.ndarray, node: QMaxPool, positions: tuple[np.ndarray, ...] | None = None
    ) -> np.ndarray:
        """Max pooling with the node's kernel/stride/padding.

        ``positions`` — ``(sample, y, x)`` index arrays of output positions —
        pools only those windows and returns their ``(D, C)`` maxima.
        """
        if positions is None:
            return max_pool_int8(x, node.kernel, node.stride, node.padding)
        windows = window_view(x, node.kernel, node.stride, node.padding, fill=INT8_MIN)
        return windows[positions].max(axis=(1, 2))


def max_pool_int8(x: np.ndarray, kernel: int, stride: int, padding: int = 0) -> np.ndarray:
    """Max pooling over int8 NCHW input; padding uses the int8 minimum."""
    if x.dtype != np.int8:
        raise TypeError(f"max_pool_int8 expects int8 input, got {x.dtype}")
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
            constant_values=INT8_MIN,
        )
    out = np.full((n, c, out_h, out_w), INT8_MIN, dtype=np.int8)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            window = x[:, :, ky:y_max:stride, kx:x_max:stride]
            out = np.maximum(out, window)
    return out
