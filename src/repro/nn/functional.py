"""Functional building blocks: im2col convolution, pooling, losses.

All functions operate on ``float32`` arrays in NCHW layout and are written to
be usable both in the float training path (:mod:`repro.nn.layers`) and, with
integer inputs, in the int8 reference CPU backend
(:mod:`repro.runtime.cpu_backend`).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col_view(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Zero-copy sliding-window view of NCHW input for im2col lowering.

    Returns a read-only view of shape ``(N, C, kernel, kernel, out_h, out_w)``
    built with stride tricks: no patch data is materialised, so the input's
    (narrow) dtype is preserved for free.  ``padding > 0`` still pads once.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)

    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )

    sn, sc, sh, sw = x.strides
    return as_strided(
        x,
        shape=(n, c, kernel, kernel, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def window_view(
    x: np.ndarray, kernel: int, stride: int, padding: int, fill: int = 0
) -> np.ndarray:
    """Channels-last sliding windows of NCHW input, for gathering a few.

    Returns a read-only view of shape ``(N, out_h, out_w, kernel, kernel,
    C)``.  The input is copied once into a padded (with ``fill``) NHWC
    buffer, so each window row is ``kernel * C`` contiguous elements and
    gathering the windows of D output positions (``view[n, y, x]``) copies
    ``D * kernel`` runs instead of the ``D * C * kernel`` an NCHW window
    gather makes.  An unpadded 1x1 window reads one channel vector per
    position and is viewed in place.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x = x.transpose(0, 2, 3, 1)
    if kernel > 1 or padding > 0:
        pad = (padding, padding)
        x = np.pad(x, ((0, 0), pad, pad, (0, 0)), mode="constant", constant_values=fill)
    sn, sh, sw, sc = x.strides
    return as_strided(
        x,
        shape=(n, out_h, out_w, kernel, kernel, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Unfold NCHW input into columns for matrix-multiply convolution.

    Returns an array of shape ``(N, C * kernel * kernel, out_h * out_w)``
    with the input's dtype preserved — callers doing exact integer GEMM keep
    int8 patches all the way to the GEMM boundary instead of materialising
    8-byte int64 copies.  1x1/stride-1 lowering returns a *read-only*
    reshaped view of the input (no copy at all); other geometries return a
    fresh buffer.
    """
    n, c, h, w = x.shape
    if kernel == 1 and stride == 1:
        if padding > 0:
            x = np.pad(
                x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
            )
        cols = x.reshape(n, c, (h + 2 * padding) * (w + 2 * padding))
        # The view aliases the caller's activations: writing through it
        # would corrupt them in place, so revoke write access.
        cols.flags.writeable = False
        return cols
    view = im2col_view(x, kernel, stride, padding)
    _, _, _, _, out_h, out_w = view.shape
    return view.reshape(n, c * kernel * kernel, out_h * out_w)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`; accumulates overlapping contributions.

    Used by the convolution backward pass to fold gradients back onto the
    input feature map.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)

    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += cols[:, :, ky, kx, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward convolution via im2col.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, K, K)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.

    Returns
    -------
    (output, cols):
        ``output`` has shape ``(N, C_out, out_h, out_w)``; ``cols`` is the
        im2col buffer kept for the backward pass.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, k, k2 = weight.shape
    if k != k2:
        raise ValueError("only square kernels are supported")
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects {c_in_w}")

    out_h = conv_output_size(h, k, stride, padding)
    out_w = conv_output_size(w, k, stride, padding)

    cols = im2col(x, k, stride, padding)  # (N, C_in*K*K, out_h*out_w)
    w_mat = weight.reshape(c_out, -1)  # (C_out, C_in*K*K)
    out = np.einsum("oc,ncp->nop", w_mat, cols, optimize=True)
    out = out.reshape(n, c_out, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, c_out, 1, 1)
    return out.astype(np.float32), cols


def conv2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    cols: np.ndarray,
    weight: np.ndarray,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_input, grad_weight, grad_bias)``.
    """
    n, c_out, out_h, out_w = grad_out.shape
    k = weight.shape[2]
    grad_flat = grad_out.reshape(n, c_out, out_h * out_w)

    # dL/dW: sum over batch of grad_out x cols^T
    grad_weight = np.einsum("nop,ncp->oc", grad_flat, cols, optimize=True)
    grad_weight = grad_weight.reshape(weight.shape)

    grad_bias = grad_out.sum(axis=(0, 2, 3))

    # dL/dcols, then fold back to the input
    w_mat = weight.reshape(c_out, -1)
    grad_cols = np.einsum("oc,nop->ncp", w_mat, grad_flat, optimize=True)
    grad_input = col2im(grad_cols, x_shape, k, stride, padding)
    return grad_input.astype(np.float32), grad_weight.astype(np.float32), grad_bias.astype(np.float32)


def depthwise_conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward depthwise convolution: each channel convolved independently.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    weight:
        Per-channel filters of shape ``(C, 1, K, K)``.
    bias:
        Optional per-channel bias of shape ``(C,)``.

    Returns
    -------
    (output, view):
        ``output`` has shape ``(N, C, out_h, out_w)``; ``view`` is the
        zero-copy im2col window view kept for the backward pass.
    """
    n, c_in, h, w = x.shape
    c_w, depth, k, k2 = weight.shape
    if k != k2:
        raise ValueError("only square kernels are supported")
    if depth != 1:
        raise ValueError(f"depthwise weight must have shape (C, 1, K, K), got {weight.shape}")
    if c_in != c_w:
        raise ValueError(f"input has {c_in} channels but depthwise weight expects {c_w}")

    view = im2col_view(x, k, stride, padding)  # (N, C, K, K, out_h, out_w)
    out = np.einsum("ckl,ncklhw->nchw", weight[:, 0], view, optimize=True)
    if bias is not None:
        out = out + bias.reshape(1, c_in, 1, 1)
    return out.astype(np.float32), view


def depthwise_conv2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    view: np.ndarray,
    weight: np.ndarray,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`depthwise_conv2d_forward`.

    Returns ``(grad_input, grad_weight, grad_bias)``.
    """
    n, c, out_h, out_w = grad_out.shape
    k = weight.shape[2]

    grad_weight = np.einsum("nchw,ncklhw->ckl", grad_out, view, optimize=True)
    grad_weight = grad_weight.reshape(weight.shape)

    grad_bias = grad_out.sum(axis=(0, 2, 3))

    grad_cols = np.einsum("ckl,nchw->ncklhw", weight[:, 0], grad_out, optimize=True)
    grad_input = col2im(
        grad_cols.reshape(n, c * k * k, out_h * out_w), x_shape, k, stride, padding
    )
    return (
        grad_input.astype(np.float32),
        grad_weight.astype(np.float32),
        grad_bias.astype(np.float32),
    )


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, padding: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling; returns output and the argmax indices for backward."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    cols = im2col(x.reshape(n * c, 1, h, w), kernel, stride, padding)
    cols = cols.reshape(n * c, kernel * kernel, out_h * out_w)
    argmax = cols.argmax(axis=1)
    out = np.take_along_axis(cols, argmax[:, None, :], axis=1).squeeze(1)
    return out.reshape(n, c, out_h, out_w).astype(np.float32), argmax


def maxpool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int = 0,
) -> np.ndarray:
    """Backward pass for max pooling: route gradients to the argmax cell."""
    n, c, h, w = x_shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    grad_cols = np.zeros((n * c, kernel * kernel, out_h * out_w), dtype=np.float32)
    grad_flat = grad_out.reshape(n * c, 1, out_h * out_w)
    np.put_along_axis(grad_cols, argmax[:, None, :], grad_flat, axis=1)
    grad_input = col2im(
        grad_cols.reshape(n * c, kernel * kernel, out_h * out_w),
        (n * c, 1, h, w),
        kernel,
        stride,
        padding,
    )
    return grad_input.reshape(n, c, h, w)


def avgpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, padding: int = 0
) -> np.ndarray:
    """Average pooling forward."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    cols = im2col(x.reshape(n * c, 1, h, w), kernel, stride, padding)
    cols = cols.reshape(n * c, kernel * kernel, out_h * out_w)
    out = cols.mean(axis=1)
    return out.reshape(n, c, out_h, out_w).astype(np.float32)


def avgpool2d_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int = 0,
) -> np.ndarray:
    """Average pooling backward: spread gradient equally over the window."""
    n, c, h, w = x_shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    grad_cols = np.repeat(
        grad_out.reshape(n * c, 1, out_h * out_w) / (kernel * kernel),
        kernel * kernel,
        axis=1,
    )
    grad_input = col2im(grad_cols, (n * c, 1, h, w), kernel, stride, padding)
    return grad_input.reshape(n, c, h, w)


def global_avgpool_forward(x: np.ndarray) -> np.ndarray:
    """Global average pooling over the spatial dimensions."""
    return x.mean(axis=(2, 3)).astype(np.float32)


def global_avgpool_backward(grad_out: np.ndarray, x_shape: tuple[int, int, int, int]) -> np.ndarray:
    """Backward pass of global average pooling."""
    n, c, h, w = x_shape
    return np.broadcast_to(
        grad_out.reshape(n, c, 1, 1) / (h * w), x_shape
    ).astype(np.float32).copy()


# ---------------------------------------------------------------------------
# Fully connected, activations, losses
# ---------------------------------------------------------------------------

def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """Fully-connected forward: ``y = x @ W^T + b`` with x of shape (N, F)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out.astype(np.float32)


def linear_backward(
    grad_out: np.ndarray, x: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`linear_forward`."""
    grad_input = grad_out @ weight
    grad_weight = grad_out.T @ x
    grad_bias = grad_out.sum(axis=0)
    return (
        grad_input.astype(np.float32),
        grad_weight.astype(np.float32),
        grad_bias.astype(np.float32),
    )


def relu_forward(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ReLU backward: pass gradient only where the input was positive."""
    return grad_out * (x > 0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy_loss(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient with respect to the logits.

    Parameters
    ----------
    logits:
        ``(N, num_classes)`` raw scores.
    labels:
        ``(N,)`` integer class labels.
    """
    n = logits.shape[0]
    probs = softmax(logits)
    eps = 1e-12
    loss = float(-np.log(probs[np.arange(n), labels] + eps).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(np.float32)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    pred = logits.argmax(axis=-1)
    return float((pred == labels).mean())


# ---------------------------------------------------------------------------
# Batch normalisation
# ---------------------------------------------------------------------------

def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    eps: float,
    training: bool,
) -> tuple[np.ndarray, dict]:
    """Batch normalisation over the channel axis of NCHW input.

    Returns the output and a cache dict for the backward pass.  Running
    statistics are updated in place when ``training`` is True.
    """
    n, c, h, w = x.shape
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    std = np.sqrt(var + eps)
    x_hat = (x - mean.reshape(1, c, 1, 1)) / std.reshape(1, c, 1, 1)
    out = gamma.reshape(1, c, 1, 1) * x_hat + beta.reshape(1, c, 1, 1)
    cache = {"x_hat": x_hat, "std": std, "gamma": gamma, "shape": x.shape}
    return out.astype(np.float32), cache


def batchnorm_backward(
    grad_out: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`batchnorm_forward` (training mode)."""
    x_hat = cache["x_hat"]
    std = cache["std"]
    gamma = cache["gamma"]
    n, c, h, w = cache["shape"]
    m = n * h * w

    grad_gamma = (grad_out * x_hat).sum(axis=(0, 2, 3))
    grad_beta = grad_out.sum(axis=(0, 2, 3))

    dx_hat = grad_out * gamma.reshape(1, c, 1, 1)
    sum_dx_hat = dx_hat.sum(axis=(0, 2, 3), keepdims=True)
    sum_dx_hat_xhat = (dx_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
    grad_input = (
        dx_hat - sum_dx_hat / m - x_hat * sum_dx_hat_xhat / m
    ) / std.reshape(1, c, 1, 1)
    return (
        grad_input.astype(np.float32),
        grad_gamma.astype(np.float32),
        grad_beta.astype(np.float32),
    )
