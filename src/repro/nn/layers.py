"""Float layers with explicit forward/backward passes.

Each layer is a small object owning its :class:`~repro.nn.tensor.Parameter`
objects and, in training mode only, a per-call cache used by ``backward``.
An eval-mode forward keeps nothing, so a graph used for inference (the
compiler's calibration pass, accuracy evaluation) holds no activations.
Layers are composed into a DAG by :class:`repro.nn.graph.Graph`.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Parameter


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`.  ``backward``
    receives the gradient of the loss with respect to the layer output and
    must return the gradient(s) with respect to the layer input(s), while
    accumulating parameter gradients internally.  ``forward`` hands what
    ``backward`` needs to :meth:`_save_for_backward`, which keeps it only
    while :attr:`training`; ``backward`` reads it back with :meth:`_saved`.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.training = True
        self._cache: dict = {}

    # -- parameters --------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All parameters of this layer (trainable and not)."""
        return [v for v in vars(self).values() if isinstance(v, Parameter)]

    def trainable_parameters(self) -> list[Parameter]:
        """Only the parameters the optimiser should update."""
        return [p for p in self.parameters() if p.trainable]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- mode --------------------------------------------------------------
    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        """Switch to inference and drop any state a training forward left."""
        self.training = False
        self._cache = {}

    # -- backward state ----------------------------------------------------
    def _save_for_backward(self, state: dict) -> None:
        """Keep ``state`` for :meth:`backward`, but only while training."""
        if self.training:
            self._cache = state

    def _saved(self) -> dict:
        """The state the last training-mode forward kept for backward."""
        if not self._cache:
            raise RuntimeError(
                f"{type(self).__name__} {self.name!r} has no backward state: "
                "backward needs a training-mode forward first"
            )
        return self._cache

    # -- computation -------------------------------------------------------
    def forward(self, *inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray):
        raise NotImplementedError

    def output_shape(self, *input_shapes: tuple[int, ...]) -> tuple[int, ...]:
        """Shape inference used by the compiler; batch dim excluded."""
        raise NotImplementedError

    def __call__(self, *inputs: np.ndarray) -> np.ndarray:
        return self.forward(*inputs)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r})"


class Conv2D(Layer):
    """2-D convolution with square kernels, NCHW layout."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: str = "",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng),
            name=f"{name}.weight",
        )
        self.bias = (
            Parameter(init.zeros((out_channels,)), name=f"{name}.bias") if bias else None
        )

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.value if self.bias is not None else None
        out, cols = F.conv2d_forward(x, self.weight.value, bias, self.stride, self.padding)
        self._save_for_backward({"x_shape": x.shape, "cols": cols})
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        saved = self._saved()
        grad_in, grad_w, grad_b = F.conv2d_backward(
            grad_out,
            saved["x_shape"],
            saved["cols"],
            self.weight.value,
            self.stride,
            self.padding,
        )
        self.weight.accumulate_grad(grad_w)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_b)
        return grad_in

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)


class DepthwiseConv2D(Layer):
    """Depthwise 2-D convolution: one square filter per channel, NCHW layout.

    Deliberately *not* a :class:`Conv2D` subclass: the compact ``(C, 1, K, K)``
    weight has different semantics from a dense filter bank, and every
    downstream pass (BatchNorm folding, quantisation, lowering) must treat it
    through its own explicit branch rather than silently reusing the dense
    convolution path.
    """

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        name: str = "",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((channels, 1, kernel_size, kernel_size), rng),
            name=f"{name}.weight",
        )
        self.bias = (
            Parameter(init.zeros((channels,)), name=f"{name}.bias") if bias else None
        )

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.value if self.bias is not None else None
        out, view = F.depthwise_conv2d_forward(
            x, self.weight.value, bias, self.stride, self.padding
        )
        self._save_for_backward({"x_shape": x.shape, "view": view})
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        saved = self._saved()
        grad_in, grad_w, grad_b = F.depthwise_conv2d_backward(
            grad_out,
            saved["x_shape"],
            saved["view"],
            self.weight.value,
            self.stride,
            self.padding,
        )
        self.weight.accumulate_grad(grad_w)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_b)
        return grad_in

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.channels, out_h, out_w)


class BatchNorm2D(Layer):
    """Batch normalisation over the channel axis."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5, name: str = ""):
        super().__init__(name)
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)), name=f"{name}.gamma")
        self.beta = Parameter(init.zeros((num_features,)), name=f"{name}.beta")
        self.running_mean = Parameter(
            init.zeros((num_features,)), name=f"{name}.running_mean", trainable=False
        )
        self.running_var = Parameter(
            init.ones((num_features,)), name=f"{name}.running_var", trainable=False
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, cache = F.batchnorm_forward(
            x,
            self.gamma.value,
            self.beta.value,
            self.running_mean.value,
            self.running_var.value,
            self.momentum,
            self.eps,
            self.training,
        )
        self._save_for_backward(cache)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_in, grad_gamma, grad_beta = F.batchnorm_backward(grad_out, self._saved())
        self.gamma.accumulate_grad(grad_gamma)
        self.beta.accumulate_grad(grad_beta)
        return grad_in

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class ReLU(Layer):
    """Rectified linear unit."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._save_for_backward({"x": x})
        return F.relu_forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.relu_backward(grad_out, self._saved()["x"])

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class MaxPool2D(Layer):
    """Max pooling with square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0, name: str = ""):
        super().__init__(name)
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, argmax = F.maxpool2d_forward(x, self.kernel_size, self.stride, self.padding)
        self._save_for_backward({"x_shape": x.shape, "argmax": argmax})
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        saved = self._saved()
        return F.maxpool2d_backward(
            grad_out,
            saved["argmax"],
            saved["x_shape"],
            self.kernel_size,
            self.stride,
            self.padding,
        )

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (c, out_h, out_w)


class AvgPool2D(Layer):
    """Average pooling with square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0, name: str = ""):
        super().__init__(name)
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._save_for_backward({"x_shape": x.shape})
        return F.avgpool2d_forward(x, self.kernel_size, self.stride, self.padding)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.avgpool2d_backward(
            grad_out, self._saved()["x_shape"], self.kernel_size, self.stride, self.padding
        )

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (c, out_h, out_w)


class GlobalAvgPool2D(Layer):
    """Global average pooling, producing a (N, C) tensor."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._save_for_backward({"x_shape": x.shape})
        return F.global_avgpool_forward(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.global_avgpool_backward(grad_out, self._saved()["x_shape"])

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, _, _ = input_shape
        return (c,)


class Flatten(Layer):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._save_for_backward({"x_shape": x.shape})
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._saved()["x_shape"])

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        size = 1
        for dim in input_shape:
            size *= dim
        return (size,)


class Linear(Layer):
    """Fully-connected layer operating on (N, F) input."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        name: str = "",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_normal((out_features, in_features), rng), name=f"{name}.weight"
        )
        self.bias = Parameter(init.zeros((out_features,)), name=f"{name}.bias") if bias else None

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._save_for_backward({"x": x})
        bias = self.bias.value if self.bias is not None else None
        return F.linear_forward(x, self.weight.value, bias)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_in, grad_w, grad_b = F.linear_backward(
            grad_out, self._saved()["x"], self.weight.value
        )
        self.weight.accumulate_grad(grad_w)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_b)
        return grad_in

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (self.out_features,)


class Add(Layer):
    """Elementwise addition of two inputs (the residual connection)."""

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape != b.shape:
            raise ValueError(f"Add inputs have mismatched shapes {a.shape} vs {b.shape}")
        return a + b

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return grad_out, grad_out

    def output_shape(self, shape_a: tuple[int, ...], shape_b: tuple[int, ...]) -> tuple[int, ...]:
        if shape_a != shape_b:
            raise ValueError(f"Add inputs have mismatched shapes {shape_a} vs {shape_b}")
        return shape_a


class Identity(Layer):
    """Pass-through layer; useful as a named graph input or skip path."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape
