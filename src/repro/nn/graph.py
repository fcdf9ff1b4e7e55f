"""A small DAG container for CNN models.

The graph holds named :class:`Node` objects, each wrapping one
:class:`~repro.nn.layers.Layer` and naming its input nodes.  Forward
execution runs nodes in topological order; backward execution walks the
reverse order and sums gradients fanning into a node from all of its
consumers — which is exactly what the residual connections of ResNet need.

The same structure is the input of the quantiser (:mod:`repro.quant`) and
compiler (:mod:`repro.compiler`), so the graph also supports shape inference
and structural queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers import Layer
from repro.nn.tensor import Parameter


@dataclass
class Node:
    """One node of the model DAG.

    Attributes
    ----------
    name:
        Unique node name (e.g. ``"layer1.block0.conv1"``).
    layer:
        The layer executed at this node.
    inputs:
        Names of the producer nodes.  The special name ``"input"`` denotes
        the graph input.
    """

    name: str
    layer: Layer
    inputs: list[str] = field(default_factory=list)


class Graph:
    """A directed acyclic graph of layers with a single input and output."""

    INPUT = "input"

    def __init__(self, input_shape: tuple[int, int, int]):
        #: Shape of one input sample (C, H, W), excluding the batch dim.
        self.input_shape = tuple(input_shape)
        self.nodes: dict[str, Node] = {}
        self._order: list[str] | None = None
        self.output_name: str | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, name: str, layer: Layer, inputs: str | list[str]) -> str:
        """Add a node and return its name (for chaining)."""
        if name in self.nodes or name == self.INPUT:
            raise ValueError(f"duplicate node name {name!r}")
        if isinstance(inputs, str):
            inputs = [inputs]
        for src in inputs:
            if src != self.INPUT and src not in self.nodes:
                raise ValueError(f"node {name!r} references unknown input {src!r}")
        layer.name = layer.name or name
        # Give anonymous parameters a unique, node-scoped name so that
        # state dicts and checkpoints are unambiguous.
        for attr, value in vars(layer).items():
            if isinstance(value, Parameter) and (not value.name or value.name.startswith(".")):
                value.name = f"{name}.{attr}"
        self.nodes[name] = Node(name=name, layer=layer, inputs=list(inputs))
        self._order = None
        self.output_name = name
        return name

    def set_output(self, name: str) -> None:
        """Explicitly mark the output node (defaults to the last node added)."""
        if name not in self.nodes:
            raise ValueError(f"unknown node {name!r}")
        self.output_name = name

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Return node names in a valid execution order (cached)."""
        if self._order is not None:
            return self._order
        visited: dict[str, int] = {}
        order: list[str] = []

        def visit(name: str) -> None:
            if name == self.INPUT:
                return
            state = visited.get(name, 0)
            if state == 1:
                raise ValueError(f"cycle detected at node {name!r}")
            if state == 2:
                return
            visited[name] = 1
            for src in self.nodes[name].inputs:
                visit(src)
            visited[name] = 2
            order.append(name)

        for name in self.nodes:
            visit(name)
        self._order = order
        return order

    def consumers(self, name: str) -> list[str]:
        """Names of nodes that consume the output of ``name``."""
        return [n.name for n in self.nodes.values() if name in n.inputs]

    # ------------------------------------------------------------------
    # Parameters and modes
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All parameters of all layers, in topological order."""
        params: list[Parameter] = []
        for name in self.topological_order():
            params.extend(self.nodes[name].layer.parameters())
        return params

    def trainable_parameters(self) -> list[Parameter]:
        return [p for p in self.parameters() if p.trainable]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> None:
        for node in self.nodes.values():
            node.layer.train()

    def eval(self) -> None:
        for node in self.nodes.values():
            node.layer.eval()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.value.size for p in self.trainable_parameters()))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, return_activations: bool = False):
        """Run the graph on a batch ``x`` of shape (N, C, H, W).

        When ``return_activations`` is True the full activation dict (keyed
        by node name, plus ``"input"``) is returned alongside the output.
        """
        activations: dict[str, np.ndarray] = {self.INPUT: x}
        for name in self.topological_order():
            node = self.nodes[name]
            inputs = [activations[src] for src in node.inputs]
            activations[name] = node.layer.forward(*inputs)
        if self.output_name is None:
            raise RuntimeError("graph has no nodes")
        out = activations[self.output_name]
        if return_activations:
            return out, activations
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` through the graph.

        Must be called right after a training-mode :meth:`forward`: layers
        keep their per-call backward state only while training, and
        ``backward`` after an eval-mode forward raises :class:`RuntimeError`.
        Returns the gradient with respect to the graph input.
        """
        grads: dict[str, np.ndarray] = {self.output_name: grad_output}
        input_grad: np.ndarray | None = None
        for name in reversed(self.topological_order()):
            if name not in grads:
                # Node does not contribute to the output (dangling branch).
                continue
            node = self.nodes[name]
            grad_inputs = node.layer.backward(grads[name])
            if not isinstance(grad_inputs, tuple):
                grad_inputs = (grad_inputs,)
            if len(grad_inputs) != len(node.inputs):
                raise RuntimeError(
                    f"layer {name!r} returned {len(grad_inputs)} gradients for "
                    f"{len(node.inputs)} inputs"
                )
            for src, g in zip(node.inputs, grad_inputs):
                if src == self.INPUT:
                    input_grad = g if input_grad is None else input_grad + g
                elif src in grads:
                    grads[src] = grads[src] + g
                else:
                    grads[src] = g
        if input_grad is None:
            raise RuntimeError("no gradient reached the graph input")
        return input_grad

    __call__ = forward

    # ------------------------------------------------------------------
    # Shape inference
    # ------------------------------------------------------------------
    def infer_shapes(self) -> dict[str, tuple[int, ...]]:
        """Per-node output shapes (excluding the batch dimension)."""
        shapes: dict[str, tuple[int, ...]] = {self.INPUT: self.input_shape}
        for name in self.topological_order():
            node = self.nodes[name]
            in_shapes = [shapes[src] for src in node.inputs]
            shapes[name] = tuple(node.layer.output_shape(*in_shapes))
        return shapes

    # ------------------------------------------------------------------
    # State dict (checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameter values keyed by parameter name."""
        state = {}
        for p in self.parameters():
            if not p.name:
                raise ValueError("all parameters must be named to build a state dict")
            state[p.name] = p.value.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from :meth:`state_dict` output."""
        for p in self.parameters():
            if p.name not in state:
                raise KeyError(f"missing parameter {p.name!r} in state dict")
            value = np.asarray(state[p.name], dtype=np.float32)
            if value.shape != p.value.shape:
                raise ValueError(
                    f"shape mismatch for {p.name!r}: {value.shape} vs {p.value.shape}"
                )
            p.value = value.copy()
            p.grad = np.zeros_like(p.value)

    def summary(self) -> str:
        """Human-readable summary of the graph (one line per node)."""
        shapes = self.infer_shapes()
        lines = [f"input: {self.input_shape}"]
        for name in self.topological_order():
            node = self.nodes[name]
            lines.append(
                f"{name:<32s} {type(node.layer).__name__:<16s} "
                f"<- {','.join(node.inputs):<40s} out={shapes[name]}"
            )
        return "\n".join(lines)
