"""Eval mode is inference only: float layers keep backward state while training.

A forward in eval mode (the compiler's calibration pass, accuracy
evaluation) must leave no activations behind: every trial process keeps
its compiled platform, float graphs included, for its whole life.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.nn.resnet import build_resnet18
from repro.nn.train import TrainConfig, Trainer, evaluate_accuracy


def _saved_state(graph) -> dict[str, dict]:
    """The layers of ``graph`` holding backward state, by node name."""
    return {name: node.layer._cache for name, node in graph.nodes.items() if node.layer._cache}


def _array_bytes(obj) -> int:
    """Bytes of the distinct arrays reachable through ``obj``'s attributes."""
    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return total


def _graph(seed: int = 3):
    return build_resnet18(
        num_classes=10, input_shape=(3, 16, 16), width_multiplier=0.125, seed=seed
    )


class TestBuiltPlatform:
    def test_folded_graph_holds_no_backward_state(self, tiny_platform_spec):
        platform = tiny_platform_spec.build()
        assert _saved_state(platform.compilation.folded_graph) == {}

    def test_build_keeps_little_beyond_its_arrays(self, tiny_platform_spec):
        # Growth is bounded by twice the arrays the platform must keep: the
        # loadable and the folded float graph's parameters with their
        # gradient buffers.  A calibration forward that kept its im2col
        # columns held several times that.  A first build warms lazy imports.
        tiny_platform_spec.build()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            platform = tiny_platform_spec.build()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        compilation = platform.compilation
        params = compilation.folded_graph.parameters()
        kept = _array_bytes(compilation.loadable) + sum(
            p.value.nbytes + p.grad.nbytes for p in params
        )
        assert grown < 2 * kept, f"build grew {grown} B for {kept} B of arrays"


class TestEvalMode:
    def test_eval_forward_saves_nothing(self):
        graph = _graph()
        graph.eval()
        graph.forward(np.zeros((2, 3, 16, 16), dtype=np.float32))
        assert _saved_state(graph) == {}

    def test_backward_after_eval_forward_raises(self):
        graph = _graph()
        graph.eval()
        out = graph.forward(np.zeros((2, 3, 16, 16), dtype=np.float32))
        with pytest.raises(RuntimeError, match="training-mode forward"):
            graph.backward(np.ones_like(out))

    def test_eval_drops_the_training_forwards_state(self):
        graph = _graph()
        graph.train()
        graph.forward(np.zeros((2, 3, 16, 16), dtype=np.float32))
        assert _saved_state(graph)
        graph.eval()
        assert _saved_state(graph) == {}

    def test_fit_then_evaluate_keeps_no_training_batch(self, tiny_dataset):
        graph = _graph()
        Trainer(graph, TrainConfig(epochs=1, batch_size=64, seed=3)).fit(
            tiny_dataset.train_images[:64], tiny_dataset.train_labels[:64]
        )
        evaluate_accuracy(graph, tiny_dataset.test_images, tiny_dataset.test_labels)
        assert _saved_state(graph) == {}

    def test_training_forward_still_backpropagates(self):
        graph = _graph()
        graph.train()
        out = graph.forward(np.ones((2, 3, 16, 16), dtype=np.float32))
        grad = graph.backward(np.ones_like(out))
        assert grad.shape == (2, 3, 16, 16)
