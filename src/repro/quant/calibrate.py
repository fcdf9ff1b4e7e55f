"""Activation-range calibration for post-training quantisation.

The quantiser needs, for every tensor flowing between layers, the dynamic
range it must represent in int8.  Ranges are collected by running the float
graph on a batch of calibration images and recording either the maximum
absolute value or a high percentile of the absolute values (percentile
calibration clips rare outliers and usually loses less accuracy).
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

from repro.nn.graph import Graph


@dataclass
class ActivationRanges:
    """Per-node maximum absolute activation values observed during calibration."""

    max_abs: dict[str, float] = field(default_factory=dict)

    def get(self, name: str) -> float:
        if name not in self.max_abs:
            raise KeyError(f"no calibration range recorded for node {name!r}")
        return self.max_abs[name]

    def update(self, name: str, value: float) -> None:
        self.max_abs[name] = max(self.max_abs.get(name, 0.0), float(value))

    def __contains__(self, name: str) -> bool:
        return name in self.max_abs


#: Elements in the strided sample :func:`_reduce` takes its cutoff from.
_SAMPLE = 4096


def _tail_percentile(magnitudes: np.ndarray, percentile: float) -> float | None:
    """``np.percentile(magnitudes, percentile)`` from the tail alone, or
    ``None`` when the tail a strided sample picks does not hold both order
    statistics the percentile interpolates between.

    With ``n`` elements, numpy's linear percentile sits at the virtual index
    ``v = (n - 1) * percentile / 100`` of the sorted array: it interpolates
    between the elements of rank ``k = floor(v)`` and ``k + 1`` with weight
    ``v - k``.  Every element of rank ``>= k`` is at or above a cutoff when
    at least ``n - k`` elements are, so only those need partitioning.  The
    two order statistics then go through ``np.quantile`` with numpy's own
    weight, which makes the interpolation, and so the result, bit-identical.
    """
    n = magnitudes.size
    q = np.true_divide(percentile, 100)
    virtual = (n - 1) * q
    # Outside [0, n - 1) numpy clamps to an end (or rejects the percentile);
    # a non-finite element makes its result NaN or an inf-inf interpolation.
    if not 0 <= virtual < n - 1 or not np.isfinite(magnitudes.max()):
        return None
    k = int(np.floor(virtual))
    tail = n - k
    sample = magnitudes[:: max(1, n // _SAMPLE)]
    # Cut where the sample expects about four times the tail plus a margin.
    keep = min(sample.size, 4 * (tail * sample.size // n) + 16)
    cutoff = np.partition(sample, sample.size - keep)[sample.size - keep]
    selection = magnitudes[magnitudes >= cutoff]
    below = n - selection.size
    if below > k:
        return None
    j = k - below
    selection.partition((j, j + 1))
    weight = virtual - np.floor(virtual)
    # np.percentile interpolates with a Python float weight when it was given
    # a Python number and with a float64 array otherwise; so must this.
    if type(percentile) in (int, float):
        weight = float(weight)
    return float(np.quantile(selection[j : j + 2], weight))


def _reduce(values: np.ndarray, percentile: float | None) -> float:
    magnitudes = np.abs(values).reshape(-1)
    if magnitudes.size == 0:
        return 1e-6
    if percentile is None or percentile >= 100.0:
        return float(magnitudes.max())
    tail = _tail_percentile(magnitudes, percentile)
    if tail is not None:
        return tail
    return float(np.percentile(magnitudes, percentile))


def collect_activation_ranges(
    graph: Graph,
    calibration_images: np.ndarray,
    batch_size: int = 32,
    percentile: float | None = 99.9,
    names: Collection[str] | None = None,
) -> ActivationRanges:
    """Run calibration batches through a float graph and record ranges.

    Each wanted activation is reduced to its range as it is produced, and
    each activation is dropped once its last consumer has run, so a batch
    holds only the activations still to be read rather than every node's.

    Parameters
    ----------
    graph:
        The float graph (should already have BatchNorm folded if the ranges
        will be used to quantise the folded graph; calibrating the unfolded
        graph gives nearly identical ranges because folding is numerically
        equivalent in eval mode).
    calibration_images:
        Array of shape (N, C, H, W).
    batch_size:
        Batch size used for the forward passes.
    percentile:
        Percentile of absolute activations used as the range; ``None`` or
        100 uses the true maximum.
    names:
        Nodes (``"input"`` included) whose ranges to record; ``None``
        records every node's.  The compiler passes the ranges the quantiser
        reads (:func:`repro.quant.quantize.range_sources`).
    """
    if calibration_images.ndim != 4:
        raise ValueError("calibration images must have shape (N, C, H, W)")
    graph.eval()
    order = graph.topological_order()
    wanted = {Graph.INPUT, *order} if names is None else set(names)
    step_of = {name: step for step, name in enumerate(order)}
    #: Step after which each activation is read no more (-1: never read).
    last_read = {
        name: max((step_of[c] for c in graph.consumers(name)), default=-1)
        for name in (Graph.INPUT, *order)
    }
    ranges = ActivationRanges()
    for start in range(0, len(calibration_images), batch_size):
        batch = calibration_images[start : start + batch_size]
        live = {Graph.INPUT: batch}
        if Graph.INPUT in wanted:
            ranges.update(Graph.INPUT, _reduce(batch, percentile))
        for step, name in enumerate(order):
            node = graph.nodes[name]
            out = node.layer.forward(*(live[src] for src in node.inputs))
            for src in node.inputs:
                if last_read[src] == step:
                    live.pop(src, None)
            if name in wanted:
                ranges.update(name, _reduce(out, percentile))
            if last_read[name] >= 0:
                live[name] = out
            del out  # an unread output is freed before the next layer runs
    return ranges
