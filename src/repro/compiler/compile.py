"""End-to-end compilation: trained float graph -> loadable.

This is the offline flow the paper runs through Caffe + Tengine: fold
BatchNorm, calibrate activation ranges, quantise to int8 and tile the result
onto the MAC array.  The output is a :class:`~repro.compiler.loadable.Loadable`
that the runtime can submit to the accelerator emulator, plus the
intermediate artefacts for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
from repro.compiler.mapper import Mapper
from repro.compiler.ops import (
    CompiledOp,
    ConvOp,
    DepthwiseConvOp,
    EltwiseAddOp,
    FullyConnectedOp,
    GlobalAvgPoolOp,
    PoolOp,
)
from repro.compiler.loadable import Loadable
from repro.compiler.passes import fold_batchnorm
from repro.nn.graph import Graph
from repro.quant.calibrate import ActivationRanges, collect_activation_ranges
from repro.quant.qlayers import (
    QAdd,
    QConv,
    QDepthwiseConv,
    QGlobalAvgPool,
    QInput,
    QLinear,
    QMaxPool,
    QuantizedModel,
)
from repro.quant.quantize import quantize_graph, range_sources
from repro.quant.shape_infer import infer_quantized_shapes


@dataclass
class CompilationResult:
    """All artefacts produced by :func:`compile_model`."""

    loadable: Loadable
    quantized_model: QuantizedModel
    folded_graph: Graph
    #: The calibrated ranges the quantiser read (see
    #: :func:`repro.quant.quantize.range_sources`), not every node's.
    ranges: ActivationRanges


def _lower_to_ops(model: QuantizedModel, geometry: ArrayGeometry) -> tuple[list[CompiledOp], dict[str, int]]:
    """Lower a quantised model into compiled ops plus a surface plan."""
    mapper = Mapper(geometry)
    shapes = infer_quantized_shapes(model)
    ops: list[CompiledOp] = []
    surfaces: dict[str, int] = {}

    for node in model.nodes:
        if isinstance(node, QInput):
            c, h, w = node.shape
            surfaces[node.name] = c * h * w
            continue
        out_shape = shapes[node.name]
        out_bytes = 1
        for dim in out_shape:
            out_bytes *= int(dim)
        surfaces[node.name] = out_bytes

        if isinstance(node, QDepthwiseConv):
            # Must be tested before QConv: QDepthwiseConv is a QConv subclass
            # but lowers through its own mapping to a labeled plan entry.
            _, out_h, out_w = out_shape
            mapping = mapper.map_depthwise(node, out_h, out_w)
            ops.append(
                DepthwiseConvOp(
                    name=node.name,
                    inputs=tuple(node.inputs),
                    mapping=mapping,
                    weight_bytes=int(node.weight.size),
                    relu=node.relu,
                    output_bytes=out_bytes,
                )
            )
        elif isinstance(node, QConv):
            _, out_h, out_w = out_shape
            mapping = mapper.map_conv(node, out_h, out_w)
            ops.append(
                ConvOp(
                    name=node.name,
                    inputs=tuple(node.inputs),
                    mapping=mapping,
                    weight_bytes=int(node.weight.size),
                    relu=node.relu,
                    output_bytes=out_bytes,
                )
            )
        elif isinstance(node, QLinear):
            mapping = mapper.map_linear(node)
            ops.append(
                FullyConnectedOp(
                    name=node.name,
                    inputs=tuple(node.inputs),
                    mapping=mapping,
                    weight_bytes=int(node.weight.size),
                    output_bytes=out_bytes * 4,  # raw int32 logits
                )
            )
        elif isinstance(node, QMaxPool):
            ops.append(
                PoolOp(
                    name=node.name,
                    inputs=tuple(node.inputs),
                    kernel=node.kernel,
                    stride=node.stride,
                    padding=node.padding,
                    output_bytes=out_bytes,
                )
            )
        elif isinstance(node, QGlobalAvgPool):
            ops.append(
                GlobalAvgPoolOp(
                    name=node.name,
                    inputs=tuple(node.inputs),
                    spatial_size=node.spatial_size,
                    output_bytes=out_bytes,
                )
            )
        elif isinstance(node, QAdd):
            ops.append(
                EltwiseAddOp(
                    name=node.name,
                    inputs=tuple(node.inputs),
                    relu=node.relu,
                    output_bytes=out_bytes,
                )
            )
        else:
            raise TypeError(f"cannot lower node type {type(node).__name__}")
    return ops, surfaces


def compile_model(
    graph: Graph,
    calibration_images: np.ndarray,
    geometry: ArrayGeometry = PAPER_GEOMETRY,
    per_channel: bool = True,
    name: str = "network",
    calibration_percentile: float | None = 99.9,
) -> CompilationResult:
    """Compile a trained float graph into an accelerator loadable.

    Parameters
    ----------
    graph:
        Trained float graph (with BatchNorm layers; they are folded here).
    calibration_images:
        Representative inputs of shape (N, C, H, W) used for activation-range
        calibration.
    geometry:
        Target MAC-array geometry.
    per_channel:
        Per-output-channel weight quantisation (recommended).
    name:
        Name recorded in the loadable.
    calibration_percentile:
        Percentile used for activation ranges (``None`` = true max).
    """
    folded = fold_batchnorm(graph)
    folded.eval()
    ranges = collect_activation_ranges(
        folded,
        calibration_images,
        percentile=calibration_percentile,
        names=set(range_sources(folded).values()),
    )
    qmodel = quantize_graph(folded, ranges, per_channel=per_channel)
    ops, surfaces = _lower_to_ops(qmodel, geometry)
    loadable = Loadable(model=qmodel, ops=ops, geometry=geometry, name=name, surfaces=surfaces)
    return CompilationResult(
        loadable=loadable, quantized_model=qmodel, folded_graph=folded, ranges=ranges
    )
