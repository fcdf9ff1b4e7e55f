"""Post-training quantisation of a float graph into a :class:`QuantizedModel`.

The expected input is a *folded* float graph (BatchNorm already merged into
the preceding convolutions by :func:`repro.compiler.passes.fold_batchnorm`)
containing only ``Conv2D``, ``ReLU``, ``MaxPool2D``, ``AvgPool2D``,
``GlobalAvgPool2D``, ``Linear``, ``Add``, ``Flatten`` and ``Identity``
layers.  The quantiser:

1. assigns every activation tensor a symmetric int8 scale from the
   calibration ranges,
2. quantises weights per-tensor or per-channel,
3. converts biases to int32 at ``input_scale * weight_scale``,
4. fuses ReLU into the preceding Conv/Linear/Add node (as the SDP does),
5. emits integer requantisation parameters (multiplier + shift) per node.
"""

from __future__ import annotations

import numpy as np

from repro.nn.graph import Graph
from repro.nn.layers import (
    Add,
    AvgPool2D,
    Conv2D,
    DepthwiseConv2D,
    Flatten,
    GlobalAvgPool2D,
    Identity,
    Linear,
    MaxPool2D,
    ReLU,
)
from repro.quant.calibrate import ActivationRanges
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
from repro.quant.qscheme import (
    QuantParams,
    compute_requant_params,
    quantize_tensor,
    symmetric_scale,
)


def _weight_params(weight: np.ndarray, per_channel: bool) -> QuantParams:
    if per_channel:
        axes = tuple(range(1, weight.ndim))
        max_abs = np.abs(weight).max(axis=axes)
        return QuantParams(scale=symmetric_scale(max_abs), per_channel=True)
    return QuantParams(scale=symmetric_scale(float(np.abs(weight).max())), per_channel=False)


def _quantize_bias(
    bias: np.ndarray | None,
    out_channels: int,
    input_scale: float,
    weight_params: QuantParams,
) -> np.ndarray:
    """Quantise a float bias to int32 at scale ``input_scale * weight_scale``."""
    if bias is None:
        return np.zeros(out_channels, dtype=np.int64)
    bias_scale = input_scale * weight_params.scale  # scalar or per-channel
    q = np.round(np.asarray(bias, dtype=np.float64) / bias_scale)
    return np.clip(q, -(2**31), 2**31 - 1).astype(np.int64)


def _fused_relu_consumer(graph: Graph, name: str) -> str | None:
    """Return the name of a ReLU node that can be fused into ``name``.

    Fusion requires the ReLU to be the *only* consumer of the node so that no
    other consumer observes the pre-activation values.
    """
    consumers = graph.consumers(name)
    if len(consumers) == 1 and isinstance(graph.nodes[consumers[0]].layer, ReLU):
        return consumers[0]
    return None


def range_sources(graph: Graph) -> dict[str, str]:
    """The calibration range :func:`quantize_graph` reads for each node that
    sets an activation scale: ``{node: node whose range it reads}``.

    That is the graph input, each convolution, depthwise convolution,
    non-final linear and add (the range of its fused ReLU when it has one)
    and each average pool.  Every other node either inherits its input's
    scale or, as the final linear, keeps raw accumulators, so calibrating
    only ``set(range_sources(graph).values())`` gives the same model.
    """
    sources = {Graph.INPUT: Graph.INPUT}
    for name in graph.topological_order():
        layer = graph.nodes[name].layer
        if isinstance(layer, (AvgPool2D, GlobalAvgPool2D)):
            sources[name] = name
        elif isinstance(layer, (Conv2D, DepthwiseConv2D, Add)) or (
            isinstance(layer, Linear) and graph.consumers(name)
        ):
            sources[name] = _fused_relu_consumer(graph, name) or name
    return sources


def quantize_graph(
    graph: Graph,
    ranges: ActivationRanges,
    per_channel: bool = True,
) -> QuantizedModel:
    """Quantise a folded float graph.

    Parameters
    ----------
    graph:
        Folded float graph (no BatchNorm nodes).
    ranges:
        Calibration ranges from
        :func:`repro.quant.calibrate.collect_activation_ranges` (collected on
        this graph or on the unfolded original — the ranges are equivalent).
    per_channel:
        Quantise convolution/linear weights per output channel (True, the
        NVDLA default) or per tensor.
    """
    shapes = graph.infer_shapes()
    sources = range_sources(graph)

    def range_scale(name: str) -> float:
        return float(symmetric_scale(ranges.get(sources[name])))

    qnodes: list = []
    name_map: dict[str, str] = {Graph.INPUT: Graph.INPUT}
    #: activation scale of each emitted quantised node (keyed by q-node name)
    scales: dict[str, float] = {}

    input_scale = range_scale(Graph.INPUT)
    qnodes.append(
        QInput(name=Graph.INPUT, inputs=[], scale=input_scale, shape=tuple(graph.input_shape))
    )
    scales[Graph.INPUT] = input_scale

    fused_away: set[str] = set()
    output_name = Graph.INPUT

    for node_name in graph.topological_order():
        if node_name in fused_away:
            continue
        node = graph.nodes[node_name]
        layer = node.layer
        q_inputs = [name_map[src] for src in node.inputs]

        if isinstance(layer, Conv2D):
            relu_node = _fused_relu_consumer(graph, node_name)
            out_scale = range_scale(node_name)
            in_scale = scales[q_inputs[0]]
            wparams = _weight_params(layer.weight.value, per_channel)
            qweight = quantize_tensor(layer.weight.value, wparams, channel_axis=0)
            bias = layer.bias.value if layer.bias is not None else None
            qbias = _quantize_bias(bias, layer.out_channels, in_scale, wparams)
            requant = compute_requant_params(in_scale, wparams.scale, out_scale)
            qnodes.append(
                QConv(
                    name=node_name,
                    inputs=q_inputs,
                    weight=qweight,
                    bias=qbias,
                    stride=layer.stride,
                    padding=layer.padding,
                    input_scale=in_scale,
                    weight_params=wparams,
                    output_scale=out_scale,
                    requant=requant,
                    relu=relu_node is not None,
                )
            )
            scales[node_name] = out_scale
            name_map[node_name] = node_name
            if relu_node is not None:
                fused_away.add(relu_node)
                name_map[relu_node] = node_name
            output_name = node_name

        elif isinstance(layer, DepthwiseConv2D):
            relu_node = _fused_relu_consumer(graph, node_name)
            out_scale = range_scale(node_name)
            in_scale = scales[q_inputs[0]]
            wparams = _weight_params(layer.weight.value, per_channel)
            compact = quantize_tensor(layer.weight.value, wparams, channel_axis=0)
            # Expand to the one-hot-diagonal dense weight the MAC array runs:
            # output channel c reads input channel c only, every other tap is
            # an exact int8 zero.
            channels = layer.channels
            k = layer.kernel_size
            expanded = np.zeros((channels, channels, k, k), dtype=np.int8)
            expanded[np.arange(channels), np.arange(channels)] = compact[:, 0]
            bias = layer.bias.value if layer.bias is not None else None
            qbias = _quantize_bias(bias, channels, in_scale, wparams)
            requant = compute_requant_params(in_scale, wparams.scale, out_scale)
            qnodes.append(
                QDepthwiseConv(
                    name=node_name,
                    inputs=q_inputs,
                    weight=expanded,
                    depth_weight=compact,
                    bias=qbias,
                    stride=layer.stride,
                    padding=layer.padding,
                    input_scale=in_scale,
                    weight_params=wparams,
                    output_scale=out_scale,
                    requant=requant,
                    relu=relu_node is not None,
                )
            )
            scales[node_name] = out_scale
            name_map[node_name] = node_name
            if relu_node is not None:
                fused_away.add(relu_node)
                name_map[relu_node] = node_name
            output_name = node_name

        elif isinstance(layer, Linear):
            relu_node = _fused_relu_consumer(graph, node_name)
            in_scale = scales[q_inputs[0]]
            wparams = _weight_params(layer.weight.value, per_channel)
            qweight = quantize_tensor(layer.weight.value, wparams, channel_axis=0)
            bias = layer.bias.value if layer.bias is not None else None
            qbias = _quantize_bias(bias, layer.out_features, in_scale, wparams)
            is_final = len(graph.consumers(node_name)) == 0
            if is_final:
                # Keep the classifier logits as raw accumulators; argmax does
                # not need requantisation and this avoids saturating logits.
                requant = None
                out_scale = in_scale * float(np.mean(np.atleast_1d(wparams.scale)))
            else:
                out_scale = range_scale(node_name)
                requant = compute_requant_params(in_scale, wparams.scale, out_scale)
            qnodes.append(
                QLinear(
                    name=node_name,
                    inputs=q_inputs,
                    weight=qweight,
                    bias=qbias,
                    input_scale=in_scale,
                    weight_params=wparams,
                    output_scale=out_scale,
                    requant=requant,
                    relu=relu_node is not None and not is_final,
                )
            )
            scales[node_name] = out_scale
            name_map[node_name] = node_name
            if relu_node is not None and not is_final:
                fused_away.add(relu_node)
                name_map[relu_node] = node_name
            output_name = node_name

        elif isinstance(layer, Add):
            relu_node = _fused_relu_consumer(graph, node_name)
            out_scale = range_scale(node_name)
            scale_a = scales[q_inputs[0]]
            scale_b = scales[q_inputs[1]]
            qnodes.append(
                QAdd(
                    name=node_name,
                    inputs=q_inputs,
                    input_scales=(scale_a, scale_b),
                    output_scale=out_scale,
                    requant_a=compute_requant_params(scale_a, 1.0, out_scale),
                    requant_b=compute_requant_params(scale_b, 1.0, out_scale),
                    relu=relu_node is not None,
                )
            )
            scales[node_name] = out_scale
            name_map[node_name] = node_name
            if relu_node is not None:
                fused_away.add(relu_node)
                name_map[relu_node] = node_name
            output_name = node_name

        elif isinstance(layer, ReLU):
            # A standalone ReLU that could not be fused: express it as a QAdd
            # whose second operand is multiplied by zero, i.e. out = relu(a).
            # ReLU on symmetric int8 is exact, so the scale is unchanged.
            from repro.quant.qscheme import RequantParams

            src = q_inputs[0]
            scale = scales[src]
            qnodes.append(
                QAdd(
                    name=node_name,
                    inputs=[src, src],
                    input_scales=(scale, scale),
                    output_scale=scale,
                    requant_a=compute_requant_params(scale, 1.0, scale),
                    requant_b=RequantParams(multiplier=np.array(0, dtype=np.int64), shift=0),
                    relu=True,
                )
            )
            scales[node_name] = scale
            name_map[node_name] = node_name
            output_name = node_name

        elif isinstance(layer, (MaxPool2D,)):
            qnodes.append(
                QMaxPool(
                    name=node_name,
                    inputs=q_inputs,
                    kernel=layer.kernel_size,
                    stride=layer.stride,
                    padding=layer.padding,
                )
            )
            scales[node_name] = scales[q_inputs[0]]
            name_map[node_name] = node_name
            output_name = node_name

        elif isinstance(layer, (GlobalAvgPool2D, AvgPool2D)):
            in_shape = shapes[node.inputs[0]] if node.inputs[0] != Graph.INPUT else graph.input_shape
            if isinstance(layer, AvgPool2D):
                spatial = layer.kernel_size * layer.kernel_size
            else:
                spatial = int(in_shape[1]) * int(in_shape[2])
            in_scale = scales[q_inputs[0]]
            out_scale = range_scale(node_name)
            requant = compute_requant_params(in_scale, 1.0 / spatial, out_scale)
            qnodes.append(
                QGlobalAvgPool(
                    name=node_name,
                    inputs=q_inputs,
                    spatial_size=spatial,
                    input_scale=in_scale,
                    output_scale=out_scale,
                    requant=requant,
                )
            )
            scales[node_name] = out_scale
            name_map[node_name] = node_name
            output_name = node_name

        elif isinstance(layer, (Flatten, Identity)):
            # Pure reshapes carry no quantisation semantics; alias the input.
            name_map[node_name] = q_inputs[0]
            scales[node_name] = scales[q_inputs[0]]

        else:
            raise TypeError(
                f"cannot quantise layer {type(layer).__name__!r} at node {node_name!r}; "
                "fold BatchNorm before quantisation"
            )

    model_output = name_map[graph.output_name]
    if model_output == Graph.INPUT:
        model_output = output_name
    return QuantizedModel(
        nodes=qnodes,
        output_name=model_output,
        input_shape=tuple(graph.input_shape),
        name_map=name_map,
    )
