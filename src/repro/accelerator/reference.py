"""The scalar reference engine: a literal cycle-by-cycle MAC-array model.

This engine executes a convolution exactly as the hardware schedule does —
one atomic operation per (output position, kernel position, channel group,
kernel group), each atomic operation driving all 64 multiplier objects of a
:class:`~repro.accelerator.cmac.CMACArray` — so faults are applied by the
same per-multiplier :class:`~repro.faults.injector.FaultInjector` logic the
paper adds to the RTL.

It is orders of magnitude slower than the vectorised engine and exists for
one purpose: proving, in the test suite and in the engine-ablation
benchmark, that the vectorised engine produces bit-identical accumulators on
every layer shape and fault configuration it is given.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.cmac import CMACArray
from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
from repro.faults.injector import InjectionConfig
from repro.nn.functional import conv_output_size
from repro.quant.qlayers import QConv, QLinear
from repro.utils.bitops import ACCUMULATOR_WIDTH, saturate


class ScalarReferenceEngine:
    """Slow but literal per-multiplier execution of conv/FC layers."""

    def __init__(self, geometry: ArrayGeometry = PAPER_GEOMETRY):
        self.geometry = geometry
        #: Atomic operations executed by the last layer run (timing cross-check).
        self.last_atomic_ops = 0

    @staticmethod
    def _corrupt_staged(
        array: np.ndarray, flips: list[tuple[int, int]], per_sample: bool
    ) -> np.ndarray:
        """Flip stored bits of a staged int8 operand buffer, byte by byte.

        This is the cycle-accurate corruption path: the CBUF holds the int8
        operand surface the schedule reads, and each armed (byte, bit) site
        is toggled on a copy with plain Python integer arithmetic on the
        raw two's-complement byte.  Offsets wrap modulo the corrupted
        region — the whole surface for weights, each sample's staging for
        activations (the surface is re-filled per sample).  Independently
        mirrors the vectorised engine's uint8-view XOR; the differential
        suite certifies the two bit-identical.
        """
        if array.dtype != np.int8:
            raise TypeError(f"memory corruption expects int8 operands, got {array.dtype}")
        staged = array.copy()
        regions = staged if per_sample else staged[None]
        for region in regions:
            flat = region.reshape(-1)
            size = flat.size
            for offset, bit in flips:
                index = offset % size
                raw = int(flat[index]) & 0xFF
                raw ^= 1 << bit
                flat[index] = raw - 256 if raw >= 128 else raw
        return staged

    def conv_accumulate(
        self,
        x_q: np.ndarray,
        node: QConv,
        config: InjectionConfig | None = None,
        exec_index: int = 0,
    ) -> np.ndarray:
        """Raw accumulator of a convolution, computed one atomic op at a time.

        ``exec_index`` is the op's per-inference GEMM execution index, the
        clock memory-resident faults' dwell windows are defined on.
        """
        config = config or InjectionConfig.fault_free()
        weight_flips, activation_flips = config.active_memory_flips(exec_index)
        cmac = CMACArray(self.geometry)
        cmac.apply_injection_config(config.datapath_config())

        if activation_flips:
            x_q = self._corrupt_staged(x_q, activation_flips, per_sample=True)
        weight_src = node.weight
        if weight_flips:
            weight_src = self._corrupt_staged(weight_src, weight_flips, per_sample=False)

        n, in_channels, h, w = x_q.shape
        out_channels = node.out_channels
        k = node.kernel_size
        stride, padding = node.stride, node.padding
        out_h = conv_output_size(h, k, stride, padding)
        out_w = conv_output_size(w, k, stride, padding)

        atomic_c = self.geometry.atomic_c
        atomic_k = self.geometry.atomic_k
        channel_groups = self.geometry.channel_groups(in_channels)
        kernel_groups = self.geometry.kernel_groups(out_channels)

        x_pad = np.pad(
            x_q.astype(np.int64),
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
        weight = weight_src.astype(np.int64)

        acc = np.zeros((n, out_channels, out_h, out_w), dtype=np.int64)
        self.last_atomic_ops = 0

        for sample in range(n):
            for oy in range(out_h):
                for ox in range(out_w):
                    for kg in range(kernel_groups):
                        oc_base = kg * atomic_k
                        partial = np.zeros(atomic_k, dtype=np.int64)
                        for cg in range(channel_groups):
                            ic_base = cg * atomic_c
                            for ky in range(k):
                                for kx in range(k):
                                    iy = oy * stride + ky
                                    ix = ox * stride + kx
                                    activations = [
                                        int(x_pad[sample, ic_base + lane, iy, ix])
                                        if ic_base + lane < in_channels
                                        else 0
                                        for lane in range(atomic_c)
                                    ]
                                    weights_per_kernel = []
                                    for mac in range(atomic_k):
                                        oc = oc_base + mac
                                        if oc < out_channels:
                                            weights_per_kernel.append(
                                                [
                                                    int(weight[oc, ic_base + lane, ky, kx])
                                                    if ic_base + lane < in_channels
                                                    else 0
                                                    for lane in range(atomic_c)
                                                ]
                                            )
                                        else:
                                            weights_per_kernel.append([0] * atomic_c)
                                    sums = cmac.atomic_op(activations, weights_per_kernel)
                                    partial += np.asarray(sums, dtype=np.int64)
                                    self.last_atomic_ops += 1
                        for mac in range(atomic_k):
                            oc = oc_base + mac
                            if oc < out_channels:
                                acc[sample, oc, oy, ox] = saturate(
                                    acc[sample, oc, oy, ox] + partial[mac], ACCUMULATOR_WIDTH
                                )
        return acc

    def linear_accumulate(
        self,
        x_q: np.ndarray,
        node: QLinear,
        config: InjectionConfig | None = None,
        exec_index: int = 0,
    ) -> np.ndarray:
        """Raw accumulator of a fully-connected layer via atomic operations."""
        config = config or InjectionConfig.fault_free()
        weight_flips, activation_flips = config.active_memory_flips(exec_index)
        cmac = CMACArray(self.geometry)
        cmac.apply_injection_config(config.datapath_config())

        if activation_flips:
            x_q = self._corrupt_staged(x_q, activation_flips, per_sample=True)
        weight_src = node.weight
        if weight_flips:
            weight_src = self._corrupt_staged(weight_src, weight_flips, per_sample=False)

        n, in_features = x_q.shape
        out_features = node.out_features
        atomic_c = self.geometry.atomic_c
        atomic_k = self.geometry.atomic_k
        channel_groups = self.geometry.channel_groups(in_features)
        kernel_groups = self.geometry.kernel_groups(out_features)

        x_int = x_q.astype(np.int64)
        weight = weight_src.astype(np.int64)
        acc = np.zeros((n, out_features), dtype=np.int64)
        self.last_atomic_ops = 0

        for sample in range(n):
            for kg in range(kernel_groups):
                oc_base = kg * atomic_k
                partial = np.zeros(atomic_k, dtype=np.int64)
                for cg in range(channel_groups):
                    ic_base = cg * atomic_c
                    activations = [
                        int(x_int[sample, ic_base + lane]) if ic_base + lane < in_features else 0
                        for lane in range(atomic_c)
                    ]
                    weights_per_kernel = []
                    for mac in range(atomic_k):
                        oc = oc_base + mac
                        if oc < out_features:
                            weights_per_kernel.append(
                                [
                                    int(weight[oc, ic_base + lane])
                                    if ic_base + lane < in_features
                                    else 0
                                    for lane in range(atomic_c)
                                ]
                            )
                        else:
                            weights_per_kernel.append([0] * atomic_c)
                    sums = cmac.atomic_op(activations, weights_per_kernel)
                    partial += np.asarray(sums, dtype=np.int64)
                    self.last_atomic_ops += 1
                for mac in range(atomic_k):
                    oc = oc_base + mac
                    if oc < out_features:
                        acc[sample, oc] = saturate(acc[sample, oc] + partial[mac], ACCUMULATOR_WIDTH)
        return acc

    # ------------------------------------------------------------------
    # The accelerator's op loop calls the fused forms
    # ------------------------------------------------------------------
    def _one_config_at_a_time(
        self, accumulate, node, configs, per_trial, x_stack, x_clean, exec_index
    ) -> np.ndarray:
        """Evaluate a fused layer call one configuration at a time.

        Each trial runs through the unchanged literal ``*_accumulate``
        method, so the oracle's arithmetic stays independent of the
        vectorised engine's fusion.  The fused forms' ``record`` and
        ``certified`` arguments are accepted and ignored: the oracle keeps
        no tape and always saturates.
        """
        parts = [
            accumulate(
                x_clean if x_stack is None else x_stack[g * per_trial:(g + 1) * per_trial],
                node,
                config,
                exec_index,
            )
            for g, config in enumerate(configs)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def conv_accumulate_fused(
        self, node, configs, per_trial, x_stack=None, x_clean=None,
        exec_index=0, record=False, certified=None,
    ) -> np.ndarray:
        return self._one_config_at_a_time(
            self.conv_accumulate, node, configs, per_trial, x_stack, x_clean, exec_index
        )

    def linear_accumulate_fused(
        self, node, configs, per_trial, x_stack=None, x_clean=None,
        exec_index=0, record=False, certified=None,
    ) -> np.ndarray:
        return self._one_config_at_a_time(
            self.linear_accumulate, node, configs, per_trial, x_stack, x_clean, exec_index
        )
