"""Mapping of conv/FC layers onto the MAC array.

The mapper decides how a layer's loops are tiled over the hardware: input
channels are split into groups of ``atomic_c`` (one group per multiplier
lane sweep), output channels into groups of ``atomic_k`` (one per MAC unit
sweep).  Beyond producing the counts needed by the timing model, the mapper
is the single source of truth for the **lane assignment** — which multiplier
computes which (input channel, output channel) product — that both execution
engines and the fault-site sensitivity analysis rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
from repro.faults.sites import FaultSite
from repro.quant.qlayers import QConv, QLinear


@dataclass(frozen=True)
class ConvMapping:
    """How one conv/FC layer is tiled onto the MAC array."""

    name: str
    in_channels: int
    out_channels: int
    kernel_size: int
    out_h: int
    out_w: int
    channel_groups: int
    kernel_groups: int

    @property
    def atomic_ops_per_output(self) -> int:
        """Atomic operations contributing to one (output channel group, pixel)."""
        return self.channel_groups * self.kernel_size * self.kernel_size

    @property
    def total_atomic_ops(self) -> int:
        """Total atomic operations (= CMAC cycles) of the layer."""
        return self.out_h * self.out_w * self.kernel_groups * self.atomic_ops_per_output


class Mapper:
    """Computes :class:`ConvMapping` records and lane assignments."""

    def __init__(self, geometry: ArrayGeometry = PAPER_GEOMETRY):
        self.geometry = geometry

    # ------------------------------------------------------------------
    # Lane assignment (the contract shared with the execution engines)
    # ------------------------------------------------------------------
    def lane_of_input_channel(self, channel: int) -> int:
        """Multiplier lane processing input channel ``channel``."""
        return channel % self.geometry.atomic_c

    def mac_of_output_channel(self, channel: int) -> int:
        """MAC unit producing output channel ``channel``."""
        return channel % self.geometry.atomic_k

    def site_for_channels(self, in_channel: int, out_channel: int) -> FaultSite:
        """The multiplier that computes the (in_channel, out_channel) products."""
        return FaultSite(
            mac_unit=self.mac_of_output_channel(out_channel),
            multiplier=self.lane_of_input_channel(in_channel),
        )

    def channels_of_site(
        self, site: FaultSite, in_channels: int, out_channels: int
    ) -> tuple[list[int], list[int]]:
        """Inverse of :meth:`site_for_channels` for a given layer shape."""
        ins = [c for c in range(in_channels) if self.lane_of_input_channel(c) == site.multiplier]
        outs = [c for c in range(out_channels) if self.mac_of_output_channel(c) == site.mac_unit]
        return ins, outs

    # ------------------------------------------------------------------
    # Tiling
    # ------------------------------------------------------------------
    def map_conv(self, node: QConv, out_h: int, out_w: int) -> ConvMapping:
        return ConvMapping(
            name=node.name,
            in_channels=node.in_channels,
            out_channels=node.out_channels,
            kernel_size=node.kernel_size,
            out_h=out_h,
            out_w=out_w,
            channel_groups=self.geometry.channel_groups(node.in_channels),
            kernel_groups=self.geometry.kernel_groups(node.out_channels),
        )

    def map_depthwise(self, node: QConv, out_h: int, out_w: int) -> ConvMapping:
        """Tile a compiler-expanded depthwise convolution.

        The expanded weight is dense ``(C, C, K, K)``, so the tiling is the
        dense-conv tiling over the *expanded* channel count: every one of the
        ``channel_groups(C)`` input sweeps runs even though only one lane per
        output channel carries non-zero taps.  That inefficiency is faithful
        to running depthwise work on an accelerator without a native
        depthwise mode and is exactly what the timing model should charge.
        """
        return ConvMapping(
            name=node.name,
            in_channels=node.in_channels,
            out_channels=node.out_channels,
            kernel_size=node.kernel_size,
            out_h=out_h,
            out_w=out_w,
            channel_groups=self.geometry.channel_groups(node.in_channels),
            kernel_groups=self.geometry.kernel_groups(node.out_channels),
        )

    def map_linear(self, node: QLinear) -> ConvMapping:
        """An FC layer maps as a 1x1 convolution over a 1x1 feature map."""
        return ConvMapping(
            name=node.name,
            in_channels=node.in_features,
            out_channels=node.out_features,
            kernel_size=1,
            out_h=1,
            out_w=1,
            channel_groups=self.geometry.channel_groups(node.in_features),
            kernel_groups=self.geometry.kernel_groups(node.out_features),
        )
