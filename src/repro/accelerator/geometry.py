"""MAC-array geometry of the emulated accelerator.

The paper's NVDLA configuration (nv_small-like) contains 8 MAC units of 8
multipliers each: one *atomic operation* multiplies 8 input channels
(atomic-C) against the corresponding weights of 8 output kernels (atomic-K)
and accumulates the 64 products.  Other geometries are supported so that the
scalability experiments in the benchmarks can sweep the array size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.checked import Checked


@dataclass(frozen=True)
class ArrayGeometry(Checked):
    """Shape of the MAC array.

    Attributes
    ----------
    num_macs:
        Number of MAC units; equals atomic-K, the number of output channels
        processed per atomic operation.
    muls_per_mac:
        Multipliers per MAC unit; equals atomic-C, the number of input
        channels consumed per atomic operation.
    """

    num_macs: int = field(default=8, metadata={"min": 1})
    muls_per_mac: int = field(default=8, metadata={"min": 1})

    @property
    def atomic_k(self) -> int:
        """Output channels per atomic operation."""
        return self.num_macs

    @property
    def atomic_c(self) -> int:
        """Input channels per atomic operation."""
        return self.muls_per_mac

    @property
    def total_multipliers(self) -> int:
        return self.num_macs * self.muls_per_mac

    def pad_channels(self, channels: int) -> int:
        """Round ``channels`` up to a multiple of atomic-C."""
        c = self.atomic_c
        return ((channels + c - 1) // c) * c

    def pad_kernels(self, kernels: int) -> int:
        """Round ``kernels`` up to a multiple of atomic-K."""
        k = self.atomic_k
        return ((kernels + k - 1) // k) * k

    def channel_groups(self, channels: int) -> int:
        """Number of atomic-C groups needed to cover ``channels``."""
        return self.pad_channels(channels) // self.atomic_c

    def kernel_groups(self, kernels: int) -> int:
        """Number of atomic-K groups needed to cover ``kernels``."""
        return self.pad_kernels(kernels) // self.atomic_k


#: The 8x8 geometry used throughout the paper's case study.
PAPER_GEOMETRY = ArrayGeometry(num_macs=8, muls_per_mac=8)
