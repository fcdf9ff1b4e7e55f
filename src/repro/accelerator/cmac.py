"""The CMAC: an array of MAC units executing atomic operations.

One atomic operation feeds the same ``atomic_c`` activations to every MAC
unit; MAC unit ``k`` multiplies them against the weights of output kernel
``k`` and produces one partial sum.  The CMAC therefore advances
``atomic_k`` output channels by ``atomic_c`` input channels per cycle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
from repro.accelerator.mac_unit import MACUnit
from repro.faults.injector import InjectionConfig
from repro.faults.models import FaultModel
from repro.faults.sites import FaultSite


class CMACArray:
    """The full MAC array with campaign-level fault configuration."""

    def __init__(self, geometry: ArrayGeometry = PAPER_GEOMETRY):
        self.geometry = geometry
        self.mac_units = [MACUnit(geometry.muls_per_mac) for _ in range(geometry.num_macs)]
        #: Accumulator-stage model per MAC unit (applied to the partial-sum
        #: bus after the adder tree, before the sum reaches the CACC).
        self.accumulator_models: dict[int, FaultModel] = {}
        #: The site each accumulator-stage model was armed at (for reporting).
        self._accumulator_sites: dict[int, FaultSite] = {}

    # ------------------------------------------------------------------
    # Fault configuration
    # ------------------------------------------------------------------
    def apply_injection_config(self, config: InjectionConfig) -> None:
        """Arm the MAC array according to a campaign configuration."""
        self.clear_faults()
        for site, model in config.faults.items():
            self.set_fault(site, model)

    def set_fault(self, site: FaultSite, model: FaultModel) -> None:
        site.validate(self.geometry.num_macs, self.geometry.muls_per_mac)
        if model.stage == "accumulator":
            # The lane coordinate is a convention (lane 0); the fault sits on
            # the MAC unit's single partial-sum bus, of which there is one.
            if site.mac_unit in self.accumulator_models:
                raise ValueError(
                    f"MAC unit {site.mac_unit} already has an accumulator-stage fault"
                )
            self.accumulator_models[site.mac_unit] = model
            self._accumulator_sites[site.mac_unit] = site
        else:
            self.mac_units[site.mac_unit].set_fault(site.multiplier, model)

    def clear_faults(self) -> None:
        for mac in self.mac_units:
            mac.clear_faults()
        self.accumulator_models.clear()
        self._accumulator_sites.clear()

    def faulty_sites(self) -> list[FaultSite]:
        sites = []
        for mac_idx, mac in enumerate(self.mac_units):
            for lane in mac.faulty_lanes():
                sites.append(FaultSite(mac_idx, lane))
        sites.extend(self._accumulator_sites.values())
        return sorted(sites)

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def atomic_op(
        self,
        activations: Sequence[int],
        weights_per_kernel: Sequence[Sequence[int]],
    ) -> list[int]:
        """Execute one atomic operation.

        Parameters
        ----------
        activations:
            Up to ``atomic_c`` int8 activations (one channel group).
        weights_per_kernel:
            One weight vector per MAC unit (up to ``atomic_k`` of them); each
            vector holds up to ``atomic_c`` int8 weights.

        Returns
        -------
        list[int]
            One partial sum per MAC unit.  MAC units beyond
            ``len(weights_per_kernel)`` still cycle with zero weights (they
            exist in hardware and their faults still fire), but their sums
            are returned as well so callers can discard padded kernels.
        """
        if len(weights_per_kernel) > self.geometry.num_macs:
            raise ValueError(
                f"{len(weights_per_kernel)} kernels exceed the {self.geometry.num_macs} MAC units"
            )
        sums = []
        zero_weights: list[int] = [0] * self.geometry.muls_per_mac
        for k in range(self.geometry.num_macs):
            weights = weights_per_kernel[k] if k < len(weights_per_kernel) else zero_weights
            total = self.mac_units[k].multiply_accumulate(activations, weights)
            model = self.accumulator_models.get(k)
            if model is not None:
                total = int(model.apply(np.array([total], dtype=np.int64))[0])
            sums.append(total)
        return sums

    @property
    def total_cycles(self) -> int:
        """Total atomic operations executed (all MAC units cycle together)."""
        return self.mac_units[0].cycles if self.mac_units else 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CMACArray(geometry={self.geometry}, faulty={self.faulty_sites()})"
