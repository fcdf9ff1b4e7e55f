"""The per-multiplier fault injection block.

In the paper's hardware every multiplier output bit passes through a 2:1
multiplexer: when the corresponding ``fsel`` bit is set, the bit is driven
from the ``fdata`` register instead of from the multiplier (Fig. 1).  The
paper uses two configurations of that block:

* **constant error** — ``fdata`` is a synthesis-time constant (cheap, +18 LUT),
* **variable error** — ``fdata`` is a runtime register (0.71 % more LUTs).

:class:`FaultInjector` is the software model of one such 18-bit block, and
:class:`InjectionConfig` is a complete campaign-level configuration: which
sites are armed and with which fault model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.models import FaultModel
from repro.faults.sites import FaultSite, site_sort_key
from repro.utils.bitops import PRODUCT_WIDTH, to_signed, to_unsigned


class FaultInjector:
    """Bit-level model of one 18-bit fault injector block.

    Parameters
    ----------
    fsel:
        18-bit select mask; bit ``i`` set means output bit ``i`` is driven
        from ``fdata`` instead of the multiplier product.
    fdata:
        18-bit data pattern supplying the overridden bits.
    """

    def __init__(self, fsel: int = 0, fdata: int = 0):
        self.configure(fsel, fdata)

    def configure(self, fsel: int, fdata: int) -> None:
        """Program the select mask and data pattern (as unsigned bus values)."""
        mask = (1 << PRODUCT_WIDTH) - 1
        if not 0 <= fsel <= mask:
            raise ValueError(f"fsel must fit in {PRODUCT_WIDTH} bits")
        if not 0 <= fdata <= mask:
            raise ValueError(f"fdata must fit in {PRODUCT_WIDTH} bits")
        self.fsel = int(fsel)
        self.fdata = int(fdata)

    @property
    def enabled(self) -> bool:
        """True when at least one bit is overridden."""
        return self.fsel != 0

    def apply_bus(self, product_bus: int) -> int:
        """Apply the mux to an unsigned 18-bit bus value."""
        return (product_bus & ~self.fsel) | (self.fdata & self.fsel)

    def apply_signed(self, product: int | np.ndarray) -> int | np.ndarray:
        """Apply the mux to signed product value(s) and return signed value(s)."""
        bus = to_unsigned(product, PRODUCT_WIDTH)
        if isinstance(bus, np.ndarray):
            out = (bus & ~np.int64(self.fsel)) | np.int64(self.fdata & self.fsel)
        else:
            out = self.apply_bus(bus)
        return to_signed(out, PRODUCT_WIDTH)

    @classmethod
    def full_override(cls, value: int) -> "FaultInjector":
        """An injector that overrides every bit with the signed ``value``."""
        mask = (1 << PRODUCT_WIDTH) - 1
        return cls(fsel=mask, fdata=int(to_unsigned(value, PRODUCT_WIDTH)) & mask)

    @classmethod
    def disabled(cls) -> "FaultInjector":
        return cls(fsel=0, fdata=0)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FaultInjector(fsel=0x{self.fsel:05x}, fdata=0x{self.fdata:05x})"


@dataclass
class InjectionConfig:
    """A complete fault-injection configuration for one emulation run.

    Maps armed :class:`FaultSite` objects to the :class:`FaultModel` applied
    at that site.  A single run may arm any number of sites (the paper's
    Fig. 2 arms 1–7 sites with the same model).
    """

    faults: dict[FaultSite, FaultModel] = field(default_factory=dict)

    @classmethod
    def single(cls, site: FaultSite, model: FaultModel) -> "InjectionConfig":
        return cls(faults={site: model})

    @classmethod
    def uniform(cls, sites: list[FaultSite], model: FaultModel) -> "InjectionConfig":
        """Arm all ``sites`` with the same fault model."""
        return cls(faults={site: model for site in sites})

    @classmethod
    def fault_free(cls) -> "InjectionConfig":
        return cls(faults={})

    @property
    def enabled(self) -> bool:
        return bool(self.faults)

    @property
    def sites(self) -> list[FaultSite]:
        return sorted(self.faults.keys(), key=site_sort_key)

    def model_at(self, site: FaultSite) -> FaultModel | None:
        return self.faults.get(site)

    def add(self, site: FaultSite, model: FaultModel) -> None:
        if site in self.faults:
            raise ValueError(f"site {site} is already armed")
        self.faults[site] = model

    def datapath_config(self) -> "InjectionConfig":
        """This configuration minus its memory-resident faults.

        The CMAC/CACC datapath (and the register-file encoding) only ever
        sees this part; the engines apply memory faults to the staged
        operand bytes before any datapath arithmetic runs.
        """
        remaining = {
            site: model for site, model in self.faults.items() if model.stage != "memory"
        }
        if len(remaining) == len(self.faults):
            return self
        return InjectionConfig(faults=remaining)

    def active_memory_flips(self, exec_index: int) -> tuple[list, list]:
        """(weight flips, activation flips) dwelling at GEMM op ``exec_index``.

        Each flip is a ``(byte_offset, bit)`` pair, in canonical site order.
        Input-surface faults are excluded — they fire at the DMA boundary
        (the runtime facade applies them to the quantised input), not at
        layer staging time.  Raises when a memory model is armed at a site
        of a different surface.
        """
        weight_flips: list[tuple[int, int]] = []
        activation_flips: list[tuple[int, int]] = []
        for site in self.sites:
            model = self.faults[site]
            if model.stage != "memory":
                continue
            surface = getattr(site, "surface", None)
            if surface != model.surface:
                raise ValueError(
                    f"memory model {model.label()} targets the {model.surface!r} "
                    f"surface but is armed at site {site!r}"
                )
            if surface == "input" or not model.active_at(exec_index):
                continue
            flip = (site.byte_offset, site.bit)
            if surface == "weight":
                weight_flips.append(flip)
            else:
                activation_flips.append(flip)
        return weight_flips, activation_flips

    def input_flips(self) -> list[tuple[int, int]]:
        """(byte, bit) flips of input-surface faults, canonical site order."""
        return [
            (site.byte_offset, site.bit)
            for site in self.sites
            if self.faults[site].stage == "memory"
            and self.faults[site].surface == "input"
        ]

    def describe(self) -> str:
        """Short human-readable description used in logs and result records."""
        if not self.faults:
            return "fault-free"
        parts = []
        for site in self.sites:
            model = self.faults[site]
            if model.stage == "memory":
                where = site.display()
            elif model.stage == "accumulator":
                where = f"MAC {site.mac_unit + 1} / ACC"
            else:
                where = site.display()
            parts.append(f"{where}={model.label()}")
        return "; ".join(parts)

    def __len__(self) -> int:
        return len(self.faults)
