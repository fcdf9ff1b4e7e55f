"""Fault models, fault sites and the per-multiplier fault injection logic.

The paper equips the output of every 8-bit multiplier in the NVDLA CMAC with
an 18-bit fault injector: a per-bit multiplexer that can override the
product bus with zero (a stuck-at fault) or a constant value (a pulse
fault), selected and programmed over AXI4-Lite.  This subpackage models that
block exactly:

* :mod:`repro.faults.models` — what value replaces the product,
* :mod:`repro.faults.sites` — which multiplier (MAC unit, lane) is affected,
* :mod:`repro.faults.injector` — the mux logic applied to product values,
* :mod:`repro.faults.registers` — the ``sel_a``/``sel_b``/``fsel``/``fdata``
  register file driven by the runtime.
"""

from repro.faults.models import (
    AccumulatorStuckAt,
    BitFlip,
    ConstantValue,
    FaultModel,
    StuckAtOne,
    StuckAtZero,
    TransientCycleFault,
)
from repro.faults.sites import FaultSite, FaultUniverse
from repro.faults.injector import FaultInjector, InjectionConfig
from repro.faults.registers import FaultInjectionRegisterFile

__all__ = [
    "FaultModel",
    "StuckAtZero",
    "StuckAtOne",
    "ConstantValue",
    "BitFlip",
    "TransientCycleFault",
    "AccumulatorStuckAt",
    "FaultSite",
    "FaultUniverse",
    "FaultInjector",
    "InjectionConfig",
    "FaultInjectionRegisterFile",
]
