"""Bit-accurate model of one signed 8-bit multiplier with its fault injector.

This is the unit the paper's fault injection targets: a signed 8x8-bit
multiplier whose 18-bit product bus passes through the per-bit override mux
of :class:`~repro.faults.injector.FaultInjector`.  The scalar reference
engine instantiates 64 of these; the vectorised engine reproduces the same
arithmetic with numpy and is validated against this model.
"""

from __future__ import annotations

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.models import FaultModel
from repro.utils.bitops import OPERAND_WIDTH, PRODUCT_WIDTH, to_signed, to_unsigned


class Int8Multiplier:
    """One signed 8-bit multiplier with an optional fault model on its output.

    Two fault hooks are supported, matching the two abstraction levels used
    in the library:

    * ``injector`` — the bit-level ``fsel``/``fdata`` mux (hardware view),
    * ``fault_model`` — a :class:`~repro.faults.models.FaultModel` applied to
      the signed product (campaign view).

    When both are configured the bit-level injector takes precedence, because
    that is what the synthesised hardware would do.
    """

    def __init__(
        self,
        injector: FaultInjector | None = None,
        fault_model: FaultModel | None = None,
    ):
        self.injector = injector or FaultInjector.disabled()
        self.fault_model = fault_model
        #: Number of multiplications performed (used by the timing cross-checks).
        self.cycles = 0

    def set_fault_model(self, model: FaultModel | None) -> None:
        if model is not None and model.stage != "product":
            raise ValueError(
                f"{model.label()} attacks the {model.stage} stage and cannot be "
                "attached to a multiplier lane; arm it through the CMAC array"
            )
        self.fault_model = model

    def clear_faults(self) -> None:
        self.injector = FaultInjector.disabled()
        self.fault_model = None

    def multiply(self, a: int, b: int) -> int:
        """Return the (possibly faulty) signed product of two int8 operands."""
        a = int(a)
        b = int(b)
        lo = -(1 << (OPERAND_WIDTH - 1))
        hi = (1 << (OPERAND_WIDTH - 1)) - 1
        if not lo <= a <= hi or not lo <= b <= hi:
            raise ValueError(f"operands ({a}, {b}) do not fit in signed {OPERAND_WIDTH} bits")
        self.cycles += 1

        product = a * b  # fits comfortably on the 18-bit bus (max |16256|)
        if self.injector.enabled:
            return int(self.injector.apply_signed(product))
        if self.fault_model is not None:
            if self.fault_model.cycle_dependent:
                # This multiplier fires once per atomic operation, so its own
                # multiply counter *is* the schedule's per-layer cycle index.
                faulty = self.fault_model.apply_at(
                    np.array([product], dtype=np.int64),
                    np.array([self.cycles - 1], dtype=np.int64),
                )
            else:
                faulty = self.fault_model.apply(np.array([product], dtype=np.int64))
            return int(faulty[0])
        return product

    def product_bus(self, a: int, b: int) -> int:
        """The unsigned 18-bit pattern observed on the (possibly faulty) bus."""
        return int(to_unsigned(self.multiply(a, b), PRODUCT_WIDTH))

    @property
    def faulty(self) -> bool:
        return self.injector.enabled or self.fault_model is not None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "faulty" if self.faulty else "healthy"
        return f"Int8Multiplier({state}, cycles={self.cycles})"
