"""One MAC unit: a lane of multipliers feeding an adder tree.

In the paper's accelerator each MAC unit holds 8 signed 8-bit multipliers
whose (possibly fault-injected) 18-bit products are summed by an adder tree;
the sum is forwarded to the accumulator (CACC).  One MAC unit produces the
partial sum of one output channel for one atomic operation.
"""

from __future__ import annotations

from typing import Sequence

from repro.accelerator.multiplier import Int8Multiplier
from repro.faults.models import FaultModel


class MACUnit:
    """A multiply-accumulate unit with per-multiplier fault hooks.

    Parameters
    ----------
    num_multipliers:
        Number of multiplier lanes (atomic-C); 8 in the paper.
    """

    def __init__(self, num_multipliers: int = 8):
        if num_multipliers <= 0:
            raise ValueError("a MAC unit needs at least one multiplier")
        self.num_multipliers = num_multipliers
        self.multipliers = [Int8Multiplier() for _ in range(num_multipliers)]
        #: Number of atomic operations executed (each consumes one cycle).
        self.cycles = 0

    # ------------------------------------------------------------------
    # Fault configuration
    # ------------------------------------------------------------------
    def set_fault(self, lane: int, model: FaultModel) -> None:
        """Attach a fault model to multiplier ``lane``."""
        self._check_lane(lane)
        self.multipliers[lane].set_fault_model(model)

    def clear_faults(self) -> None:
        for multiplier in self.multipliers:
            multiplier.clear_faults()

    def faulty_lanes(self) -> list[int]:
        return [i for i, m in enumerate(self.multipliers) if m.faulty]

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.num_multipliers:
            raise ValueError(f"lane {lane} out of range [0, {self.num_multipliers})")

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def multiply_accumulate(self, activations: Sequence[int], weights: Sequence[int]) -> int:
        """One atomic operation: dot product of two ``num_multipliers`` vectors.

        Operands shorter than the lane count are zero-padded, exactly like
        the hardware pads partial channel groups — and, crucially, a faulty
        multiplier still injects its value on padded lanes.
        """
        if len(activations) > self.num_multipliers or len(weights) > self.num_multipliers:
            raise ValueError(
                f"operand vectors longer than the {self.num_multipliers} multiplier lanes"
            )
        self.cycles += 1
        total = 0
        for lane in range(self.num_multipliers):
            a = int(activations[lane]) if lane < len(activations) else 0
            w = int(weights[lane]) if lane < len(weights) else 0
            total += self.multipliers[lane].multiply(a, w)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MACUnit(lanes={self.num_multipliers}, faulty={self.faulty_lanes()}, "
            f"cycles={self.cycles})"
        )
