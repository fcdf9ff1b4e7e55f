"""Fault models applied to the accelerator datapath.

A fault model answers one question: *given the fault-free value a datapath
stage would have produced in this cycle, what value appears on its output
bus instead?*  The paper's hardware supports overriding the 18-bit
multiplier product bus with zero or a programmable constant; additional
models (stuck-at-one, single-bit flips, cycle-keyed transients,
accumulator-stage stuck-ats) are provided because the paper explicitly notes
that "other fault models can easily be incorporated".

Models are grouped by the :attr:`~FaultModel.stage` they attack:

* ``"product"`` (default) — the signed 18-bit multiplier product bus; the
  conversion helpers in :mod:`repro.utils.bitops` define the bus semantics.
* ``"accumulator"`` — the signed 22-bit partial-sum bus between a MAC
  unit's adder tree and the CACC; one such fault corrupts every partial
  sum the MAC unit forwards, regardless of which multiplier lane produced
  the operands.

Cycle-dependent models (:attr:`~FaultModel.cycle_dependent`) additionally
receive the index of the atomic operation being executed, derived purely
from the hardware schedule, so that the vectorised engine and the scalar
reference engine reproduce the exact same transient behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.bitops import (
    PARTIAL_SUM_WIDTH,
    PRODUCT_WIDTH,
    to_signed,
    to_unsigned,
)

_MASK64 = (1 << 64) - 1


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser: a stateless, portable 64-bit mixer.

    Both engines hand it uint64 cycle indices (the scalar reference engine
    wraps its per-multiplier counter in a one-element array), so a single
    vectorised implementation defines the pseudo-random stream.
    """
    z = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class FaultModel:
    """Base class for datapath fault models.

    Subclasses implement :meth:`apply`, which transforms an array of
    fault-free signed bus values into faulty values, and declare whether
    the faulty value depends on the original value (:attr:`value_dependent`)
    — value-independent models admit a much faster vectorised execution path.
    Every model is a pure function of the bus values (and, for
    cycle-dependent models, of the schedule's cycle indices), so a trial's
    result depends on that trial alone.
    """

    #: True when the faulty value depends on the fault-free product.
    value_dependent: bool = False

    #: Datapath stage the model attacks: ``"product"`` (the 18-bit
    #: multiplier output bus) or ``"accumulator"`` (the 22-bit partial-sum
    #: bus between a MAC unit's adder tree and the CACC).
    stage: str = "product"

    #: True when the faulty value depends on *which cycle* produced it;
    #: such models implement :meth:`apply_at` instead of :meth:`apply`.
    cycle_dependent: bool = False

    def apply(self, products: np.ndarray) -> np.ndarray:
        """Return the faulty products corresponding to ``products``."""
        raise NotImplementedError

    def apply_at(self, products: np.ndarray, cycles: np.ndarray) -> np.ndarray:
        """Return the faulty products for values produced at ``cycles``.

        ``cycles`` holds, for each element of ``products``, the zero-based
        index of the atomic operation that produced it (the per-layer cycle
        counter of the hardware schedule).  Only cycle-dependent models
        implement this; all others ignore cycle indices.
        """
        raise NotImplementedError(f"{type(self).__name__} is not cycle-dependent")

    def constant_override(self) -> int | None:
        """The signed constant this model injects, if it is a constant override.

        Returns ``None`` for value-dependent models.
        """
        return None

    def label(self) -> str:
        """Short label used in result tables (e.g. ``"const(0)"``)."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return self.label()


@dataclass(frozen=True)
class ConstantValue(FaultModel):
    """Override the product bus with a programmable signed constant.

    This is the paper's "pulse fault" / "variable error" injector: the
    ``fdata`` register value is driven onto all selected bits.  The constant
    is given as a *signed* value and must fit on the 18-bit bus.
    """

    value: int
    value_dependent: bool = False

    def __post_init__(self) -> None:
        lo = -(1 << (PRODUCT_WIDTH - 1))
        hi = (1 << (PRODUCT_WIDTH - 1)) - 1
        if not lo <= self.value <= hi:
            raise ValueError(
                f"constant {self.value} does not fit on the signed {PRODUCT_WIDTH}-bit product bus"
            )

    def apply(self, products: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(products, dtype=np.int64), self.value)

    def constant_override(self) -> int:
        return int(self.value)

    def bus_pattern(self) -> int:
        """The unsigned 18-bit pattern written to the ``fdata`` register."""
        return int(to_unsigned(self.value, PRODUCT_WIDTH))

    def label(self) -> str:
        return f"const({self.value})"


@dataclass(frozen=True)
class StuckAtZero(FaultModel):
    """All 18 product bits stuck at logic 0 (the paper's stuck-at error)."""

    value_dependent: bool = False

    def apply(self, products: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(products, dtype=np.int64))

    def constant_override(self) -> int:
        return 0

    def label(self) -> str:
        return "stuck-at-0"


@dataclass(frozen=True)
class StuckAtOne(FaultModel):
    """All 18 product bits stuck at logic 1 (bus pattern 0x3FFFF, i.e. -1)."""

    value_dependent: bool = False

    def apply(self, products: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(products, dtype=np.int64), -1)

    def constant_override(self) -> int:
        return -1

    def label(self) -> str:
        return "stuck-at-1"


@dataclass(frozen=True)
class BitFlip(FaultModel):
    """Invert one bit of the product bus in every cycle.

    Unlike the constant overrides, the resulting value depends on the
    fault-free product, so the emulator has to materialise the affected
    products before applying the model.
    """

    bit: int
    value_dependent: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.bit < PRODUCT_WIDTH:
            raise ValueError(f"bit index must be in [0, {PRODUCT_WIDTH}), got {self.bit}")

    def apply(self, products: np.ndarray) -> np.ndarray:
        unsigned = to_unsigned(np.asarray(products, dtype=np.int64), PRODUCT_WIDTH)
        flipped = unsigned ^ (1 << self.bit)
        return to_signed(flipped, PRODUCT_WIDTH)

    def label(self) -> str:
        return f"bitflip({self.bit})"


@dataclass(frozen=True)
class TransientCycleFault(FaultModel):
    """Deterministic per-cycle transient: override random-looking cycles.

    Only ``duty`` of the products the faulty multiplier computes during an
    inference are replaced by ``value``; the rest pass through unmodified.
    Whether it fires in a given cycle is decided from the cycle index alone:
    a stateless 64-bit hash of ``(salt, cycle)`` is compared against ``duty``.
    Both engines therefore produce *bit-identical* faulty accumulators — the
    property the differential test suite certifies for every fault model.

    The cycle index is the per-layer atomic-operation counter of the
    hardware schedule (it resets when a new layer is launched, as the CACC
    does); every multiplier of the array cycles once per atomic operation.
    """

    value: int
    duty: float = 0.5
    salt: int = 0
    value_dependent: bool = True  # untouched cycles keep the original product
    cycle_dependent: bool = True

    def __post_init__(self) -> None:
        lo = -(1 << (PRODUCT_WIDTH - 1))
        hi = (1 << (PRODUCT_WIDTH - 1)) - 1
        if not lo <= self.value <= hi:
            raise ValueError(f"constant {self.value} does not fit on the product bus")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty must be in [0, 1]")

    def fires(self, cycles: np.ndarray) -> np.ndarray:
        """Boolean mask of the cycles in which the transient fires."""
        cycles = np.asarray(cycles)
        if (cycles < 0).any():
            raise ValueError("cycle indices must be non-negative")
        threshold = int(round(self.duty * float(1 << 64)))
        if threshold >= (1 << 64):
            return np.ones(cycles.shape, dtype=bool)
        if threshold <= 0:
            return np.zeros(cycles.shape, dtype=bool)
        keyed = cycles.astype(np.uint64) ^ np.uint64((self.salt * 0x9E3779B97F4A7C15) & _MASK64)
        return _splitmix64(keyed) < np.uint64(threshold)

    def apply_at(self, products: np.ndarray, cycles: np.ndarray) -> np.ndarray:
        products = np.asarray(products, dtype=np.int64)
        mask = np.broadcast_to(self.fires(cycles), products.shape)
        return np.where(mask, np.int64(self.value), products)

    def apply(self, products: np.ndarray) -> np.ndarray:
        raise TypeError(
            "TransientCycleFault is cycle-dependent; engines must call apply_at() "
            "with the schedule's cycle indices"
        )

    def label(self) -> str:
        return f"transient({self.value},duty={self.duty:g},salt={self.salt})"


@dataclass(frozen=True)
class AccumulatorStuckAt(FaultModel):
    """One bit of a MAC unit's partial-sum bus stuck at 0 or 1.

    This attacks the accumulator stage rather than a multiplier: every
    partial sum the MAC unit's adder tree forwards to the CACC has bit
    ``bit`` forced to ``stuck``, regardless of which multiplier lanes
    contributed.  The site such a model is armed at addresses the MAC unit;
    by convention it is armed at multiplier lane 0 (see
    :meth:`FaultUniverse.accumulator_sites
    <repro.faults.sites.FaultUniverse.accumulator_sites>`), and the lane
    coordinate is ignored.
    """

    bit: int
    stuck: int = 0
    value_dependent: bool = True
    stage: str = "accumulator"

    def __post_init__(self) -> None:
        if not 0 <= self.bit < PARTIAL_SUM_WIDTH:
            raise ValueError(
                f"bit index must be in [0, {PARTIAL_SUM_WIDTH}), got {self.bit}"
            )
        if self.stuck not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {self.stuck}")

    def apply(self, partials: np.ndarray) -> np.ndarray:
        """Force the stuck bit on signed partial-sum bus value(s)."""
        bus = to_unsigned(np.asarray(partials, dtype=np.int64), PARTIAL_SUM_WIDTH)
        if self.stuck:
            bus = bus | np.int64(1 << self.bit)
        else:
            bus = bus & np.int64(~(1 << self.bit))
        return to_signed(bus, PARTIAL_SUM_WIDTH)

    def label(self) -> str:
        return f"acc-stuck{self.stuck}@{self.bit}"


class MemoryFaultModel(FaultModel):
    """Base class of memory-resident fault models (CBUF/CSB surfaces).

    Where datapath models transform bus values cycle by cycle, a memory
    model flips stored operand *bytes*: the site it is armed at is a
    :class:`~repro.faults.sites.MemorySite` naming (surface, byte, bit), and
    the engines corrupt the staged operand bytes before any arithmetic runs.

    ``dwell_start``/``dwell`` define the fault's dwell window in units of
    MAC-array layer executions: the flip is present for the GEMM ops whose
    per-inference execution index lies in ``[dwell_start, dwell_start +
    dwell)`` and is scrubbed (refreshed from DRAM) outside it.  The
    execution index resets at the start of every inference and increments
    once per conv/FC op in plan order, so dwell behaviour is invariant to
    batch chunking.
    """

    #: Memory surface the model corrupts (``"weight"``, ``"activation"`` or
    #: ``"input"``); must match the surface of the armed site.
    surface: str = "weight"

    stage: str = "memory"
    value_dependent: bool = True  # a flip XORs the stored value
    #: Corruption is a pure function of the stored bytes and the execution
    #: index — no RNG — but memory configurations are still excluded from
    #: fused evaluation (see :func:`repro.accelerator.engine.config_fusable`)
    #: because the fused path shares one clean operand staging across trials.

    def __init__(self, dwell_start: int = 0, dwell: int = 1):
        if dwell_start < 0:
            raise ValueError(f"dwell_start must be >= 0, got {dwell_start}")
        if dwell < 1:
            raise ValueError(f"dwell must be >= 1, got {dwell}")
        self.dwell_start = dwell_start
        self.dwell = dwell

    def active_at(self, exec_index: int) -> bool:
        """True when the flip is resident during GEMM op ``exec_index``."""
        return self.dwell_start <= exec_index < self.dwell_start + self.dwell

    def apply(self, products: np.ndarray) -> np.ndarray:
        raise TypeError(
            f"{type(self).__name__} corrupts stored operand bytes, not bus values; "
            "engines must apply it to the staged surface before the GEMM"
        )

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.dwell_start == other.dwell_start
            and self.dwell == other.dwell
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.dwell_start, self.dwell))

    def label(self) -> str:
        return f"{self._family}[dwell={self.dwell}@{self.dwell_start}]"


class WeightBitFlip(MemoryFaultModel):
    """A bit flip resident in the CBUF weight surface for a dwell window.

    The armed site's byte offset addresses the target layer's packed int8
    weight bytes (C-order, modulo the weight size), so the flipped weight
    byte corrupts every output that reads it — across all samples of the
    batch — for as long as the flip dwells.
    """

    surface = "weight"
    _family = "weight-bitflip"


class ActivationBitFlip(MemoryFaultModel):
    """A bit flip resident in the CBUF activation surface for a dwell window.

    The byte offset addresses one int8 activation byte of the layer's staged
    input feature map, per sample (the surface is re-filled for every sample
    the schedule streams through the array), modulo the per-sample size.
    """

    surface = "activation"
    _family = "activation-bitflip"


class InputCorruption(MemoryFaultModel):
    """A bit flip in the input-DMA staging buffer.

    Fires when the runtime DMA-transfers the quantised input into the
    accelerator — conceptually before the first layer launches — so it has
    no dwell window: the corrupted input propagates through the whole
    inference regardless of scrub timing.  The byte offset addresses one
    byte of each sample's quantised input, modulo the per-sample size.
    """

    surface = "input"
    _family = "input-corrupt"

    def __init__(self):
        super().__init__(dwell_start=0, dwell=1)

    def active_at(self, exec_index: int) -> bool:
        return True

    def label(self) -> str:
        return "input-corrupt"


def flip_int8_bytes(
    array: np.ndarray, offsets_and_bits: list[tuple[int, int]], per_sample: bool
) -> np.ndarray:
    """Return a copy of an int8 array with the given stored bits inverted.

    ``offsets_and_bits`` holds (byte offset, bit) pairs; offsets wrap modulo
    the corrupted region (the whole array, or each leading-axis sample when
    ``per_sample`` is set — modelling a surface that is re-staged per
    sample).  This is the *vectorised* corruption path: the XOR runs on a
    uint8 view of the copy.  The scalar reference engine implements the same
    transformation independently with per-byte Python integer arithmetic;
    the differential suite certifies the two bit-identical.
    """
    if array.dtype != np.int8:
        raise TypeError(f"memory corruption expects int8 operands, got {array.dtype}")
    out = array.copy()
    if per_sample:
        view = out.view(np.uint8).reshape(out.shape[0], -1)
        size = view.shape[1]
        for offset, bit in offsets_and_bits:
            view[:, offset % size] ^= np.uint8(1 << bit)
    else:
        view = out.view(np.uint8).reshape(-1)
        size = view.size
        for offset, bit in offsets_and_bits:
            view[offset % size] ^= np.uint8(1 << bit)
    return out
