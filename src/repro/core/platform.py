"""The emulation platform: model, compiler, accelerator and runtime in one.

:class:`EmulationPlatform` corresponds to the whole of the paper's Fig. 1:
given a trained CNN and a MAC-array geometry it compiles the network,
instantiates the accelerator emulator with fault-injection support, and
exposes the operations the case study needs — baseline accuracy, accuracy
under an arbitrary injection configuration, latency and resource reports.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from repro.accelerator.accelerator import NVDLAAccelerator
from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
from repro.accelerator.resources import FIVariant, ResourceModel, ResourceReport
from repro.accelerator.timing import TimingModel, TimingReport
from repro.compiler.compile import CompilationResult, compile_model
from repro.faults.injector import InjectionConfig
from repro.faults.sites import FaultUniverse
from repro.nn.graph import Graph
from repro.runtime.cpu_backend import CPUBackend
from repro.runtime.runtime import Runtime
from repro.utils.logging import get_logger

logger = get_logger(__name__)


def _release_free_heap() -> None:
    """Hand freed heap pages back to the OS (glibc; a no-op elsewhere).

    Set-up frees hundreds of MB (the float model's evaluation, and cyclic
    garbage the collector reaches at an arbitrary point), and the tape is
    then laid over that heap.  ``free`` returns only the free top of the
    heap, so whenever a live block lands above the freed pages they stay
    resident: a process's steady RSS would then depend on allocation order
    (about 355 or 506 MB for a 48-image w0.25 fleet node) instead of
    following its live set.  ``malloc_trim`` also releases the free pages
    below live blocks.
    """
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    trim(0)


@dataclass
class PlatformConfig:
    """Configuration of an :class:`EmulationPlatform`."""

    geometry: ArrayGeometry = PAPER_GEOMETRY
    per_channel_quantization: bool = True
    calibration_percentile: float | None = 99.9
    engine: str = "vectorised"
    seed: int = 0
    name: str = "resnet18-cifar10"
    #: Byte budget of the clean-activation tape (0 disables it).  The tape
    #: records the whole clean forward per evaluation-batch chunk during
    #: the baseline pass; fault trials then re-execute only the network
    #: suffix that diverges from it (delta propagation) and support fused
    #: multi-trial evaluation.  Records are bit-identical either way.
    tape_bytes: int = 256 << 20
    #: Ceiling on the total samples (trials x batch chunk) of one fused
    #: multi-trial engine pass.  Fusing amortises per-trial dispatch
    #: overhead, which wins when chunks are small; past this many samples
    #: the stacked intermediates blow the cache hierarchy and per-trial
    #: evaluation is faster, so oversized groups are split automatically.
    #: Purely a performance knob — records are bit-identical for any value.
    fused_stack_samples: int = 64
    #: Byte ceiling on the largest per-layer accumulator of one fused
    #: stack (the quantity that actually thrashes the cache hierarchy);
    #: measured from the tape after the baseline pass, so wider models
    #: automatically fuse fewer trials per pass.
    fused_stack_bytes: int = 4 << 20


class EmulationPlatform:
    """End-to-end FT-analysis platform for one trained model."""

    def __init__(
        self,
        graph: Graph,
        calibration_images: np.ndarray,
        config: PlatformConfig | None = None,
    ):
        self.config = config or PlatformConfig()
        self.compilation: CompilationResult = compile_model(
            graph,
            calibration_images,
            geometry=self.config.geometry,
            per_channel=self.config.per_channel_quantization,
            name=self.config.name,
            calibration_percentile=self.config.calibration_percentile,
        )
        self.loadable = self.compilation.loadable
        self.quantized_model = self.compilation.quantized_model
        self.accelerator = NVDLAAccelerator(
            geometry=self.config.geometry,
            engine=self.config.engine,
            seed=self.config.seed,
            tape_bytes=self.config.tape_bytes,
        )
        self.runtime = Runtime(accelerator=self.accelerator)
        self.runtime.load(self.loadable)
        self.universe = FaultUniverse(
            self.config.geometry.num_macs, self.config.geometry.muls_per_mac
        )
        self.cpu_backend = CPUBackend()
        logger.info(
            "platform ready: %d ops, %d MACs, %d fault sites",
            len(self.loadable),
            self.loadable.total_macs(),
            self.universe.size,
        )

    # ------------------------------------------------------------------
    # Accuracy
    # ------------------------------------------------------------------
    def baseline_accuracy(self, images: np.ndarray, labels: np.ndarray, batch_size: int = 64) -> float:
        """Fault-free accuracy of the accelerator on the given dataset.

        This is the pass that builds the clean-activation tape: only the
        clean activations ever recur across fault trials (a fault perturbs
        everything downstream of it), so recording happens here and is
        frozen afterwards — trials replay the clean forward but one-shot
        faulty activations are never inserted.
        """
        self.runtime.clear_faults()
        tape = self.accelerator.tape
        if tape is None:
            return self.runtime.accuracy(images, labels, batch_size=batch_size)
        tape.start_recording()
        try:
            return self.runtime.accuracy(images, labels, batch_size=batch_size)
        finally:
            tape.finish_recording()
            _release_free_heap()

    def accuracy_with_faults(
        self,
        config: InjectionConfig,
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 64,
    ) -> float:
        """Accuracy with the given fault configuration armed (then disarmed)."""
        self.runtime.configure_faults(config)
        try:
            return self.runtime.accuracy(images, labels, batch_size=batch_size)
        finally:
            self.runtime.clear_faults()

    def accuracies_with_faults(
        self,
        configs: list[InjectionConfig],
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 64,
    ) -> list[float]:
        """Accuracies of several fault configurations, fused when profitable.

        Configurations whose fault models are all deterministic (see
        :func:`~repro.accelerator.engine.config_fusable`) are evaluated in
        stacked multi-trial passes per batch chunk; the rest fall back to
        one :meth:`accuracy_with_faults` call each.  Group size is capped so
        a fused pass never stacks more than
        :attr:`PlatformConfig.fused_stack_samples` samples — fusing
        amortises dispatch overhead for small chunks but thrashes the cache
        hierarchy for large ones, and a cap of one sends every trial down
        the serial delta path.  The returned list is aligned with
        ``configs`` and bit-identical to evaluating every configuration on
        its own.
        """
        from repro.accelerator.engine import config_fusable

        if not configs:
            return []
        per_chunk = min(batch_size, len(images)) or 1
        group_cap = max(1, self.config.fused_stack_samples // per_chunk)
        tape = self.accelerator.tape
        per_sample = (
            tape.max_accumulator_bytes_per_sample() if tape is not None else None
        )
        if per_sample:
            byte_cap = max(1, self.config.fused_stack_bytes // (per_chunk * per_sample))
            group_cap = min(group_cap, byte_cap)
        fusable = (
            self.config.engine == "vectorised"
            and group_cap > 1
            and len(configs) > 1
        )
        accuracies: list[float | None] = [None] * len(configs)
        fused_idx = [
            i for i, c in enumerate(configs) if fusable and config_fusable(c)
        ]
        if len(fused_idx) > 1:
            self.runtime.clear_faults()
            for start in range(0, len(fused_idx), group_cap):
                group = fused_idx[start : start + group_cap]
                if len(group) == 1:
                    continue  # a lone leftover goes down the serial path
                fused_accs = self.runtime.accuracy_multi(
                    [configs[i] for i in group], images, labels, batch_size=batch_size
                )
                for i, acc in zip(group, fused_accs):
                    accuracies[i] = acc
        for i, config in enumerate(configs):
            if accuracies[i] is None:
                accuracies[i] = self.accuracy_with_faults(
                    config, images, labels, batch_size=batch_size
                )
        return accuracies

    def cpu_reference_accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy of the bit-exact CPU backend (must equal the fault-free emulator)."""
        return self.cpu_backend.accuracy(self.quantized_model, images, labels)

    # ------------------------------------------------------------------
    # Clean-state lifecycle
    # ------------------------------------------------------------------
    def reset_caches(self) -> None:
        """Drop the taped clean state (campaign runners call this up front)."""
        self.accelerator.reset_caches()

    def tape_stats(self) -> dict[str, int | float] | None:
        """Segment/layer statistics of the clean-activation tape (None when off)."""
        tape = self.accelerator.tape
        return None if tape is None else tape.stats()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def timing_report(self) -> TimingReport:
        """Latency report of one inference at the paper's clock."""
        return self.accelerator.timing_report(self.loadable)

    def resource_report(self, variant: FIVariant = FIVariant.VARIABLE) -> ResourceReport:
        """FPGA resource estimate for the chosen fault-injection variant."""
        return ResourceModel(geometry=self.config.geometry).estimate(variant)

    def inferences_per_second(self) -> float:
        """Emulated inference throughput (the paper reports 217/s)."""
        return self.runtime.emulated_inferences_per_second()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line description used by the examples."""
        timing = self.timing_report()
        lines = [
            f"platform: {self.config.name}",
            f"geometry: {self.config.geometry.num_macs} MAC units x "
            f"{self.config.geometry.muls_per_mac} multipliers",
            f"compiled ops: {len(self.loadable)}",
            f"MACs per inference: {self.loadable.total_macs():,}",
            f"emulated latency: {timing.latency_ms:.2f} ms "
            f"({timing.inferences_per_second:.0f} inf/s at {timing.clock_hz / 1e6:.1f} MHz)",
            f"fault sites: {self.universe.size}",
        ]
        return "\n".join(lines)
