"""The emulation platform: model, compiler, accelerator and runtime in one.

:class:`EmulationPlatform` corresponds to the whole of the paper's Fig. 1:
given a trained CNN and a MAC-array geometry it compiles the network,
instantiates the accelerator emulator with fault-injection support, and
exposes the operations the case study needs — baseline accuracy, accuracy
under an arbitrary injection configuration, latency and resource reports.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

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
from repro.utils.checked import Checked
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Ceiling on the samples (trials x batch chunk) of one fused multi-trial
#: pass.  Fusing amortises per-trial dispatch overhead, which wins when
#: chunks are small; past this many samples the stacked intermediates blow
#: the cache hierarchy and per-trial passes are faster.
FUSED_STACK_SAMPLES = 64

#: Byte ceiling on the largest per-layer accumulator of one fused stack
#: (the quantity that actually thrashes the cache hierarchy), measured
#: from the taped conv/FC output shapes (8 bytes per output element), so
#: wider models fuse fewer trials per pass.
FUSED_STACK_BYTES = 4 << 20


def _release_free_heap() -> None:
    """Hand freed heap pages back to the OS (glibc; a no-op elsewhere).

    Set-up frees tens of MB of transients (the compiler's float
    calibration forward, the baseline pass's lowered operands and int64
    accumulators, and cyclic garbage), and the tape's activations are
    laid over that heap.  ``free`` returns only the free top of the heap,
    so whenever a live block lands above the freed pages they stay
    resident: a process's steady RSS then follows allocation order
    instead of its live set.  ``malloc_trim`` also releases the free
    pages below live blocks.  Measured with perfbench on a 2-vCPU x86_64
    host: a ``fleet-mem-48`` node (48 images) peaked at 80 MB with the
    trim and 108 MB without it; a ``pool-fused-8`` worker (8 images)
    peaked at 92 MB either way.
    """
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    trim(0)


@dataclass(frozen=True)
class PlatformConfig(Checked):
    """Configuration of an :class:`EmulationPlatform`, checked on construction."""

    geometry: ArrayGeometry = PAPER_GEOMETRY
    per_channel_quantization: bool = True
    calibration_percentile: float | None = 99.9
    engine: str = field(default="vectorised", metadata={"choices": ("vectorised", "scalar")})
    name: str = "resnet18-cifar10"
    #: Byte budget of the clean-activation tape (0 disables it).  The tape
    #: records the whole clean forward per evaluation-batch chunk during
    #: the baseline pass; fault trials then re-execute only the network
    #: suffix that diverges from it (delta propagation), fusing several
    #: trials per pass; without it every trial runs alone.  Records are
    #: bit-identical either way.
    tape_bytes: int = 256 << 20


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
        """Accuracies of several fault configurations, in fused groups.

        Fusion is on exactly when the clean-activation tape is armed, since
        the group cap is measured from the taped accumulator shapes.  Then
        configurations that arm no memory fault (see
        :func:`~repro.accelerator.engine.config_fusable`) run in groups of
        up to the group cap per pass; a memory-fault configuration runs
        alone, because it corrupts operands the group would share.  Every
        fault model is a pure function of its trial, so the order of the
        groups does not matter.  Each group is one
        :meth:`Runtime.accuracy_multi <repro.runtime.runtime.Runtime.accuracy_multi>`
        call, and the returned list, aligned with ``configs``, is
        bit-identical to evaluating every configuration on its own.
        """
        from repro.accelerator.engine import config_fusable

        cap = self._group_cap(batch_size, len(images))
        fusable = [cap > 1 and config_fusable(c) for c in configs]
        fused = [i for i, yes in enumerate(fusable) if yes]
        groups = [fused[start : start + cap] for start in range(0, len(fused), cap)]
        groups += [[i] for i, yes in enumerate(fusable) if not yes]
        accuracies: list[float] = [0.0] * len(configs)
        for group in groups:
            found = self.runtime.accuracy_multi(
                [configs[i] for i in group], images, labels, batch_size=batch_size
            )
            for i, accuracy in zip(group, found):
                accuracies[i] = accuracy
        return accuracies

    def _group_cap(self, batch_size: int, num_images: int) -> int:
        """Trials per fused pass over chunks of ``batch_size`` images: 1
        without a tape, else the most that stay within
        :data:`FUSED_STACK_SAMPLES` samples and :data:`FUSED_STACK_BYTES`
        of per-layer accumulator."""
        tape = self.accelerator.tape
        if tape is None:
            return 1
        per_chunk = min(batch_size, num_images) or 1
        cap = FUSED_STACK_SAMPLES // per_chunk
        per_sample = tape.max_accumulator_bytes_per_sample()
        if per_sample:
            cap = min(cap, FUSED_STACK_BYTES // (per_chunk * per_sample))
        return max(1, cap)

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
