"""The host-side runtime driving the emulated accelerator.

The paper's platform runs a user-space runtime (derived from the Tengine
NVDLA runtime) on the ARM cores: it loads the compiled network, quantises
input images, programs the fault-injection registers over AXI4-Lite, submits
inference jobs and reads back the classification results.  :class:`Runtime`
is the emulator-side equivalent and is the object the fault-injection
campaigns in :mod:`repro.core` talk to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.accelerator.accelerator import NVDLAAccelerator
from repro.accelerator.timing import TimingModel, TimingReport
from repro.compiler.loadable import Loadable
from repro.faults.injector import InjectionConfig
from repro.utils.logging import get_logger

logger = get_logger(__name__)


def _check_batch_size(batch_size) -> None:
    """Reject a batch size that would not step through the dataset: a
    non-positive one makes ``range(0, n, batch_size)`` empty, so every
    accuracy would read 0.0."""
    integral = isinstance(batch_size, (int, np.integer)) and not isinstance(batch_size, bool)
    if not integral or batch_size < 1:
        raise ValueError(f"batch_size must be an integer >= 1, got {batch_size!r}")


@dataclass
class InferenceResult:
    """Result of one (batched) inference job."""

    logits: np.ndarray
    predictions: np.ndarray
    injection: InjectionConfig
    wall_seconds: float
    emulated_latency_s: float | None = None

    @property
    def batch_size(self) -> int:
        return int(self.logits.shape[0])


class Runtime:
    """Loads a loadable onto an accelerator and runs inference jobs."""

    def __init__(
        self,
        accelerator: NVDLAAccelerator | None = None,
        timing_model: TimingModel | None = None,
    ):
        self.accelerator = accelerator or NVDLAAccelerator()
        self.timing_model = timing_model or TimingModel(geometry=self.accelerator.geometry)
        self.loadable: Loadable | None = None
        self._timing_cache: TimingReport | None = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def load(self, loadable: Loadable) -> None:
        """Load a compiled network (and plan its memory surfaces)."""
        loadable.plan_memory()
        self.loadable = loadable
        self._timing_cache = None
        logger.info("loaded %s: %d ops, %d MACs", loadable.name, len(loadable), loadable.total_macs())

    def _require_loadable(self) -> Loadable:
        if self.loadable is None:
            raise RuntimeError("no loadable loaded; call Runtime.load() first")
        return self.loadable

    # ------------------------------------------------------------------
    # Fault injection control
    # ------------------------------------------------------------------
    def configure_faults(self, config: InjectionConfig | None) -> None:
        """Program a fault-injection configuration (None disarms)."""
        self.accelerator.set_injection_config(config)

    def clear_faults(self) -> None:
        self.configure_faults(InjectionConfig.fault_free())

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def infer(self, images: np.ndarray, chunk_key: tuple | None = None) -> InferenceResult:
        """Run one inference job on a batch of float images.

        ``chunk_key`` ties the batch to its position in an evaluation loop
        so the accelerator's clean-activation tape can record (baseline) or
        replay (trials) the chunk's clean forward; ad-hoc inferences leave
        it ``None`` and execute in full.
        """
        loadable = self._require_loadable()
        start = time.perf_counter()
        logits = self.accelerator.execute(loadable, images, chunk_key=chunk_key)
        wall = time.perf_counter() - start
        result = InferenceResult(
            logits=np.asarray(logits),
            predictions=np.asarray(logits).argmax(axis=-1),
            injection=self.accelerator.injection_config,
            wall_seconds=wall,
            emulated_latency_s=self.emulated_latency_seconds() * len(images),
        )
        return result

    def accuracy(self, images: np.ndarray, labels: np.ndarray, batch_size: int = 64) -> float:
        """Top-1 accuracy over a dataset under the current fault configuration."""
        self._require_loadable()
        _check_batch_size(batch_size)
        correct = 0
        total = len(labels)
        for start in range(0, total, batch_size):
            batch = images[start : start + batch_size]
            result = self.infer(batch, chunk_key=(start, len(batch)))
            correct += int((result.predictions == labels[start : start + batch_size]).sum())
        return correct / max(total, 1)

    def accuracy_multi(
        self,
        configs: list[InjectionConfig],
        images: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 64,
    ) -> list[float]:
        """Top-1 accuracy of several fault configurations in fused passes.

        Every batch chunk is evaluated for all configurations at once
        through :meth:`NVDLAAccelerator.execute_fused
        <repro.accelerator.accelerator.NVDLAAccelerator.execute_fused>`;
        entry ``g`` of the returned list is bit-identical to arming
        ``configs[g]`` and calling :meth:`accuracy`.
        """
        loadable = self._require_loadable()
        _check_batch_size(batch_size)
        groups = len(configs)
        total = len(labels)
        correct = np.zeros(groups, dtype=np.int64)
        for start in range(0, total, batch_size):
            batch = images[start : start + batch_size]
            chunk_labels = np.asarray(labels[start : start + batch_size])
            logits = self.accelerator.execute_fused(
                loadable, batch, configs, chunk_key=(start, len(batch))
            )
            predictions = np.asarray(logits).argmax(axis=-1).reshape(groups, len(batch))
            correct += (predictions == chunk_labels[None, :]).sum(axis=1)
        return [int(c) / max(total, 1) for c in correct]

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def emulated_latency_seconds(self) -> float:
        """Per-image latency of the emulated accelerator (cycle model)."""
        if self._timing_cache is None:
            self._timing_cache = self.timing_model.time_model(self._require_loadable().model)
        return self._timing_cache.latency_seconds

    def emulated_inferences_per_second(self) -> float:
        return 1.0 / self.emulated_latency_seconds()
