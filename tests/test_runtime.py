"""Tests for the CPU backend, the device performance models and the runtime."""

import numpy as np
import pytest

from repro.accelerator.resources import PAPER_BASE_LUTS, PAPER_VAR_FI_LUTS
from repro.faults.injector import InjectionConfig
from repro.faults.models import StuckAtZero
from repro.faults.sites import FaultSite
from repro.runtime.cpu_backend import CPUBackend
from repro.runtime.perf_model import (
    AMD_RYZEN_7700,
    ARM_CORTEX_A53,
    DevicePerformanceModel,
    accelerator_estimate,
    table1_performance_rows,
)
from repro.runtime.runtime import Runtime


#: MAC count of the paper's (small) ResNet-18 workload implied by Table I:
#: 4.59 ms at 187.5 MHz with 64 MACs/cycle and realistic utilisation.
PAPER_WORKLOAD_MACS = 45_000_000


class TestCPUBackend:
    def test_logits_shape(self, tiny_platform, tiny_dataset):
        backend = CPUBackend()
        logits = backend.run(tiny_platform.quantized_model, tiny_dataset.test_images[:4])
        assert logits.shape == (4, 10)

    def test_classify_and_accuracy_consistent(self, tiny_platform, tiny_dataset):
        backend = CPUBackend()
        preds = backend.classify(tiny_platform.quantized_model, tiny_dataset.test_images)
        acc = backend.accuracy(
            tiny_platform.quantized_model, tiny_dataset.test_images, tiny_dataset.test_labels
        )
        assert acc == pytest.approx(float((preds == tiny_dataset.test_labels).mean()))

    def test_wall_clock_recorded(self, tiny_platform, tiny_dataset):
        backend = CPUBackend()
        backend.run(tiny_platform.quantized_model, tiny_dataset.test_images[:2])
        assert backend.last_run_seconds > 0

    def test_deterministic(self, tiny_platform, tiny_dataset):
        backend = CPUBackend()
        a = backend.run(tiny_platform.quantized_model, tiny_dataset.test_images[:3])
        b = backend.run(tiny_platform.quantized_model, tiny_dataset.test_images[:3])
        np.testing.assert_array_equal(a, b)


class TestDevicePerformanceModels:
    def test_single_thread_arm_calibration(self):
        """The ARM single-thread estimate should be close to the paper's 22.68 ms."""
        model = DevicePerformanceModel(ARM_CORTEX_A53)
        est = model.inference_seconds(PAPER_WORKLOAD_MACS, threads=1)
        assert est * 1e3 == pytest.approx(22.68, rel=0.25)

    def test_single_thread_ryzen_calibration(self):
        model = DevicePerformanceModel(AMD_RYZEN_7700)
        est = model.inference_seconds(PAPER_WORKLOAD_MACS, threads=1)
        assert est * 1e3 == pytest.approx(11.57, rel=0.25)

    def test_thread_scaling_shape(self):
        """4 threads must be faster than 1, but far from 4x (Amdahl)."""
        for device, paper_ratio in ((ARM_CORTEX_A53, 22.68 / 14.12), (AMD_RYZEN_7700, 11.57 / 5.67)):
            model = DevicePerformanceModel(device)
            t1 = model.inference_seconds(PAPER_WORKLOAD_MACS, threads=1)
            t4 = model.inference_seconds(PAPER_WORKLOAD_MACS, threads=4)
            ratio = t1 / t4
            assert 1.0 < ratio < 4.0
            assert ratio == pytest.approx(paper_ratio, rel=0.35)

    def test_more_threads_never_slower(self):
        model = DevicePerformanceModel(ARM_CORTEX_A53)
        times = [model.inference_seconds(PAPER_WORKLOAD_MACS, threads=t) for t in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_invalid_threads_rejected(self):
        with pytest.raises(ValueError):
            DevicePerformanceModel(ARM_CORTEX_A53).inference_seconds(1000, threads=0)

    def test_estimate_record_fields(self):
        est = DevicePerformanceModel(ARM_CORTEX_A53).estimate(PAPER_WORKLOAD_MACS, threads=4)
        assert est.device == ARM_CORTEX_A53.name
        assert est.threads == 4
        assert est.inference_ms > 0
        assert est.inferences_per_second == pytest.approx(1 / est.inference_seconds)


class TestTable1Rows:
    @pytest.fixture(scope="class")
    def rows(self, tiny_platform):
        return table1_performance_rows(tiny_platform.loadable)

    def test_seven_rows_like_the_paper(self, rows):
        assert len(rows) == 7

    def test_nvdla_faster_than_single_thread_cpus(self, rows):
        by_device = {r.device: r for r in rows}
        nvdla = by_device["NVDLA"]
        arm1 = [r for r in rows if r.device == ARM_CORTEX_A53.name and r.threads == 1][0]
        ryzen1 = [r for r in rows if r.device == AMD_RYZEN_7700.name and r.threads == 1][0]
        assert nvdla.inference_seconds < ryzen1.inference_seconds < arm1.inference_seconds
        # The paper's 4.9x / 2.5x ratios hold for its ~45 M-MAC workload (checked
        # in the Table I benchmark on the case-study model); the tiny test
        # workload is overhead-dominated, so only the ordering and a loose
        # ratio are asserted here.
        assert 1.2 < arm1.inference_seconds / nvdla.inference_seconds < 12.0
        assert 1.0 < ryzen1.inference_seconds / nvdla.inference_seconds < 7.0

    def test_fi_variants_share_latency(self, rows):
        nvdla_rows = [r for r in rows if r.device.startswith("NVDLA")]
        assert len(nvdla_rows) == 3
        assert len({r.inference_seconds for r in nvdla_rows}) == 1

    def test_fi_variants_report_resources(self, rows):
        by_device = {r.device: r for r in rows}
        assert by_device["NVDLA"].luts == PAPER_BASE_LUTS
        assert by_device["NVDLA + FI (variable error)"].luts == PAPER_VAR_FI_LUTS

    def test_accelerator_estimate_standalone(self, tiny_platform):
        est = accelerator_estimate(tiny_platform.loadable)
        assert est.device == "NVDLA"
        assert est.inference_seconds > 0


class TestRuntime:
    def test_requires_loadable(self):
        runtime = Runtime()
        with pytest.raises(RuntimeError):
            runtime.infer(np.zeros((1, 3, 16, 16), dtype=np.float32))

    def test_infer_returns_batch_result(self, tiny_platform, tiny_dataset):
        runtime = tiny_platform.runtime
        result = runtime.infer(tiny_dataset.test_images[:4])
        assert result.batch_size == 4
        assert result.predictions.shape == (4,)

    def test_fault_configuration_round_trip(self, tiny_platform, tiny_dataset):
        runtime = tiny_platform.runtime
        config = InjectionConfig.single(FaultSite(0, 0), StuckAtZero())
        runtime.configure_faults(config)
        result = runtime.infer(tiny_dataset.test_images[:2])
        assert result.injection.enabled
        runtime.clear_faults()
        result = runtime.infer(tiny_dataset.test_images[:2])
        assert not result.injection.enabled

    def test_accuracy_between_zero_and_one(self, tiny_platform, tiny_dataset):
        acc = tiny_platform.runtime.accuracy(tiny_dataset.test_images, tiny_dataset.test_labels)
        assert 0.0 <= acc <= 1.0

    def test_emulated_throughput_positive(self, tiny_platform):
        assert tiny_platform.runtime.emulated_inferences_per_second() > 0

    def test_cleared_faults_infer_fault_free(self, tiny_platform, tiny_dataset):
        runtime = tiny_platform.runtime
        runtime.clear_faults()
        result = runtime.infer(tiny_dataset.test_images[:2])
        assert result.injection.describe() == "fault-free"
