#!/usr/bin/env python
"""Extending the platform: custom fault models and register-level control.

The paper notes that "other fault models can easily be incorporated by
modifying the source code".  This example shows the two extension points the
library offers without touching any library code:

1. additional built-in models (single-bit flips, cycle-keyed transients) are armed
   exactly like the paper's constant overrides;
2. the AXI4-Lite register file can be driven directly, byte for byte, the way
   the platform's Linux driver would program it.

Run with::

    python examples/custom_fault_models.py
"""

from __future__ import annotations

from repro.faults import FaultSite, InjectionConfig
from repro.faults.models import BitFlip, ConstantValue, StuckAtZero, TransientCycleFault
from repro.faults.registers import REG_CTRL, REG_FDATA, REG_FSEL, REG_SEL_A, FaultInjectionRegisterFile
from repro.utils.tabulate import format_table
from repro.zoo import CaseStudySpec, build_case_study_platform


def main() -> None:
    # A smaller model keeps this example snappy; the workflow is identical.
    spec = CaseStudySpec(width_multiplier=0.125, num_train=600, num_test=150, epochs=4, seed=3)
    platform, case = build_case_study_platform(spec)
    images = case.dataset.test_images[:80]
    labels = case.dataset.test_labels[:80]
    baseline = platform.baseline_accuracy(images, labels)
    print(platform.describe())
    print(f"\nbaseline int8 accuracy: {baseline:.3f}\n")

    # ------------------------------------------------------------------
    # 1. Sweep different fault models at the same multiplier site.
    # ------------------------------------------------------------------
    site = FaultSite(mac_unit=2, multiplier=5)
    models = [
        StuckAtZero(),
        ConstantValue(1),
        ConstantValue(-1),
        ConstantValue(2**15),          # a large constant: pathological pulse
        BitFlip(bit=17),               # flip the product's sign bit every cycle
        BitFlip(bit=2),                # flip a low-order bit (nearly harmless)
        TransientCycleFault(value=2**14, duty=0.25),  # intermittent pulse
    ]
    rows = []
    for model in models:
        acc = platform.accuracy_with_faults(InjectionConfig.single(site, model), images, labels)
        rows.append([model.label(), acc, baseline - acc])
    print(format_table(
        ["fault model", "accuracy", "accuracy drop"],
        rows,
        floatfmt=".3f",
        title=f"Fault-model sweep at {site.display()}",
    ))

    # ------------------------------------------------------------------
    # 2. Drive the AXI4-Lite register file the way the Linux driver does.
    # ------------------------------------------------------------------
    print("\nProgramming the fault-injection registers directly:")
    regs = FaultInjectionRegisterFile(platform.universe)
    regs.write(REG_SEL_A, 1 << site.flat_index())  # arm exactly this multiplier
    regs.write(REG_FSEL, 0x3FFFF)                  # override all 18 product bits
    regs.write(REG_FDATA, 0x00000)                 # drive zeros (stuck-at-0)
    regs.write(REG_CTRL, 1)
    decoded = regs.decode_config()
    print(f"  decoded configuration: {decoded.describe()}")

    acc = platform.accuracy_with_faults(decoded, images, labels)
    print(f"  accuracy with the register-programmed fault: {acc:.3f} "
          f"(drop {baseline - acc:+.3f})")
    print("\nThe decoded register state and the API-level InjectionConfig are the same\n"
          "object, so campaigns can be scripted at either abstraction level.")


if __name__ == "__main__":
    main()
