"""The accelerator facade: executes a compiled loadable end to end.

:class:`NVDLAAccelerator` glues the datapath models together the way the
platform of Fig. 1 does: the runtime programs each operation over the CSB,
the CMAC/CACC engine (vectorised or scalar reference) produces raw
accumulators for conv/FC layers with the currently armed fault injection
configuration applied, the SDP adds bias / requantises / applies ReLU and
elementwise additions, and the PDP performs pooling.  The final classifier
logits are returned as raw int32 accumulators.
"""

from __future__ import annotations

import math

import numpy as np

from repro.accelerator.csb import ConfigSpaceBus
from repro.accelerator.engine import VectorisedEngine, clamp_free, config_fusable
from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
from repro.accelerator.pdp import PDP, max_pool_int8
from repro.accelerator.reference import ScalarReferenceEngine
from repro.accelerator.sdp import SDP
from repro.accelerator.tape import CleanForwardTape, arrays_match
from repro.accelerator.timing import TimingModel, TimingReport
from repro.compiler.loadable import Loadable
from repro.compiler.ops import ConvOp, EltwiseAddOp, FullyConnectedOp, GlobalAvgPoolOp, PoolOp
from repro.faults.injector import InjectionConfig
from repro.faults.models import flip_int8_bytes
from repro.faults.registers import FaultInjectionRegisterFile
from repro.faults.sites import FaultUniverse
from repro.quant.qlayers import QAdd, QGlobalAvgPool, QMaxPool
from repro.utils.telemetry import TELEMETRY


def _row_index(positions: tuple[np.ndarray, ...]) -> tuple:
    """Index of the ``(D, C)`` rows of an ``(N, C, ...)`` array at positions."""
    return (positions[0], slice(None)) + tuple(positions[1:])


def _changed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Positions (the ``(N, ...)`` index of ``(N, C, ...)`` arrays, or the
    rows of ``(D, C)`` ones) where any channel of ``a`` differs from ``b``.

    When the channels are innermost in memory (conv outputs are channels
    last, gathered rows are ``(D, C)``), a position's channel flags are
    read as machine words: a numpy reduction over a short contiguous axis
    pays per output element, several times the cost of a few word passes.
    """
    differs = np.not_equal(a, b)
    last = np.moveaxis(differs, 1, -1)
    if not last.flags.c_contiguous:
        return differs.any(axis=1)
    words = last.view(f"u{math.gcd(last.shape[-1], 8)}")
    changed = words[..., 0] != 0
    for column in range(1, words.shape[-1]):
        changed |= words[..., column] != 0
    return changed


def _flip_mask(shape: tuple[int, ...], flips: list[tuple[int, int]]) -> np.ndarray:
    """Per-sample positions of the bytes per-sample memory flips corrupt."""
    dirty = np.zeros((shape[0],) + tuple(shape[2:]), dtype=bool)
    size = int(np.prod(shape[1:]))
    for offset, _ in flips:
        _, *where = np.unravel_index(offset % size, shape[1:])
        dirty[(slice(None), *where)] = True
    return dirty


def _reach(op, node, in_states, activation_flips) -> np.ndarray:
    """Mask of the output positions of ``op`` that a dirty input can reach.

    The input dirt is the union of the input states' dirty masks and the
    bytes an activation flip dwelling at the op corrupts.  A conv or
    max-pool output position reads the input window its kernel covers
    (stride and padding included); global pooling reads the whole map of
    its sample; additions and FC layers map positions one to one.
    """
    dirty = np.zeros(in_states[0][1][:, 0].shape, dtype=bool)
    for kind, _, mask in in_states:
        if kind == "stack":
            dirty |= mask
    if activation_flips:
        dirty |= _flip_mask(in_states[0][1].shape, activation_flips)
    if isinstance(op, ConvOp):
        kernel, stride, padding = node.kernel_size, node.stride, node.padding
    elif isinstance(op, PoolOp):
        kernel, stride, padding = node.kernel, node.stride, node.padding
    elif isinstance(op, GlobalAvgPoolOp):
        return dirty.any(axis=(1, 2))
    else:
        return dirty
    # A window reads a dirty position iff its max over the 0/1 mask is 1
    # (max pooling pads with -128, which reads as clean).
    return max_pool_int8(dirty[:, None].view(np.int8), kernel, stride, padding)[:, 0] > 0


class NVDLAAccelerator:
    """Behavioural model of the fault-injection-capable NVDLA accelerator.

    Parameters
    ----------
    geometry:
        MAC-array shape (8x8 in the paper).
    engine:
        ``"vectorised"`` (default, fast) or ``"scalar"`` (literal reference,
        only practical for tiny layers).
    tape_bytes:
        Byte budget of the clean-activation tape (0 disables it).  The tape
        records the whole clean forward per batch chunk during the baseline
        pass; trials then re-execute only the network suffix that diverges
        from the clean run (see :mod:`repro.accelerator.tape`).  Ignored by
        the scalar reference engine.
    """

    def __init__(
        self,
        geometry: ArrayGeometry = PAPER_GEOMETRY,
        engine: str = "vectorised",
        tape_bytes: int = 0,
    ):
        self.geometry = geometry
        if engine == "vectorised":
            self.engine = VectorisedEngine(geometry)
        elif engine == "scalar":
            self.engine = ScalarReferenceEngine(geometry)
        else:
            raise ValueError(f"unknown engine {engine!r}; use 'vectorised' or 'scalar'")
        #: The clean-activation tape, if one is armed; the op loop decides
        #: every use of it and keeps its layer hit/miss counters.
        self.tape = (
            CleanForwardTape(tape_bytes) if engine == "vectorised" and tape_bytes > 0 else None
        )
        self.sdp = SDP()
        self.pdp = PDP()
        self.csb = ConfigSpaceBus()
        self.fi_registers = FaultInjectionRegisterFile(
            FaultUniverse(geometry.num_macs, geometry.muls_per_mac)
        )
        self._injection = InjectionConfig.fault_free()

    # ------------------------------------------------------------------
    # Fault injection control
    # ------------------------------------------------------------------
    def set_injection_config(self, config: InjectionConfig | None) -> None:
        """Arm a fault-injection configuration for subsequent inferences.

        Uniform constant-override configurations are additionally written to
        the AXI register-file model, so the control path stays faithful to
        the platform; mixed or value-dependent configurations bypass the
        register encoding (the paper notes such models require modifying the
        injector RTL).
        """
        self._injection = config or InjectionConfig.fault_free()
        try:
            self.fi_registers.program_config(self._injection)
        except ValueError:
            # Not representable on the register map (mixed models); the
            # emulator still honours the configuration directly.
            self.fi_registers.reset()

    def clear_faults(self) -> None:
        self.set_injection_config(InjectionConfig.fault_free())

    @property
    def injection_config(self) -> InjectionConfig:
        return self._injection

    # ------------------------------------------------------------------
    # Clean-activation tape lifecycle
    # ------------------------------------------------------------------
    def reset_caches(self) -> None:
        """Drop the taped clean forward (e.g. between unrelated campaigns)."""
        tape = self.tape
        if tape is not None:
            tape.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _program_op(self, op, node) -> None:
        """Program one operation over the CSB."""
        if isinstance(op, ConvOp):
            self.csb.program_operation(
                op.name,
                {
                    "D_DATAIN_CHANNEL": node.in_channels,
                    "D_DATAOUT_CHANNEL": node.out_channels,
                    "D_KERNEL_SIZE": node.kernel_size,
                    "D_STRIDE": node.stride,
                    "D_PAD": node.padding,
                },
            )
        elif isinstance(op, FullyConnectedOp):
            self.csb.program_operation(
                op.name,
                {"D_IN_FEATURES": node.in_features, "D_OUT_FEATURES": node.out_features},
            )
        elif isinstance(op, PoolOp):
            self.csb.program_operation(
                op.name, {"D_POOL_KERNEL": op.kernel, "D_POOL_STRIDE": op.stride}
            )
        elif isinstance(op, GlobalAvgPoolOp):
            self.csb.program_operation(op.name, {"D_POOL_SPATIAL": op.spatial_size})
        elif isinstance(op, EltwiseAddOp):
            self.csb.program_operation(op.name, {"D_EW_RELU": int(op.relu)})
        else:
            raise TypeError(f"cannot execute op type {type(op).__name__}")
        self.csb.ring_doorbell()

    def _dma_input(self, qinput: np.ndarray, config: InjectionConfig) -> np.ndarray:
        """Apply armed input-pipeline corruption at the DMA boundary.

        The runtime quantises images on the host and DMA-transfers them into
        the accelerator; an ``input``-surface fault flips the armed bit of
        each sample's staged transfer.  This happens upstream of both
        engines (scalar and vectorised see the same corrupted input), and
        downstream of the tape lookup: the segment is verified against the
        uncorrupted quantised input, and the op loop enters the stem with
        the flipped bytes as its dirty region.
        """
        flips = config.input_flips() if config.enabled else []
        if flips:
            qinput = flip_int8_bytes(qinput, flips, per_sample=True)
        return qinput

    def execute(
        self,
        loadable: Loadable,
        images: np.ndarray,
        return_activations: bool = False,
        chunk_key: tuple | None = None,
    ):
        """Run inference on a batch of float images.

        The input is quantised with the loadable's input scale (the runtime
        does this on the ARM cores in the real platform), every op of the
        execution plan is programmed and executed in order with the armed
        configuration, and the raw int32/int64 logits of the final layer are
        returned (shape ``(N, num_classes)``).

        ``chunk_key`` identifies the batch's position in an evaluation loop
        (``(start, length)``) and arms the clean-activation tape: the
        fault-free baseline pass records the clean forward of each chunk,
        and subsequent trial passes re-execute only the suffix of the
        network that diverges from it (see :meth:`_run`).  Values are only
        ever substituted under byte equality, so the logits are
        bit-identical to a full execution.
        """
        logits, states = self._run(loadable, images, [self._injection], chunk_key)
        if return_activations:
            return logits, {name: array for name, (_, array, _) in states.items()}
        return logits

    def execute_fused(
        self,
        loadable: Loadable,
        images: np.ndarray,
        configs: list[InjectionConfig],
        chunk_key: tuple | None = None,
    ) -> np.ndarray:
        """Run ``len(configs)`` fault trials over one batch in a single pass.

        Returns the stacked logits ``(G*N, num_classes)`` where slice ``g``
        is bit-identical to ``execute`` with ``configs[g]`` armed.

        Requires no injection armed on the accelerator itself.  A group of
        several configurations must arm no memory fault (see
        :func:`~repro.accelerator.engine.config_fusable`); a single
        configuration may arm any model.
        """
        if self._injection.enabled:
            raise RuntimeError(
                "fused execution evaluates explicit per-trial configurations; "
                "disarm the accelerator-level injection first"
            )
        if not configs:
            raise ValueError("execute_fused needs at least one configuration")
        if len(configs) > 1:
            unfusable = [c.describe() for c in configs if not config_fusable(c)]
            if unfusable:
                raise ValueError(
                    f"configuration(s) {unfusable} arm memory faults and cannot "
                    "be fused; evaluate them one at a time"
                )
        logits, _ = self._run(loadable, images, configs, chunk_key)
        return logits

    def _run(
        self,
        loadable: Loadable,
        images: np.ndarray,
        configs: list[InjectionConfig],
        chunk_key: tuple | None,
    ) -> tuple[np.ndarray, dict[str, tuple[str, np.ndarray, np.ndarray | None]]]:
        """The op loop: ``(stacked logits, per-op activation states)``.

        The trials share the clean input batch, so their forward passes are
        identical until the first diverging layer.  Per-op activations are
        tracked as either *clean* (one shared array for every trial) or a
        *stack* of per-trial arrays ``(G*N, ...)``; with one configuration
        both are that trial's own array.  A state is ``(kind, array,
        dirty)``, where ``dirty`` is the per-sample mask ``(N, H, W)`` (or
        ``(N,)`` for a GAP/FC output) of the positions at which a stack
        differs from the taped output, or ``None`` when it is not tracked.

        * an op on the taped clean inputs at which no fault is live is
          skipped: its output *is* the taped output.  Non-GEMM ops carry no
          fault site; a conv/FC op is idle when no configuration arms a
          datapath fault and no memory flip dwells at its GEMM index;
        * a conv/FC op with a live datapath fault lowers its input once and
          folds each trial's constant faults into that trial's own weights.
          On the taped input (the tape holds activations only) it runs
          **one** GEMM for the whole group against the distinct trial
          weights side by side; on diverged inputs, one GEMM per trial with
          edited weights (one for all unedited trials together).  Only the
          faults no weight edit expresses add correction terms to a
          trial's slice of the accumulator stack;
        * a single trial with no datapath fault re-executes only the dirty
          region: the output positions its dirty input positions reach
          through the op's window (plus the bytes an activation flip
          dwelling at a GEMM corrupts).  Only those positions are gathered,
          computed and scattered into a copy of the taped output, however
          many there are (the channels-last gather beats the dense op up to
          an all-dirty output for every 3x3 conv of the case study).  An op
          at which a weight flip dwells runs whole: every position reads a
          changed operand;
        * any other op runs once, on the clean input or over the whole
          stack (requant, pooling and additions are per-sample, so slices
          equal the per-trial results bit for bit);
        * when every trial's output of an op equals the taped clean output
          (all faults masked so far: an empty dirty mask), the state
          collapses back to clean and the rest of the network is skipped by
          identity.

        A single configuration may also arm input-DMA and dwell-window
        memory faults; the fault-free baseline pass (one configuration,
        tape recording) records each chunk's segment.
        """
        groups = len(configs)
        per_trial = len(images)
        model = loadable.model
        input_node = model.input_node
        qinput = input_node.quantize(images)
        tape = self.tape
        segment, recording = None, False
        if tape is not None and chunk_key is not None:
            if not tape.recording:
                segment = tape.segment_for(chunk_key, qinput)
                if segment is not None:
                    # Hand the taped input downstream so clean-prefix checks
                    # succeed by pointer identity.
                    qinput = segment.qinput
            elif groups == 1 and not configs[0].enabled:
                # Only a fault-free pass may record the clean forward.
                segment, recording = tape.begin_segment(chunk_key, qinput), True
        replaying = segment is not None and not recording
        datapath_live = any(config.datapath_config().enabled for config in configs)
        # Dirty regions are tracked for one trial without a datapath fault
        # (a datapath fault is live at every GEMM, so nothing is sparse).
        track = replaying and groups == 1 and not datapath_live

        states: dict[str, tuple[str, np.ndarray, np.ndarray | None]] = {
            input_node.name: ("clean", qinput, None)
        }
        if groups == 1:
            dma = self._dma_input(qinput, configs[0])
            if dma is not qinput:
                dirty = _flip_mask(dma.shape, configs[0].input_flips()) if track else None
                states[input_node.name] = ("stack" if replaying else "clean", dma, dirty)
        self.csb.reset()
        # Per-inference GEMM execution index: the dwell clock of
        # memory-resident faults.  It advances once per conv/FC op in plan
        # order and resets for every inference, so dwell windows are
        # invariant to how the evaluation loop chunks the batch.
        gemm_index = 0
        for op in loadable.ops:
            node = model.node(op.name)
            in_states = [states[src] for src in op.inputs]
            inputs = [array for _, array, _ in in_states]
            all_clean = all(kind == "clean" for kind, _, _ in in_states)
            entry = segment.entry(op.name) if replaying else None
            self._program_op(op, node)
            taped = (
                entry is not None
                and all_clean
                and all(arrays_match(x, ref) for x, ref in zip(inputs, entry.inputs))
            )
            gemm = isinstance(op, (ConvOp, FullyConnectedOp))
            weight_flips, activation_flips = [], []
            if gemm:
                # Memory flips dwelling at this GEMM change its staged
                # operands, so its taped output no longer holds.
                flips = [config.active_memory_flips(gemm_index) for config in configs]
                taped = taped and not any(any(f) for f in flips)
                weight_flips, activation_flips = flips[0]
                exec_index, gemm_index = gemm_index, gemm_index + 1
                if taped:
                    tape.layer_hits += 1
                elif tape is not None and not recording:
                    tape.layer_misses += 1
            if taped and not (gemm and datapath_live):
                states[op.name] = ("clean", entry.output, None)
                continue

            positions = None
            if track and not weight_flips:
                positions = np.nonzero(_reach(op, node, in_states, activation_flips))
            if replaying:
                total = groups * entry.output[:, 0].size
                tape.positions_total += total
                tape.positions_recomputed += total if positions is None else positions[0].size

            if positions is not None and not positions[0].size:
                # No dirty input reaches the output, e.g. a flipped byte a
                # strided 1x1 kernel never reads.
                state = ("clean", entry.output, None)
            elif positions is not None:
                if gemm:
                    rows = self._gemm_out(
                        op, node, configs, per_trial, x_stack=inputs[0],
                        exec_index=exec_index, positions=positions,
                    )
                else:
                    rows = self._run_simple_op(op, node, inputs, positions)
                state = self._scattered(rows, entry.output, positions)
            elif gemm:
                source = "x_clean" if all_clean else "x_stack"
                out = self._gemm_out(
                    op, node, configs, per_trial, exec_index=exec_index,
                    record=recording, **{source: inputs[0]},
                )
                state = self._settled(out, entry, groups, per_trial, track)
            elif all_clean:
                out = self._run_simple_op(op, node, inputs)
                state = ("clean", out, None)
            else:
                stacked = [self._to_stack(s, groups) for s in in_states]
                out = self._run_simple_op(op, node, stacked)
                state = self._settled(out, entry, groups, per_trial, track)
            if recording:
                segment.record(op.name, tuple(inputs), out, gemm=gemm)
            states[op.name] = state
        if recording:
            tape.commit_segment(segment)

        return self._to_stack(states[model.output_name], groups), states

    @staticmethod
    def _to_stack(state: tuple[str, np.ndarray, np.ndarray | None], groups: int) -> np.ndarray:
        """Materialise a per-trial stack from a clean/stacked activation state."""
        kind, array, _ = state
        if kind == "stack" or groups == 1:
            return array
        reps = (groups,) + (1,) * (array.ndim - 1)
        return np.tile(array, reps)

    def _run_simple_op(
        self, op, node, inputs: list[np.ndarray], positions: tuple[np.ndarray, ...] | None = None
    ) -> np.ndarray:
        """Execute one non-GEMM op on the given activations.

        With ``positions``, only those output positions are computed and
        the result is one ``(D, C)`` row per position.
        """
        if isinstance(op, PoolOp):
            assert isinstance(node, QMaxPool)
            return self.pdp.max_pool(inputs[0], node, positions)
        if positions is not None:
            inputs = [x[_row_index(positions)] for x in inputs]
        if isinstance(op, GlobalAvgPoolOp):
            assert isinstance(node, QGlobalAvgPool)
            return self.sdp.global_average_owned(inputs[0], node)
        assert isinstance(node, QAdd)
        return self.sdp.elementwise_add_owned(inputs[0], inputs[1], node)

    def _gemm_out(self, op, node, configs, per_trial: int, **source) -> np.ndarray:
        """Post-SDP output of a conv/FC op: engine accumulate, then requant.

        One :func:`clamp_free` certificate covers both 34-bit clamps.
        """
        accumulate = (
            self.engine.conv_accumulate_fused
            if isinstance(op, ConvOp)
            else self.engine.linear_accumulate_fused
        )
        certified = clamp_free(node, configs, self.geometry)
        acc = accumulate(node, configs, per_trial, certified=certified, **source)
        start = TELEMETRY.tick()
        out = self.sdp.conv_post_owned(acc, node, channel_axis=1, clamp_free=certified)
        TELEMETRY.tock("requant", start)
        return out

    @staticmethod
    def _scattered(
        rows: np.ndarray, reference: np.ndarray, positions: tuple[np.ndarray, ...]
    ) -> tuple[str, np.ndarray, np.ndarray | None]:
        """The state of an op recomputed at ``positions`` only: ``rows``
        scattered into a copy of the taped output (which holds everywhere
        else, the inputs there being the taped ones), or the taped object
        itself when no row differs from it."""
        index = _row_index(positions)
        changed = _changed(rows, reference[index])
        if not changed.any():
            return ("clean", reference, None)
        out = reference.copy(order="K")  # keep the taped (channels-last) layout
        out[index] = rows
        dirty = np.zeros(reference[:, 0].shape, dtype=bool)
        dirty[tuple(axis[changed] for axis in positions)] = True
        return ("stack", out, dirty)

    @staticmethod
    def _settled(
        out: np.ndarray, entry, groups: int, per_trial: int, track: bool
    ) -> tuple[str, np.ndarray, np.ndarray | None]:
        """The state of a recomputed op output: the taped object when no
        trial's output differs from it, else the stack (with its dirty
        mask when ``track``).

        Untracked, the comparison bails out on the first diverging trial,
        so the common (diverged) case costs one slice compare.
        """
        if entry is None or entry.output.shape[0] != per_trial:
            return ("stack", out, None)
        reference = entry.output
        if track:
            dirty = _changed(out, reference)
            return ("stack", out, dirty) if dirty.any() else ("clean", reference, None)
        for g in range(groups):
            if not arrays_match(out[g * per_trial:(g + 1) * per_trial], reference):
                return ("stack", out, None)
        return ("clean", reference, None)

    def classify(self, loadable: Loadable, images: np.ndarray) -> np.ndarray:
        """Return predicted class indices for a batch of float images."""
        logits = self.execute(loadable, images)
        return np.asarray(logits).argmax(axis=-1)

    def accuracy(self, loadable: Loadable, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy of the (possibly fault-injected) accelerator."""
        predictions = self.classify(loadable, images)
        return float((predictions == np.asarray(labels)).mean())

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def timing_report(self, loadable: Loadable, timing_model: TimingModel | None = None) -> TimingReport:
        """Per-inference latency estimate from the cycle model."""
        timing_model = timing_model or TimingModel(geometry=self.geometry)
        return timing_model.time_model(loadable.model)
