"""The vectorised execution engine of the MAC array.

This engine computes, for a convolution or fully-connected layer, exactly
the accumulator values the hardware MAC array would produce — including the
effect of fault injection at individual multipliers — but it does so with
numpy linear algebra instead of looping over cycles.

Lane mapping
------------
The compiler tiles a convolution onto the array in NVDLA fashion: input
channels are processed in groups of ``atomic_c`` and output channels in
groups of ``atomic_k``.  Inside a group, input channel ``ic`` is assigned to
multiplier lane ``ic % atomic_c`` and output channel ``oc`` to MAC unit
``oc % atomic_k``.  A persistent fault at multiplier ``(k, m)`` therefore
corrupts every product of the form

    activation[ic] * weight[oc, ic, ky, kx]    with ic % atomic_c == m,
                                                    oc % atomic_k == k,

for every kernel position and output pixel — plus the products of *padding
lanes* (channel groups padded with zeros when the channel count is not a
multiple of ``atomic_c``), because those multipliers still cycle in hardware
and a persistent override replaces their zero products too.

Fault arithmetic
----------------
A constant-override fault (stuck-at, constant) on multiplier ``(k, m)`` is
a weight edit: it zeroes the ``(oc % atomic_k == k, ic % atomic_c == m)``
block of the trial's own weights and adds ``constant * number_of_lane_terms``
(padding lanes included) to the accumulators of those output channels, so
the faulty layer is an ordinary GEMM.  Faults no weight edit expresses — the
value-dependent models (bit flips, transient pulses), cycle-dependent ones
and accumulator-stage ones — are evaluated as correction terms: the affected
products (or partial sums) are materialised, transformed by the model and
their difference re-summed onto the accumulator.  Both paths are validated
against the scalar reference engine in the test suite.

Fast math
---------
Every conv/FC GEMM has one lowering: the input becomes channels-last rows
``(N*P, K*K*IC)`` (one strided copy out of :func:`window_view`; an FC row is
a sample's features) and runs as one flat GEMM against the weights permuted
to ``(ky, kx, ic)`` order, whether it covers every output position or only
the dirty ones.  The contraction is the shared exact integer GEMM core
(:mod:`repro.runtime.gemm`): int8 operands stay narrow up to the GEMM
boundary and BLAS float32 kernels run it, their exactness certified by an
overflow bound — bit-identical to an int64 contraction, several times
faster.  A layer deeper than one certified SGEMM (``IC * K**2`` > 1023 for
int8, e.g. every layer-4 3x3 conv) is split along K into chunks that are
each certified on their own, and the chunk results are summed in int64.
A weight edit never grows a weight's magnitude, so folded trials keep the
same certificate.
"""

from __future__ import annotations

import itertools
import weakref

import numpy as np

from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
# Unused here: tracers wrap ``arrays_match`` and ``im2col`` in this module,
# like ``exact_matmul``.
from repro.accelerator.tape import arrays_match  # noqa: F401
from repro.faults.injector import InjectionConfig
from repro.faults.models import FaultModel, flip_int8_bytes
from repro.faults.sites import FaultSite
from repro.nn.functional import conv_output_size, im2col, window_view  # noqa: F401
from repro.quant.qlayers import QConv, QLinear
from repro.runtime.gemm import exact_matmul
from repro.utils.bitops import ACCUMULATOR_WIDTH, PRODUCT_WIDTH, saturate
from repro.utils.telemetry import TELEMETRY


def config_fusable(config: InjectionConfig) -> bool:
    """True when a configuration can join a fused multi-trial evaluation.

    Fused evaluation computes several trials' correction terms inside one
    engine pass over a clean operand staging shared by the group, so only
    memory-resident models are excluded: they corrupt the staged operand
    bytes (weights, activations, input DMA) themselves.
    """
    return all(model.stage != "memory" for model in config.faults.values())


def clamp_free(
    node: QConv | QLinear, configs: list[InjectionConfig], geometry: ArrayGeometry
) -> bool:
    """True when no 34-bit accumulator clamp can fire in this layer evaluation.

    Every product-stage fault model drives the signed 18-bit product bus,
    memory faults flip int8 operand bytes that stay int8, and a folded
    constant is one product-bus value per term, so no product exceeds
    ``2**17`` in magnitude.  An accumulator sums ``pad_channels(IC) * K**2``
    terms (padding lanes included), so when that many ``2**17`` plus the
    largest ``|bias|`` stays below ``2**33`` neither the engine's clamp nor
    the SDP's (after the bias add) can fire, and both may be skipped.  An
    armed accumulator-stage fault drives partial sums instead, which keeps
    the clamps.
    """
    if any(
        model.stage == "accumulator" for config in configs for model in config.faults.values()
    ):
        return False
    weight = node.weight
    kernel_elems = weight[0, 0].size if isinstance(node, QConv) else 1
    terms = geometry.pad_channels(weight.shape[1]) * kernel_elems
    bias = int(np.abs(node.bias.astype(np.int64, copy=False)).max(initial=0))
    return (terms << (PRODUCT_WIDTH - 1)) + bias < 1 << (ACCUMULATOR_WIDTH - 1)


class VectorisedEngine:
    """Fast lane-accurate engine for conv/FC layers on the MAC array.

    Every layer evaluation — one configuration or a fused group of them —
    goes through :meth:`_accumulate`; the public ``*_accumulate`` and
    ``*_accumulate_fused`` methods only name its input form.
    """

    def __init__(self, geometry: ArrayGeometry = PAPER_GEOMETRY):
        self.geometry = geometry
        # id(conv weight) -> (weak reference to it, its channels-last rows).
        self._weight_rows: dict[int, tuple[weakref.ref, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Layer evaluation (shared by conv and FC, one or many configurations)
    # ------------------------------------------------------------------
    @staticmethod
    def _lowered(
        node: QConv | QLinear, x: np.ndarray, positions: tuple[np.ndarray, ...] | None = None
    ) -> np.ndarray:
        """Channels-last GEMM rows ``(rows, R)`` of a layer input.

        A conv row is the window of one output position in ``(ky, kx, ic)``
        order, read from :func:`window_view` (one strided copy out of a
        padded NHWC buffer); an FC row is one sample's feature vector.  Rows
        run in ``(sample, y, x)`` order, or cover only the output
        ``positions`` (index arrays as :func:`numpy.nonzero` returns them)
        when those are given.
        """
        if isinstance(node, QConv):
            x = window_view(x, node.kernel_size, node.stride, node.padding)
        if positions is not None:
            x = x[positions]
        return x.reshape(-1, node.weight[0].size)

    def _weight_rows_of(self, node: QConv, weight: np.ndarray) -> np.ndarray:
        """A conv's channels-last ``(OC, R)`` weights, in ``(ky, kx, ic)`` order.

        The node's own weights are permuted once and the read-only result
        kept while they live; a memory-flipped copy (see
        :meth:`_staged_operands`) is permuted on each call.
        """
        if weight is not node.weight:
            return weight.transpose(0, 2, 3, 1).reshape(len(weight), -1)
        key = id(weight)
        cached = self._weight_rows.get(key)
        if cached is not None and cached[0]() is weight:
            return cached[1]
        rows = weight.transpose(0, 2, 3, 1).reshape(len(weight), -1)
        rows.flags.writeable = False
        cache = self._weight_rows
        self._weight_rows[key] = (weakref.ref(weight, lambda _: cache.pop(key, None)), rows)
        return rows

    def _clean_parts(
        self,
        node: QConv | QLinear,
        x: np.ndarray,
        weights: list[np.ndarray],
        shared: bool,
        record: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, acc)`` of one layer evaluation: lowering, then GEMMs.

        ``weights`` holds each trial's channels-last ``(OC, R)`` weights.  On
        a stack the rows are one equal block per trial, and consecutive
        blocks with the same weights object share one GEMM, so an unedited
        stack still runs as one GEMM and each trial with weight edits runs
        its own.  A ``shared`` input is one block that every trial reads:
        one GEMM runs it against all distinct weights side by side and each
        trial takes its own columns.  ``acc`` is a fresh
        ``(trials * block rows, OC)`` buffer the caller may correct and
        saturate in place.  ``record`` (the baseline pass that records the
        tape) only names the profile stage the work is charged to.
        """
        start = TELEMETRY.tick()
        rows = self._lowered(node, x)
        if shared:
            distinct = {id(w): w for w in weights}
            slot = {key: index for index, key in enumerate(distinct)}
            out = exact_matmul(rows, np.concatenate(list(distinct.values())).T)
            by_weights = out.reshape(len(rows), len(distinct), -1).transpose(1, 0, 2)
            acc = by_weights[[slot[id(w)] for w in weights]].reshape(-1, by_weights.shape[2])
        else:
            span = len(rows) // len(weights)
            parts, first = [], 0
            for _, run in itertools.groupby(weights, key=id):
                run = list(run)
                stop = first + len(run) * span
                parts.append(exact_matmul(rows[first:stop], run[0].T))
                first = stop
            acc = parts[0] if len(parts) == 1 else np.concatenate(parts)
        TELEMETRY.tock("tape_build" if record else "suffix_forward", start)
        return rows, acc

    def _accumulate(
        self,
        node: QConv | QLinear,
        configs: list[InjectionConfig],
        per_trial: int,
        x_stack: np.ndarray | None,
        x_clean: np.ndarray | None,
        exec_index: int,
        record: bool,
        positions: tuple[np.ndarray, ...] | None = None,
        certified: bool | None = None,
    ) -> np.ndarray:
        """Accumulators of ``len(configs)`` trials of one layer, 34-bit saturated.

        The saturation pass is skipped when :func:`clamp_free` certifies
        that it cannot fire, which leaves the values identical.  A caller
        that already holds that certificate for ``configs`` passes it as
        ``certified``; ``None`` evaluates it here.

        Exactly one input form describes the layer input:

        * ``x_clean`` — one input shared by every trial (e.g. the taped
          clean input), lowered once and run in one GEMM against every
          distinct trial weight set side by side.
        * ``x_stack`` — diverged inputs stacked as ``(G*N, ...)``, lowered
          once for the group; each trial with weight edits runs its own
          GEMM on its block.

        Every constant-override product fault is folded into its trial's
        own weights (see :meth:`_folded`); only the faults the fold cannot
        express (value-dependent, cycle-dependent, accumulator-stage)
        become correction terms on the trial's slice of the accumulator.

        With a single configuration, its dwell-active memory faults corrupt
        the staged operands first (memory models never join a fused group,
        see :func:`config_fusable`).  Returns the stack ``(G*N, OC, OH, OW)``
        for a convolution or ``(G*N, OUT)`` for a fully-connected layer; a
        convolution's stack is a view of a channels-last buffer.

        ``positions`` (with ``x_stack`` and no datapath fault) computes only
        the listed output positions: index arrays ``(sample, y, x)`` for a
        convolution or ``(sample,)`` for a fully-connected layer, as
        :func:`numpy.nonzero` returns them.  Their rows are lowered into
        one ``(D, R)`` GEMM and the result is ``(D, OC)``.
        """
        if (x_stack is None) == (x_clean is None):
            raise ValueError("provide exactly one of x_stack, x_clean")
        if positions is not None and x_stack is None:
            raise ValueError("positions select outputs of an x_stack input")
        groups = len(configs)
        if x_stack is not None:
            x = x_stack
            if x.shape[0] != groups * per_trial:
                raise ValueError(
                    f"stack of {x.shape[0]} samples does not hold "
                    f"{groups} trials x {per_trial} images"
                )
        else:
            x = x_clean
        if x.dtype != np.int8:
            raise TypeError(f"expected int8 activations, got {x.dtype}")
        conv = isinstance(node, QConv)
        if not conv and x.ndim != 2:
            raise ValueError(f"linear input must be (N, features), got shape {x.shape}")
        weight = node.weight
        if groups == 1:
            x, weight, datapath = self._staged_operands(x, weight, configs[0], exec_index)
            configs = [datapath]

        if conv:
            _, in_channels, h, w = x.shape
            out_channels, ic_w, k, _ = weight.shape
            if in_channels != ic_w:
                raise ValueError(
                    f"{node.name}: input channels {in_channels} != weight channels {ic_w}"
                )
            out_hw = (
                conv_output_size(h, k, node.stride, node.padding),
                conv_output_size(w, k, node.stride, node.padding),
            )
            kernel_elems = k * k
            # The GEMM reads (ky, kx, ic) weight rows, like the lowered input.
            w_rows = self._weight_rows_of(node, weight)
        else:
            in_channels = x.shape[1]
            out_channels, in_w = weight.shape
            if in_channels != in_w:
                raise ValueError(
                    f"{node.name}: input features {in_channels} != weight {in_w}"
                )
            # An FC layer is a 1x1 convolution over a 1x1 feature map on this
            # datapath; reuse the convolution fault arithmetic with P == 1.
            out_hw = ()
            kernel_elems = 1
            w_rows = weight

        if certified is None:
            certified = clamp_free(node, configs, self.geometry)
        if positions is not None:
            if any(config.enabled for config in configs):
                raise ValueError("gathered positions carry no datapath fault correction")
            start = TELEMETRY.tick()
            acc = exact_matmul(self._lowered(node, x, positions), w_rows.T)
            TELEMETRY.tock("suffix_forward", start)
            return acc if certified else saturate(acc, ACCUMULATOR_WIDTH, out=acc)

        live = any(config.enabled for config in configs)
        start = TELEMETRY.tick()
        for config in configs:
            if config.enabled:
                self._validate_stage_combination(config)
        edits = [self._folded(w_rows, config, in_channels, kernel_elems) for config in configs]
        if live:
            TELEMETRY.tock("correction", start)
        shared = x_stack is None and groups > 1
        rows, acc = self._clean_parts(node, x, [w for w, _, _ in edits], shared, record)

        # (samples, positions, R) patches and the (samples, OC, positions)
        # view of the accumulator that the correction terms index.
        patches = rows.reshape(len(x), -1, rows.shape[1])
        acc_view = acc.reshape(groups * per_trial, -1, out_channels).transpose(0, 2, 1)
        start = TELEMETRY.tick()
        for g, (_, offsets, faults) in enumerate(edits):
            trial = slice(g * per_trial, (g + 1) * per_trial)
            acc_trial = acc_view[trial]
            if offsets is not None:
                acc_trial += offsets[:, None]
            for site, model in faults:
                correction = self._site_correction(
                    patches if shared else patches[trial], w_rows,
                    out_channels, in_channels, kernel_elems, site, model,
                )
                if correction is not None:
                    oc_sel, delta = correction
                    acc_trial[:, oc_sel, :] += delta
        if live:
            TELEMETRY.tock("correction", start)
        # 34-bit accumulator saturation, in place, unless it cannot fire.
        if not certified:
            saturate(acc, ACCUMULATOR_WIDTH, out=acc)
        if not conv:
            return acc
        return acc.reshape((groups * per_trial,) + out_hw + (out_channels,)).transpose(0, 3, 1, 2)

    def conv_accumulate(
        self,
        x_q: np.ndarray,
        node: QConv | QLinear,
        config: InjectionConfig | None = None,
        exec_index: int = 0,
    ) -> np.ndarray:
        """Raw accumulator of one layer (no bias / requant), int64.

        Returns ``(N, OC, OH, OW)`` for a convolution and ``(N, OUT)`` for a
        fully-connected layer.  ``exec_index`` is the op's per-inference
        GEMM execution index — the clock that memory-resident faults' dwell
        windows are defined on.
        """
        config = config or InjectionConfig.fault_free()
        return self._accumulate(node, [config], len(x_q), None, x_q, exec_index, False)

    #: The fully-connected form of :meth:`conv_accumulate` (same body).
    linear_accumulate = conv_accumulate

    def conv_accumulate_fused(
        self,
        node: QConv | QLinear,
        configs: list[InjectionConfig],
        per_trial: int,
        x_stack: np.ndarray | None = None,
        x_clean: np.ndarray | None = None,
        exec_index: int = 0,
        record: bool = False,
        positions: tuple[np.ndarray, ...] | None = None,
        certified: bool | None = None,
    ) -> np.ndarray:
        """Accumulators of ``len(configs)`` trials of one layer in one pass.

        See :meth:`_accumulate` for the input forms, ``positions`` and
        ``certified``; ``record`` is set on the fault-free baseline pass
        that records the tape.  The stack is bit-identical to concatenating
        G single-trial ``conv_accumulate`` calls.
        """
        return self._accumulate(
            node, configs, per_trial, x_stack, x_clean, exec_index, record, positions,
            certified,
        )

    #: The fully-connected form of :meth:`conv_accumulate_fused`.
    linear_accumulate_fused = conv_accumulate_fused

    def _staged_operands(
        self,
        x_q: np.ndarray,
        weight: np.ndarray,
        config: InjectionConfig,
        exec_index: int,
    ) -> tuple[np.ndarray, np.ndarray, InjectionConfig]:
        """Apply dwell-active memory faults to the staged operand tensors.

        Returns ``(x_q, weight, datapath config)``: the (possibly
        corrupted) activation and weight tensors the GEMM must read and the
        configuration stripped of its memory faults.  Corruption is the
        vectorised path — an XOR on a uint8 view of a copy — mirroring the
        scalar reference engine's per-byte staging corruption.
        """
        if not config.enabled:
            return x_q, weight, config
        weight_flips, activation_flips = config.active_memory_flips(exec_index)
        if weight_flips:
            weight = flip_int8_bytes(weight, weight_flips, per_sample=False)
        if activation_flips:
            x_q = flip_int8_bytes(x_q, activation_flips, per_sample=True)
        return x_q, weight, config.datapath_config()

    def _folded(
        self,
        w_rows: np.ndarray,
        config: InjectionConfig,
        in_channels: int,
        kernel_elems: int,
    ) -> tuple[np.ndarray, np.ndarray | None, list[tuple[FaultSite, FaultModel]]]:
        """``(weights, offsets, faults)``: one trial's constant faults as weight edits.

        A constant-override product fault on multiplier ``(k, m)`` replaces
        every product of lane ``m`` into MAC ``k`` with its constant.  That
        equals zeroing the ``(oc = k mod atomic_k, ic = m mod atomic_c)``
        block of the trial's own copy of the channels-last ``(OC, R)``
        weights and adding ``constant * channel_groups * K^2`` (padding lanes
        count as terms) to the accumulators of those output channels before
        the 34-bit saturation.  The terms are disjoint and the integer sums
        exact, and an edited weight is never larger in magnitude, so the
        GEMM's float32 certificate still holds.

        ``weights`` is ``w_rows`` itself when nothing folds, ``offsets`` a
        per-output-channel int64 vector (``None`` when every constant is
        zero) and ``faults`` the faults left for correction terms:
        value-dependent, cycle-dependent and accumulator-stage models.
        """
        weights, offsets, faults = w_rows, None, []
        atomic_k, atomic_c = self.geometry.atomic_k, self.geometry.atomic_c
        terms = self.geometry.channel_groups(in_channels) * kernel_elems
        for site, model in config.faults.items():
            constant = None
            if model.stage == "product" and not model.value_dependent:
                constant = model.constant_override()
            if constant is None:
                faults.append((site, model))
                continue
            site.validate(self.geometry.num_macs, self.geometry.muls_per_mac)
            if weights is w_rows:
                weights = w_rows.copy()
            blocks = weights.reshape(len(weights), kernel_elems, in_channels)
            blocks[site.mac_unit::atomic_k, :, site.multiplier::atomic_c] = 0
            if constant:
                if offsets is None:
                    offsets = np.zeros(len(weights), dtype=np.int64)
                offsets[site.mac_unit::atomic_k] += constant * terms
        return weights, offsets, faults

    @staticmethod
    def _validate_stage_combination(config: InjectionConfig) -> None:
        """Reject fault combinations whose corrections are not additive.

        Corrections are applied independently per armed site on top of the
        *clean* accumulator, which is exact as long as every armed fault
        touches a disjoint set of terms.  An accumulator-stage fault is a
        non-linear function of its MAC unit's partial sums, so it cannot be
        combined with another fault on the same MAC unit (the scalar
        reference engine handles such configurations; the vectorised engine
        refuses them rather than silently produce different results).
        """
        acc_macs: list[int] = []
        product_macs: set[int] = set()
        for site, model in config.faults.items():
            if model.stage == "accumulator":
                acc_macs.append(site.mac_unit)
            else:
                product_macs.add(site.mac_unit)
        duplicates = {mac for mac in acc_macs if acc_macs.count(mac) > 1}
        if duplicates:
            raise ValueError(
                f"MAC unit(s) {sorted(duplicates)} carry more than one "
                "accumulator-stage fault; a MAC unit has a single partial-sum bus"
            )
        overlap = set(acc_macs) & product_macs
        if overlap:
            raise NotImplementedError(
                f"MAC unit(s) {sorted(overlap)} combine product-stage and "
                "accumulator-stage faults; the vectorised engine cannot apply "
                "these additively — use the scalar reference engine"
            )

    def _cycle_indices(
        self,
        n_batch: int,
        positions: int,
        kernel_groups: int,
        channel_groups: int,
        kernel_elems: int,
        kg_sel: np.ndarray,
        inner: np.ndarray,
    ) -> np.ndarray:
        """Per-layer atomic-operation index of each affected term.

        The hardware schedule iterates sample -> output position -> kernel
        group -> channel group -> kernel element, every multiplier firing
        once per atomic operation, so the cycle of the term computed for
        (sample ``n``, output position ``p``, kernel group ``kg``, channel
        group ``cg``, kernel element ``e``) is::

            ((n * P + p) * KG + kg) * (CG * K^2) + cg * K^2 + e

        ``kg_sel`` holds the kernel group of each selected output channel and
        ``inner`` the ``cg * K^2 + e`` term of each affected lane column; the
        result has shape ``(N, len(kg_sel), len(inner), P)`` matching the
        materialised products.
        """
        np_term = (
            np.arange(n_batch, dtype=np.int64)[:, None] * positions
            + np.arange(positions, dtype=np.int64)[None, :]
        )  # (N, P)
        return (
            (np_term[:, None, None, :] * kernel_groups + kg_sel[None, :, None, None])
            * (channel_groups * kernel_elems)
            + inner[None, None, :, None]
        )

    def _accumulator_delta(
        self,
        patches: np.ndarray,
        w_rows: np.ndarray,
        oc_sel: np.ndarray,
        in_channels: int,
        kernel_elems: int,
        model: FaultModel,
    ) -> np.ndarray:
        """Correction for an accumulator-stage fault on one MAC unit.

        The fault transforms every partial sum the MAC unit forwards to the
        CACC — one per (channel group, kernel element) atomic operation — so
        the affected partial sums are materialised by grouping the patch
        columns into atomic-C lanes (padding lanes contribute zero, exactly
        as the zero-padded hardware lanes do) and the correction is the
        summed difference between the faulty and the clean partials.
        """
        atomic_c = self.geometry.atomic_c
        channel_groups = self.geometry.channel_groups(in_channels)
        n_batch, positions, _ = patches.shape
        n_out = oc_sel.size
        padded_channels = channel_groups * atomic_c

        w_g = np.zeros((n_out, padded_channels, kernel_elems), dtype=np.int64)
        w_g[:, :in_channels, :] = (
            w_rows[oc_sel].reshape(n_out, kernel_elems, in_channels).transpose(0, 2, 1)
        )
        w_g = w_g.reshape(n_out, channel_groups, atomic_c, kernel_elems)
        cols_g = np.zeros(
            (n_batch, padded_channels, kernel_elems, positions), dtype=np.int64
        )
        cols_g[:, :in_channels] = patches.reshape(
            n_batch, positions, kernel_elems, in_channels
        ).transpose(0, 3, 2, 1)
        cols_g = cols_g.reshape(n_batch, channel_groups, atomic_c, kernel_elems, positions)

        # One partial sum per (sample, output channel, channel group, kernel
        # element, position): the lane axis is contracted by the adder tree.
        # The generic int64 einsum is acceptable here because, like the
        # value-dependent product path, it only touches the armed MAC's
        # ~1/atomic_k slice of the layer; the clean accumulator itself still
        # comes from the BLAS-backed GEMM core.
        partials = np.einsum("ogle,nglep->nogep", w_g, cols_g)
        faulty = model.apply(partials)
        return (faulty - partials).sum(axis=(2, 3))

    def _site_correction(
        self,
        patches: np.ndarray,
        w_rows: np.ndarray,
        out_channels: int,
        in_channels: int,
        kernel_elems: int,
        site: FaultSite,
        model: FaultModel,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Correction term added to ``acc[:, oc_sel, :]`` for one fault site.

        Serves the faults no weight edit expresses (constant overrides are
        folded, see :meth:`_folded`).  ``patches`` are the ``(N, P, R)``
        channels-last patches of the samples whose ``(N, OC, P)``
        accumulator the term corrects and ``w_rows`` the ``(OC, R)``
        channels-last weights.
        """
        site.validate(self.geometry.num_macs, self.geometry.muls_per_mac)
        atomic_c = self.geometry.atomic_c
        atomic_k = self.geometry.atomic_k

        oc_sel = np.arange(site.mac_unit, out_channels, atomic_k)
        if oc_sel.size == 0:
            # The MAC unit only ever processes padded (discarded) kernels.
            return None

        if model.stage == "accumulator":
            if model.cycle_dependent:
                raise NotImplementedError(
                    "cycle-dependent accumulator-stage models are not supported"
                )
            delta = self._accumulator_delta(
                patches, w_rows, oc_sel, in_channels, kernel_elems, model
            )
            return oc_sel, delta

        ic_real = np.arange(site.multiplier, in_channels, atomic_c)
        channel_groups = self.geometry.channel_groups(in_channels)
        pad_lane_count = channel_groups - ic_real.size
        pad_terms = pad_lane_count * kernel_elems

        # The faulty lane touches every kernel element of its channels: the
        # channels-last columns e * IC + ic, listed in (ic, e) order, the
        # order the schedule's cycle indices follow.
        columns = (np.arange(kernel_elems)[None, :] * in_channels + ic_real[:, None]).ravel()
        n_batch, positions, _ = patches.shape
        lanes = patches[:, :, columns]  # (N, P, R)
        w_sub = w_rows[np.ix_(oc_sel, columns)]  # (O, R)

        # The affected products (N, O, R, P) of the value-dependent paths.
        products = (
            w_sub.astype(np.int64)[None, :, :, None]
            * lanes.transpose(0, 2, 1).astype(np.int64)[:, None, :, :]
        )
        if model.cycle_dependent:
            return oc_sel, self._cyclic_delta(
                products, oc_sel, in_channels, kernel_elems, out_channels,
                ic_real, model,
            )

        delta = np.zeros((n_batch, oc_sel.size, positions), dtype=np.int64)
        if columns.size:
            faulty = model.apply(products)
            delta += (faulty - products).sum(axis=2)
        if pad_terms:
            pad_products = np.zeros((n_batch, oc_sel.size, pad_terms, positions), dtype=np.int64)
            pad_faulty = model.apply(pad_products)
            delta += pad_faulty.sum(axis=2)
        return oc_sel, delta

    def _cyclic_delta(
        self,
        products: np.ndarray,
        oc_sel: np.ndarray,
        in_channels: int,
        kernel_elems: int,
        out_channels: int,
        ic_real: np.ndarray,
        model: FaultModel,
    ) -> np.ndarray:
        """Correction for a cycle-dependent product-stage fault on one site.

        The faulty value of each affected product depends on the atomic
        operation that produced it, so the cycle index of every affected
        term (real lanes *and* zero-padded lanes, which still cycle in
        hardware) is reconstructed from the schedule and handed to the
        model together with the materialised ``(N, O, R, P)`` products.
        """
        atomic_c = self.geometry.atomic_c
        atomic_k = self.geometry.atomic_k
        channel_groups = self.geometry.channel_groups(in_channels)
        kernel_groups = self.geometry.kernel_groups(out_channels)
        pad_lane_count = channel_groups - ic_real.size
        n_batch, _, _, positions = products.shape
        kg_sel = oc_sel // atomic_k
        elems = np.arange(kernel_elems, dtype=np.int64)

        delta = np.zeros((n_batch, oc_sel.size, positions), dtype=np.int64)
        if ic_real.size:
            inner = ((ic_real // atomic_c)[:, None] * kernel_elems + elems[None, :]).ravel()
            cycles = self._cycle_indices(
                n_batch, positions, kernel_groups, channel_groups, kernel_elems,
                kg_sel, inner,
            )
            faulty = model.apply_at(products, cycles)
            delta += (faulty - products).sum(axis=2)
        if pad_lane_count:
            # The trailing channel groups hold the site's padding lanes;
            # their products are zero but the transient still overrides them.
            pad_cgs = np.arange(channel_groups - pad_lane_count, channel_groups, dtype=np.int64)
            inner = (pad_cgs[:, None] * kernel_elems + elems[None, :]).ravel()
            cycles = self._cycle_indices(
                n_batch, positions, kernel_groups, channel_groups, kernel_elems,
                kg_sel, inner,
            )
            pad_products = np.zeros(
                (n_batch, oc_sel.size, inner.size, positions), dtype=np.int64
            )
            pad_faulty = model.apply_at(pad_products, cycles)
            delta += pad_faulty.sum(axis=2)
        return delta

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def affected_fraction(self, node: QConv | QLinear, config: InjectionConfig) -> float:
        """Fraction of this layer's products that the armed faults corrupt.

        Useful for sanity-checking campaign severity: a single faulty
        multiplier in an 8x8 array corrupts 1/64 of all products.
        """
        if not config.enabled:
            return 0.0
        if isinstance(node, QConv):
            in_channels, out_channels = node.in_channels, node.out_channels
        else:
            in_channels, out_channels = node.in_features, node.out_features
        total_pairs = self.geometry.pad_channels(in_channels) * out_channels
        affected = 0
        for site, model in config.faults.items():
            oc_count = len(range(site.mac_unit, out_channels, self.geometry.atomic_k))
            if model.stage == "accumulator":
                # Every lane of the MAC unit feeds the corrupted partial sum.
                ic_count = self.geometry.pad_channels(in_channels)
            else:
                ic_count = self.geometry.channel_groups(in_channels)
            affected += oc_count * ic_count
        return affected / max(total_pairs, 1)
