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
For value-independent models (stuck-at, constant) the faulty accumulator is
obtained from the clean one by subtracting the true contribution of the
affected products and adding ``constant * number_of_affected_products``.
For value-dependent models (bit flips, transient pulses) the affected
products are materialised, transformed by the model and re-summed.  Both
paths are validated against the scalar reference engine in the test suite.

Fast math
---------
The clean accumulator is computed by the shared exact integer GEMM core
(:mod:`repro.runtime.gemm`): im2col keeps the int8 patches narrow all the
way to the GEMM boundary and the contraction runs on BLAS float32 kernels
whose exactness is certified by an overflow bound — bit-identical to the
original int64 einsum, several times faster.  A layer deeper than one
certified SGEMM (``IC * K**2`` > 1023 for int8, e.g. every layer-4 3x3 conv)
is split along K into chunks that are each certified on their own, and the
chunk results are summed in int64.
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.geometry import ArrayGeometry, PAPER_GEOMETRY
# Unused here: tracers wrap ``arrays_match`` in this module, like
# ``exact_matmul`` and ``im2col``.
from repro.accelerator.tape import arrays_match  # noqa: F401
from repro.faults.injector import InjectionConfig
from repro.faults.models import FaultModel, flip_int8_bytes
from repro.faults.sites import FaultSite
from repro.nn.functional import conv_output_size, im2col, window_view
from repro.quant.qlayers import QConv, QLinear
from repro.runtime.gemm import exact_matmul
from repro.utils.bitops import ACCUMULATOR_WIDTH, saturate
from repro.utils.profiling import PROFILER


def config_fusable(config: InjectionConfig) -> bool:
    """True when a configuration can join a fused multi-trial evaluation.

    Fused evaluation computes several trials' correction terms inside one
    engine pass, so every armed model must be a pure function of its inputs
    (and, for cycle-dependent models, of the schedule's cycle indices).
    Models that consume the engine's RNG stream (``rng_free = False``, e.g.
    :class:`~repro.faults.models.TransientPulse`) would observe a different
    draw order under fusion; such trials are evaluated one at a time.
    Memory-resident models are likewise excluded: they corrupt the staged
    operand bytes (weights, activations, input DMA) that a fused pass shares
    across all trials of the group.
    """
    return all(
        getattr(model, "rng_free", False) and model.stage != "memory"
        for model in config.faults.values()
    )


class VectorisedEngine:
    """Fast lane-accurate engine for conv/FC layers on the MAC array.

    Every layer evaluation — one configuration or a fused group of them —
    goes through :meth:`_accumulate`; the public ``*_accumulate`` and
    ``*_accumulate_fused`` methods only name its input form.
    """

    def __init__(
        self,
        geometry: ArrayGeometry = PAPER_GEOMETRY,
        rng: np.random.Generator | None = None,
    ):
        self.geometry = geometry
        self.rng = rng or np.random.default_rng(0)

    # ------------------------------------------------------------------
    # Layer evaluation (shared by conv and FC, one or many configurations)
    # ------------------------------------------------------------------
    def _clean_parts(
        self, make_cols, w_mat: np.ndarray, record: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, clean acc)`` of one layer evaluation.

        One im2col + GEMM: for a shared input (the taped clean input under
        a live datapath fault, or any input of an untaped pass) it runs
        once for the whole group, for a group of diverged trials it is one
        stacked GEMM.  The accumulator is always a fresh buffer the caller
        may correct and saturate in place.  An op with no live fault on a
        taped chunk never gets here: the op loop serves its taped output
        outright.  ``record`` (the baseline pass that records the tape)
        only names the profile stage the GEMM is charged to.
        """
        start = PROFILER.tick()
        cols = make_cols()
        acc = exact_matmul(w_mat, cols)
        PROFILER.tock("tape_build" if record else "suffix_forward", start)
        return cols, acc

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
    ) -> np.ndarray:
        """Saturated accumulators of ``len(configs)`` trials of one layer.

        Exactly one input form describes the layer input:

        * ``x_clean`` — one input shared by every trial (e.g. the taped
          clean input); the clean GEMM runs once for the whole group and
          only the per-trial correction terms are evaluated per trial.
        * ``x_stack`` — diverged inputs stacked as ``(G*N, ...)``; one
          stacked im2col + GEMM replaces G per-trial passes.

        With a single configuration, its dwell-active memory faults corrupt
        the staged operands first (memory models never join a fused group,
        see :func:`config_fusable`).  Returns the stack ``(G*N, OC, OH, OW)``
        for a convolution or ``(G*N, OUT)`` for a fully-connected layer.

        ``positions`` (with ``x_stack`` and no datapath fault) computes only
        the listed output positions: index arrays ``(sample, y, x)`` for a
        convolution or ``(sample,)`` for a fully-connected layer, as
        :func:`numpy.nonzero` returns them.  Their im2col columns are
        gathered into one ``(D, R)`` GEMM and the result is ``(D, OC)``.
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
            out_shape = (
                out_channels,
                conv_output_size(h, k, node.stride, node.padding),
                conv_output_size(w, k, node.stride, node.padding),
            )
            w_mat = weight.reshape(out_channels, -1)  # int8, (OC, IC*K*K)
            kernel_elems = k * k
            # int8 patches, (N, IC*K*K, P) — narrow until the GEMM boundary
            make_cols = lambda: im2col(x, k, node.stride, node.padding)  # noqa: E731
        else:
            in_channels = x.shape[1]
            out_channels, in_w = weight.shape
            if in_channels != in_w:
                raise ValueError(
                    f"{node.name}: input features {in_channels} != weight {in_w}"
                )
            # An FC layer is a 1x1 convolution over a 1x1 feature map on this
            # datapath; reuse the convolution fault arithmetic with P == 1.
            out_shape = (out_channels,)
            w_mat = weight  # int8, (OUT, IN)
            kernel_elems = 1
            make_cols = lambda: x.reshape(x.shape[0], in_channels, 1)  # noqa: E731

        if positions is not None:
            if any(config.enabled for config in configs):
                raise ValueError("gathered positions carry no datapath fault correction")
            return self._gathered(node, x, weight, positions)
        cols, acc = self._clean_parts(make_cols, w_mat, record)
        shared = x_stack is None
        if shared and groups > 1:
            acc = np.tile(acc, (groups, 1, 1))
        for g, config in enumerate(configs):
            if not config.enabled:
                continue
            self._validate_stage_combination(config)
            rows = slice(g * per_trial, (g + 1) * per_trial)
            self._apply_config(
                acc[rows], cols if shared else cols[rows], w_mat,
                out_channels, in_channels, kernel_elems, config,
            )
        # 34-bit accumulator saturation, in place.
        acc = saturate(acc, ACCUMULATOR_WIDTH, out=acc)
        return acc.reshape((groups * per_trial,) + out_shape)

    def _gathered(
        self,
        node: QConv | QLinear,
        x: np.ndarray,
        weight: np.ndarray,
        positions: tuple[np.ndarray, ...],
    ) -> np.ndarray:
        """Saturated ``(D, OC)`` accumulators of the listed output positions.

        A conv gathers channels-last windows ``(D, K, K, IC)`` and contracts
        them with the weights permuted to the same ``(ky, kx, ic)`` order;
        integer sums are exact in any order.
        """
        start = PROFILER.tick()
        if isinstance(node, QConv):
            windows = window_view(x, node.kernel_size, node.stride, node.padding)
            cols = windows[positions]  # (D, K, K, IC)
            weight = weight.transpose(0, 2, 3, 1)
        else:
            cols = x[positions[0]]
        depth = weight[0].size
        acc = exact_matmul(cols.reshape(-1, depth), weight.reshape(-1, depth).T)
        PROFILER.tock("suffix_forward", start)
        return saturate(acc, ACCUMULATOR_WIDTH, out=acc)

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
    ) -> np.ndarray:
        """Accumulators of ``len(configs)`` trials of one layer in one pass.

        See :meth:`_accumulate` for the input forms and ``positions``;
        ``record`` is set on the fault-free baseline pass that records the
        tape.  The stack is bit-identical to concatenating G single-trial
        ``conv_accumulate`` calls.
        """
        return self._accumulate(
            node, configs, per_trial, x_stack, x_clean, exec_index, record, positions
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

    def _apply_config(
        self,
        acc_view: np.ndarray,
        cols: np.ndarray,
        w_mat: np.ndarray,
        out_channels: int,
        in_channels: int,
        kernel_elems: int,
        config: InjectionConfig,
    ) -> None:
        """Add one configuration's correction terms to ``acc_view`` in place.

        ``acc_view`` must be writable (a fresh copy or a slice of a fused
        accumulator stack) and hold the *clean* accumulator of the samples
        that ``cols`` describes.  Shared by the single-trial path and the
        fused multi-trial path, so both produce bit-identical corrections.
        """
        start = PROFILER.tick()
        for site, model in config.faults.items():
            site.validate(self.geometry.num_macs, self.geometry.muls_per_mac)
            correction = self._site_correction(
                cols, w_mat, out_channels, in_channels, kernel_elems, site, model
            )
            if correction is None:
                continue
            oc_sel, delta = correction
            acc_view[:, oc_sel, :] += delta
        PROFILER.tock("correction", start)

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
        ``inner`` the ``cg * K^2 + e`` term of each affected im2col row; the
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
        cols: np.ndarray,
        w_mat: np.ndarray,
        oc_sel: np.ndarray,
        in_channels: int,
        kernel_elems: int,
        model: FaultModel,
    ) -> np.ndarray:
        """Correction for an accumulator-stage fault on one MAC unit.

        The fault transforms every partial sum the MAC unit forwards to the
        CACC — one per (channel group, kernel element) atomic operation — so
        the affected partial sums are materialised by grouping the im2col
        rows into atomic-C lanes (padding lanes contribute zero, exactly as
        the zero-padded hardware lanes do) and the correction is the summed
        difference between the faulty and the clean partials.
        """
        atomic_c = self.geometry.atomic_c
        channel_groups = self.geometry.channel_groups(in_channels)
        n_batch, _, positions = cols.shape
        n_out = oc_sel.size
        padded_channels = channel_groups * atomic_c

        w_g = np.zeros((n_out, padded_channels, kernel_elems), dtype=np.int64)
        w_g[:, :in_channels, :] = (
            w_mat[oc_sel].astype(np.int64).reshape(n_out, in_channels, kernel_elems)
        )
        w_g = w_g.reshape(n_out, channel_groups, atomic_c, kernel_elems)
        cols_g = np.zeros(
            (n_batch, padded_channels, kernel_elems, positions), dtype=np.int64
        )
        cols_g[:, :in_channels] = (
            cols.astype(np.int64).reshape(n_batch, in_channels, kernel_elems, positions)
        )
        cols_g = cols_g.reshape(n_batch, channel_groups, atomic_c, kernel_elems, positions)

        # One partial sum per (sample, output channel, channel group, kernel
        # element, position): the lane axis is contracted by the adder tree.
        # The generic int64 einsum is acceptable here because, like the
        # value-dependent product path, it only touches the armed MAC's
        # ~1/atomic_k slice of the layer; the clean accumulator itself still
        # comes from the BLAS-backed GEMM core.
        partials = np.einsum("ogle,nglep->nogep", w_g, cols_g)
        faulty = model.apply(partials, self.rng)
        return (faulty - partials).sum(axis=(2, 3))

    def _site_correction(
        self,
        cols: np.ndarray,
        w_mat: np.ndarray,
        out_channels: int,
        in_channels: int,
        kernel_elems: int,
        site: FaultSite,
        model: FaultModel,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Correction term added to ``acc[:, oc_sel, :]`` for one fault site."""
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
                cols, w_mat, oc_sel, in_channels, kernel_elems, model
            )
            return oc_sel, delta

        ic_real = np.arange(site.multiplier, in_channels, atomic_c)
        channel_groups = self.geometry.channel_groups(in_channels)
        pad_lane_count = channel_groups - ic_real.size
        pad_terms = pad_lane_count * kernel_elems

        # Row r of the im2col buffer holds (channel r // K^2, kernel elem
        # r % K^2); the faulty lane touches every kernel element of its
        # channels, i.e. the K^2-blocks starting at ic_real * K^2.
        rows = (ic_real[:, None] * kernel_elems + np.arange(kernel_elems)[None, :]).ravel()
        n_batch, _, positions = cols.shape

        constant = model.constant_override()
        if constant is not None and not model.value_dependent:
            total_terms = rows.size + pad_terms
            if rows.size:
                w_sub = w_mat[np.ix_(oc_sel, rows)]
                cols_sub = cols[:, rows, :]
                true_contrib = exact_matmul(w_sub, cols_sub)
            else:
                true_contrib = np.zeros((n_batch, oc_sel.size, positions), dtype=np.int64)
            delta = np.int64(constant) * total_terms - true_contrib
            return oc_sel, delta

        if model.cycle_dependent:
            return oc_sel, self._cyclic_delta(
                cols, w_mat, oc_sel, in_channels, kernel_elems, out_channels,
                ic_real, rows, site, model,
            )

        # Value-dependent path: materialise the affected products.
        delta = np.zeros((n_batch, oc_sel.size, positions), dtype=np.int64)
        if rows.size:
            w_sub = w_mat[np.ix_(oc_sel, rows)].astype(np.int64)  # (O, R)
            cols_sub = cols[:, rows, :].astype(np.int64)  # (N, R, P)
            products = w_sub[None, :, :, None] * cols_sub[:, None, :, :]  # (N, O, R, P)
            faulty = model.apply(products, self.rng)
            delta += (faulty - products).sum(axis=2)
        if pad_terms:
            pad_products = np.zeros((n_batch, oc_sel.size, pad_terms, positions), dtype=np.int64)
            pad_faulty = model.apply(pad_products, self.rng)
            delta += pad_faulty.sum(axis=2)
        return oc_sel, delta

    def _cyclic_delta(
        self,
        cols: np.ndarray,
        w_mat: np.ndarray,
        oc_sel: np.ndarray,
        in_channels: int,
        kernel_elems: int,
        out_channels: int,
        ic_real: np.ndarray,
        rows: np.ndarray,
        site: FaultSite,
        model: FaultModel,
    ) -> np.ndarray:
        """Correction for a cycle-dependent product-stage fault on one site.

        The faulty value of each affected product depends on the atomic
        operation that produced it, so the cycle index of every affected
        term (real lanes *and* zero-padded lanes, which still cycle in
        hardware) is reconstructed from the schedule and handed to the
        model together with the materialised products.
        """
        atomic_c = self.geometry.atomic_c
        atomic_k = self.geometry.atomic_k
        channel_groups = self.geometry.channel_groups(in_channels)
        kernel_groups = self.geometry.kernel_groups(out_channels)
        pad_lane_count = channel_groups - ic_real.size
        n_batch, _, positions = cols.shape
        kg_sel = oc_sel // atomic_k
        elems = np.arange(kernel_elems, dtype=np.int64)

        delta = np.zeros((n_batch, oc_sel.size, positions), dtype=np.int64)
        if rows.size:
            inner = ((ic_real // atomic_c)[:, None] * kernel_elems + elems[None, :]).ravel()
            cycles = self._cycle_indices(
                n_batch, positions, kernel_groups, channel_groups, kernel_elems,
                kg_sel, inner,
            )
            w_sub = w_mat[np.ix_(oc_sel, rows)].astype(np.int64)  # (O, R)
            cols_sub = cols[:, rows, :].astype(np.int64)  # (N, R, P)
            products = w_sub[None, :, :, None] * cols_sub[:, None, :, :]  # (N, O, R, P)
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
