"""The clean-activation tape: delta-propagation state for fault trials.

A fault-injection campaign evaluates one *frozen* image batch under many
injection configurations.  Every trial's forward pass is therefore a small
perturbation of one fully known computation — the fault-free ("clean")
forward that established the baseline accuracy.  The
:class:`CleanForwardTape` records that clean computation once per
(platform, batch chunk): for every op of the execution plan it stores the
clean input activations, the clean output activation and — for conv/FC
layers — the im2col buffer and the raw clean accumulator.

With the tape armed, a trial does **delta propagation** instead of a full
re-execution:

* an op whose inputs equal the clean inputs and at which no fault is live
  (any non-GEMM op; a conv/FC op outside every dwell window with no
  datapath fault armed) is skipped outright — its output *is* the taped
  output;
* a conv/FC layer with a live datapath fault on the clean input skips
  im2col and the GEMM; the faulty accumulator is ``taped clean accumulator
  + correction term`` (the correction and requant are the per-trial work);
* an op whose output comes out byte-identical to the taped clean output
  (a masked fault) hands the *taped object* downstream, so everything after
  the re-convergence point is skipped by pointer identity alone;
* inside the diverged suffix of a trial with no datapath fault, only the
  *dirty region* is re-executed: each diverged activation carries a
  per-sample mask of the positions where it differs from the tape, an op
  recomputes just the output positions whose receptive field touches a
  dirty input position (or a byte an activation flip corrupts), and every
  other position is copied from the taped output.  This is DeltaCNN-style
  sparse delta propagation (Parger et al., CVPR 2022) with the taped clean
  forward as the previous frame.

Only the *suffix* of the network that actually diverges from the clean
forward is ever re-executed, and because values are substituted strictly
under byte equality — a clean position's receptive field is byte-equal to
the tape's — the trial logits are bit-identical to a full forward by
construction (the property-test suite certifies this for every fault-model
family).  ``positions_recomputed`` / ``positions_total`` in
:meth:`CleanForwardTape.stats` count the output positions the re-executed
ops computed against the positions they hold.

The tape is the platform's only clean-state store.  It is keyed by the
evaluation loop's chunk coordinates and verified once per chunk with a
single memcmp of the quantised input, after which hits are
pointer-identity checks.  Memory is bounded by a byte budget
(:attr:`CleanForwardTape.max_bytes`): when the clean pass records more than
fits, the least recently used chunk segments are dropped and trials on
those chunks fall back to full re-execution — partial reuse, never
unbounded memory.  Dropped segments are counted (``segments_dropped`` in
:meth:`CleanForwardTape.stats`) and logged once per recording pass.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.utils.logging import get_logger

logger = get_logger(__name__)


def _readonly(array: np.ndarray) -> np.ndarray:
    """Mark an array immutable so taped state can be shared across trials.

    A view is returned when the array is already a base array; flags are set
    on the object itself otherwise.  Either way, accidental in-place writes
    through the taped reference raise instead of corrupting future trials.
    """
    view = array.view()
    view.flags.writeable = False
    return view


def arrays_match(a: np.ndarray, b: np.ndarray) -> bool:
    """True when two activations are interchangeable (identity or bytes).

    Pointer identity is the fast path: taped outputs are propagated as the
    *same objects* through a trial's skipped prefix, so most checks succeed
    without touching the data.  The byte comparison backstop keeps the tape
    correct for callers that rebuild equal arrays (e.g. re-quantising the
    same image chunk).
    """
    if a is b:
        return True
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return bool(np.array_equal(a, b))


@dataclass
class TapeOpEntry:
    """Clean record of one op in one chunk segment.

    ``cols`` and ``acc`` are only present for conv/FC ops: the int8 im2col
    buffer and the raw (unsaturated) int64 clean accumulator.  ``inputs``
    and ``output`` are the int8 activations around the op (the output of a
    final classifier layer may be int64 logits).
    """

    inputs: tuple[np.ndarray, ...]
    output: np.ndarray
    cols: np.ndarray | None = None
    acc: np.ndarray | None = None


class TapeSegment:
    """The clean forward of one evaluation-batch chunk, op by op."""

    def __init__(self, chunk_key: tuple, qinput: np.ndarray):
        #: (start, length) coordinates of the chunk in the evaluation loop.
        self.chunk_key = chunk_key
        #: Quantised int8 input of the chunk; trials verify their own
        #: quantised input against it (one memcmp) before trusting the
        #: segment, so keying can never produce a wrong result.
        self.qinput = _readonly(qinput)
        self._ops: dict[str, TapeOpEntry] = {}
        #: One read-only view per *distinct* recorded activation, keyed by
        #: the id of the array the clean pass produced.  Interning is what
        #: makes replay identity checks work: op k's taped output and op
        #: k+1's taped input are the SAME object, so a replayed prefix that
        #: propagates taped outputs matches downstream inputs by pointer.
        self._views: dict[int, np.ndarray] = {id(qinput): self.qinput}
        #: GEMM parts stashed by the engine mid-op (the engine sees cols and
        #: the raw accumulator; the accelerator sees inputs and the post-SDP
        #: output — :meth:`record` joins the two halves).
        self._stash: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _intern(self, array: np.ndarray) -> np.ndarray:
        view = self._views.get(id(array))
        if view is None:
            view = _readonly(array)
            self._views[id(array)] = view
        return view

    def stash_gemm(self, name: str, cols: np.ndarray, acc: np.ndarray) -> None:
        """Deposit a conv/FC op's clean GEMM parts for the pending record."""
        self._stash[name] = (cols, acc)

    def record(
        self,
        name: str,
        inputs: tuple[np.ndarray, ...],
        output: np.ndarray,
    ) -> None:
        cols, acc = self._stash.pop(name, (None, None))
        self._ops[name] = TapeOpEntry(
            inputs=tuple(self._intern(x) for x in inputs),
            output=self._intern(output),
            cols=None if cols is None else _readonly(cols),
            acc=None if acc is None else _readonly(acc),
        )

    def entry(self, name: str) -> TapeOpEntry | None:
        return self._ops.get(name)

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def nbytes(self) -> int:
        """Resident payload bytes, counting each distinct activation once.

        Consecutive ops share activation buffers (op k's output is op
        k+1's input); summing per-entry would double-charge them and make
        the LRU evict at half the configured budget.
        """
        total = sum(view.nbytes for view in self._views.values())
        for entry in self._ops.values():
            if entry.cols is not None:
                total += entry.cols.nbytes
            if entry.acc is not None:
                total += entry.acc.nbytes
        return total


class CleanForwardTape:
    """LRU store of :class:`TapeSegment` objects under one byte budget.

    Lifecycle (driven by the platform):

    1. :meth:`start_recording` — the fault-free baseline pass is about to
       run; existing segments are dropped.
    2. the accelerator records one segment per batch chunk as the clean
       pass executes (:meth:`begin_segment` / :meth:`commit_segment`);
    3. :meth:`finish_recording` — the tape freezes; campaign trials only
       ever *read* it (:meth:`segment_for`), so a trial's one-shot faulty
       activations can never pollute it.
    """

    #: Default ceiling on taped payload bytes across all segments.
    DEFAULT_MAX_BYTES = 256 << 20

    def __init__(self, max_bytes: int | None = None):
        self.max_bytes = self.DEFAULT_MAX_BYTES if max_bytes is None else max_bytes
        if self.max_bytes <= 0:
            raise ValueError("tape byte budget must be positive (use tape=None to disable)")
        self._segments: OrderedDict[tuple, TapeSegment] = OrderedDict()
        self._bytes = 0
        self.recording = False
        self.hits = 0
        self.misses = 0
        #: Layer-level counters kept by the accelerator's op loop: GEMMs
        #: served from the tape vs recomputed (diverged input or a
        #: dwelling memory flip).
        self.layer_hits = 0
        self.layer_misses = 0
        #: Recorded segments the byte budget could not keep (oversized or
        #: LRU-evicted); their chunks re-execute in full during trials.
        self.segments_dropped = 0
        #: Output positions (sample x y x x, or samples for GAP/FC) of the
        #: ops re-executed on a taped chunk: computed vs held.
        self.positions_recomputed = 0
        self.positions_total = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start_recording(self) -> None:
        self.clear()
        self.recording = True

    def finish_recording(self) -> None:
        self.recording = False
        if self.segments_dropped:
            logger.warning(
                "clean-activation tape dropped %d chunk segment(s) over its "
                "%d-byte budget; those chunks re-execute in full during trials "
                "(raise tape_bytes to keep them)",
                self.segments_dropped,
                self.max_bytes,
            )

    def begin_segment(self, chunk_key: tuple, qinput: np.ndarray) -> TapeSegment:
        """Open a fresh segment for one chunk of the clean pass."""
        if not self.recording:
            raise RuntimeError("tape is not recording; call start_recording() first")
        return TapeSegment(chunk_key, qinput)

    def commit_segment(self, segment: TapeSegment) -> None:
        """Insert a fully recorded segment, evicting LRU ones over budget.

        A single segment larger than the whole budget is discarded (keeping
        it would evict every other chunk for one oversized entry) — the
        affected chunk simply re-executes in full during trials.  Both
        discards and evictions count towards ``segments_dropped``.
        """
        nbytes = segment.nbytes
        if nbytes > self.max_bytes:
            self.segments_dropped += 1
            return
        previous = self._segments.pop(segment.chunk_key, None)
        if previous is not None:
            self._bytes -= previous.nbytes
        self._segments[segment.chunk_key] = segment
        self._bytes += nbytes
        while self._bytes > self.max_bytes and len(self._segments) > 1:
            _, evicted = self._segments.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.segments_dropped += 1

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def segment_for(self, chunk_key: tuple | None, qinput: np.ndarray) -> TapeSegment | None:
        """The verified segment for a chunk, or ``None`` (full re-execution).

        The caller's freshly quantised input must match the recorded one —
        this is what makes the chunk key a pure performance hint: a stale
        key (different dataset, different slicing) degrades to a miss
        instead of ever replaying the wrong clean forward.
        """
        if chunk_key is None:
            return None
        segment = self._segments.get(chunk_key)
        if segment is None or not arrays_match(qinput, segment.qinput):
            self.misses += 1
            return None
        self._segments.move_to_end(chunk_key)
        self.hits += 1
        return segment

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._segments.clear()
        self._bytes = 0
        self.recording = False
        self.hits = 0
        self.misses = 0
        self.layer_hits = 0
        self.layer_misses = 0
        self.segments_dropped = 0
        self.positions_recomputed = 0
        self.positions_total = 0

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def max_accumulator_bytes_per_sample(self) -> int | None:
        """Largest per-sample accumulator footprint across taped layers.

        The fused multi-trial path uses this to cap stack sizes: stacked
        intermediates beyond the cache hierarchy cost more than the
        dispatch overhead fusing saves.  ``None`` when nothing is taped.
        """
        best = 0
        for segment in self._segments.values():
            samples = max(1, segment.qinput.shape[0])
            for entry in segment._ops.values():
                if entry.acc is not None:
                    best = max(best, entry.acc.nbytes // samples)
        return best or None

    def stats(self) -> dict[str, int | float]:
        total = self.layer_hits + self.layer_misses
        return {
            "segments": len(self),
            "bytes": self._bytes,
            "segment_hits": self.hits,
            "segment_misses": self.misses,
            "layer_hits": self.layer_hits,
            "layer_misses": self.layer_misses,
            "layer_hit_rate": (self.layer_hits / total) if total else 0.0,
            "segments_dropped": self.segments_dropped,
            "positions_recomputed": self.positions_recomputed,
            "positions_total": self.positions_total,
            "recording": self.recording,
        }
