"""Outside-in span tracing of the program's layers, for traced rounds.

Nothing inside ``src/`` knows about this module: :func:`install` replaces
public functions and methods of each layer with wrappers that record a
span (name, op key, start, end, parent span, a few attributes) and puts
the originals back on :meth:`Tracer.uninstall`.  Functions that a layer
imports by name (``exact_matmul`` and ``im2col`` in the engine,
``arrays_match``, the durable writers) are patched at their import sites.

Spans stay in memory.  Forked pool workers inherit the wrappers; each one
writes its spans to ``spans-<pid>.json`` in the trace directory when it
exits, and fleet workers do the same through ``fleet_worker.py``.  The
round process merges those files with its own spans in :mod:`layers`.
``time.perf_counter`` is the system-wide monotonic clock on Linux, so
spans of different processes share one time axis.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """The spans one process recorded, and the patches that record them."""

    def __init__(self, out_dir: Path | str):
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self.platforms: list = []
        self.started = _clock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, key=None, note=None, pre=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``key(args, kwargs)`` names the op the span belongs to;
        ``note(args, kwargs, result, token)`` returns extra attributes,
        with ``token`` whatever ``pre(args, kwargs)`` returned before the
        call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            token = pre(args, kwargs) if pre is not None else None
            stack.append(span_id)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
            tracer.spans.append((
                span_id,
                parent,
                name,
                key(args, kwargs) if key is not None else None,
                start,
                end,
                note(args, kwargs, result, token) if note is not None else None,
            ))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Per-process output
    # ------------------------------------------------------------------
    def dump(self) -> dict:
        tapes = [p.tape_stats() for p in self.platforms if p.tape_stats() is not None]
        return {
            "pid": os.getpid(),
            "started": self.started,
            "spans": self.spans,
            "tapes": tapes,
        }

    def flush(self) -> None:
        """Write this process's spans to ``spans-<pid>.json``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.dump()))

    def _after_fork(self) -> None:
        # A forked pool worker starts an empty record of its own and writes
        # it when multiprocessing runs its exit finalizers.
        self.spans = []
        self.platforms = []
        self.started = _clock()
        self._local = threading.local()
        mp_util.Finalize(None, self.flush, exitpriority=100)


def _node_name(index: int):
    def key(args, kwargs):
        node = args[index] if len(args) > index else kwargs.get("node")
        return getattr(node, "name", None)

    return key


def install(out_dir: Path | str) -> Tracer:
    """Wrap every traced layer of ``repro`` in this process."""
    import repro.accelerator.accelerator as accelerator_mod
    import repro.accelerator.engine as engine_mod
    import repro.core.parallel as parallel_mod
    import repro.core.platform as platform_mod
    import repro.core.sweep as sweep_mod
    import repro.service.jobs as jobs_mod
    import repro.utils.durable as durable_mod
    import repro.zoo as zoo_mod
    from repro.accelerator.pdp import PDP
    from repro.accelerator.sdp import SDP
    from repro.runtime.gemm import GEMM_STATS
    from repro.runtime.runtime import Runtime
    from repro.service.client import CoordinatorClient
    from repro.service.protocol import NoWork

    tracer = Tracer(out_dir)
    w = tracer.wrap

    w(zoo_mod, "train_case_study_model", "zoo.load")
    w(platform_mod, "compile_model", "compiler.compile")

    def keep_platform(args, kwargs, result, token):
        tracer.platforms.append(result)

    w(parallel_mod.PlatformSpec, "build", "parallel.build", note=keep_platform)

    P = platform_mod.EmulationPlatform
    w(P, "baseline_accuracy", "platform.baseline")
    w(P, "accuracies_with_faults", "platform.accuracies",
      note=lambda a, k, r, t: {"trials": len(a[1])})

    w(Runtime, "accuracy", "runtime.accuracy")
    w(Runtime, "accuracy_multi", "runtime.accuracy_multi",
      note=lambda a, k, r, t: {"trials": len(a[1])})

    A = accelerator_mod.NVDLAAccelerator
    w(A, "execute", "accelerator.execute")
    w(A, "execute_fused", "accelerator.execute_fused")

    E = engine_mod.VectorisedEngine
    w(E, "conv_accumulate", "engine", key=_node_name(2))
    w(E, "linear_accumulate", "engine", key=_node_name(2))
    fused_note = lambda a, k, r, t: {"clean_entry": k.get("clean_entry") is not None}  # noqa: E731
    w(E, "conv_accumulate_fused", "engine", key=_node_name(1), note=fused_note)
    w(E, "linear_accumulate_fused", "engine", key=_node_name(1), note=fused_note)

    def gemm_calls(args, kwargs):
        return (GEMM_STATS.float32_calls, GEMM_STATS.float64_calls, GEMM_STATS.int64_calls)

    def gemm_note(args, kwargs, result, before):
        # The tier is whichever kernel counter the call advanced.
        after = gemm_calls(args, kwargs)
        tier = ("float32", "float64", "int64")[
            next((i for i in range(3) if after[i] != before[i]), 2)
        ]
        return {"macs": int(result.size) * int(args[0].shape[-1]), "tier": tier}

    w(engine_mod, "exact_matmul", "gemm", pre=gemm_calls, note=gemm_note)
    w(engine_mod, "im2col", "im2col", note=lambda a, k, r, t: {"bytes": int(r.nbytes)})
    match_note = lambda a, k, r, t: {"hit": bool(r)}  # noqa: E731
    w(engine_mod, "arrays_match", "tape.match", note=match_note)
    w(accelerator_mod, "arrays_match", "tape.match", note=match_note)

    w(SDP, "conv_post_owned", "sdp.requant", key=_node_name(2))
    w(SDP, "elementwise_add_owned", "sdp.add", key=_node_name(3))
    w(SDP, "global_average_owned", "sdp.pool", key=_node_name(2))
    w(PDP, "max_pool", "sdp.pool", key=_node_name(2))

    F = jobs_mod.FleetJob
    w(F, "grant", "service.grant",
      note=lambda a, k, r, t: {"granted": r is not None})
    w(F, "add_records", "service.add_records")
    w(F, "heartbeat", "service.heartbeat")
    w(F, "complete", "service.complete")
    w(F, "write_artifacts", "service.write_artifacts")
    w(CoordinatorClient, "request_lease", "service.request_lease",
      note=lambda a, k, r, t: {
          "empty": isinstance(r, NoWork),
          "retry_after": getattr(r, "retry_after", 0.0) or 0.0,
      })

    for module in (jobs_mod, sweep_mod, durable_mod):
        if hasattr(module, "durable_write_text"):
            w(module, "durable_write_text", "durable.write")
    for module in (parallel_mod, durable_mod):
        w(module, "fsync_fileobj", "durable.fsync")

    mp_util.register_after_fork(tracer, Tracer._after_fork)
    return tracer
