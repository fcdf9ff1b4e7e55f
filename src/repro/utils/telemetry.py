"""Structured telemetry: stage totals, spans and counters for the execution stack.

The process-global :data:`TELEMETRY` sink is the one instrumentation
primitive.  It does two things:

* **Stage totals** (always on).  The trial engine brackets its stages (tape
  build, correction, suffix forward, requant) with :meth:`TelemetrySink.tick`
  / :meth:`TelemetrySink.tock`, which add wall seconds and a call to the
  stage's running total.  Totals only grow; a
  :class:`~repro.core.parallel.TrialServer` reports the delta since it was
  built, so nothing ever resets them.
* **Trace stream** (opt-in).  ``repro campaign --trace trace.jsonl`` /
  ``repro sweep --trace trace.jsonl`` arm the sink to stream span, counter,
  and point events as JSON lines.  While disabled (the default) every
  trace site costs a single attribute check.

Both are strictly observational — wall times never feed back into campaign
records, so a traced run is byte-identical to an untraced one.

Record shapes (one JSON object per line)::

    {"event": "span",    "name": ..., "seq": n, "t": start, "dur": seconds, ...attrs}
    {"event": "point",   "name": ..., "seq": n, "t": offset, ...attrs}
    {"event": "counter", "name": ..., "seq": n, "t": offset, "value": v, ...attrs}

``t`` is seconds since the sink was configured (monotonic), ``seq`` is a
per-sink ordinal so readers can reconstruct emission order even when spans
nest.  Extra attributes are JSON-sanitised through the same rules as
:func:`repro.utils.jsonsafe.dump_json_safe` (non-finite floats become null).

The trace stream belongs to the parent process only: campaign workers
inherit a configured sink across ``fork`` but must not write to the shared
file descriptor, so :func:`repro.core.parallel._worker_setup` calls
:meth:`TelemetrySink.disable_inherited` first thing.  Stage totals are
per process; each worker's trial server ships its delta to the parent in
its stats message.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from typing import IO, Any, Iterator


def _sanitise(value: Any) -> Any:
    """Best-effort conversion to strict-JSON-safe scalars/containers."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _sanitise(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitise(v) for v in value]
    return str(value)


class TelemetrySink:
    """Keeps always-on stage totals and, while enabled, streams telemetry
    events to a JSONL file."""

    __slots__ = ("enabled", "_fh", "_t0", "_seq", "_lock", "_stages")

    def __init__(self) -> None:
        self.enabled = False
        #: ``stage -> [wall seconds, calls]``; only ever grows.
        self._stages: dict[str, list] = {}
        self._fh: IO[str] | None = None
        self._t0 = 0.0
        self._seq = 0
        # The campaign coordinator emits from ThreadingHTTPServer handler
        # threads; seq assignment and the line write must be atomic so
        # concurrent events neither interleave bytes nor share an ordinal.
        # Fleet nodes sharing one process (one per thread) tock the same
        # stage totals, so their read-modify-write takes the lock too.
        self._lock = threading.Lock()

    def configure(self, path: str) -> None:
        """Open ``path`` for writing and start accepting events."""
        self.close()
        self._fh = open(path, "w", encoding="utf-8")
        self._t0 = time.monotonic()
        self._seq = 0
        self.enabled = True

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
        self._fh = None
        self.enabled = False

    def disable_inherited(self) -> None:
        """Neutralise a sink inherited across ``fork`` (never closes the fd —
        the parent still owns it)."""
        self._fh = None
        self.enabled = False
        # A parent thread may have held the lock at fork time; the child's
        # copy would then never be released.
        self._lock = threading.Lock()

    @staticmethod
    def tick() -> float:
        """Start a stage measurement for :meth:`tock`."""
        return time.perf_counter()

    def tock(self, stage: str, start: float) -> None:
        """Add the wall time since :meth:`tick` and one call to ``stage``."""
        elapsed = time.perf_counter() - start
        with self._lock:
            entry = self._stages.get(stage)
            if entry is None:
                entry = self._stages[stage] = [0.0, 0]
            entry[0] += elapsed
            entry[1] += 1

    def stage_totals(self) -> dict[str, dict[str, float | int]]:
        """JSON-compatible ``{stage: {"seconds": ..., "calls": ...}}`` so far."""
        with self._lock:
            return {
                stage: {"seconds": seconds, "calls": calls}
                for stage, (seconds, calls) in sorted(self._stages.items())
            }

    def _emit(self, record: dict[str, Any]) -> None:
        with self._lock:
            if self._fh is None:
                return
            self._seq += 1
            record["seq"] = self._seq
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous point event."""
        if not self.enabled:
            return
        record = {"event": "point", "name": name, "t": time.monotonic() - self._t0}
        record.update(_sanitise(attrs))
        self._emit(record)

    def counter(self, name: str, value: float | int, **attrs: Any) -> None:
        """Record a named numeric sample (cache hit counts, rates, ...)."""
        if not self.enabled:
            return
        record = {
            "event": "counter",
            "name": name,
            "t": time.monotonic() - self._t0,
            "value": _sanitise(value),
        }
        record.update(_sanitise(attrs))
        self._emit(record)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time a block.  Yields a dict; keys added to it inside the block
        travel as extra attributes on the emitted span record."""
        if not self.enabled:
            yield {}
            return
        extra: dict[str, Any] = {}
        start = time.monotonic()
        try:
            yield extra
        finally:
            if self.enabled:
                record = {
                    "event": "span",
                    "name": name,
                    "t": start - self._t0,
                    "dur": time.monotonic() - start,
                }
                record.update(_sanitise(attrs))
                record.update(_sanitise(extra))
                self._emit(record)


#: Process-global sink (stage totals always on; ``--trace`` arms the stream).
TELEMETRY = TelemetrySink()
