"""Per-layer metrics and per-op rows from the spans of one traced round.

A span is ``[id, parent, name, op, start, end, attrs]`` (see
:mod:`spantrace`); ids and parents are local to the process that recorded
the span.  Self time is a span's duration minus the durations of its
direct children.  Compute-layer numbers (accelerator, engine, GEMM,
im2col, SDP/PDP, tape matching) count only spans inside a fault trial,
i.e. under a ``runtime.accuracy``/``runtime.accuracy_multi`` span that is
not part of the fault-free baseline pass; set-up layers count every call.
"""

from __future__ import annotations

from collections import defaultdict

#: Per-layer metric name -> unit, in the order they are reported.
UNITS: dict[str, str] = {
    "zoo.load_s": "s",
    "compiler.compile_s": "s",
    "platform.baseline_s": "s",
    "platform.fused_groups": "count",
    "platform.trials_per_group": "trials",
    "runtime.trial_ms_p50": "ms",
    "runtime.trial_ms_p90": "ms",
    "runtime.calls": "count",
    "accelerator.execute_self_s": "s",
    "accelerator.execute_fused_self_s": "s",
    "engine.correction_self_s": "s",
    "engine.calls": "count",
    "gemm.s": "s",
    "gemm.calls": "count",
    "gemm.gmac": "GMAC",
    "gemm.gops_per_s": "GOP/s",
    "gemm.float32_calls": "count",
    "gemm.float64_calls": "count",
    "gemm.int64_calls": "count",
    "im2col.s": "s",
    "im2col.mb": "MB",
    "sdp.requant_s": "s",
    "sdp.add_s": "s",
    "sdp.pool_s": "s",
    "tape.layer_hit_rate": "ratio",
    "tape.segment_hit_rate": "ratio",
    "tape.match_s": "s",
    "tape.mb": "MB",
    "parallel.first_record_s": "s",
    "parallel.worker_build_s": "s",
    "parallel.shard_imbalance": "ratio",
    "supervisor.reclaimed": "count",
    "service.lease_grants": "count",
    "service.empty_poll_fraction": "ratio",
    "service.record_posts": "count",
    "service.handler_ms_p50": "ms",
    "service.node_idle_s": "s",
    "service.reclaimed": "count",
    "durable.writes": "count",
    "durable.s": "s",
    "attributed_fraction": "ratio",
    "tracing_overhead": "ratio",
}

_TRIAL_ROOTS = ("runtime.accuracy", "runtime.accuracy_multi")
#: Spans whose self time is attributed work inside a trial.
_LEAVES = ("gemm", "im2col", "engine", "sdp.requant", "sdp.add", "sdp.pool", "tape.match")
_HANDLERS = ("service.grant", "service.add_records", "service.heartbeat", "service.complete")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class _Process:
    """One process's spans with parent links resolved."""

    def __init__(self, dump: dict):
        self.dump = dump
        self.spans = {s[0]: s for s in dump["spans"]}
        self.children: dict[int, list] = defaultdict(list)
        for span in dump["spans"]:
            self.children[span[1]].append(span)
        #: span id -> id of the enclosing trial span, "baseline", or None.
        self._context: dict[int, int | str | None] = {}

    def self_time(self, span) -> float:
        return (span[5] - span[4]) - sum(c[5] - c[4] for c in self.children[span[0]])

    def _context_of(self, span) -> int | str | None:
        if span[0] in self._context:
            return self._context[span[0]]
        parent = self.spans.get(span[1])
        context = self._context_of(parent) if parent is not None else None
        if context is None:
            if span[2] == "platform.baseline":
                context = "baseline"
            elif span[2] in _TRIAL_ROOTS:
                context = span[0]
        self._context[span[0]] = context
        return context

    def trial_of(self, span) -> int | None:
        """Id of the trial span enclosing ``span`` (None outside trials)."""
        context = self._context_of(span)
        return context if isinstance(context, int) else None

    def op_of(self, span) -> str | None:
        node = span
        while node is not None:
            if node[3] is not None:
                return node[3]
            node = self.spans.get(node[1])
        return None


def analyse(dumps: list[dict], info: dict) -> tuple[dict[str, float], dict[str, dict]]:
    """``(per-layer metrics, per-op rows)`` of one traced round.

    ``info`` carries what the round measured outside the spans:
    ``first_record_s``, ``supervisor_reclaimed``, ``service_reclaimed``
    and, for fleet rounds, ``job_done_at`` (clock of the job's end).
    """
    procs = [_Process(d) for d in dumps]
    m: dict[str, float] = {}
    ops: dict[str, dict] = defaultdict(lambda: defaultdict(float))

    def spans(*names):
        for proc in procs:
            for span in proc.dump["spans"]:
                if span[2] in names:
                    yield proc, span

    def dur(span) -> float:
        return span[5] - span[4]

    m["zoo.load_s"] = _mean(dur(s) for _, s in spans("zoo.load"))
    m["compiler.compile_s"] = _mean(dur(s) for _, s in spans("compiler.compile"))
    m["platform.baseline_s"] = _mean(dur(s) for _, s in spans("platform.baseline"))
    m["parallel.worker_build_s"] = _mean(dur(s) for _, s in spans("parallel.build"))

    trial_ms: list[float] = []
    trial_wall = 0.0
    calls = groups = trials = 0
    shard_walls: list[float] = []
    for proc in procs:
        last_end = None
        for span in proc.dump["spans"]:
            if span[2] not in _TRIAL_ROOTS or proc.trial_of(span) != span[0]:
                continue
            calls += 1
            trial_wall += dur(span)
            last_end = max(last_end or span[5], span[5])
            if span[2] == "runtime.accuracy":
                trial_ms.append(dur(span) * 1e3)
                trials += 1
            else:
                groups += 1
                group = span[6]["trials"]
                trial_ms.extend([dur(span) * 1e3 / group] * group)
                trials += group
        if last_end is not None:
            shard_walls.append(last_end - proc.dump["started"])
    m["platform.fused_groups"] = groups
    m["platform.trials_per_group"] = trials / calls if calls else 0.0
    m["runtime.trial_ms_p50"] = _quantile(trial_ms, 0.5)
    m["runtime.trial_ms_p90"] = _quantile(trial_ms, 0.9)
    m["runtime.calls"] = calls

    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    macs = 0
    tiers: dict[str, int] = defaultdict(int)
    im2col_bytes = 0
    for proc in procs:
        for span in proc.dump["spans"]:
            name = span[2]
            if name not in _LEAVES and not name.startswith("accelerator."):
                continue
            if proc.trial_of(span) is None:
                continue
            own = proc.self_time(span)
            totals[name] += own
            counts[name] += 1
            if name.startswith("accelerator."):
                continue
            row = ops[proc.op_of(span) or "(none)"]
            attrs = span[6] or {}
            if name == "gemm":
                macs += attrs["macs"]
                tiers[attrs["tier"]] += 1
                row["gemm_s"] += own
                row["gemm_calls"] += 1
                row["gmac"] += attrs["macs"] / 1e9
                row[f"gemm_{attrs['tier']}_calls"] += 1
            elif name == "im2col":
                im2col_bytes += attrs["bytes"]
                row["im2col_s"] += own
                row["im2col_mb"] += attrs["bytes"] / 1e6
            elif name == "engine":
                row["correction_s"] += own
                row["engine_calls"] += 1
                hit = attrs.get("clean_entry") or any(
                    c[2] == "tape.match" and c[6]["hit"] for c in proc.children[span[0]]
                )
                row["tape_hits" if hit else "tape_misses"] += 1
            elif name.startswith("sdp."):
                row[name[len("sdp."):] + "_s"] += own
            elif name == "tape.match":
                row["match_s"] += own
    m["accelerator.execute_self_s"] = totals["accelerator.execute"]
    m["accelerator.execute_fused_self_s"] = totals["accelerator.execute_fused"]
    m["engine.correction_self_s"] = totals["engine"]
    m["engine.calls"] = counts["engine"]
    m["gemm.s"] = totals["gemm"]
    m["gemm.calls"] = counts["gemm"]
    m["gemm.gmac"] = macs / 1e9
    m["gemm.gops_per_s"] = 2 * macs / 1e9 / totals["gemm"] if totals["gemm"] else 0.0
    for tier in ("float32", "float64", "int64"):
        m[f"gemm.{tier}_calls"] = tiers[tier]
    m["im2col.s"] = totals["im2col"]
    m["im2col.mb"] = im2col_bytes / 1e6
    m["sdp.requant_s"] = totals["sdp.requant"]
    m["sdp.add_s"] = totals["sdp.add"]
    m["sdp.pool_s"] = totals["sdp.pool"]
    m["tape.match_s"] = totals["tape.match"]
    for row in ops.values():
        if row.get("gemm_s"):
            row["gops_per_s"] = 2 * row["gmac"] / row["gemm_s"]

    tapes = [t for d in dumps for t in d.get("tapes", [])]
    layer_hits = sum(t["layer_hits"] for t in tapes)
    layer_lookups = layer_hits + sum(t["layer_misses"] for t in tapes)
    segment_hits = sum(t["segment_hits"] for t in tapes)
    segment_lookups = segment_hits + sum(t["segment_misses"] for t in tapes)
    m["tape.layer_hit_rate"] = layer_hits / layer_lookups if layer_lookups else 0.0
    m["tape.segment_hit_rate"] = segment_hits / segment_lookups if segment_lookups else 0.0
    m["tape.mb"] = _mean(t["bytes"] / 1e6 for t in tapes)

    m["parallel.first_record_s"] = info["first_record_s"]
    m["parallel.shard_imbalance"] = (
        max(shard_walls) / _mean(shard_walls) if shard_walls else 0.0
    )
    m["supervisor.reclaimed"] = info.get("supervisor_reclaimed", 0)

    done_at = info.get("job_done_at")
    polls = [s for _, s in spans("service.request_lease") if done_at is None or s[5] <= done_at]
    empty = [s for s in polls if s[6]["empty"]]
    m["service.lease_grants"] = sum(1 for _, s in spans("service.grant") if s[6]["granted"])
    m["service.empty_poll_fraction"] = len(empty) / len(polls) if polls else 0.0
    m["service.record_posts"] = sum(1 for _ in spans("service.add_records"))
    m["service.handler_ms_p50"] = _quantile([dur(s) * 1e3 for _, s in spans(*_HANDLERS)], 0.5)
    m["service.node_idle_s"] = sum(s[6]["retry_after"] for s in empty)
    m["service.reclaimed"] = info.get("service_reclaimed", 0)

    durable = [
        s
        for proc, s in spans("durable.write", "durable.fsync")
        if s[2] == "durable.write" or proc.spans.get(s[1], (0, 0, ""))[2] != "durable.write"
    ]
    m["durable.writes"] = len(durable)
    m["durable.s"] = sum(dur(s) for s in durable)

    attributed = sum(totals[name] for name in _LEAVES)
    m["attributed_fraction"] = attributed / trial_wall if trial_wall else 0.0
    return m, {op: dict(row) for op, row in sorted(ops.items())}
