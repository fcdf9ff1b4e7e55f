"""Append-only longitudinal store for reliability artifacts.

The store is a single JSONL file: one entry per line, written through
:func:`repro.utils.jsonsafe.dump_json_safe` with sorted keys and rewritten
in a deterministic order on every ingest — so ingesting the same artifacts
twice, or in a shuffled order, produces a byte-identical file.  Entries are
content-addressed (``id`` is the SHA-256 of the entry body), which makes
the store append-only in the useful sense: ingestion can only add new
entries or observe that an identical one already exists; nothing is ever
mutated or dropped.

Each entry carries:

* ``kind`` — ``sweep-scenario``, ``campaign``, ``profile``, ``perfbench``
  or ``benchmark``;
* ``version`` — a caller-supplied label (``--version``) or, for artifacts
  that carry one, the first 12 hex digits of their registry digest, so runs
  remain comparable across code versions without extra bookkeeping;
* ``key`` — the comparability key: registry digest, structure digest and
  scenario provenance where the artifact provides them;
* ``metrics`` — the recomputable summary statistics the trend engine
  consumes (counts, CIs with their endpoints, outcome tallies, throughput).

Artifact classification is structural, mirroring
:func:`repro.report.model.load_results`: a dict with a ``scenarios`` list is
a sweep, ``records`` + ``baseline_accuracy`` is a campaign, the
``profile``/``gemm`` shape written by ``--profile`` is a profile, a
``label`` + ``workloads`` trajectory file (``BENCH_<label>.json``, the
parent/change pairs of one perfbench comparison) is a perfbench result,
and any other JSON object is treated as a benchmark payload whose numeric
leaves are flattened into dotted metric paths.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.core.results import CampaignResult
from repro.core.sweep import _VOLATILE_KEYS
from repro.utils.durable import durable_write_text
from repro.utils.jsonsafe import dump_json_safe

#: Store schema version (bumped on breaking entry-shape changes).
STORE_VERSION = 1

_UNVERSIONED = "unversioned"


def _ci_width(ci: dict | None) -> float | None:
    if not ci:
        return None
    low, high = ci.get("low"), ci.get("high")
    if low is None or high is None:
        return None
    return high - low


def _campaign_metrics(result: CampaignResult) -> dict:
    """The trend-relevant slice of a campaign summary.

    Everything here is recomputable from the records (counts, CIs, outcome
    tallies) except ``throughput_trials_per_second``, which is explicitly
    observational and never participates in regression flags.
    """
    from repro.core import stats

    summary = result.summary()
    sdc = stats.sdc_count(summary["outcomes"])
    n = summary["num_trials"]
    wall = result.wall_seconds
    return {
        "num_trials": n,
        "baseline_accuracy": summary["baseline_accuracy"],
        "mean_accuracy_drop": summary["mean_accuracy_drop"],
        "std_accuracy_drop": summary["std_accuracy_drop"],
        "p95_accuracy_drop": summary["p95_accuracy_drop"],
        "confidence": summary["confidence"],
        "mean_drop_ci": summary["mean_drop_ci"],
        "mean_drop_ci_width": _ci_width(summary["mean_drop_ci"]),
        "mean_drop_ci_bootstrap": summary["mean_drop_ci_bootstrap"],
        "outcomes": summary["outcomes"],
        "sdc_count": sdc,
        "sdc_rate": summary["sdc_rate"],
        "sdc_rate_ci": summary["sdc_rate_ci"],
        "throughput_trials_per_second": (n / wall) if wall > 0 else None,
    }


def _campaign_structure_digest(result: CampaignResult) -> str:
    """Structure digest of a standalone campaign's records.

    Mirrors :meth:`repro.core.sweep.SweepResult.structure_digest` (volatile
    accuracy floats stripped) so campaign entries get the same
    cross-version comparability key as sweep scenarios.
    """
    hasher = hashlib.sha256()
    for record in result.records:
        line = record.to_dict()
        stripped = {k: v for k, v in line.items() if k not in _VOLATILE_KEYS}
        hasher.update(json.dumps(stripped, sort_keys=True).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _numeric_leaves(payload: Any, prefix: str = "") -> dict[str, float]:
    """Flatten the numeric leaves of a JSON structure into dotted paths."""
    out: dict[str, float] = {}
    if isinstance(payload, bool):
        return out
    if isinstance(payload, (int, float)):
        out[prefix or "value"] = payload
        return out
    if isinstance(payload, dict):
        for key in sorted(payload):
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(_numeric_leaves(payload[key], path))
    elif isinstance(payload, list):
        for index, item in enumerate(payload):
            path = f"{prefix}.{index}" if prefix else str(index)
            out.update(_numeric_leaves(item, path))
    return out


def _classify(payload: dict, source: str, version: str | None) -> list[dict]:
    """Turn one artifact payload into store entry bodies (without ids)."""
    if "scenarios" in payload and isinstance(payload["scenarios"], list):
        return _sweep_entries(payload, source, version)
    if "records" in payload and "baseline_accuracy" in payload:
        return [_campaign_entry(payload, source, version)]
    if "label" in payload and "workloads" in payload:
        return _perfbench_entries(payload, source, version)
    kind = "profile" if "profile" in payload and "gemm" in payload else "benchmark"
    return [_entry(kind, source, _label(version, None), source, _numeric_leaves(payload))]


def _entry(
    kind: str, scenario: str, version: str, source: str, metrics: dict, key: dict | None = None
) -> dict:
    return {
        "store_version": STORE_VERSION,
        "kind": kind,
        "scenario": scenario,
        "version": version,
        "source": source,
        "key": key or {"registry_digest": None, "structure_digest": None, "provenance": None},
        "metrics": metrics,
    }


def _label(version: str | None, registry_digest: str | None) -> str:
    if version:
        return version
    if registry_digest:
        return str(registry_digest)[:12]
    return _UNVERSIONED


def _sweep_entries(payload: dict, source: str, version: str | None) -> list[dict]:
    registry = payload.get("registry_digest")
    structure = payload.get("structure_digest")
    entries = []
    for scenario in payload["scenarios"]:
        if "scenario" not in scenario or "result" not in scenario:
            raise ValueError(
                f"{source}: sweep scenario entries need 'scenario' and 'result' keys"
            )
        result = CampaignResult.from_dict(scenario["result"])
        key = {
            "registry_digest": registry,
            "structure_digest": structure,
            "provenance": scenario.get("provenance"),
        }
        entries.append(_entry(
            "sweep-scenario", scenario["scenario"], _label(version, registry), source,
            _campaign_metrics(result), key,
        ))
    if not entries:
        raise ValueError(f"{source}: sweep artifact contains no scenarios")
    return entries


def _campaign_entry(payload: dict, source: str, version: str | None) -> dict:
    result = CampaignResult.from_dict(payload)
    provenance = result.provenance or {}
    registry = provenance.get("registry_digest")
    key = {
        "registry_digest": registry,
        "structure_digest": _campaign_structure_digest(result),
        "provenance": result.provenance,
    }
    return _entry(
        "campaign", result.strategy or "campaign", _label(version, registry), source,
        _campaign_metrics(result), key,
    )


def _number_at(payload: Any, path: tuple[str, ...], where: str) -> float:
    """The number at ``path`` inside nested dicts, or a ValueError naming it."""
    for key in path:
        payload = payload.get(key) if isinstance(payload, dict) else None
    if isinstance(payload, bool) or not isinstance(payload, (int, float)):
        raise ValueError(f"{where}.{'.'.join(path)} must be a number, got {payload!r}")
    return payload


def _perfbench_entries(payload: dict, source: str, version: str | None) -> list[dict]:
    """One entry per workload of a perfbench trajectory file.

    Each end-to-end metric keeps its parent and change ``median``, ``q1``
    and ``q3`` (``trials_per_s.change.median``); the raw ``runs`` and
    ``failed`` arrays are dropped.  A traced round's per-layer metrics keep
    their single parent and change values (``traced.gemm.s.change``).  The
    version defaults to the file's ``label``.
    """
    workloads = payload["workloads"]
    if not isinstance(workloads, dict) or not workloads:
        raise ValueError(f"{source}: 'workloads' must be a non-empty object")
    sides = ("parent", "change")
    entries = []
    for name, workload in sorted(workloads.items()):
        end_to_end = workload.get("metrics") if isinstance(workload, dict) else None
        if not isinstance(end_to_end, dict) or not end_to_end:
            raise ValueError(f"{source}: workload {name!r} has no 'metrics' object")
        traced = workload.get("traced_round") or {}
        traced = (traced.get("metrics") if isinstance(traced, dict) else None) or {}
        paths = {
            f"{metric}.{side}.{stat}": ("metrics", metric, side, stat)
            for metric in end_to_end for side in sides for stat in ("median", "q1", "q3")
        }
        paths.update(
            (f"traced.{metric}.{side}", ("traced_round", "metrics", metric, side))
            for metric in traced for side in sides
        )
        metrics = {
            key: _number_at(workload, path, f"{source}: {name}")
            for key, path in sorted(paths.items())
        }
        provenance = {k: payload.get(k) for k in ("command", "host")}
        provenance.update((k, workload.get(k)) for k in ("pairs", "seed"))
        key = {"registry_digest": None, "structure_digest": None, "provenance": provenance}
        label = version or str(payload["label"])
        entries.append(_entry("perfbench", name, label, source, metrics, key))
    return entries


def _entry_id(body: dict) -> str:
    return hashlib.sha256(
        dump_json_safe(body, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def _sort_key(entry: dict) -> tuple:
    return (
        entry.get("kind", ""),
        entry.get("scenario", ""),
        entry.get("version", ""),
        entry.get("id", ""),
    )


class LongitudinalStore:
    """Content-addressed JSONL store with deterministic on-disk order."""

    def __init__(self, path: Path | str):
        self.path = Path(path)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        """All stored entries, in on-disk (deterministic) order."""
        if not self.path.exists():
            return []
        entries = []
        for lineno, line in enumerate(self.path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{self.path}:{lineno}: corrupt store line: {exc}") from None
            if not isinstance(entry, dict) or "id" not in entry:
                raise ValueError(f"{self.path}:{lineno}: store lines must be entry objects")
            entries.append(entry)
        return entries

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def ingest(
        self,
        artifacts: Sequence[Path | str] | Iterable[Path | str],
        *,
        version: str | None = None,
    ) -> dict:
        """Ingest artifact files and rewrite the store deterministically.

        Returns ``{"added": n, "duplicates": m, "total": k}``.  Duplicate
        entries (identical content hash) are recognised, not re-added, so
        repeated ingestion is idempotent.
        """
        existing = {entry["id"]: entry for entry in self.entries()}
        added = duplicates = 0
        for artifact in artifacts:
            path = Path(artifact)
            try:
                payload = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not valid JSON: {exc}") from None
            if not isinstance(payload, dict):
                raise ValueError(
                    f"{path} holds a JSON {type(payload).__name__}, not an object"
                )
            for body in _classify(payload, path.name, version):
                entry_id = _entry_id(body)
                if entry_id in existing:
                    duplicates += 1
                    continue
                existing[entry_id] = {"id": entry_id, **body}
                added += 1
        ordered = sorted(existing.values(), key=_sort_key)
        text = "".join(dump_json_safe(entry, sort_keys=True) + "\n" for entry in ordered)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Durable rewrite: the store is the accumulated history of every
        # ingested run — a crash mid-rewrite must not truncate it.
        durable_write_text(self.path, text)
        return {"added": added, "duplicates": duplicates, "total": len(ordered)}
