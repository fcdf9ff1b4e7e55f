"""Result records of fault-injection campaigns and their serialisation.

Records are plain dataclasses with a stable JSON representation so that
campaigns can be checkpointed to JSONL files, resumed, and merged: the
parallel campaign runner writes one :class:`TrialRecord` line per completed
trial, and :meth:`CampaignResult.merge` lets callers reassemble partial
results of the same campaign (e.g. shards run on separate machines, or
loaded from separate result files) by trial index, rejecting shards that
conflict or belong to different campaigns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.utils.checked import Checked
from repro.utils.jsonsafe import dump_json_safe


@dataclass(frozen=True)
class TrialRecord(Checked):
    """Outcome of one fault-injection trial (one configuration, full test set).

    Records arrive from checkpoints and the fleet wire, so every field is
    checked on construction.  The field order is the key order of
    checkpoint record lines, which are not key-sorted.

    Attributes
    ----------
    trial_index:
        Sequence number of the trial inside the campaign.
    description:
        Human-readable description of the injected faults.
    num_faults:
        Number of armed fault sites.
    injected_value:
        The shared injected constant, when the trial uses one (else ``None``).
    mac_unit, multiplier:
        Coordinates of the armed site for single-site trials (else ``None``).
    accuracy:
        Top-1 accuracy with the faults armed.
    accuracy_drop:
        ``baseline_accuracy - accuracy`` (positive = degradation).
    metadata:
        Extra strategy-specific fields.
    """

    trial_index: int
    description: str
    num_faults: int
    accuracy: float
    accuracy_drop: float
    injected_value: int | None = field(default=None, metadata={"min": None})
    mac_unit: int | None = None
    multiplier: int | None = None
    metadata: dict = field(default_factory=dict)


@dataclass
class CampaignResult:
    """All records of one campaign plus campaign-level metadata."""

    baseline_accuracy: float
    records: list[TrialRecord] = field(default_factory=list)
    strategy: str = ""
    num_images: int = 0
    seed: int = 0
    wall_seconds: float = 0.0
    emulated_inferences_per_second: float | None = None
    #: Adaptive-stopping provenance (plan parameters, rounds completed,
    #: whether the campaign stopped early) when the campaign ran under an
    #: :class:`~repro.core.stats.AdaptiveCampaignPlan`; ``None`` for
    #: fixed-budget campaigns.
    adaptive: dict | None = None
    #: Execution statistics aggregated across the parent and every worker
    #: process (GEMM kernel counters, tape hit rates, per-stage wall
    #: times).  Purely observational: two runs with
    #: different worker counts produce identical records but different
    #: runtime stats, so these are excluded from record-level artifacts.
    runtime_stats: dict | None = None
    #: Registry provenance (registry digest + resolved ``(kind, params)``
    #: per axis) stamped by the producing runner/CLI; ``None`` for results
    #: built programmatically or loaded from pre-provenance artifacts.
    provenance: dict | None = None
    #: What the lease book healed while producing this result: lease
    #: attempts, reclaimed leases, dead/hung workers, poison shards, plus
    #: the corrupt/duplicate checkpoint lines collapsed on resume.  Like
    #: ``runtime_stats``, purely observational — recovery never changes
    #: records — so it is excluded from record-level identity/digests.
    #: ``None`` for serial runs (nothing to supervise).
    recovery: dict | None = None

    def add(self, record: TrialRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(self, **criteria) -> list[TrialRecord]:
        """Records matching all given attribute values, e.g. ``injected_value=0``."""
        out = []
        for record in self.records:
            if all(getattr(record, key) == value for key, value in criteria.items()):
                out.append(record)
        return out

    def worst_record(self) -> TrialRecord:
        """The trial with the largest accuracy drop."""
        if not self.records:
            raise ValueError(
                f"campaign {self.strategy or '<unnamed>'!r} has no trial records; "
                "run the campaign (or check the records were not filtered away) "
                "before asking for the worst record"
            )
        return max(self.records, key=lambda r: r.accuracy_drop)

    def mean_accuracy_drop(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.accuracy_drop for r in self.records) / len(self.records)

    def summary(
        self,
        confidence: float = 0.95,
        thresholds=None,
        bootstrap_resamples: int = 1000,
    ) -> dict:
        """Campaign-level summary statistics as a JSON-compatible dict.

        Alongside the historical point estimates (whose keys are stable for
        existing consumers), the summary reports dispersion (std and the
        5/50/95 accuracy-drop percentiles), confidence intervals for the
        mean drop (Student-t and percentile bootstrap, seeded off the
        campaign seed so the summary is reproducible bit-for-bit) and for
        the SDC rate (Wilson and Clopper-Pearson), plus the outcome
        taxonomy breakdown.  Interval entries are ``None`` while the sample
        is too small to carry them (< 2 records for means, 0 for rates).
        """
        from repro.core import stats

        thresholds = thresholds or stats.DEFAULT_THRESHOLDS
        drops = [r.accuracy_drop for r in self.records]
        arr = np.asarray(drops, dtype=np.float64)
        n = len(drops)
        if n:
            p5, p50, p95 = (float(p) for p in np.percentile(arr, [5.0, 50.0, 95.0]))
        else:
            p5 = p50 = p95 = 0.0
        mean_ci = stats.mean_t_interval(drops, confidence).to_dict() if n >= 2 else None
        boot_ci = (
            stats.bootstrap_mean_interval(
                drops, confidence, n_resamples=bootstrap_resamples, seed=self.seed
            ).to_dict()
            if n >= 2
            else None
        )
        outcomes = stats.outcome_counts(self.records, thresholds)
        corrupting = stats.sdc_count(outcomes)
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "num_trials": n,
            "num_images": self.num_images,
            "baseline_accuracy": self.baseline_accuracy,
            "mean_accuracy_drop": self.mean_accuracy_drop(),
            "max_accuracy_drop": max(drops) if drops else 0.0,
            "min_accuracy_drop": min(drops) if drops else 0.0,
            "worst_trial_index": self.worst_record().trial_index if drops else None,
            "wall_seconds": self.wall_seconds,
            "emulated_inferences_per_second": self.emulated_inferences_per_second,
            "std_accuracy_drop": float(arr.std(ddof=1)) if n >= 2 else 0.0,
            "p5_accuracy_drop": p5,
            "p50_accuracy_drop": p50,
            "p95_accuracy_drop": p95,
            "confidence": confidence,
            "mean_drop_ci": mean_ci,
            "mean_drop_ci_bootstrap": boot_ci,
            "outcomes": outcomes,
            "outcome_thresholds": thresholds.to_dict(),
            "sdc_rate": (corrupting / n) if n else 0.0,
            "sdc_rate_ci": (
                stats.wilson_interval(corrupting, n, confidence).to_dict() if n else None
            ),
            "sdc_rate_ci_exact": (
                stats.clopper_pearson_interval(corrupting, n, confidence).to_dict()
                if n
                else None
            ),
            "adaptive": self.adaptive,
            "runtime_stats": self.runtime_stats,
            "recovery": self.recovery,
        }

    # ------------------------------------------------------------------
    # Merging (partial shards from parallel / resumed runs)
    # ------------------------------------------------------------------
    def sort_records(self) -> None:
        """Order the records by trial index (in place)."""
        self.records.sort(key=lambda r: r.trial_index)

    @classmethod
    def merge(cls, parts: Sequence["CampaignResult"]) -> "CampaignResult":
        """Merge partial results of the *same* campaign by trial index.

        All parts must agree on the campaign identity (strategy, seed,
        number of images, baseline accuracy); two parts containing the same
        trial index must hold identical records.  Wall-clock times add up;
        records come back sorted by trial index.
        """
        if not parts:
            raise ValueError("cannot merge zero campaign results")
        first = parts[0]
        by_index: dict[int, TrialRecord] = {}
        merged = cls(
            baseline_accuracy=first.baseline_accuracy,
            strategy=first.strategy,
            num_images=first.num_images,
            seed=first.seed,
            emulated_inferences_per_second=first.emulated_inferences_per_second,
            adaptive=first.adaptive,
            provenance=first.provenance,
        )
        for part in parts:
            identity = (part.baseline_accuracy, part.strategy, part.num_images, part.seed)
            if identity != (first.baseline_accuracy, first.strategy, first.num_images, first.seed):
                raise ValueError(
                    f"cannot merge results of different campaigns: {identity} != "
                    f"{(first.baseline_accuracy, first.strategy, first.num_images, first.seed)}"
                )
            merged.wall_seconds += part.wall_seconds
            for record in part.records:
                existing = by_index.get(record.trial_index)
                if existing is not None and existing != record:
                    raise ValueError(
                        f"conflicting records for trial {record.trial_index}: "
                        f"{existing} != {record}"
                    )
                by_index[record.trial_index] = record
        merged.records = [by_index[i] for i in sorted(by_index)]
        return merged

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = {
            "baseline_accuracy": self.baseline_accuracy,
            "strategy": self.strategy,
            "num_images": self.num_images,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "emulated_inferences_per_second": self.emulated_inferences_per_second,
            "records": [record.to_dict() for record in self.records],
        }
        if self.adaptive is not None:
            out["adaptive"] = self.adaptive
        if self.runtime_stats is not None:
            out["runtime_stats"] = self.runtime_stats
        if self.provenance is not None:
            out["provenance"] = self.provenance
        if self.recovery is not None:
            out["recovery"] = self.recovery
        return out

    def to_json(self, indent: int = 2) -> str:
        return dump_json_safe(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        result = cls(
            baseline_accuracy=data["baseline_accuracy"],
            strategy=data.get("strategy", ""),
            num_images=data.get("num_images", 0),
            seed=data.get("seed", 0),
            wall_seconds=data.get("wall_seconds", 0.0),
            emulated_inferences_per_second=data.get("emulated_inferences_per_second"),
            adaptive=data.get("adaptive"),
            runtime_stats=data.get("runtime_stats"),
            provenance=data.get("provenance"),
            recovery=data.get("recovery"),
        )
        for record in data.get("records", []):
            result.add(TrialRecord.from_dict(record))
        return result

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        return cls.from_dict(json.loads(text))
