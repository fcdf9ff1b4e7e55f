"""Analysis of campaign results: box plots, heat maps, summary statistics.

The paper presents its case-study results as box plots of accuracy drop
versus the number of affected multipliers (Fig. 2) and as per-site heat maps
(Fig. 3).  The functions here turn a :class:`~repro.core.results.CampaignResult`
into exactly those series so the benchmark harness (and any plotting
front-end) can print or render them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.results import CampaignResult, TrialRecord


@dataclass(frozen=True)
class BoxPlotStats:
    """Five-number summary (plus mean) of one box in a box plot."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    count: int

    @classmethod
    def from_values(cls, values: list[float]) -> "BoxPlotStats":
        if not values:
            raise ValueError("cannot summarise an empty group")
        arr = np.asarray(values, dtype=np.float64)
        return cls(
            minimum=float(arr.min()),
            q1=float(np.percentile(arr, 25)),
            median=float(np.percentile(arr, 50)),
            q3=float(np.percentile(arr, 75)),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
            count=int(arr.size),
        )


@dataclass
class BoxPlotSeries:
    """One series of a grouped box plot (e.g. one injected value in Fig. 2)."""

    label: str
    #: x-axis positions (number of affected multipliers) -> box statistics
    boxes: dict[int, BoxPlotStats] = field(default_factory=dict)

    def positions(self) -> list[int]:
        return sorted(self.boxes)

    def means(self) -> list[float]:
        return [self.boxes[p].mean for p in self.positions()]


def accuracy_drop_boxplots(result: CampaignResult) -> dict[int, BoxPlotSeries]:
    """Fig. 2 data: accuracy-drop box plots grouped by injected value.

    Returns a mapping ``injected_value -> BoxPlotSeries``, where each series
    groups the trials by the number of affected multipliers.
    """
    series: dict[int, BoxPlotSeries] = {}
    grouped: dict[tuple[int, int], list[float]] = {}
    for record in result.records:
        if record.injected_value is None:
            continue
        key = (record.injected_value, record.num_faults)
        grouped.setdefault(key, []).append(record.accuracy_drop)
    for (value, count), drops in sorted(grouped.items()):
        series.setdefault(value, BoxPlotSeries(label=f"injected {value}"))
        series[value].boxes[count] = BoxPlotStats.from_values(drops)
    return series


def heatmap_matrix(
    result: CampaignResult,
    injected_value: int,
    num_macs: int = 8,
    muls_per_mac: int = 8,
) -> np.ndarray:
    """Fig. 3 data: accuracy drop per (MAC unit, multiplier) for one value.

    Returns an array of shape ``(num_macs, muls_per_mac)``; entries with no
    matching trial are NaN.
    """
    matrix = np.full((num_macs, muls_per_mac), np.nan, dtype=np.float64)
    for record in result.records:
        if record.injected_value != injected_value:
            continue
        if record.mac_unit is None or record.multiplier is None:
            continue
        matrix[record.mac_unit, record.multiplier] = record.accuracy_drop
    return matrix


def most_sensitive_site(result: CampaignResult, injected_value: int | None = None) -> TrialRecord:
    """The single-site trial with the largest accuracy drop (Fig. 3 discussion)."""
    candidates = [
        r
        for r in result.records
        if r.mac_unit is not None
        and r.multiplier is not None
        and (injected_value is None or r.injected_value == injected_value)
    ]
    if not candidates:
        filter_context = (
            "" if injected_value is None else f" with injected_value={injected_value}"
        )
        raise ValueError(
            f"result contains no single-site trials{filter_context} "
            f"({len(result.records)} record(s) in campaign "
            f"{result.strategy or '<unnamed>'!r}; single-site trials need both "
            "mac_unit and multiplier coordinates)"
        )
    return max(candidates, key=lambda r: r.accuracy_drop)


def stratum_sensitivity(
    result: CampaignResult, confidence: float = 0.95
) -> list[dict]:
    """Per-stratum sensitivity ranking of a stratified campaign.

    Groups the records by their stratum label (``metadata["stratum"]``,
    falling back to ``mac_unit``) and returns one entry per stratum with
    the mean accuracy drop and its Student-t confidence interval, ranked
    most-sensitive first (ties broken by stratum label for determinism).
    Records with no stratum information are skipped; an empty list means
    the campaign carried none.
    """
    from repro.core import stats

    grouped: dict[int, list[float]] = {}
    for record in result.records:
        stratum = record.metadata.get("stratum", record.mac_unit)
        if stratum is None:
            continue
        grouped.setdefault(int(stratum), []).append(record.accuracy_drop)
    ranking = []
    for stratum, drops in grouped.items():
        interval = (
            stats.mean_t_interval(drops, confidence).to_dict() if len(drops) >= 2 else None
        )
        ranking.append(
            {
                "stratum": stratum,
                "count": len(drops),
                "mean_drop": float(np.mean(drops)),
                "max_drop": float(np.max(drops)),
                "ci": interval,
            }
        )
    ranking.sort(key=lambda entry: (-entry["mean_drop"], entry["stratum"]))
    return ranking


def scenario_boxplots(
    results_by_scenario: dict[str, CampaignResult],
) -> dict[str, BoxPlotSeries]:
    """Cross-scenario aggregation: one accuracy-drop series per scenario.

    Takes the ``scenario id -> CampaignResult`` mapping of a sweep (see
    :meth:`SweepResult.results_by_id
    <repro.core.sweep.SweepResult.results_by_id>`) and returns one
    :class:`BoxPlotSeries` per scenario, grouped by the number of armed
    fault sites — the Fig. 2 presentation generalised to heterogeneous
    scenarios, so different fault models, strategies and platforms can be
    compared on one axis.
    """
    series: dict[str, BoxPlotSeries] = {}
    for scenario_id in sorted(results_by_scenario):
        result = results_by_scenario[scenario_id]
        boxes = summarize_by_group(result, group_by="num_faults")
        series[scenario_id] = BoxPlotSeries(label=scenario_id, boxes=dict(boxes))
    return series


def summarize_by_group(
    result: CampaignResult, group_by: str = "num_faults"
) -> dict[object, BoxPlotStats]:
    """Aggregate accuracy drop by an arbitrary record attribute."""
    grouped: dict[object, list[float]] = {}
    for record in result.records:
        key = getattr(record, group_by)
        grouped.setdefault(key, []).append(record.accuracy_drop)
    return {key: BoxPlotStats.from_values(values) for key, values in sorted(grouped.items(), key=lambda kv: str(kv[0]))}


def monotonicity_score(series: BoxPlotSeries) -> float:
    """How monotonically the mean accuracy drop grows with the fault count.

    Returns the fraction of consecutive fault-count steps where the mean drop
    does not decrease; 1.0 means perfectly monotone.  Fig. 2's expectation is
    that this is close to 1 for every injected value.
    """
    means = series.means()
    if len(means) < 2:
        return 1.0
    good = sum(1 for a, b in zip(means, means[1:]) if b >= a - 1e-9)
    return good / (len(means) - 1)
