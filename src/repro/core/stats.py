"""Statistical inference over fault-injection results.

Every accuracy-drop number a campaign reports is a *sample estimate*: the
trials draw random fault sites from the universe, so the mean drop and the
SDC rate carry sampling error.  This module supplies the inference layer the
statistical-fault-injection methodology calls for:

* **Confidence intervals** — :func:`wilson_interval` and
  :func:`clopper_pearson_interval` for rates (SDC / critical outcome
  fractions), :func:`mean_t_interval` and :func:`bootstrap_mean_interval`
  for accuracy-drop means.  All of them are self-contained (regularised
  incomplete beta + Student-t quantiles implemented here), so no SciPy is
  required.
* **Outcome taxonomy** — :func:`classify_drop` / :func:`classify_record`
  sort each trial into ``masked`` / ``tolerable`` / ``sdc`` / ``critical``
  from its accuracy delta (and, when the per-trial accuracy collapses to
  chance level, its misclassification pattern).
* **Adaptive trial budgeting** — :class:`AdaptiveCampaignPlan` describes
  campaigns that execute in fixed-size deterministic rounds and stop as
  soon as the confidence interval around the tracked metric is tight
  enough.  The stopping decision is a pure function of the records of the
  completed rounds, which is what lets the campaign runner keep results
  bit-identical for any worker count and across kill + resume.
* **Stratified allocation** — :func:`neyman_allocation` turns a pilot
  campaign into the per-stratum trial counts that minimise the variance of
  the stratified mean (Neyman allocation), feeding
  :class:`~repro.core.strategies.StratifiedSampling`.

All randomness (the bootstrap resamples) flows through
:func:`~repro.utils.rng.derive_seed`, so every interval is reproducible
bit-for-bit across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.utils.checked import Checked
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (results -> stats)
    from repro.core.results import CampaignResult, TrialRecord


# ----------------------------------------------------------------------
# Special functions (self-contained: CI has numpy but no SciPy)
# ----------------------------------------------------------------------
def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (via the stdlib's exact implementation)."""
    import statistics

    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")
    return statistics.NormalDist().inv_cdf(p)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    max_iterations = 300
    eps = 3e-14
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function ``I_x(a, b)``.

    The CDF of a Beta(a, b) variable; also the bridge to binomial tail
    probabilities and Student-t quantiles, which is all this module needs.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use the continued fraction on whichever side converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def betaincinv(a: float, b: float, p: float) -> float:
    """Inverse of :func:`betainc` in ``x`` (bisection: monotone, robust).

    Returns whichever end of the converged bracket has ``betainc`` nearer
    ``p``: near ``x = 1`` with small ``b`` adjacent floats move ``I_x`` by
    more than 1e-9, so the choice of endpoint matters.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if betainc(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda x: abs(betainc(a, b, x) - p))


def student_t_quantile(p: float, df: int) -> float:
    """Quantile (inverse CDF) of Student's t distribution with ``df`` dof.

    Uses the exact relation ``P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2)``.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    tail = 2.0 * min(p, 1.0 - p)  # two-sided tail mass beyond |t|
    x = betaincinv(df / 2.0, 0.5, tail)
    if x <= 0.0:  # pragma: no cover - p astronomically close to 0/1
        return math.copysign(math.inf, p - 0.5)
    t = math.sqrt(df * (1.0 - x) / x)
    return math.copysign(t, p - 0.5)


# ----------------------------------------------------------------------
# Confidence intervals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a point estimate."""

    estimate: float
    low: float
    high: float
    confidence: float
    method: str
    n: int

    @property
    def half_width(self) -> float:
        return 0.5 * (self.high - self.low)

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "low": self.low,
            "high": self.high,
            "half_width": self.half_width,
            "confidence": self.confidence,
            "method": self.method,
            "n": self.n,
        }


def _check_rate_args(successes: int, n: int, confidence: float) -> None:
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} out of range [0, {n}]")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def wilson_interval(successes: int, n: int, confidence: float = 0.95) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    The standard recommendation for rates of the size SDC experiments see:
    well-behaved near 0 and 1 (unlike the Wald interval) and narrower than
    Clopper-Pearson.  ``n == 0`` yields the vacuous interval [0, 1].
    """
    _check_rate_args(successes, n, confidence)
    if n == 0:
        return ConfidenceInterval(0.0, 0.0, 1.0, confidence, "wilson", 0)
    z = normal_quantile(0.5 + confidence / 2.0)
    p_hat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p_hat + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n))
    # At the k=0 / k=n boundaries, centre-half is exactly p_hat analytically
    # but float rounding can nudge the bound past the estimate; pin it.
    low = 0.0 if successes == 0 else max(0.0, centre - half)
    high = 1.0 if successes == n else min(1.0, centre + half)
    return ConfidenceInterval(
        estimate=p_hat,
        low=low,
        high=high,
        confidence=confidence,
        method="wilson",
        n=n,
    )


def clopper_pearson_interval(
    successes: int, n: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Clopper-Pearson ("exact") interval for a binomial proportion.

    Guaranteed coverage at the cost of conservatism; the right choice when a
    reliability claim must never under-cover.  ``n == 0`` yields [0, 1].
    """
    _check_rate_args(successes, n, confidence)
    if n == 0:
        return ConfidenceInterval(0.0, 0.0, 1.0, confidence, "clopper-pearson", 0)
    alpha = 1.0 - confidence
    low = 0.0 if successes == 0 else betaincinv(successes, n - successes + 1, alpha / 2.0)
    high = 1.0 if successes == n else betaincinv(successes + 1, n - successes, 1.0 - alpha / 2.0)
    return ConfidenceInterval(
        estimate=successes / n,
        low=low,
        high=high,
        confidence=confidence,
        method="clopper-pearson",
        n=n,
    )


def mean_t_interval(values: Sequence[float], confidence: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``values``.

    Needs at least two observations; the degenerate all-equal sample yields
    a zero-width interval (the sample carries no dispersion information).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    arr = np.asarray(list(values), dtype=np.float64)
    n = int(arr.size)
    if n < 2:
        raise ValueError(f"mean_t_interval needs >= 2 observations, got {n}")
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1)) / math.sqrt(n)
    t = student_t_quantile(0.5 + confidence / 2.0, n - 1)
    return ConfidenceInterval(
        estimate=mean,
        low=mean - t * sem,
        high=mean + t * sem,
        confidence=confidence,
        method="student-t",
        n=n,
    )


def bootstrap_mean_interval(
    values: Sequence[float],
    confidence: float = 0.95,
    *,
    n_resamples: int = 2000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile-bootstrap confidence interval for the mean of ``values``.

    Distribution-free (accuracy drops are typically heavy-tailed and
    multi-modal, where the t interval's normality assumption is shaky).
    Resampling is seeded through :func:`~repro.utils.rng.derive_seed`, so
    the interval is reproducible bit-for-bit in any process.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n_resamples < 1:
        raise ValueError(f"n_resamples must be >= 1, got {n_resamples}")
    arr = np.asarray(list(values), dtype=np.float64)
    n = int(arr.size)
    if n < 2:
        raise ValueError(f"bootstrap_mean_interval needs >= 2 observations, got {n}")
    rng = np.random.default_rng(derive_seed(seed, "bootstrap-mean", n, n_resamples))
    indices = rng.integers(0, n, size=(n_resamples, n))
    means = arr[indices].mean(axis=1)
    alpha = 1.0 - confidence
    low, high = np.percentile(means, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)])
    return ConfidenceInterval(
        estimate=float(arr.mean()),
        low=float(low),
        high=float(high),
        confidence=confidence,
        method="bootstrap-percentile",
        n=n,
    )


# ----------------------------------------------------------------------
# Outcome taxonomy
# ----------------------------------------------------------------------
class Outcome(str, Enum):
    """Severity class of one fault-injection trial.

    The taxonomy follows the statistical-fault-injection literature:

    * ``masked`` — the fault never reached the classification output
      (accuracy unchanged or improved).
    * ``tolerable`` — a measurable but acceptable degradation (below the
      tolerable-drop threshold).
    * ``sdc`` — silent data corruption: the output is wrong beyond the
      tolerance, with no crash to flag it.
    * ``critical`` — the output is corrupted so badly the classifier is
      effectively destroyed (drop beyond the critical threshold, or a
      degrading fault that leaves accuracy at/below chance level — the
      misclassification pattern of a model that no longer discriminates
      classes at all).
    """

    MASKED = "masked"
    TOLERABLE = "tolerable"
    SDC = "sdc"
    CRITICAL = "critical"


#: Order used for stable serialisation of outcome breakdowns.
OUTCOME_ORDER = (Outcome.MASKED, Outcome.TOLERABLE, Outcome.SDC, Outcome.CRITICAL)


@dataclass(frozen=True)
class OutcomeThresholds(Checked):
    """Accuracy-delta thresholds of the outcome taxonomy.

    ``masked_epsilon`` absorbs float noise around zero; ``chance_accuracy``
    (when set, e.g. 0.1 for 10-class CIFAR) marks any trial whose absolute
    accuracy collapses to chance level as critical regardless of the drop.
    """

    masked_epsilon: float = field(default=1e-9, metadata={"min": 0})
    tolerable_drop: float = 0.01
    critical_drop: float = 0.25
    chance_accuracy: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.masked_epsilon <= self.tolerable_drop <= self.critical_drop:
            raise ValueError(
                "OutcomeThresholds must satisfy masked_epsilon <= tolerable_drop <= "
                f"critical_drop, got masked_epsilon={self.masked_epsilon}, "
                f"tolerable_drop={self.tolerable_drop}, critical_drop={self.critical_drop}"
            )
        if self.chance_accuracy is not None and not 0 <= self.chance_accuracy <= 1:
            raise ValueError(
                f"OutcomeThresholds.chance_accuracy must be in [0, 1], got {self.chance_accuracy}"
            )


#: Module-wide default thresholds (1% tolerable, 25% critical).
DEFAULT_THRESHOLDS = OutcomeThresholds()


def classify_drop(
    accuracy_drop: float,
    thresholds: OutcomeThresholds = DEFAULT_THRESHOLDS,
    *,
    accuracy: float | None = None,
) -> Outcome:
    """Classify one trial's accuracy delta into the outcome taxonomy.

    A drop at/below ``masked_epsilon`` is masked unconditionally (declared
    float noise can never be an SDC, and a masked fault on a model that
    already sits at chance level stays masked); only degrading faults are
    graded against the chance floor and the severity thresholds.
    """
    if accuracy_drop <= thresholds.masked_epsilon:
        return Outcome.MASKED
    if (
        thresholds.chance_accuracy is not None
        and accuracy is not None
        and accuracy <= thresholds.chance_accuracy
    ):
        return Outcome.CRITICAL
    if accuracy_drop >= thresholds.critical_drop:
        return Outcome.CRITICAL
    if accuracy_drop >= thresholds.tolerable_drop:
        return Outcome.SDC
    return Outcome.TOLERABLE


def classify_record(
    record: "TrialRecord", thresholds: OutcomeThresholds = DEFAULT_THRESHOLDS
) -> Outcome:
    """Classify one :class:`~repro.core.results.TrialRecord`."""
    return classify_drop(record.accuracy_drop, thresholds, accuracy=record.accuracy)


def outcome_counts(
    records: Iterable["TrialRecord"], thresholds: OutcomeThresholds = DEFAULT_THRESHOLDS
) -> dict[str, int]:
    """Count records per outcome class, in stable taxonomy order."""
    counts = {outcome.value: 0 for outcome in OUTCOME_ORDER}
    for record in records:
        counts[classify_record(record, thresholds).value] += 1
    return counts


def sdc_count(counts: dict[str, int]) -> int:
    """Corrupting outcomes (``sdc`` + ``critical``) out of an outcome-count dict."""
    return counts[Outcome.SDC.value] + counts[Outcome.CRITICAL.value]


# ----------------------------------------------------------------------
# Adaptive campaign plans
# ----------------------------------------------------------------------
#: Stopping metrics an adaptive plan can track.
ADAPTIVE_METRICS = ("mean_drop", "sdc_rate")


@dataclass(frozen=True)
class AdaptiveCampaignPlan(Checked):
    """Confidence-bounded trial budgeting for a campaign.

    The campaign executes the strategy's trial index space in fixed-size
    deterministic rounds ``[0, round_size)``, ``[round_size, 2*round_size)``
    ...; after every *complete* round the confidence interval of the tracked
    metric is recomputed over all records of the completed rounds, and the
    campaign stops as soon as its half-width is at or below
    ``target_half_width`` (never before ``min_rounds`` rounds).  Because the
    stopping decision is a pure function of the completed rounds' records —
    never of scheduling order — adaptive campaigns remain bit-identical for
    any worker count and across kill + resume.

    ``metric``:

    * ``"mean_drop"`` — Student-t interval around the mean accuracy drop.
    * ``"sdc_rate"`` — Wilson interval around the corrupting-outcome rate
      (accuracy drop at/above ``thresholds.tolerable_drop``).
    """

    target_half_width: float
    round_size: int = field(default=16, metadata={"min": 1})
    confidence: float = 0.95
    metric: str = field(default="mean_drop", metadata={"choices": ADAPTIVE_METRICS})
    min_rounds: int = field(default=2, metadata={"min": 1})
    max_trials: int | None = field(default=None, metadata={"min": 1})
    thresholds: OutcomeThresholds = field(default_factory=OutcomeThresholds)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.target_half_width > 0:
            raise ValueError(
                f"AdaptiveCampaignPlan.target_half_width must be > 0, got {self.target_half_width}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"AdaptiveCampaignPlan.confidence must be in (0, 1), got {self.confidence}"
            )

    # -- round geometry -------------------------------------------------
    def budget(self, expected_trials: int) -> int:
        """Trial budget: the strategy's index space, optionally capped."""
        if self.max_trials is None:
            return expected_trials
        return min(expected_trials, self.max_trials)

    def round_bounds(self, budget: int) -> list[tuple[int, int]]:
        """Half-open index ranges of the rounds partitioning ``[0, budget)``."""
        return [
            (start, min(start + self.round_size, budget))
            for start in range(0, budget, self.round_size)
        ]

    # -- stopping rule --------------------------------------------------
    def interval(self, records: Sequence["TrialRecord"]) -> ConfidenceInterval | None:
        """The tracked metric's CI over the completed rounds' records.

        Returns ``None`` while the sample carries no interval information:
        fewer than two records for the mean metric, or a zero-spread
        sample.  The latter matters because fault campaigns are typically
        masked-dominated — an all-zero-drop prefix produces a zero-width t
        interval that would stop the campaign at ``min_rounds`` with a
        falsely certain 0±0 estimate, even though rare corrupting sites
        later in the budget would move the mean.  (The Wilson interval of
        the rate metric has no such hole: its width at 0/n is nonzero.)
        """
        if self.metric == "sdc_rate":
            n = len(records)
            if n == 0:
                return None
            corrupting = sum(
                1 for r in records if classify_record(r, self.thresholds)
                in (Outcome.SDC, Outcome.CRITICAL)
            )
            return wilson_interval(corrupting, n, self.confidence)
        drops = [r.accuracy_drop for r in records]
        if len(drops) < 2 or min(drops) == max(drops):
            return None
        return mean_t_interval(drops, self.confidence)

    def should_stop(self, completed_rounds: int, records: Sequence["TrialRecord"]) -> bool:
        """Pure stopping decision after ``completed_rounds`` full rounds.

        ``records`` must be exactly the records of those rounds (trial
        indices ``[0, completed_rounds * round_size)`` clipped to the
        budget), in any order — the decision depends only on the multiset of
        accuracy deltas, never on scheduling.
        """
        if completed_rounds < self.min_rounds:
            return False
        interval = self.interval(records)
        if interval is None:
            return False
        return interval.half_width <= self.target_half_width

    def describe(self) -> str:
        return (
            f"adaptive(metric={self.metric}, target±{self.target_half_width:g} "
            f"@{self.confidence:.0%}, rounds of {self.round_size}, "
            f"min {self.min_rounds})"
        )


# ----------------------------------------------------------------------
# Stratified allocation (Neyman)
# ----------------------------------------------------------------------
def neyman_allocation(
    pilot: "CampaignResult",
    total_trials: int,
    *,
    num_strata: int | None = None,
    stratum_sizes: Sequence[int] | None = None,
    min_per_stratum: int = 1,
) -> tuple[int, ...]:
    """Per-stratum trial counts from a pilot campaign (Neyman allocation).

    Neyman allocation assigns ``n_h ∝ N_h * S_h`` (stratum size times the
    pilot's per-stratum accuracy-drop standard deviation), which minimises
    the variance of the stratified mean for a fixed total budget.  Strata
    are read from each pilot record's ``metadata["stratum"]`` (falling back
    to ``mac_unit``).  Rounding uses the largest-remainder method with ties
    broken by stratum index, so the allocation is deterministic; every
    stratum receives at least ``min_per_stratum`` trials so no stratum ever
    vanishes from the follow-up sample.
    """
    if total_trials < 1:
        raise ValueError(f"total_trials must be >= 1, got {total_trials}")
    if min_per_stratum < 0:
        raise ValueError(f"min_per_stratum must be >= 0, got {min_per_stratum}")
    drops_by_stratum: dict[int, list[float]] = {}
    for record in pilot.records:
        stratum = record.metadata.get("stratum", record.mac_unit)
        if stratum is None:
            raise ValueError(
                "pilot record carries no stratum label (need metadata['stratum'] "
                f"or mac_unit): {record.description!r}"
            )
        drops_by_stratum.setdefault(int(stratum), []).append(record.accuracy_drop)
    if not drops_by_stratum:
        raise ValueError("pilot campaign has no records to allocate from")
    count = num_strata if num_strata is not None else max(drops_by_stratum) + 1
    if count < 1 or max(drops_by_stratum) >= count:
        raise ValueError(
            f"pilot labels strata up to {max(drops_by_stratum)} but num_strata={count}"
        )
    if stratum_sizes is None:
        sizes: Sequence[int] = (1,) * count
    else:
        sizes = tuple(int(s) for s in stratum_sizes)
        if len(sizes) != count or any(s < 1 for s in sizes):
            raise ValueError(
                f"stratum_sizes must give a positive size for each of the {count} strata"
            )
    if total_trials < count * min_per_stratum:
        raise ValueError(
            f"total_trials={total_trials} cannot grant min_per_stratum="
            f"{min_per_stratum} to each of {count} strata"
        )
    weights = []
    for stratum in range(count):
        drops = drops_by_stratum.get(stratum, [])
        spread = float(np.std(drops, ddof=1)) if len(drops) >= 2 else 0.0
        weights.append(sizes[stratum] * spread)
    total_weight = sum(weights)
    if total_weight <= 0.0:
        # A flat pilot carries no variance signal; fall back to allocation
        # proportional to stratum size (uniform for equal-size strata).
        weights = [float(s) for s in sizes]
        total_weight = sum(weights)

    allocation = [min_per_stratum] * count
    spare = total_trials - count * min_per_stratum
    quotas = [spare * w / total_weight for w in weights]
    floors = [int(math.floor(q)) for q in quotas]
    for stratum in range(count):
        allocation[stratum] += floors[stratum]
    remainder = spare - sum(floors)
    # Largest fractional parts win the leftover trials; ties go to the
    # lower stratum index (sort is stable on the negated fraction).
    order = sorted(range(count), key=lambda h: (-(quotas[h] - floors[h]), h))
    for stratum in order[:remainder]:
        allocation[stratum] += 1
    return tuple(allocation)
