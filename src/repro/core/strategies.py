"""Fault-injection strategies: how campaign trials are generated.

A strategy produces a sequence of :class:`StrategyTrial` objects, each
pairing an :class:`~repro.faults.injector.InjectionConfig` with the metadata
the analysis needs (number of faults, injected value, site coordinates).
The two strategies used by the paper's case study are:

* :class:`RandomMultipliers` — Fig. 2: for each (number of affected
  multipliers, injected value) pair, draw random multiplier subsets.
* :class:`ExhaustiveSingleSite` — Fig. 3: every multiplier of every MAC unit
  in turn, for each injected value.

Two additional sweeps (per MAC unit, per multiplier position) support the
sensitivity questions the paper raises about positional susceptibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.faults.injector import InjectionConfig
from repro.faults.models import ConstantValue, FaultModel
from repro.faults.sites import FaultSite, FaultUniverse
from repro.utils.rng import SeededRNG


@dataclass(frozen=True)
class StrategyTrial:
    """One trial: an injection configuration plus analysis metadata."""

    config: InjectionConfig
    num_faults: int
    injected_value: int | None = None
    mac_unit: int | None = None
    multiplier: int | None = None
    metadata: dict = field(default_factory=dict)


class InjectionStrategy:
    """Base class: iterates over the trials of a campaign.

    Strategies come in two flavours:

    * **Indexable** strategies implement :meth:`expected_trials` and
      :meth:`trial_at`; trial *i* is derivable without generating trials
      ``0..i-1``, because any randomness is keyed off
      :meth:`SeededRNG.child <repro.utils.rng.SeededRNG.child>` streams
      derived from the trial's own coordinates.  These strategies inherit a
      :meth:`trials` iterator for free and can be sharded across processes
      by the parallel campaign runner without changing a single drawn site.
    * **Sequential** strategies override only :meth:`trials` (a plain
      generator).  They still run serially in
      :class:`~repro.core.campaign.FaultInjectionCampaign` but cannot be
      executed with ``workers > 1``.
    """

    name = "strategy"

    def trials(self, universe: FaultUniverse, rng: SeededRNG) -> Iterator[StrategyTrial]:
        """All trials in order.  The default replays :meth:`trial_at`."""
        for index in range(self.expected_trials(universe)):
            yield self.trial_at(universe, rng, index)

    def trial_at(self, universe: FaultUniverse, rng: SeededRNG, index: int) -> StrategyTrial:
        """Trial ``index``, derivable without generating the preceding trials.

        Implementations must be pure functions of ``(universe, rng.seed,
        index)`` so that any shard of the index space can be evaluated in any
        order — and in any process — with identical results.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support random trial access"
        )

    def expected_trials(self, universe: FaultUniverse) -> int:
        """Number of trials the strategy will generate (for progress reporting)."""
        raise NotImplementedError

    @property
    def supports_random_access(self) -> bool:
        """True when :meth:`trial_at` *and* :meth:`expected_trials` are
        implemented (parallel execution needs both: one to evaluate a shard,
        one to enumerate the index space being sharded)."""
        cls = type(self)
        return (
            cls.trial_at is not InjectionStrategy.trial_at
            and cls.expected_trials is not InjectionStrategy.expected_trials
        )

    def _check_index(self, index: int, total: int) -> None:
        if not 0 <= index < total:
            raise IndexError(f"trial index {index} out of range [0, {total})")

    # ------------------------------------------------------------------
    # Fault-model axis (shared by the concrete strategies)
    # ------------------------------------------------------------------
    def _resolved_models(self) -> tuple[FaultModel, ...]:
        """The fault models this strategy sweeps over.

        Strategies historically sweep a tuple of injected constants
        (``values``); the ``models`` field generalises that to arbitrary
        :class:`~repro.faults.models.FaultModel` objects (bit flips,
        accumulator-stage stuck-ats, per-cycle transients, ...).  When
        ``models`` is unset the legacy constant sweep is used, preserving
        the exact trial derivation of existing campaigns.
        """
        models = getattr(self, "models", None)
        if models is not None:
            if not models:
                raise ValueError("models must be a non-empty tuple of fault models")
            return tuple(models)
        return tuple(ConstantValue(v) for v in getattr(self, "values", ()))

    def _models_stage(self, models: tuple[FaultModel, ...]) -> str:
        """The (single) datapath stage the models attack.

        A strategy instance must be homogeneous in stage: the site domain
        (multiplier lanes vs MAC-unit accumulators) depends on it, and mixed
        stages would make the trial index space ambiguous.
        """
        stages = {model.stage for model in models}
        if len(stages) != 1:
            raise ValueError(
                f"strategy {self.name!r} mixes fault-model stages {sorted(stages)}; "
                "use one strategy instance per stage"
            )
        return stages.pop()


@dataclass
class RandomMultipliers(InjectionStrategy):
    """Random multiplier subsets, swept over fault counts and injected values.

    This is the paper's Fig. 2 experiment: for every injected value in
    ``values`` and every fault count in ``fault_counts``, draw
    ``trials_per_point`` random subsets of multipliers and arm them all with
    the constant.  The default parameters reproduce the paper's 210 fault
    injections: 3 values x 7 fault counts x 10 trials.
    """

    values: tuple[int, ...] = (0, 1, -1)
    fault_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
    trials_per_point: int = 10
    name: str = "random-multipliers"
    #: Optional explicit fault-model sweep; overrides ``values`` (which then
    #: only exist for backwards compatibility).  Accumulator-stage models
    #: draw random MAC-unit accumulators instead of multiplier lanes.
    models: tuple[FaultModel, ...] | None = None

    def expected_trials(self, universe: FaultUniverse) -> int:
        return len(self._resolved_models()) * len(self.fault_counts) * self.trials_per_point

    def trial_at(self, universe: FaultUniverse, rng: SeededRNG, index: int) -> StrategyTrial:
        models = self._resolved_models()
        stage = self._models_stage(models)
        per_count = self.trials_per_point
        per_value = len(self.fault_counts) * per_count
        self._check_index(index, len(models) * per_value)
        model = models[index // per_value]
        count = self.fault_counts[(index % per_value) // per_count]
        trial = index % per_count
        # One independent child stream per trial: the sites of trial i depend
        # only on (seed, model, count, i), never on how many trials were drawn
        # before it, so sharding the index space cannot change the randomness.
        # The legacy constant sweep keys the stream by the injected value so
        # that pre-existing campaigns replay identically.
        tag: int | str = (
            self.values[index // per_value] if self.models is None else model.label()
        )
        stream = rng.child("random-multipliers", tag, count, trial).generator()
        if stage == "accumulator":
            sites = universe.random_accumulator_sites(count, stream)
        elif stage == "memory":
            sites = universe.random_memory_sites(count, stream, surface=model.surface)
        else:
            sites = universe.random_sites(count, stream)
        metadata = {"trial": trial}
        if self.models is not None:
            metadata["model"] = model.label()
        return StrategyTrial(
            config=InjectionConfig.uniform(sites, model),
            num_faults=count,
            injected_value=model.constant_override(),
            metadata=metadata,
        )


@dataclass
class ExhaustiveSingleSite(InjectionStrategy):
    """Every (MAC unit, multiplier) site in turn, for each injected value.

    This is the paper's Fig. 3 experiment: one multiplier is consistently
    affected ("complete alteration of the output value"), and the resulting
    accuracy drop is recorded per site, producing one 8x8 heat map per
    injected value.
    """

    values: tuple[int, ...] = (0, 1, -1)
    name: str = "exhaustive-single-site"
    #: Optional explicit fault-model sweep; overrides ``values``.  For
    #: accumulator-stage models the site domain is one accumulator per MAC
    #: unit instead of every multiplier lane.
    models: tuple[FaultModel, ...] | None = None

    def _domain_size(self, universe: FaultUniverse) -> int:
        """Sites per model; identical for every model of a homogeneous stage.

        Memory-surface domains all have the same size (the CBUF fault window
        is surface-independent), so the trial index space stays rectangular
        even when the family mixes weight- and activation-surface models.
        """
        stage = self._models_stage(self._resolved_models())
        if stage == "accumulator":
            return universe.num_macs
        if stage == "memory":
            return universe.memory_size
        return universe.size

    def _domain(self, universe: FaultUniverse, model: FaultModel) -> list:
        if model.stage == "accumulator":
            return universe.accumulator_sites()
        if model.stage == "memory":
            return universe.memory_sites(model.surface)
        return universe.all_sites()

    def expected_trials(self, universe: FaultUniverse) -> int:
        return len(self._resolved_models()) * self._domain_size(universe)

    def trial_at(self, universe: FaultUniverse, rng: SeededRNG, index: int) -> StrategyTrial:
        models = self._resolved_models()
        stage = self._models_stage(models)
        size = self._domain_size(universe)
        self._check_index(index, len(models) * size)
        model = models[index // size]
        site = self._domain(universe, model)[index % size]
        metadata = {"model": model.label()} if self.models is not None else {}
        return StrategyTrial(
            config=InjectionConfig.single(site, model),
            num_faults=1,
            injected_value=model.constant_override(),
            mac_unit=getattr(site, "mac_unit", None),
            multiplier=None if stage != "product" else site.multiplier,
            metadata=metadata,
        )


@dataclass
class PerMACUnitSweep(InjectionStrategy):
    """Arm every multiplier of one whole MAC unit at a time."""

    values: tuple[int, ...] = (0,)
    name: str = "per-mac-unit"
    #: Optional explicit fault-model sweep (product-stage models only: the
    #: strategy arms every lane of a MAC unit, which is meaningless for the
    #: MAC's single accumulator).
    models: tuple[FaultModel, ...] | None = None

    def expected_trials(self, universe: FaultUniverse) -> int:
        return len(self._resolved_models()) * universe.num_macs

    def trial_at(self, universe: FaultUniverse, rng: SeededRNG, index: int) -> StrategyTrial:
        models = self._resolved_models()
        if self._models_stage(models) != "product":
            raise ValueError(
                f"{self.name} arms every multiplier lane of a MAC unit and only "
                "supports product-stage fault models"
            )
        self._check_index(index, len(models) * universe.num_macs)
        model = models[index // universe.num_macs]
        mac = index % universe.num_macs
        sites = universe.sites_in_mac(mac)
        metadata = {"model": model.label()} if self.models is not None else {}
        return StrategyTrial(
            config=InjectionConfig.uniform(sites, model),
            num_faults=len(sites),
            injected_value=model.constant_override(),
            mac_unit=mac,
            metadata=metadata,
        )


@dataclass
class PerMultiplierPositionSweep(InjectionStrategy):
    """Arm the same multiplier position across every MAC unit at a time."""

    values: tuple[int, ...] = (0,)
    name: str = "per-multiplier-position"
    #: Optional explicit fault-model sweep (product-stage models only).
    models: tuple[FaultModel, ...] | None = None

    def expected_trials(self, universe: FaultUniverse) -> int:
        return len(self._resolved_models()) * universe.muls_per_mac

    def trial_at(self, universe: FaultUniverse, rng: SeededRNG, index: int) -> StrategyTrial:
        models = self._resolved_models()
        if self._models_stage(models) != "product":
            raise ValueError(
                f"{self.name} arms one multiplier lane across all MAC units and "
                "only supports product-stage fault models"
            )
        self._check_index(index, len(models) * universe.muls_per_mac)
        model = models[index // universe.muls_per_mac]
        position = index % universe.muls_per_mac
        sites = universe.sites_at_position(position)
        metadata = {"model": model.label()} if self.models is not None else {}
        return StrategyTrial(
            config=InjectionConfig.uniform(sites, model),
            num_faults=len(sites),
            injected_value=model.constant_override(),
            multiplier=position,
            metadata=metadata,
        )


@dataclass
class StratifiedSampling(InjectionStrategy):
    """Stratified single-site sampling over the fault universe.

    The fault universe is partitioned into strata along the platform's two
    structural axes: the datapath **stage** the fault models attack (chosen
    by the model family: multiplier product bus vs MAC accumulator bus) and
    the **MAC unit** (the "layer" of the array the site lives in).  Stratum
    ``h`` is MAC unit ``h`` at the family's stage; ``allocation[h]`` trials
    draw a site uniformly from that stratum, so rare-but-sensitive strata
    can be oversampled instead of hoping uniform sampling hits them.

    The intended workflow is two deterministic campaigns:

    1. a **pilot** round (:meth:`pilot`, uniform allocation) estimates the
       per-stratum accuracy-drop spread;
    2. :func:`~repro.core.stats.neyman_allocation` converts the pilot's
       result into variance-minimising per-stratum counts, and a second
       :class:`StratifiedSampling` campaign runs that allocation.

    Keeping the allocation an explicit constructor argument (rather than
    deriving it inside the strategy) is what preserves the indexable-trial
    protocol: ``trial_at`` stays a pure function of ``(universe, seed,
    index)``, so stratified campaigns shard and resume like any other.

    Every trial records its stratum in ``metadata["stratum"]`` (and
    ``mac_unit``), which the report's per-stratum sensitivity ranking and
    :func:`~repro.core.stats.neyman_allocation` both read.
    """

    #: Trials per stratum; must have one entry per MAC unit of the universe.
    allocation: tuple[int, ...] = ()
    values: tuple[int, ...] = (0,)
    name: str = "stratified"
    #: Optional explicit fault-model sweep; overrides ``values``.
    models: tuple[FaultModel, ...] | None = None

    @classmethod
    def pilot(
        cls,
        num_strata: int,
        trials_per_stratum: int,
        *,
        values: tuple[int, ...] = (0,),
        models: tuple[FaultModel, ...] | None = None,
        name: str = "stratified-pilot",
    ) -> "StratifiedSampling":
        """Uniform pilot allocation: ``trials_per_stratum`` per stratum."""
        if num_strata < 1 or trials_per_stratum < 1:
            raise ValueError("pilot needs >= 1 stratum and >= 1 trial per stratum")
        return cls(
            allocation=(trials_per_stratum,) * num_strata,
            values=values,
            models=models,
            name=name,
        )

    def _check_allocation(self, universe: FaultUniverse) -> None:
        if not self.allocation:
            raise ValueError(f"strategy {self.name!r} has an empty stratum allocation")
        if len(self.allocation) != universe.num_macs:
            raise ValueError(
                f"strategy {self.name!r} allocates {len(self.allocation)} strata but "
                f"the universe has {universe.num_macs} MAC units (one stratum per MAC)"
            )
        if any(count < 0 for count in self.allocation):
            raise ValueError(f"strategy {self.name!r} has negative stratum counts")

    def expected_trials(self, universe: FaultUniverse) -> int:
        self._check_allocation(universe)
        return len(self._resolved_models()) * sum(self.allocation)

    def trial_at(self, universe: FaultUniverse, rng: SeededRNG, index: int) -> StrategyTrial:
        models = self._resolved_models()
        stage = self._models_stage(models)
        if stage == "memory":
            raise ValueError(
                f"{self.name} stratifies over MAC units and does not support "
                "memory-stage fault models; use the random or exhaustive "
                "strategies for CBUF/CSB sites"
            )
        self._check_allocation(universe)
        per_model = sum(self.allocation)
        self._check_index(index, len(models) * per_model)
        model = models[index // per_model]
        offset = index % per_model
        stratum, trial = 0, offset
        for stratum, count in enumerate(self.allocation):
            if trial < count:
                break
            trial -= count
        # One child stream per (model, stratum, trial): trial i's site draw
        # depends only on its own coordinates, never on iteration order.
        tag: int | str = (
            self.values[index // per_model] if self.models is None else model.label()
        )
        stream = rng.child("stratified", tag, stratum, trial).generator()
        if stage == "accumulator":
            site = FaultSite(stratum, 0)
        else:
            site = FaultSite(stratum, int(stream.integers(universe.muls_per_mac)))
        metadata: dict = {"stratum": stratum, "trial": trial}
        if self.models is not None:
            metadata["model"] = model.label()
        return StrategyTrial(
            config=InjectionConfig.single(site, model),
            num_faults=1,
            injected_value=model.constant_override(),
            mac_unit=stratum,
            multiplier=None if stage == "accumulator" else site.multiplier,
            metadata=metadata,
        )


@dataclass
class FixedConfigurations(InjectionStrategy):
    """Run an explicit, user-supplied list of configurations (power users)."""

    configurations: list[InjectionConfig] = field(default_factory=list)
    name: str = "fixed"

    def expected_trials(self, universe: FaultUniverse) -> int:
        return len(self.configurations)

    def trial_at(self, universe: FaultUniverse, rng: SeededRNG, index: int) -> StrategyTrial:
        self._check_index(index, len(self.configurations))
        config = self.configurations[index]
        values = {m.constant_override() for m in config.faults.values()}
        value = values.pop() if len(values) == 1 else None
        sites = config.sites
        return StrategyTrial(
            config=config,
            num_faults=len(config),
            injected_value=value,
            mac_unit=getattr(sites[0], "mac_unit", None) if len(sites) == 1 else None,
            multiplier=getattr(sites[0], "multiplier", None) if len(sites) == 1 else None,
        )
