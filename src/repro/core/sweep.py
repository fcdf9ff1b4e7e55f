"""Declarative scenario sweeps: experiment grids over the platform's axes.

A fault-injection *campaign* evaluates one strategy on one model on one
platform.  A *sweep* evaluates the cross product of four declarative axes —

* **models** — named case-study variants from the zoo (width, epochs, ...),
* **faults** — fault-model families (constant overrides, bit flips,
  accumulator-stage stuck-ats, per-cycle transients, ...),
* **strategies** — how sites are selected per trial (random subsets,
  exhaustive single-site, per-MAC/-position sweeps),
* **platforms** — MAC-array geometry and engine configuration,

— as one :class:`ScenarioGrid` of independent scenarios.  Every scenario is
compiled once (workers record the clean-activation tape during their baseline
pass) and executed as deterministic trial shards through
:class:`~repro.core.parallel.ParallelCampaignRunner`, so the merged sweep
artifact is bit-identical for any worker count and survives kill + resume
exactly like a single campaign does.

The grid is a *bijection* over the declared axes: every
``(model, fault, strategy, platform)`` cell appears exactly once, in the
deterministic nested order models -> faults -> strategies -> platforms.
Incompatible cells (e.g. an accumulator-stage family under a per-lane
sweep strategy) fail grid construction loudly instead of being skipped.

Specs are plain dicts and can be loaded from JSON or TOML files::

    images = 32
    seed = 0

    [[models]]
    name = "w0.125"
    params = { width_multiplier = 0.125, epochs = 1 }

    [[faults]]
    name = "const0"
    kind = "const"
    values = [0]

    [[faults]]
    name = "acc21"
    kind = "acc-stuck"
    bits = [21]
    stuck = 1

    [[strategies]]
    name = "random"
    kind = "random"
    counts = [1, 2]
    trials = 2

    [adaptive]               # optional: confidence-bounded stopping per scenario
    target_half_width = 0.03
    round_size = 8

Artifacts (under ``--sweep-dir``)::

    scenarios/<model>/<fault>/<strategy>/<platform>.jsonl   per-scenario checkpoint
    sweep.jsonl                  merged scenario + record lines (deterministic)
    sweep.json                   spec + per-scenario summaries + wall times
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.campaign import CampaignConfig
from repro.core.parallel import ParallelCampaignRunner, PlatformSpec
from repro.core.platform import PlatformConfig
from repro.core.registry import (
    FAULTS,
    MODELS,
    PLATFORMS,
    STRATEGIES,
    axis_provenance,
    registry_digest,
)
from repro.core.results import CampaignResult
from repro.core.stats import AdaptiveCampaignPlan
from repro.core.strategies import InjectionStrategy
from repro.faults.models import FaultModel
from repro.utils.checked import type_problem
from repro.utils.durable import durable_write_text
from repro.utils.jsonsafe import dump_json_safe
from repro.utils.logging import get_logger
from repro.utils.telemetry import TELEMETRY

logger = get_logger(__name__)

#: Keys of :meth:`TrialRecord.to_dict` / scenario headers that carry
#: accuracy floats.  The structure digest strips them so it certifies trial
#: derivation, sharding and serialisation independently of the BLAS builds
#: that trained the model.
_VOLATILE_KEYS = ("accuracy", "accuracy_drop", "baseline_accuracy")


def _slug(name: str) -> str:
    """Filename- and record-safe version of an axis name."""
    slug = re.sub(r"[^A-Za-z0-9._+-]+", "-", str(name)).strip("-")
    if not slug:
        raise ValueError(f"axis name {name!r} has no filename-safe characters")
    return slug


def _pop_name(data: dict, default: str) -> str:
    return _slug(data.pop("name", None) or default)


class _NamedAxis:
    """Shared validation: axis names must be slug-safe however constructed.

    Scenario ids join four axis names with ``/`` and checkpoint paths split
    them back, so a name containing a separator (possible on the
    programmatic construction path, which bypasses ``from_dict``'s slugging)
    would corrupt the id-to-path mapping — reject it at construction time.
    """

    def __post_init__(self) -> None:
        if self.name != _slug(self.name):
            raise ValueError(
                f"axis name {self.name!r} is not filename-safe; use characters "
                f"[A-Za-z0-9._+-] (e.g. {_slug(self.name)!r})"
            )


# ----------------------------------------------------------------------
# Axes (kind + params resolved through repro.core.registry)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelAxis(_NamedAxis):
    """One model cell: a registered model kind plus variant/overrides."""

    name: str
    variant: str | None = None
    params: dict = field(default_factory=dict)
    kind: str = "case-study"

    def _registry_params(self) -> dict:
        params = dict(self.params)
        if self.variant is not None:
            params.setdefault("variant", self.variant)
        return params

    def case_spec(self):
        """Resolve to the :class:`~repro.zoo.CaseStudySpec` this cell trains."""
        return MODELS.build(
            self.kind, self._registry_params(), context=f"model axis {self.name!r}"
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ModelAxis":
        data = dict(data)
        kind = data.pop("kind", "case-study")
        variant = data.pop("variant", None)
        params = dict(data.pop("params", {}))
        params.update(data.pop("extra", {}))
        name = _pop_name(data, variant or "default")
        params.update(data)  # inline keys are model-kind parameters
        return cls(name=name, variant=variant, params=params, kind=kind)

    def to_dict(self) -> dict:
        out: dict = {"name": self.name}
        if self.kind != "case-study":
            out["kind"] = self.kind
        if self.variant:
            out["variant"] = self.variant
        if self.params:
            out["params"] = dict(self.params)
        return out

    def provenance(self) -> dict:
        return axis_provenance(MODELS, self.kind, self._registry_params())


@dataclass(frozen=True)
class FaultAxis(_NamedAxis):
    """One fault-model family: the tuple of models a strategy sweeps over."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def build(self) -> tuple[FaultModel, ...]:
        models = tuple(
            FAULTS.build(self.kind, self.params, context=f"fault axis {self.name!r}")
        )
        if not models:
            raise ValueError(f"fault axis {self.name!r} builds no fault models")
        return models

    @property
    def stage(self) -> str:
        """Datapath stage the family attacks (all models of a family share it)."""
        return self.build()[0].stage

    @classmethod
    def from_dict(cls, data: dict) -> "FaultAxis":
        data = dict(data)
        kind = data.pop("kind", None)
        if not kind:
            raise ValueError(f"fault axis entry {data!r} needs a 'kind'")
        params = dict(data.pop("params", {}))
        name = _pop_name(data, kind)
        params.update(data)
        return cls(name=name, kind=kind, params=params)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, **dict(self.params)}

    def provenance(self) -> dict:
        return axis_provenance(FAULTS, self.kind, self.params)


@dataclass(frozen=True)
class StrategyAxis(_NamedAxis):
    """One injection-strategy cell, instantiated per fault family."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def build(self, models: tuple[FaultModel, ...], name: str) -> InjectionStrategy:
        context = f"strategy axis {self.name!r}"
        entry = STRATEGIES.get(self.kind, context=context)
        stage = models[0].stage
        if entry.stages is not None and stage not in entry.stages:
            supported = "/".join(entry.stages)
            raise ValueError(
                f"{context} ({self.kind}) supports {supported}-stage fault "
                f"families only and cannot sweep a {stage}-stage family"
            )
        return STRATEGIES.build(self.kind, self.params, context=context, models=models, name=name)

    @classmethod
    def from_dict(cls, data: dict) -> "StrategyAxis":
        data = dict(data)
        kind = data.pop("kind", None)
        if not kind:
            raise ValueError(f"strategy axis entry {data!r} needs a 'kind'")
        params = dict(data.pop("params", {}))
        name = _pop_name(data, kind)
        params.update(data)
        return cls(name=name, kind=kind, params=params)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, **dict(self.params)}

    def provenance(self) -> dict:
        return axis_provenance(STRATEGIES, self.kind, self.params)


@dataclass(frozen=True, init=False)
class PlatformAxis(_NamedAxis):
    """One platform cell: a registered platform kind plus its parameters.

    Historical geometry keywords (``num_macs=4, muls_per_mac=2, ...``) are
    accepted directly and folded into ``params``, so programmatic
    construction predating the registry keeps working unchanged.
    """

    name: str
    kind: str = "nvdla"
    params: dict = field(default_factory=dict)

    def __init__(self, name: str, kind: str = "nvdla", params: dict | None = None, **legacy):
        merged = dict(params or {})
        merged.update(legacy)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", merged)
        self.__post_init__()

    def config(self) -> PlatformConfig:
        return PLATFORMS.build(
            self.kind,
            self.params,
            context=f"platform axis {self.name!r}",
            name=self.name,
        )

    @property
    def num_macs(self) -> int:
        return self.config().geometry.num_macs

    @property
    def muls_per_mac(self) -> int:
        return self.config().geometry.muls_per_mac

    @classmethod
    def from_dict(cls, data: dict) -> "PlatformAxis":
        data = dict(data)
        kind = data.pop("kind", "nvdla")
        params = dict(data.pop("params", {}))
        # Default the axis name to the resolved geometry ("8x8") when the
        # kind's schema carries one, else to the kind itself; resolution
        # failures fall through to validation, which reports them properly.
        try:
            resolved = PLATFORMS.resolve(
                kind, {**params, **{k: v for k, v in data.items() if k != "name"}}
            )
        except ValueError:
            resolved = {}
        if "num_macs" in resolved and "muls_per_mac" in resolved:
            default_name = f"{resolved['num_macs']}x{resolved['muls_per_mac']}"
        else:
            default_name = kind
        name = _pop_name(data, default_name)
        params.update(data)  # inline keys are platform-kind parameters
        return cls(name=name, kind=kind, params=params)

    def to_dict(self) -> dict:
        try:
            resolved = PLATFORMS.resolve(self.kind, self.params)
        except ValueError:
            resolved = dict(self.params)
        return {"name": self.name, "kind": self.kind, **resolved}

    def provenance(self) -> dict:
        return axis_provenance(PLATFORMS, self.kind, self.params)


# ----------------------------------------------------------------------
# Spec and grid
# ----------------------------------------------------------------------
@dataclass
class ExperimentSpec:
    """Declarative description of a scenario sweep (the four axes + knobs)."""

    models: list[ModelAxis] = field(default_factory=lambda: [ModelAxis(name="default")])
    faults: list[FaultAxis] = field(
        default_factory=lambda: [FaultAxis(name="const0", kind="const", params={"values": (0,)})]
    )
    strategies: list[StrategyAxis] = field(
        default_factory=lambda: [StrategyAxis(name="random", kind="random")]
    )
    platforms: list[PlatformAxis] = field(default_factory=lambda: [PlatformAxis(name="8x8")])
    #: Evaluation images per trial (head of each model's test split).
    images: int = 64
    #: Campaign seed shared by every scenario (site draws stay independent:
    #: each trial derives its stream from its own coordinates).
    seed: int = 0
    batch_size: int = 64
    #: Optional adaptive-stopping plan applied to every scenario's campaign
    #: (an ``[adaptive]`` table in the spec file; see
    #: :class:`~repro.core.stats.AdaptiveCampaignPlan`).
    adaptive: AdaptiveCampaignPlan | None = None
    #: Fault-tolerance knobs forwarded to every scenario's campaign runner
    #: (``None`` = the :class:`~repro.core.campaign.CampaignConfig` default).
    #: Purely operational: retries/deadlines change wall-clock behaviour,
    #: never records, so they are *not* part of scenario identity.
    max_shard_retries: int | None = None
    shard_timeout: float | None = None
    retry_backoff: float | None = None

    def __post_init__(self) -> None:
        for axis_name, axis in (
            ("models", self.models),
            ("faults", self.faults),
            ("strategies", self.strategies),
            ("platforms", self.platforms),
        ):
            if not axis:
                raise ValueError(f"sweep spec needs at least one entry in {axis_name!r}")
            names = [entry.name for entry in axis]
            if len(names) != len(set(names)):
                raise ValueError(f"duplicate names in {axis_name!r}: {sorted(names)}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        data = dict(data)
        models = [ModelAxis.from_dict(d) for d in data.pop("models", [])]
        faults = [FaultAxis.from_dict(d) for d in data.pop("faults", [])]
        strategies = [StrategyAxis.from_dict(d) for d in data.pop("strategies", [])]
        platforms = [PlatformAxis.from_dict(d) for d in data.pop("platforms", [])]
        kwargs = {}
        for key in ("images", "seed", "batch_size"):
            if key in data:
                kwargs[key] = int(data.pop(key))
        if "max_shard_retries" in data:
            kwargs["max_shard_retries"] = int(data.pop("max_shard_retries"))
        for key in ("shard_timeout", "retry_backoff"):
            if key in data:
                kwargs[key] = float(data.pop(key))
        adaptive = data.pop("adaptive", None)
        if adaptive is not None:
            kwargs["adaptive"] = AdaptiveCampaignPlan.from_dict(adaptive)
        if data:
            raise ValueError(f"unknown sweep spec keys {sorted(data)}")
        spec = cls(**kwargs)
        if models:
            spec.models = models
        if faults:
            spec.faults = faults
        if strategies:
            spec.strategies = strategies
        if platforms:
            spec.platforms = platforms
        spec.__post_init__()
        return spec

    @classmethod
    def from_file(cls, path: Path | str) -> "ExperimentSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        return cls.from_dict(load_spec_data(path))

    def to_dict(self) -> dict:
        out = {
            "images": self.images,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "models": [m.to_dict() for m in self.models],
            "faults": [f.to_dict() for f in self.faults],
            "strategies": [s.to_dict() for s in self.strategies],
            "platforms": [p.to_dict() for p in self.platforms],
        }
        if self.adaptive is not None:
            out["adaptive"] = self.adaptive.to_dict()
        for key in ("max_shard_retries", "shard_timeout", "retry_backoff"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def grid(self) -> "ScenarioGrid":
        return ScenarioGrid(self)


@dataclass(frozen=True)
class Scenario:
    """One cell of the grid: (model, fault family, strategy, platform)."""

    scenario_id: str
    model: ModelAxis
    fault: FaultAxis
    strategy: StrategyAxis
    platform: PlatformAxis
    #: Axis indices ``(model, fault, strategy, platform)`` of this cell.
    cell: tuple[int, int, int, int]

    def build_strategy(self) -> InjectionStrategy:
        """Instantiate this cell's strategy, armed with its fault family."""
        return self.strategy.build(
            self.fault.build(), name=f"{self.strategy.name}|{self.fault.name}"
        )

    def platform_config(self) -> PlatformConfig:
        return self.platform.config()

    def platform_key(self) -> tuple[str, str]:
        """The (model, platform) cell by axis *contents*, not names: hand-
        assembled scenario lists may reuse a name for different parameters,
        and those must not share a trained platform."""
        return (
            json.dumps(self.model.to_dict(), sort_keys=True),
            json.dumps(self.platform.to_dict(), sort_keys=True),
        )

    def checkpoint_name(self) -> Path:
        """Relative checkpoint path: one directory level per axis.

        Axis names are unique within their axis and every id has exactly
        four segments, so the mapping scenario -> path is collision-free
        (joining with a separator string would let names containing the
        separator collide).
        """
        model, fault, strategy, platform = self.scenario_id.split("/")
        return Path(model) / fault / strategy / f"{platform}.jsonl"

    def provenance(self) -> dict:
        """Registry provenance of this cell: digest + resolved axis params."""
        return {
            "registry_digest": registry_digest(),
            "model": self.model.provenance(),
            "fault": self.fault.provenance(),
            "strategy": self.strategy.provenance(),
            "platform": self.platform.provenance(),
        }


class ScenarioGrid:
    """The deterministic cross product of an :class:`ExperimentSpec`'s axes.

    Enumeration is a bijection: every ``(model, fault, strategy, platform)``
    cell appears exactly once, in nested order (models outermost, platforms
    innermost), with a unique ``scenario_id``.  Incompatible cells raise at
    construction time.
    """

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self.scenarios: list[Scenario] = []
        geometries = {p.name: p.config().geometry for p in spec.platforms}
        for mi, model in enumerate(spec.models):
            for fi, fault in enumerate(spec.faults):
                for si, strategy in enumerate(spec.strategies):
                    for pi, platform in enumerate(spec.platforms):
                        scenario = Scenario(
                            scenario_id=f"{model.name}/{fault.name}/{strategy.name}/{platform.name}",
                            model=model,
                            fault=fault,
                            strategy=strategy,
                            platform=platform,
                            cell=(mi, fi, si, pi),
                        )
                        # Validate the cell eagerly: strategy/fault stage
                        # compatibility and site-domain bounds fail here,
                        # not hours into the sweep.
                        built = scenario.build_strategy()
                        problem = _cell_error(
                            scenario.scenario_id,
                            built,
                            fault.stage,
                            geometries[platform.name],
                        )
                        if problem is not None:
                            raise ValueError(problem)
                        self.scenarios.append(scenario)
        # Scenario ids are unique by construction here: the spec enforces
        # unique, slug-safe (separator-free) names per axis, and every cell
        # of the cross product joins one name from each axis.  Hand-built
        # scenario sequences bypass this — SweepRunner re-checks ids so no
        # duplicate can silently share a checkpoint file.

    def ids(self) -> list[str]:
        return [s.scenario_id for s in self.scenarios]

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)


def _cell_error(scenario_id: str, built: InjectionStrategy, stage: str, geometry) -> str | None:
    """Cross-axis problem of one grid cell, or ``None`` if the cell is valid.

    Shared by eager grid construction (raise on first) and the validator
    pass (collect all), so the two can never disagree on what a legal cell
    is.
    """
    allocation = getattr(built, "allocation", None)
    if allocation is not None and len(allocation) != geometry.num_macs:
        return (
            f"scenario {scenario_id!r}: stratified allocation covers "
            f"{len(allocation)} strata but the platform has "
            f"{geometry.num_macs} MAC units"
        )
    counts = getattr(built, "fault_counts", ())
    if stage == "accumulator":
        domain = geometry.num_macs
        what = "MAC-unit accumulators"
    elif stage == "memory":
        from repro.faults.sites import MEMORY_WINDOW_BYTES

        domain = MEMORY_WINDOW_BYTES * 8
        what = "memory bit sites in the CBUF fault window"
    else:
        domain = geometry.num_macs * geometry.muls_per_mac
        what = "multiplier sites"
    if counts and max(counts) > domain:
        return (
            f"scenario {scenario_id!r}: fault count {max(counts)} exceeds "
            f"the {domain} {what} of the platform"
        )
    return None


# ----------------------------------------------------------------------
# Validation (validate-before-compute)
# ----------------------------------------------------------------------
def load_spec_data(path: Path | str) -> dict:
    """Parse a ``.toml``/``.json`` spec file into its raw dict.

    Parse failures raise :class:`ValueError` naming the file, so the CLI
    can surface them as clean errors instead of parser tracebacks.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path}: {exc}") from exc
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"spec file {path} is not valid TOML: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(
            f"spec file {path} must contain a table/object, "
            f"got {type(data).__name__}"
        )
    return data


def _dedup(errors: list[str]) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for error in errors:
        for line in error.splitlines():
            if line not in seen:
                seen.add(line)
                out.append(line)
    return out


def validate_spec(spec: ExperimentSpec) -> list[str]:
    """Every problem of an assembled spec against the live registries.

    Checks run in two stages — per-axis schema validation first, then (only
    on schema-clean axes) builds and cross-axis cell checks — and *all*
    problems are returned at once, so one validation round fixes a whole
    spec.  An empty list means the spec's grid will construct and every
    scenario can start.
    """
    errors: list[str] = []
    axis_specs = (
        ("model", MODELS, spec.models),
        ("fault", FAULTS, spec.faults),
        ("strategy", STRATEGIES, spec.strategies),
        ("platform", PLATFORMS, spec.platforms),
    )
    clean: dict[str, list] = {}
    for label, registry, axes in axis_specs:
        clean[label] = []
        for axis in axes:
            params = axis._registry_params() if isinstance(axis, ModelAxis) else axis.params
            problems = registry.validate_params(
                axis.kind, params, context=f"{label} axis {axis.name!r}"
            )
            if problems:
                errors.extend(problems)
            else:
                clean[label].append(axis)

    for model in clean["model"]:
        try:
            model.case_spec()
        except ValueError as exc:
            errors.append(str(exc))

    fault_models: dict[str, tuple[FaultModel, ...]] = {}
    for fault in clean["fault"]:
        try:
            fault_models[fault.name] = fault.build()
        except ValueError as exc:
            errors.append(str(exc))

    geometries: dict[str, Any] = {}
    for platform in clean["platform"]:
        try:
            geometries[platform.name] = platform.config().geometry
        except ValueError as exc:
            errors.append(str(exc))

    for fault in clean["fault"]:
        models = fault_models.get(fault.name)
        if models is None:
            continue
        for strategy in clean["strategy"]:
            try:
                built = strategy.build(models, name=f"{strategy.name}|{fault.name}")
            except ValueError as exc:
                errors.append(str(exc))
                continue
            for platform in clean["platform"]:
                geometry = geometries.get(platform.name)
                if geometry is None:
                    continue
                scenario_id = f"*/{fault.name}/{strategy.name}/{platform.name}"
                problem = _cell_error(scenario_id, built, fault.stage, geometry)
                if problem is not None:
                    errors.append(problem)
    return _dedup(errors)


#: Scalar spec keys and their :data:`repro.utils.checked.TYPES` types.
_SPEC_SCALARS = {
    "images": "int", "seed": "int", "batch_size": "int", "max_shard_retries": "int",
    "shard_timeout": "float", "retry_backoff": "float",
}


def validate_spec_data(data: dict) -> list[str]:
    """Every problem of a raw spec dict (as loaded from TOML/JSON).

    The dict-level wrapper around :func:`validate_spec`: additionally
    catches malformed axis entries, bad scalar knobs, an invalid
    ``[adaptive]`` table, duplicate axis names and unknown top-level keys —
    everything ``ExperimentSpec.from_dict`` would raise on, collected
    instead of raised one at a time.
    """
    if not isinstance(data, dict):
        return [f"sweep spec must be a table/object, got {type(data).__name__}"]
    data = dict(data)
    errors: list[str] = []
    axes: dict[str, list] = {}
    for key, axis_cls in (
        ("models", ModelAxis),
        ("faults", FaultAxis),
        ("strategies", StrategyAxis),
        ("platforms", PlatformAxis),
    ):
        entries = data.pop(key, [])
        axes[key] = []
        if not isinstance(entries, list):
            errors.append(
                f"{key!r} must be an array of tables, got {type(entries).__name__}"
            )
            continue
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                errors.append(
                    f"{key}[{index}] must be a table, got {type(entry).__name__}"
                )
                continue
            try:
                axes[key].append(axis_cls.from_dict(entry))
            except ValueError as exc:
                errors.append(str(exc))
        names = [axis.name for axis in axes[key]]
        if len(names) != len(set(names)):
            errors.append(f"duplicate names in {key!r}: {sorted(names)}")

    for key, type_name in _SPEC_SCALARS.items():
        if key in data:
            value = data.pop(key)
            problem = type_problem(type_name, value)
            if problem:
                errors.append(f"spec key {key!r} {problem}")
            elif key == "max_shard_retries" and value < 0:
                errors.append(f"spec key 'max_shard_retries' must be >= 0, got {value}")
            elif key == "shard_timeout" and value <= 0:
                errors.append(f"spec key 'shard_timeout' must be positive, got {value}")
            elif key == "retry_backoff" and value < 0:
                errors.append(f"spec key 'retry_backoff' must be >= 0, got {value}")
    adaptive = data.pop("adaptive", None)
    if adaptive is not None:
        try:
            AdaptiveCampaignPlan.from_dict(adaptive)
        except (TypeError, ValueError) as exc:
            errors.append(f"invalid [adaptive] table: {exc}")
    if data:
        errors.append(f"unknown sweep spec keys {sorted(data)}")

    # Cross-axis checks need assembled axes; run them on whatever parsed
    # cleanly so axis-level and cell-level problems surface together.
    probe = ExperimentSpec.__new__(ExperimentSpec)
    probe.models = axes["models"] or [ModelAxis(name="default")]
    probe.faults = axes["faults"] or ExperimentSpec().faults
    probe.strategies = axes["strategies"] or ExperimentSpec().strategies
    probe.platforms = axes["platforms"] or ExperimentSpec().platforms
    errors.extend(validate_spec(probe))
    return _dedup(errors)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """One scenario's campaign result."""

    scenario: Scenario
    result: CampaignResult


@dataclass
class SweepResult:
    """All scenario results of one sweep, with deterministic serialisation."""

    scenario_results: list[ScenarioResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Memoised structure digest (serialising every record is O(records);
    #: summary(), to_dict() and the CLI all ask for the same value).
    _structure_digest: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.scenario_results)

    def results_by_id(self) -> dict[str, CampaignResult]:
        return {sr.scenario.scenario_id: sr.result for sr in self.scenario_results}

    def _merged_line_dicts(self) -> Iterator[dict]:
        """One dict per merged-JSONL line, in deterministic sweep order.

        Scenario lines carry campaign identity; record lines are the trial
        records tagged with their scenario id.  Wall-clock and throughput
        numbers are deliberately excluded: the merged artifact must be
        bit-identical for any worker count.
        """
        for sr in self.scenario_results:
            result = sr.result
            yield {
                "kind": "scenario",
                "scenario": sr.scenario.scenario_id,
                "cell": list(sr.scenario.cell),
                "strategy": result.strategy,
                "seed": result.seed,
                "num_images": result.num_images,
                "total_trials": len(result.records),
                "baseline_accuracy": result.baseline_accuracy,
            }
            for record in result.records:
                yield {"kind": "record", "scenario": sr.scenario.scenario_id, **record.to_dict()}

    def merged_jsonl_text(self) -> str:
        """The merged sweep artifact (``sweep.jsonl``) as one string."""
        return "".join(
            json.dumps(line, sort_keys=True) + "\n" for line in self._merged_line_dicts()
        )

    def digest(self) -> str:
        """SHA-256 of the merged JSONL (includes accuracies)."""
        return hashlib.sha256(self.merged_jsonl_text().encode("utf-8")).hexdigest()

    def structure_digest(self) -> str:
        """SHA-256 of the merged JSONL with accuracy floats stripped.

        This digest freezes trial derivation (which sites each trial arms),
        sharding (record order and indices) and record serialisation, while
        staying independent of the floating-point training/calibration that
        produced the model — so it is stable across BLAS builds and suitable
        as a golden value in CI.
        """
        if self._structure_digest is None:
            hasher = hashlib.sha256()
            for line in self._merged_line_dicts():
                stripped = {k: v for k, v in line.items() if k not in _VOLATILE_KEYS}
                hasher.update(json.dumps(stripped, sort_keys=True).encode("utf-8"))
                hasher.update(b"\n")
            self._structure_digest = hasher.hexdigest()
        return self._structure_digest

    def summary(self) -> dict:
        return {
            "num_scenarios": len(self.scenario_results),
            "num_trials": sum(len(sr.result) for sr in self.scenario_results),
            "wall_seconds": self.wall_seconds,
            "structure_digest": self.structure_digest(),
            "scenarios": [
                {
                    "scenario": sr.scenario.scenario_id,
                    "cell": list(sr.scenario.cell),
                    **sr.result.summary(),
                }
                for sr in self.scenario_results
            ],
        }

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "structure_digest": self.structure_digest(),
            "registry_digest": registry_digest(),
            "scenarios": [
                {
                    "scenario": sr.scenario.scenario_id,
                    "cell": list(sr.scenario.cell),
                    "model": sr.scenario.model.to_dict(),
                    "fault": sr.scenario.fault.to_dict(),
                    "strategy": sr.scenario.strategy.to_dict(),
                    "platform": sr.scenario.platform.to_dict(),
                    "provenance": sr.scenario.provenance(),
                    "result": sr.result.to_dict(),
                }
                for sr in self.scenario_results
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return dump_json_safe(self.to_dict(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
#: Resolver signature: scenario -> (platform spec, eval images, eval labels).
ScenarioResolver = Callable[[Scenario], tuple[PlatformSpec, np.ndarray, np.ndarray]]


def resolve_scenario(
    scenario: Scenario, images: int, cache_dir: Path | str | None = None
) -> tuple[PlatformSpec, np.ndarray, np.ndarray]:
    """The zoo's resolver: the scenario model's platform spec (trained or
    loaded through the model cache) and its first ``images`` test images.

    Local sweeps and fleet nodes both resolve scenarios through this, so
    a scenario names the same platform and evaluation set everywhere.
    """
    from repro.zoo import case_study_platform_spec

    platform_spec, case = case_study_platform_spec(
        scenario.model.case_spec(),
        platform_config=scenario.platform_config(),
        cache_dir=cache_dir,
    )
    return (
        platform_spec,
        case.dataset.test_images[:images],
        case.dataset.test_labels[:images],
    )


class SweepRunner:
    """Executes every scenario of a grid through the parallel campaign runner.

    Each scenario runs as its own checkpointed campaign (one JSONL file per
    scenario under ``<sweep_dir>/scenarios/``); ``resume=True`` completes
    exactly the missing trials of a killed sweep.  Scenarios sharing a
    (model, platform) cell reuse one trained platform spec, and each worker
    records its clean-activation tape during the scenario's baseline pass.

    A custom ``resolver`` replaces the zoo lookup (e.g. in tests, where a
    tiny pre-trained platform spec stands in for the case-study model).
    """

    def __init__(
        self,
        grid: ScenarioGrid | Sequence[Scenario],
        *,
        workers: int = 1,
        sweep_dir: Path | str | None = None,
        resume: bool = False,
        images: int | None = None,
        seed: int | None = None,
        batch_size: int | None = None,
        resolver: ScenarioResolver | None = None,
        cache_dir: Path | str | None = None,
        plan: AdaptiveCampaignPlan | None = None,
        fused_trials: int = 8,
        max_shard_retries: int | None = None,
        shard_timeout: float | None = None,
        retry_backoff: float | None = None,
        poison_policy: str | None = None,
        chaos=None,
    ):
        spec = grid.spec if isinstance(grid, ScenarioGrid) else None
        self.scenarios = list(grid)
        if not self.scenarios:
            raise ValueError("sweep needs at least one scenario")
        # Hand-assembled scenario sequences bypass the spec's unique-name
        # enforcement; duplicate ids would silently share one checkpoint
        # file (and overwrite each other's merged lines), so reject them.
        ids = [s.scenario_id for s in self.scenarios]
        if len(ids) != len(set(ids)):
            duplicates = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"scenario ids are not unique: {duplicates}")
        # Pre-flight: re-validate the spec against the live registries so a
        # spec that slipped past grid construction (e.g. kinds unregistered
        # since) fails here, before any trial executes.
        if spec is not None:
            problems = validate_spec(spec)
            if problems:
                raise ValueError("invalid sweep spec:\n" + "\n".join(problems))
        self.workers = workers
        self.sweep_dir = Path(sweep_dir) if sweep_dir is not None else None
        self.resume = resume
        self.images = images if images is not None else (spec.images if spec else 64)
        self.seed = seed if seed is not None else (spec.seed if spec else 0)
        self.batch_size = (
            batch_size if batch_size is not None else (spec.batch_size if spec else 64)
        )
        self.plan = plan if plan is not None else (spec.adaptive if spec else None)
        self.resolver = resolver or functools.partial(
            resolve_scenario, images=self.images, cache_dir=cache_dir
        )
        #: Trials per fused engine pass inside every scenario campaign
        #: (1 disables fusion; scenario records are bit-identical either way).
        self.fused_trials = fused_trials
        #: Fault-tolerance knobs for every scenario campaign: explicit
        #: argument > spec value > CampaignConfig default.  Operational
        #: only — they never change scenario records.
        self.max_shard_retries = (
            max_shard_retries
            if max_shard_retries is not None
            else (spec.max_shard_retries if spec else None)
        )
        self.shard_timeout = (
            shard_timeout if shard_timeout is not None else (spec.shard_timeout if spec else None)
        )
        self.retry_backoff = (
            retry_backoff if retry_backoff is not None else (spec.retry_backoff if spec else None)
        )
        self.poison_policy = poison_policy
        #: Deterministic harness-fault plan applied to every scenario's
        #: workers (chaos-testing machinery; leave None in real sweeps).
        self.chaos = chaos
        self._spec = spec

    def _checkpoint_path(self, scenario: Scenario) -> Path | None:
        if self.sweep_dir is None:
            return None
        return self.sweep_dir / "scenarios" / scenario.checkpoint_name()

    def run(self) -> SweepResult:
        """Execute all scenarios and write the merged artifacts."""
        start = time.perf_counter()
        resolved: dict[tuple[str, str], tuple[PlatformSpec, np.ndarray, np.ndarray]] = {}
        scenario_results: list[ScenarioResult] = []
        for number, scenario in enumerate(self.scenarios, start=1):
            key = scenario.platform_key()
            if key not in resolved:
                resolved[key] = self.resolver(scenario)
            platform_spec, images, labels = resolved[key]
            logger.info(
                "scenario %d/%d: %s", number, len(self.scenarios), scenario.scenario_id
            )
            runner = ParallelCampaignRunner(
                platform_spec,
                scenario.build_strategy(),
                CampaignConfig(
                    batch_size=self.batch_size,
                    seed=self.seed,
                    fused_trials=self.fused_trials,
                    chaos=self.chaos,
                    **{
                        key: value
                        for key, value in (
                            ("max_shard_retries", self.max_shard_retries),
                            ("shard_timeout", self.shard_timeout),
                            ("retry_backoff", self.retry_backoff),
                            ("poison_policy", self.poison_policy),
                        )
                        if value is not None
                    },
                ),
                workers=self.workers,
                checkpoint=self._checkpoint_path(scenario),
                resume=self.resume,
                plan=self.plan,
            )
            with TELEMETRY.span(
                "sweep.scenario",
                scenario=scenario.scenario_id,
                number=number,
                total=len(self.scenarios),
            ) as span:
                result = runner.run(images, labels)
                span["num_records"] = len(result)
            result.provenance = scenario.provenance()
            scenario_results.append(ScenarioResult(scenario=scenario, result=result))
        sweep = SweepResult(
            scenario_results=scenario_results,
            wall_seconds=time.perf_counter() - start,
        )
        self._write_artifacts(sweep)
        return sweep

    def _write_artifacts(self, sweep: SweepResult) -> None:
        if self.sweep_dir is None:
            return
        self.sweep_dir.mkdir(parents=True, exist_ok=True)
        # Durable (tmp + fsync + rename): these are the files downstream
        # reporting and CI gates read, so a node losing power mid-write must
        # leave either the previous artifact or the new one, never a torn mix.
        durable_write_text(self.sweep_dir / "sweep.jsonl", sweep.merged_jsonl_text())
        payload = sweep.to_dict()
        if self._spec is not None:
            payload["spec"] = self._spec.to_dict()
        durable_write_text(
            self.sweep_dir / "sweep.json",
            dump_json_safe(payload, indent=2, sort_keys=True) + "\n",
        )
        logger.info(
            "sweep artifacts written to %s (%d scenarios, %d records)",
            self.sweep_dir,
            len(sweep),
            sum(len(sr.result) for sr in sweep.scenario_results),
        )
