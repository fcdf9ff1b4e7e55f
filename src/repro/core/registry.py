"""Pluggable registries for the sweep's four scenario axes.

Every axis value a sweep spec can name — a fault-model family, a sampling
strategy, a platform geometry, a zoo model variant — registers here under a
``kind`` string together with a *schema* (typed, required or defaulted
parameters) and a *builder*.  The sweep axes in :mod:`repro.core.sweep` and
the CLI resolve kinds through these registries instead of hardcoded
``if kind ==`` ladders, which buys three properties at once:

* **extensibility** — adding an axis value is one ``register()`` call (or
  decorator), not a dispatch-ladder rewrite; error messages enumerate the
  *live* registry contents so they can never drift from the dispatch;
* **validate-before-compute** — a spec can be checked against the schemas
  (unknown kinds, unknown/ill-typed/missing parameters) before any trial
  runs, reporting every error at once (see
  :func:`repro.core.sweep.validate_spec_data`);
* **provenance** — :func:`registry_digest` fingerprints the registered
  schemas, and :meth:`Registry.resolve` produces the fully-defaulted
  ``(kind, params)`` pairs stamped into campaign/sweep artifacts, so a
  result file records exactly what built it.

Registering a new fault family, for example::

    from repro.core.registry import FAULTS, ParamSpec

    @FAULTS.register(
        "my-fault",
        params=[ParamSpec("values", "seq[int]", default=(0,))],
        description="my custom per-lane fault model",
    )
    def _build_my_fault(params):
        return tuple(MyFaultModel(int(v)) for v in params["values"])

after which ``kind = "my-fault"`` is valid in any spec file, shows up in
``repro validate`` listings and unknown-kind error messages, and its
resolved parameters are stamped into every artifact it produces.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.faults.models import (
    AccumulatorStuckAt,
    ActivationBitFlip,
    BitFlip,
    ConstantValue,
    InputCorruption,
    StuckAtOne,
    StuckAtZero,
    TransientCycleFault,
    WeightBitFlip,
)
from repro.utils.bitops import PARTIAL_SUM_WIDTH


class _Sentinel:
    """Named singleton markers for ParamSpec defaults (repr-stable)."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self._name


#: Marker default: the parameter must be provided explicitly.
REQUIRED = _Sentinel("REQUIRED")
#: Marker default: the parameter may be omitted and is then absent from the
#: resolved params (no default is substituted) — for override-style params
#: where "not given" and "given the default value" must stay distinguishable.
OPTIONAL = _Sentinel("OPTIONAL")


def _type_error(expected: str, value: Any) -> str:
    return f"must be {expected}, got {type(value).__name__} {value!r}"


def _check_int(value: Any) -> str | None:
    if isinstance(value, bool) or not isinstance(value, int):
        return _type_error("an integer", value)
    return None


def _check_float(value: Any) -> str | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return _type_error("a number", value)
    return None


def _check_str(value: Any) -> str | None:
    if not isinstance(value, str):
        return _type_error("a string", value)
    return None


def _check_bool(value: Any) -> str | None:
    if not isinstance(value, bool):
        return _type_error("a boolean", value)
    return None


def _check_seq(element_check: Callable[[Any], str | None], expected: str):
    def check(value: Any) -> str | None:
        if isinstance(value, (str, bytes)) or not isinstance(value, (list, tuple)):
            return _type_error(expected, value)
        for item in value:
            if element_check(item) is not None:
                return _type_error(expected, value)
        return None

    return check


#: type name -> (checker, converter).  Converters canonicalise the spec's
#: JSON/TOML values (lists -> tuples, ints -> floats where a float is
#: expected) so builders and provenance stamps see one representation.
_TYPES: dict[str, tuple[Callable[[Any], str | None], Callable[[Any], Any]]] = {
    "int": (_check_int, int),
    "float": (_check_float, float),
    "str": (_check_str, str),
    "bool": (_check_bool, bool),
    "seq[int]": (_check_seq(_check_int, "a list of integers"), lambda v: tuple(int(x) for x in v)),
    "seq[float]": (
        _check_seq(_check_float, "a list of numbers"),
        lambda v: tuple(float(x) for x in v),
    ),
    "seq[str]": (_check_seq(_check_str, "a list of strings"), lambda v: tuple(str(x) for x in v)),
}


@dataclass(frozen=True)
class ParamSpec:
    """Schema of one builder parameter: name, type, default, documentation."""

    name: str
    type: str
    default: Any = REQUIRED
    doc: str = ""

    def __post_init__(self) -> None:
        if self.type not in _TYPES:
            raise ValueError(
                f"parameter {self.name!r} declares unknown type {self.type!r}; "
                f"known types: {sorted(_TYPES)}"
            )

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def check(self, value: Any) -> str | None:
        """``None`` if ``value`` fits this parameter's type, else the problem."""
        return _TYPES[self.type][0](value)

    def convert(self, value: Any) -> Any:
        return _TYPES[self.type][1](value)

    def schema(self) -> dict:
        out: dict = {"type": self.type}
        if self.required:
            out["required"] = True
        elif self.default is not OPTIONAL:
            default = self.default
            out["default"] = list(default) if isinstance(default, tuple) else default
        if self.doc:
            out["doc"] = self.doc
        return out


@dataclass(frozen=True)
class RegistryEntry:
    """One registered kind: its schema, builder and metadata."""

    kind: str
    category: str
    builder: Callable
    params: tuple[ParamSpec, ...] = ()
    description: str = ""
    #: Datapath stages the kind is compatible with (``None`` = all).  Used
    #: by strategy kinds that arm whole structural units and therefore
    #: cannot sweep accumulator-stage fault families.
    stages: tuple[str, ...] | None = None
    #: Extra text appended to unknown-parameter errors (e.g. pointing at the
    #: dataclass whose fields the parameters mirror).
    param_hint: str = ""
    #: Optional domain validator run after type checks pass; receives the
    #: resolved params and returns a list of error strings.
    validator: Callable[[dict], list[str]] | None = None

    def schema(self) -> dict:
        out: dict = {"params": {p.name: p.schema() for p in self.params}}
        if self.description:
            out["description"] = self.description
        if self.stages is not None:
            out["stages"] = list(self.stages)
        return out


class Registry:
    """A named kind -> :class:`RegistryEntry` mapping with schema validation."""

    def __init__(self, category: str):
        self.category = category
        self._entries: dict[str, RegistryEntry] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        kind: str,
        *,
        params: Iterable[ParamSpec] = (),
        description: str = "",
        stages: Iterable[str] | None = None,
        param_hint: str = "",
        validator: Callable[[dict], list[str]] | None = None,
        builder: Callable | None = None,
    ):
        """Register ``kind``; usable directly or as a builder decorator."""

        def wrap(fn: Callable) -> Callable:
            if kind in self._entries:
                raise ValueError(
                    f"duplicate registration of {self.category} kind {kind!r}"
                )
            self._entries[kind] = RegistryEntry(
                kind=kind,
                category=self.category,
                builder=fn,
                params=tuple(params),
                description=description,
                stages=tuple(stages) if stages is not None else None,
                param_hint=param_hint,
                validator=validator,
            )
            return fn

        if builder is not None:
            return wrap(builder)
        return wrap

    def unregister(self, kind: str) -> None:
        """Remove a kind (primarily for tests registering temporary kinds)."""
        del self._entries[kind]

    # ------------------------------------------------------------------
    # Lookup and validation
    # ------------------------------------------------------------------
    def kinds(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, kind: str) -> bool:
        return kind in self._entries

    def get(self, kind: str, context: str = "") -> RegistryEntry:
        entry = self._entries.get(kind)
        if entry is None:
            prefix = f"{context}: " if context else ""
            registered = ", ".join(self.kinds()) or "(none)"
            raise ValueError(
                f"{prefix}unknown kind {kind!r}; "
                f"registered {self.category} kinds: {registered}"
            )
        return entry

    def validate_params(self, kind: str, params: dict, context: str = "") -> list[str]:
        """All schema violations of ``params`` against ``kind`` (empty = valid)."""
        try:
            entry = self.get(kind, context)
        except ValueError as exc:
            return [str(exc)]
        prefix = f"{context}: " if context else ""
        errors: list[str] = []
        known = {p.name for p in entry.params}
        unknown = sorted(set(params) - known)
        if unknown:
            hint = f" ({entry.param_hint})" if entry.param_hint else ""
            accepted = sorted(known) if known else "no parameters"
            errors.append(
                f"{prefix}unknown parameters {unknown} for {self.category} kind "
                f"{kind!r}; {kind!r} accepts {accepted}{hint}"
            )
        for spec in entry.params:
            if spec.name in params:
                problem = spec.check(params[spec.name])
                if problem is not None:
                    errors.append(f"{prefix}parameter {spec.name!r} {problem}")
            elif spec.required:
                doc = f" ({spec.doc})" if spec.doc else ""
                errors.append(
                    f"{prefix}missing required parameter {spec.name!r} of "
                    f"{self.category} kind {kind!r}{doc}"
                )
        if not errors and entry.validator is not None:
            resolved = self._resolve_checked(entry, params)
            errors.extend(f"{prefix}{problem}" for problem in entry.validator(resolved))
        return errors

    @staticmethod
    def _resolve_checked(entry: RegistryEntry, params: dict) -> dict:
        """Defaulted + converted params (schema assumed already validated)."""
        resolved: dict = {}
        for spec in entry.params:
            if spec.name in params:
                resolved[spec.name] = spec.convert(params[spec.name])
            elif spec.default is not OPTIONAL and not spec.required:
                resolved[spec.name] = spec.default
        return resolved

    def resolve(self, kind: str, params: dict, context: str = "") -> dict:
        """Validate and canonicalise ``params``: defaults applied, types converted.

        Raises a single :class:`ValueError` carrying *all* schema violations
        (one per line) so callers surface complete diagnostics, not the
        first problem of many.
        """
        errors = self.validate_params(kind, params, context)
        if errors:
            raise ValueError("\n".join(errors))
        return self._resolve_checked(self.get(kind, context), params)

    def build(self, kind: str, params: dict, context: str = "", **extra) -> Any:
        """Resolve ``params`` and invoke the kind's builder."""
        entry = self.get(kind, context)
        resolved = self.resolve(kind, params, context)
        try:
            return entry.builder(resolved, **extra)
        except ValueError as exc:
            message = str(exc)
            if context and not message.startswith(context):
                raise ValueError(f"{context}: {message}") from None
            raise

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------
    def schema(self) -> dict:
        """JSON-compatible schema of every registered kind."""
        return {kind: self._entries[kind].schema() for kind in self.kinds()}


#: The four axis registries (module-level singletons: one process-wide
#: source of truth that spec validation, dispatch and provenance all share).
FAULTS = Registry("fault")
STRATEGIES = Registry("strategy")
PLATFORMS = Registry("platform")
MODELS = Registry("model")

_ALL_REGISTRIES: tuple[Registry, ...] = (FAULTS, STRATEGIES, PLATFORMS, MODELS)


def registry_schema() -> dict:
    """The combined schema of all four registries (JSON-compatible)."""
    return {registry.category: registry.schema() for registry in _ALL_REGISTRIES}


def registry_digest() -> str:
    """SHA-256 fingerprint of the registered kinds and their schemas.

    Stamped into artifacts so a result file records which registry contents
    (builtin + plugins) were live when it was produced; registering,
    removing or re-parameterising any kind changes the digest.
    """
    payload = json.dumps(registry_schema(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def axis_provenance(registry: Registry, kind: str, params: dict) -> dict:
    """Provenance stamp for one resolved axis: ``{"kind", "params"}``.

    Parameters are fully defaulted and canonicalised when they validate;
    a non-validating axis (legacy artifacts, hand-built objects) falls back
    to the raw params so provenance never blocks serialisation.
    """
    try:
        resolved = registry.resolve(kind, params)
    except ValueError:
        resolved = dict(params)
    return {
        "kind": kind,
        "params": {
            key: (list(value) if isinstance(value, tuple) else value)
            for key, value in sorted(resolved.items())
        },
    }


# ----------------------------------------------------------------------
# Builtin fault-model families
# ----------------------------------------------------------------------
@FAULTS.register(
    "const",
    params=[
        ParamSpec("values", "seq[int]", default=(0,), doc="injected constants, one family member per value"),
    ],
    description="multiplier output forced to a constant",
)
def _build_const(params: dict):
    return tuple(ConstantValue(v) for v in params["values"])


@FAULTS.register("stuck-at-0", description="every multiplier output bit stuck at 0")
def _build_stuck_at_zero(params: dict):
    return (StuckAtZero(),)


@FAULTS.register("stuck-at-1", description="every multiplier output bit stuck at 1")
def _build_stuck_at_one(params: dict):
    return (StuckAtOne(),)


@FAULTS.register(
    "bitflip",
    params=[
        ParamSpec("bits", "seq[int]", default=(0,), doc="product-bus bit positions, one family member per bit"),
    ],
    description="single product-bus bit inverted",
)
def _build_bitflip(params: dict):
    return tuple(BitFlip(b) for b in params["bits"])


@FAULTS.register(
    "transient",
    params=[
        ParamSpec("values", "seq[int]", default=(0,), doc="injected constants while the fault is active"),
        ParamSpec("duty", "float", default=0.5, doc="fraction of cycles the fault is active"),
        ParamSpec("salt", "int", default=0, doc="seed salt decorrelating firing patterns"),
    ],
    description="per-cycle transient constant override",
)
def _build_transient(params: dict):
    return tuple(
        TransientCycleFault(value=v, duty=params["duty"], salt=params["salt"])
        for v in params["values"]
    )


@FAULTS.register(
    "acc-stuck",
    params=[
        ParamSpec(
            "bits",
            "seq[int]",
            default=(PARTIAL_SUM_WIDTH - 1,),
            doc="accumulator-bus bit positions, one family member per bit",
        ),
        ParamSpec("stuck", "int", default=0, doc="value (0 or 1) the bit is stuck at"),
    ],
    description="MAC accumulator bit stuck at 0/1 (accumulator stage)",
)
def _build_acc_stuck(params: dict):
    return tuple(AccumulatorStuckAt(bit=b, stuck=params["stuck"]) for b in params["bits"])


_DWELL_PARAMS: tuple[ParamSpec, ...] = (
    ParamSpec(
        "dwell_start",
        "int",
        default=0,
        doc="GEMM execution index (per inference, plan order) at which the flip appears",
    ),
    ParamSpec(
        "dwell",
        "int",
        default=1,
        doc="consecutive GEMM executions the flip persists before scrub/refresh clears it",
    ),
)


def _validate_dwell(params: dict) -> list[str]:
    errors: list[str] = []
    if params["dwell_start"] < 0:
        errors.append("'dwell_start' must be >= 0")
    if params["dwell"] < 1:
        errors.append("'dwell' must be >= 1 (a zero-length dwell never fires)")
    return errors


@FAULTS.register(
    "weight-bitflip",
    params=_DWELL_PARAMS,
    description="memory-resident bit flip in a CBUF weight surface, with dwell time",
    validator=_validate_dwell,
)
def _build_weight_bitflip(params: dict):
    return (WeightBitFlip(dwell_start=params["dwell_start"], dwell=params["dwell"]),)


@FAULTS.register(
    "activation-bitflip",
    params=_DWELL_PARAMS,
    description="memory-resident bit flip in a CBUF activation surface, with dwell time",
    validator=_validate_dwell,
)
def _build_activation_bitflip(params: dict):
    return (ActivationBitFlip(dwell_start=params["dwell_start"], dwell=params["dwell"]),)


@FAULTS.register(
    "input-corrupt",
    description="persistent bit flip in the quantised input at the DMA boundary",
)
def _build_input_corrupt(params: dict):
    return (InputCorruption(),)


# ----------------------------------------------------------------------
# Builtin sampling strategies
# ----------------------------------------------------------------------
# Strategy builders serve two construction paths that must both stay
# byte-compatible with their historical direct constructors:
#
# * the sweep path passes ``models=`` (explicit fault-model family) and a
#   ``name`` of the form "<strategy axis>|<fault axis>";
# * the legacy CLI campaign path passes ``values=`` (implicit ConstantValue
#   family) and no name, keeping each strategy's default name — and, for
#   RandomMultipliers, the value-keyed RNG streams of the original paper
#   campaigns.
def _strategy_kwargs(models, values, name) -> dict:
    kwargs: dict = {}
    if models is not None:
        kwargs["models"] = tuple(models)
    if values is not None:
        kwargs["values"] = tuple(values)
    if name is not None:
        kwargs["name"] = name
    return kwargs


@STRATEGIES.register(
    "random",
    params=[
        ParamSpec("counts", "seq[int]", default=(1, 2, 3, 4, 5, 6, 7), doc="armed-site counts to sweep"),
        ParamSpec("trials", "int", default=10, doc="random draws per (model, count) point"),
    ],
    description="random site subsets per (fault model, count) point",
)
def _build_random(params: dict, *, models=None, values=None, name=None):
    from repro.core.strategies import RandomMultipliers

    return RandomMultipliers(
        fault_counts=params["counts"],
        trials_per_point=params["trials"],
        **_strategy_kwargs(models, values, name),
    )


@STRATEGIES.register(
    "exhaustive",
    description="every single site once per fault model",
)
def _build_exhaustive(params: dict, *, models=None, values=None, name=None):
    from repro.core.strategies import ExhaustiveSingleSite

    return ExhaustiveSingleSite(**_strategy_kwargs(models, values, name))


@STRATEGIES.register(
    "per-mac",
    description="arm all multipliers of one MAC unit at a time",
    stages=("product",),
)
def _build_per_mac(params: dict, *, models=None, values=None, name=None):
    from repro.core.strategies import PerMACUnitSweep

    return PerMACUnitSweep(**_strategy_kwargs(models, values, name))


@STRATEGIES.register(
    "per-position",
    description="arm one multiplier position across all MAC units",
    stages=("product",),
)
def _build_per_position(params: dict, *, models=None, values=None, name=None):
    from repro.core.strategies import PerMultiplierPositionSweep

    return PerMultiplierPositionSweep(**_strategy_kwargs(models, values, name))


def _validate_stratified(params: dict) -> list[str]:
    if not params["allocation"]:
        return [
            "stratified sampling needs a non-empty 'allocation' list of "
            "per-stratum trial counts (one per MAC unit; e.g. a Neyman "
            "allocation computed from a pilot round)"
        ]
    if any(count < 0 for count in params["allocation"]):
        return ["stratified 'allocation' entries must be non-negative"]
    return []


@STRATEGIES.register(
    "stratified",
    params=[
        ParamSpec(
            "allocation",
            "seq[int]",
            doc="per-stratum trial counts, one per MAC unit (e.g. a Neyman allocation from a pilot round)",
        ),
    ],
    description="per-MAC-unit stratified single-site sampling",
    stages=("product", "accumulator"),
    validator=_validate_stratified,
)
def _build_stratified(params: dict, *, models=None, values=None, name=None):
    from repro.core.strategies import StratifiedSampling

    return StratifiedSampling(
        allocation=params["allocation"],
        **_strategy_kwargs(models, values, name),
    )


# ----------------------------------------------------------------------
# Builtin platform geometries
# ----------------------------------------------------------------------
@PLATFORMS.register(
    "nvdla",
    params=[
        ParamSpec("num_macs", "int", default=8, doc="MAC units in the array"),
        ParamSpec("muls_per_mac", "int", default=8, doc="multiplier lanes per MAC unit"),
        ParamSpec("engine", "str", default="vectorised", doc="emulation engine"),
    ],
    description="NVDLA-style MAC array geometry plus engine configuration",
)
def _build_nvdla_platform(params: dict, *, name: str = ""):
    from repro.accelerator.geometry import ArrayGeometry
    from repro.core.platform import PlatformConfig

    return PlatformConfig(
        geometry=ArrayGeometry(
            num_macs=params["num_macs"], muls_per_mac=params["muls_per_mac"]
        ),
        engine=params["engine"],
        name=name,
    )


# ----------------------------------------------------------------------
# Builtin model variants
# ----------------------------------------------------------------------
#: ParamSpecs mirroring :class:`repro.zoo.CaseStudySpec`'s fields.  Listed
#: statically because this module must not import the zoo at import time
#: (``repro.zoo`` imports ``repro.core`` whose ``__init__`` imports the
#: sweep module and therefore this registry — a module-level zoo import
#: here would blow up that cycle); a test pins this list against
#: ``dataclasses.fields(CaseStudySpec)`` so the schema cannot drift.
#: All overrides are OPTIONAL (not defaulted): an override left out of the
#: spec must not clobber the chosen variant's value.
_CASE_STUDY_PARAMS: tuple[ParamSpec, ...] = (
    ParamSpec("variant", "str", default=OPTIONAL, doc="named zoo variant the overrides apply to"),
    ParamSpec("width_multiplier", "float", default=OPTIONAL),
    ParamSpec("num_train", "int", default=OPTIONAL),
    ParamSpec("num_test", "int", default=OPTIONAL),
    ParamSpec("epochs", "int", default=OPTIONAL),
    ParamSpec("batch_size", "int", default=OPTIONAL),
    ParamSpec("seed", "int", default=OPTIONAL),
    ParamSpec(
        "family",
        "str",
        default=OPTIONAL,
        doc="architecture family override (resnet18 or mobilenet)",
    ),
)


def _validate_case_study(params: dict) -> list[str]:
    from repro.zoo import CASE_STUDY_FAMILIES, CASE_STUDY_VARIANTS

    errors: list[str] = []
    variant = params.get("variant")
    if variant is not None and variant not in CASE_STUDY_VARIANTS:
        errors.append(
            f"unknown case-study variant {variant!r}; available: "
            f"{sorted(CASE_STUDY_VARIANTS)}"
        )
    family = params.get("family")
    if family is not None and family not in CASE_STUDY_FAMILIES:
        errors.append(
            f"unknown case-study family {family!r}; available: "
            f"{sorted(CASE_STUDY_FAMILIES)}"
        )
    return errors


@MODELS.register(
    "case-study",
    params=_CASE_STUDY_PARAMS,
    description="the zoo's case-study ResNet-18 (named variant + CaseStudySpec overrides)",
    param_hint="overrides mirror the CaseStudySpec fields",
    validator=_validate_case_study,
)
def _build_case_study(params: dict):
    import dataclasses

    from repro.zoo import CaseStudySpec, case_study_variant

    overrides = dict(params)
    variant = overrides.pop("variant", None)
    base = case_study_variant(variant) if variant else CaseStudySpec()
    if not overrides:
        return base
    return dataclasses.replace(base, **overrides)
