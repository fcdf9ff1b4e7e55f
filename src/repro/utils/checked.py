"""One validator for outside input: JSON objects into checked dataclasses.

Everything the program builds from outside input derives from
:class:`Checked`: fleet wire messages (:mod:`repro.service.protocol`),
chaos plan events (:mod:`repro.core.chaos`), the sweep spec and its
``[adaptive]`` plan, trial records, and the campaign and platform configs.
Each is a frozen dataclass whose fields are annotated as ``int``,
``float``, ``str``, ``bool``, ``dict`` or a class with
``from_dict``/``to_dict`` (another :class:`Checked`, a sweep axis, a chaos
plan), as ``tuple[X, ...]`` of one of them, or as ``X | None``.
``__post_init__`` checks every field against its annotation, so objects
built in code meet the same rules as objects decoded from JSON; lists
become tuples and a ``float`` field widens an integer to ``float``.
Floats must be finite (JSON has no portable NaN/Inf, and a NaN baseline or
sleep fails far from where it came in); integers must be non-negative
(each is a count, an id or an ordinal) unless the field sets another
``min``.  A nested class field holds an instance; :meth:`Checked.from_dict`
decodes a JSON object through the class's own ``from_dict``.

A field declares its domain bounds once, in ``field(metadata=...)``:
``min`` (inclusive; ``None`` for none), ``nonempty`` and ``choices``;
``omit_default`` leaves it out of :meth:`Checked.to_dict` at its default.
A class checks only its exclusive and cross-field rules itself, in a
``__post_init__`` that first calls ``super().__post_init__()``.
:meth:`Checked.problems` lists every problem of a JSON object at once
(unknown and missing keys, each field's type or bound, nested objects'
problems under a dotted path, a nested class's own rule included), and
:meth:`Checked.from_dict` raises them.
Each class's rules are resolved once and cached, because the fleet
coordinator builds a message per HTTP request.  :data:`TYPES` is also the
spec registry's type table, so a spec parameter and a wire field of the
same type fail with the same wording.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import MISSING, Field, dataclass, fields
from typing import Any, Callable, ClassVar, NamedTuple


def _is_int(value: Any) -> bool:
    # bool is an int subclass, and JSON decodes true/false into it.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Scalar type name -> (what one value must be, what many values must be,
#: membership test).
TYPES: dict[str, tuple[str, str, Callable[[Any], bool]]] = {
    "int": ("an integer", "integers", _is_int),
    "float": ("a number", "numbers", _is_number),
    "str": ("a string", "strings", lambda value: isinstance(value, str)),
    "bool": ("a boolean", "booleans", lambda value: isinstance(value, bool)),
    "dict": ("an object", "objects", lambda value: isinstance(value, dict)),
}


def _element(name: str) -> str | None:
    """``X`` for a ``tuple[X, ...]`` type name, else ``None``."""
    if name.startswith("tuple[") and name.endswith(", ...]"):
        return name[len("tuple["):-len(", ...]")]
    return None


def _problem(expected: str, value: Any) -> str:
    return f"must be {expected}, got {type(value).__name__} {value!r}"


def type_problem(name: str, value: Any) -> str | None:
    """``None`` if ``value`` is of type ``name`` (a scalar or ``tuple[X, ...]``),
    else the problem, e.g. ``"must be an integer, got str '8'"``."""
    element = _element(name)
    if element is None:
        expected, _, test = TYPES[name]
        return None if test(value) else _problem(expected, value)
    _, plural, test = TYPES[element]
    if isinstance(value, (list, tuple)) and all(test(item) for item in value):
        return None
    return _problem(f"a list of {plural}", value)


class _Rule(NamedTuple):
    name: str
    #: What values must be, e.g. ``"an integer >= 1 or null"``.
    expected: str
    accepts: Callable[[Any], bool]
    #: The class a JSON object in this field decodes into, if any.
    nested: type | None
    #: ``tuple[X, ...]`` field.
    many: bool
    #: Scalar ``float`` field: an integer widens to ``float``.
    widen: bool


def _resolve(owner: type, name: str) -> type:
    """The class an annotation of ``owner`` names, looked up in the modules
    of ``owner`` and its bases."""
    for klass in owner.__mro__:
        found = vars(sys.modules[klass.__module__]).get(name)
        if isinstance(found, type) and hasattr(found, "from_dict"):
            return found
    raise TypeError(f"{owner.__name__} field annotation {name!r} is not a checked type")


def _field_rule(owner: type, f: Field) -> _Rule:
    annotation = f.type if isinstance(f.type, str) else f.type.__name__
    base = annotation.removesuffix(" | None")
    optional = base != annotation
    element = _element(base)
    scalar = element or base
    nested = None
    if scalar in TYPES:
        one, many, is_type = TYPES[scalar]
    else:
        nested = _resolve(owner, scalar)
        one, many = "an object", "objects"
        is_type = lambda value: isinstance(value, nested)  # noqa: E731
    minimum = f.metadata.get("min", 0 if scalar == "int" else None)
    nonempty = f.metadata.get("nonempty", False)
    choices = f.metadata.get("choices")
    bound = "" if minimum is None else f" >= {minimum}"
    if scalar == "int" and minimum == 0:
        one, many, bound = "a non-negative integer", "non-negative integers", ""
    elif scalar == "float":
        one, many = "a finite number", "finite numbers"
    elif nonempty:
        one, many = "a non-empty string", "non-empty strings"
    elif choices is not None:
        one = many = f"one of {'/'.join(choices)}"
    expected = (f"a list of {many}" if element else one) + bound

    def valid(value: Any) -> bool:
        return (
            is_type(value)
            and (scalar != "float" or math.isfinite(value))
            and (minimum is None or value >= minimum)
            and (not nonempty or bool(value))
            and (choices is None or value in choices)
        )

    def accepts(value: Any) -> bool:
        if value is None:
            return optional
        if element is None:
            return valid(value)
        return isinstance(value, (list, tuple)) and all(valid(item) for item in value)

    return _Rule(
        f.name,
        expected + (" or null" if optional else ""),
        accepts,
        nested,
        element is not None,
        scalar == "float" and element is None,
    )


class _Schema(NamedTuple):
    rules: tuple[_Rule, ...]
    known: frozenset[str]
    required: frozenset[str]
    #: Default of each field left out of :meth:`Checked.to_dict` at it.
    omitted: dict[str, Any]


@functools.cache
def _schema(cls: type) -> _Schema:
    declared = fields(cls)
    return _Schema(
        rules=tuple(_field_rule(cls, f) for f in declared),
        known=frozenset(f.name for f in declared),
        required=frozenset(
            f.name for f in declared if f.default is MISSING and f.default_factory is MISSING
        ),
        omitted={f.name: f.default for f in declared if f.metadata.get("omit_default")},
    )


def _decode(nested: type, value: Any, where: str, problems: list[str]) -> Any:
    """``value`` with each JSON object in it (it, or the items of a list)
    decoded as a ``nested``; the problems of those that fail go to
    ``problems``."""
    if isinstance(value, (list, tuple)):
        return [_decode(nested, item, f"{where}[{i}]", problems) for i, item in enumerate(value)]
    if not isinstance(value, dict):
        return value
    if issubclass(nested, Checked):
        decoded, found = nested._parse(value, where)
        problems.extend(found)
        return decoded
    try:
        return nested.from_dict(value)
    except (TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def _at_path(message: str, owner: str, path: str) -> str:
    """A class's own rule ``message`` named by where the object sits:
    ``"OutcomeThresholds must ..."`` at ``ExperimentSpec.adaptive.thresholds``
    reads ``"ExperimentSpec.adaptive.thresholds must ..."``."""
    if path == owner:
        return message
    if message.startswith((f"{owner} ", f"{owner}.")):
        return path + message[len(owner):]
    return f"{path}: {message}"


@dataclass(frozen=True)
class Checked:
    """Base of a frozen dataclass built from outside JSON, checked on init.

    ``ERROR`` is the :class:`ValueError` subclass its problems raise.
    """

    ERROR: ClassVar[type[ValueError]] = ValueError

    def __post_init__(self) -> None:
        cls = type(self)
        for rule in _schema(cls).rules:
            value = getattr(self, rule.name)
            if not rule.accepts(value):
                raise cls.ERROR(f"{cls.__name__}.{rule.name} {_problem(rule.expected, value)}")
            if isinstance(value, list):  # only tuple fields accept lists
                object.__setattr__(self, rule.name, tuple(value))
            elif rule.widen and _is_int(value):
                object.__setattr__(self, rule.name, float(value))

    @classmethod
    def _parse(cls, data: Any, path: str) -> tuple[Any, list[str]]:
        """``(instance, [])`` for a valid JSON object, else ``(None,
        problems)``, each problem naming its key under ``path``."""
        if not isinstance(data, dict):
            return None, [f"{path} must be an object, got {type(data).__name__}"]
        schema = _schema(cls)
        problems: list[str] = []
        unknown = data.keys() - schema.known
        if unknown:
            problems.append(f"{path} has unknown keys {sorted(unknown)}")
        missing = schema.required - data.keys()
        if missing:
            problems.append(f"{path} is missing keys {sorted(missing)}")
        kwargs = {}
        for rule in schema.rules:
            if rule.name not in data:
                continue
            where, value, before = f"{path}.{rule.name}", data[rule.name], len(problems)
            if rule.nested is not None:
                value = _decode(rule.nested, value, where, problems)
            if len(problems) == before and not rule.accepts(value):
                problems.append(f"{where} {_problem(rule.expected, value)}")
            kwargs[rule.name] = value
        if problems:
            return None, problems
        try:
            return cls(**kwargs), []
        except ValueError as exc:  # a cross-field rule of __post_init__
            return None, [_at_path(str(exc), cls.__name__, path)]

    @classmethod
    def problems(cls, data: Any) -> list[str]:
        """Every problem of a decoded JSON object as a ``cls``, all at once
        (empty when :meth:`from_dict` accepts it)."""
        return cls._parse(data, cls.__name__)[1]

    @classmethod
    def from_dict(cls, data: Any):
        """The instance a decoded JSON object describes, checked."""
        instance, problems = cls._parse(data, cls.__name__)
        if problems:
            raise cls.ERROR("; ".join(problems))
        return instance

    def to_dict(self) -> dict:
        """The JSON object :meth:`from_dict` turns back into ``self``."""
        schema = _schema(type(self))
        out: dict[str, Any] = {}
        for rule in schema.rules:
            value = getattr(self, rule.name)
            if rule.name in schema.omitted and value == schema.omitted[rule.name]:
                continue
            if rule.nested is not None and value is not None:
                value = [item.to_dict() for item in value] if rule.many else value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[rule.name] = value
        return out
