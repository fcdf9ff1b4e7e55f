"""One validator for outside input: JSON objects into checked dataclasses.

Fleet wire messages (:mod:`repro.service.protocol`) and chaos plan events
(:mod:`repro.core.chaos`) arrive as untrusted JSON.  Each is a frozen
dataclass deriving from :class:`Checked`, with fields annotated as ``int``,
``float``, ``str``, ``bool``, ``dict``, ``tuple[int, ...]`` or
``tuple[dict, ...]``, or ``X | None`` of one of them.  ``__post_init__``
checks every field against its annotation, so objects built in code meet
the same rules as objects decoded from JSON; lists become tuples.  Floats
must be finite (JSON has no portable NaN/Inf, and a NaN baseline or sleep
fails far from where it came in); integers must be non-negative (each is a
count, an id or an ordinal) unless the field sets another ``min``.

A field declares its domain bounds once, in ``field(metadata=...)``:
``min``, ``nonempty`` and ``choices``; ``omit_default`` leaves it out of
:meth:`Checked.to_dict` at its default.  Each class's rules are resolved
once and cached, because the fleet coordinator builds a message per HTTP
request.  :data:`TYPES` is also the spec registry's type table, so a spec
parameter and a wire field of the same type fail with the same wording.
"""

from __future__ import annotations

import functools
import math
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


def type_problem(name: str, value: Any, minimum: float | None = None) -> str | None:
    """``None`` if ``value`` is of type ``name`` (a scalar or ``tuple[X, ...]``),
    and a scalar at least ``minimum`` when that is given, else the problem,
    e.g. ``"must be an integer >= 1, got int 0"``."""
    element = _element(name)
    if element is None:
        expected, _, test = TYPES[name]
        if minimum is not None:
            expected += f" >= {minimum}"
        ok = test(value) and (minimum is None or value >= minimum)
        return None if ok else _problem(expected, value)
    _, plural, test = TYPES[element]
    if isinstance(value, (list, tuple)) and all(test(item) for item in value):
        return None
    return _problem(f"a list of {plural}", value)


def _field_rule(f: Field) -> tuple[str, Callable[[Any], bool]]:
    """What values of field ``f`` must be, and the test they must pass."""
    annotation = f.type if isinstance(f.type, str) else f.type.__name__
    base = annotation.removesuffix(" | None")
    optional = base != annotation
    element = _element(base)
    scalar = element or base
    if scalar not in TYPES:
        raise TypeError(f"field {f.name!r} has unsupported annotation {annotation!r}")
    one, many, is_type = TYPES[scalar]
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

    return expected + (" or null" if optional else ""), accepts


class _Schema(NamedTuple):
    #: ``(name, expected, accepts)`` per field.
    rules: tuple[tuple[str, str, Callable[[Any], bool]], ...]
    known: frozenset[str]
    required: frozenset[str]
    #: Default of each field left out of :meth:`Checked.to_dict` at it.
    omitted: dict[str, Any]


@functools.cache
def _schema(cls: type) -> _Schema:
    declared = fields(cls)
    return _Schema(
        rules=tuple((f.name, *_field_rule(f)) for f in declared),
        known=frozenset(f.name for f in declared),
        required=frozenset(
            f.name for f in declared if f.default is MISSING and f.default_factory is MISSING
        ),
        omitted={f.name: f.default for f in declared if f.metadata.get("omit_default")},
    )


@dataclass(frozen=True)
class Checked:
    """Base of a frozen dataclass built from outside JSON, checked on init.

    ``ERROR`` is the :class:`ValueError` subclass its problems raise.
    """

    ERROR: ClassVar[type[ValueError]] = ValueError

    def __post_init__(self) -> None:
        cls = type(self)
        for name, expected, accepts in _schema(cls).rules:
            value = getattr(self, name)
            if not accepts(value):
                raise cls.ERROR(f"{cls.__name__}.{name} {_problem(expected, value)}")
            if isinstance(value, list):  # only tuple fields accept lists
                object.__setattr__(self, name, tuple(value))

    @classmethod
    def from_dict(cls, data: Any):
        """The instance a decoded JSON object describes, checked."""
        if not isinstance(data, dict):
            raise cls.ERROR(f"{cls.__name__} must be an object, got {type(data).__name__}")
        schema = _schema(cls)
        unknown = data.keys() - schema.known
        if unknown:
            raise cls.ERROR(f"{cls.__name__} has unknown keys {sorted(unknown)}")
        missing = schema.required - data.keys()
        if missing:
            raise cls.ERROR(f"{cls.__name__} is missing keys {sorted(missing)}")
        return cls(**data)

    def to_dict(self) -> dict:
        """The JSON object :meth:`from_dict` turns back into ``self``."""
        omitted = _schema(type(self)).omitted
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in omitted or value != omitted[f.name]:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out
