"""JSON wire format shared by the config dataclasses.

A config is a frozen dataclass whose fields are scalars (``float``, ``int``,
``str``, each optionally ``None``) or nested configs. ``to_json`` is
``dataclasses.asdict``. ``from_json`` takes each field's default from the
dataclass when its key is absent, coerces a present value by the declared
field type (recursing into nested configs) and ignores unknown keys.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

from .errors import ValidationError


def _field_type(hint) -> tuple[type, bool]:
    """(base type, accepts None) of a field annotation such as ``float | None``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        return args[0], len(args) < len(typing.get_args(hint))
    return hint, False


def coerce(value, kind: type, what: str):
    """``kind(value)``, or a :class:`ValidationError` naming ``what``.

    A JSON boolean coerces only to ``bool``: ``true`` is no count or seed.
    A ``bool`` or ``str`` is taken only as itself: ``"false"`` is not false
    and ``5`` is no path. A ``float`` must be finite: no NaN or infinity.
    """
    try:
        if isinstance(value, bool) and kind is not bool:
            raise TypeError(f"{value!r} is a boolean")
        if kind in (bool, str) and not isinstance(value, kind):
            raise TypeError(f"{value!r} is not a {kind.__name__}")
        result = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be {kind.__name__}, got {value!r}") from exc
    if kind is float and not math.isfinite(result):
        raise ValidationError(f"{what} must be a finite float, got {value!r}")
    return result


class JsonConfig:
    """Mixin giving a config dataclass its JSON form."""

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, obj: dict):
        if not isinstance(obj, dict):
            raise ValidationError(f"{cls.__name__} must be a JSON object, got {obj!r}")
        hints = typing.get_type_hints(cls)
        values = {}
        for f in dataclasses.fields(cls):
            if f.name not in obj:
                continue
            kind, nullable = _field_type(hints[f.name])
            value = obj[f.name]
            if value is None and nullable:
                values[f.name] = None
            elif issubclass(kind, JsonConfig):
                values[f.name] = kind.from_json(value)
            else:
                values[f.name] = coerce(value, kind, f"{cls.__name__}.{f.name}")
        return cls(**values)
