"""Strict readers for the JSON documents the simulator loads.

Each reader checks one value's JSON type, and for numbers its range, and
returns the value it checked; anything else raises a one-line
ValidationError naming where the value sits. A bool is never a number
here (JSON ``true`` is not 1), so types are compared with ``type()``, not
``isinstance()``.
"""

from __future__ import annotations

import json
import math
import sys

from .errors import ValidationError

_FLOAT_MAX = sys.float_info.max


def document(config, what: str):
    """A JSON text parsed, or an already-parsed value as it is."""
    if isinstance(config, str):
        try:
            return json.loads(config)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
    return config


def fields(obj, where: str, required: tuple = (), optional=()) -> dict:
    """A JSON object holding every ``required`` key and no key outside
    ``required`` and ``optional`` (any container of names)."""
    if type(obj) is not dict:
        raise ValidationError(f"{where}: expected an object, got {obj!r}")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{where}: missing required key {key!r}")
    if len(obj) > len(required):
        for key in obj:
            if key not in required and key not in optional:
                raise ValidationError(f"{where}: unknown key {key!r}")
    return obj


def items(value, where: str, name: str) -> list:
    """A JSON list."""
    if type(value) is not list:
        raise ValidationError(f"{where}: {name} must be a list, got {value!r}")
    return value


def text(value, where: str, name: str, among=None) -> str:
    """A JSON string; with ``among``, a reference to one of its members."""
    if type(value) is not str:
        raise ValidationError(f"{where}: {name} must be a string, got {value!r}")
    if among is not None and value not in among:
        raise ValidationError(f"{where}: unknown {name} {value!r}")
    return value


def _bounds(lo, hi) -> str:
    if hi >= _FLOAT_MAX:
        return "" if lo <= -_FLOAT_MAX else f" >= {lo}"
    return f" in [{lo}, {hi}]"


def number(value, where: str, name: str, lo: float = -_FLOAT_MAX,
           hi: float = _FLOAT_MAX) -> float:
    """A finite JSON number in ``[lo, hi]``, as a float."""
    if type(value) in (int, float) and lo <= value <= hi:
        return float(value)
    raise ValidationError(f"{where}: {name} must be a finite number{_bounds(lo, hi)}, "
                          f"got {value!r}")


def integer(value, where: str, name: str, lo: float = -math.inf,
            hi: float = math.inf) -> int:
    """A JSON integer in ``[lo, hi]``."""
    if type(value) is int and lo <= value <= hi:
        return value
    raise ValidationError(f"{where}: {name} must be an integer{_bounds(lo, hi)}, "
                          f"got {value!r}")


def choice(enum_cls, value, where: str):
    """The member of ``enum_cls`` whose value is ``value``."""
    try:
        return enum_cls(value)
    except ValueError:
        options = ", ".join(e.value for e in enum_cls)
        raise ValidationError(f"{where}: expected one of [{options}], got {value!r}") from None
