"""Dataclasses built from parsed JSON by the types their fields declare.

The reader never casts: a value must already have its field's type. An
int takes a JSON integer (not a bool, not 10.0); a float any finite number
(an integer becomes the equal float); a bool true or false; a str a string;
a dict an object; an Enum one of its values; tuple[X, Y] a list of two
entries read as X and Y; X | None also null. No other type can be set
from JSON. A key that names no init field, or a missing field that has no
default, is an error too. Every error is the caller's class and names the field.
``read_json`` reads the document itself from a file.
"""

from __future__ import annotations

import json
import sys
import types
import typing
from dataclasses import MISSING, fields
from enum import Enum
from pathlib import Path


def read_json(path, error: type[Exception]):
    """The JSON document in the file at ``path``.

    A file that cannot be read, is not UTF-8 (or UTF-16/32) JSON, or nests
    too deep to parse raises ``error`` naming ``path``.
    """
    try:
        return json.loads(Path(path).read_bytes())
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from exc


def _render(value) -> str:
    """``value`` as JSON text for an error message, if it is shallow enough to render."""
    try:
        return json.dumps(value)
    except RecursionError:
        return "a value nested too deep to show"


def read_value(tp, value, name: str, error: type[Exception]):
    """``value`` read as type ``tp``; a mismatch raises ``error`` naming ``name``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType and type(None) in args:  # X | None
        (inner,) = set(args) - {type(None)}
        return None if value is None else read_value(inner, value, name, error)
    shown = tp.__name__ if isinstance(tp, type) else tp
    if origin is tuple:
        if isinstance(value, list) and len(value) == len(args):
            return tuple(read_value(a, v, name, error) for a, v in zip(args, value))
    elif tp is float:
        # The bounds also reject NaN, the infinities and integers past the float range.
        if type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max:
            return float(value)
    elif tp in (int, bool, str, dict):
        if type(value) is tp:  # type(True) is bool, so an int field takes no bool
            return value
    elif isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError as exc:
            raise error(f"{name}: {exc}") from None
    else:
        raise error(f"{name}: {shown} cannot be set from JSON")
    raise error(f"{name}: expected {shown}, got {_render(value)}")


def from_json(cls, obj, where: str, error: type[Exception], **defaults):
    """Build dataclass ``cls`` from the JSON object ``obj``, named ``where`` in errors.

    ``defaults`` fill the fields that ``obj`` leaves out, ahead of the dataclass's own.
    """
    if not isinstance(obj, dict):
        raise error(f"{where}: expected an object, got {_render(obj)}")
    init_fields = [f for f in fields(cls) if f.init]
    unknown = sorted(set(obj) - {f.name for f in init_fields})
    if unknown:
        raise error(f"{where}: unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    values = defaults | {k: read_value(hints[k], v, f"{where}.{k}", error) for k, v in obj.items()}
    missing = [f.name for f in init_fields
               if f.name not in values and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise error(f"{where}: missing keys {missing}")
    return cls(**values)
