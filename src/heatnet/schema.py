"""Config dataclasses built from JSON values, checked against their
annotations, and turned back into JSON values."""

from __future__ import annotations

import dataclasses
import sys
import types
import typing

from .errors import ConfigError


def _convert(value, tp, path: str):
    """``value`` as an instance of annotation ``tp``; ConfigError if it is not one."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object, got {value!r}")
        return build_dataclass(tp, value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType and type(None) in args:
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _convert(value, tp, path)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(items):
            raise ConfigError(f"{path} must be a list of {len(items)} items, got {value!r}")
        return tuple(_convert(v, t, f"{path}[{i}]") for i, (v, t) in enumerate(zip(value, items)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object, got {value!r}")
        return {k: _convert(v, args[1], f"{path}.{k}") for k, v in value.items()}
    accepted = {bool: bool, int: int, float: (int, float), str: str}[tp]
    if not isinstance(value, accepted) or (tp is not bool and isinstance(value, bool)):
        raise ConfigError(f"{path} must be {tp.__name__}, got {value!r}")
    # json reads NaN and Infinity; no float setting takes them.
    if tp is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return value


def build_dataclass(cls, data: dict, path: str):
    """Instantiate config dataclass ``cls`` from a JSON object.

    Keys must be fields of ``cls``; absent fields keep their defaults. A
    dataclass field takes an object, ``int`` a non-bool integer, ``float``
    a non-bool number, ``bool`` a bool, ``str`` a string, ``tuple[...]`` a
    list of matching items, ``dict[str, V]`` an object of V values, and
    ``X | None`` also null.
    """
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under {path!r}")
    return cls(**{name: _convert(value, hints[name], f"{path}.{name}")
                  for name, value in data.items()})


def to_jsonable(obj):
    """``obj`` as JSON values: a dataclass an object of its fields in
    order, a tuple a list, recursively; the inverse of ``build_dataclass``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj
