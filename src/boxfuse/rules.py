"""The rules the data model checks, each stated once: tables of value rules, and the type rule of a field.

A table of Rules checks a row object (`check`) and a namespace of columns
(`failures`, `first_failure`) alike: each test reads fields as attributes and
uses only operators that mean the same on Python floats and numpy columns,
such as `abs(v) < inf`, `(v >= lo) & (v <= hi)` and `v > 0.0`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields
from types import MappingProxyType, SimpleNamespace, UnionType
from typing import Callable, Literal, NamedTuple, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np


class Rule(NamedTuple):
    """A value rule: `test` of a row object or of a namespace of columns, and the `message` of a row that fails it."""

    test: Callable
    message: Callable


def finite(name: str) -> Rule:
    """The rule that field `name` is finite."""
    return Rule(lambda row: abs(getattr(row, name)) < math.inf,
                lambda row: f"{name} must be finite, got {getattr(row, name)!r}")


def check(rules: Sequence[Rule], row) -> None:
    """ValueError with the message of the first rule that row fails."""
    for test, message in rules:
        if not test(row):
            raise ValueError(message(row))


def column_view(names, table: np.ndarray) -> SimpleNamespace:
    """The columns of a 2-D array as attributes, named in order; columns beyond the names are left out."""
    return SimpleNamespace(**dict(zip(names, table.T)))


def failures(rules: Sequence[Rule], columns: SimpleNamespace) -> list[tuple[np.ndarray, Callable, SimpleNamespace]]:
    """Per rule, in order: the mask of the rows of columns that fail it, its message, and columns."""
    with np.errstate(invalid="ignore", over="ignore"):
        return [(np.logical_not(test(columns)), message, columns) for test, message in rules]


def first_failure(faults: Sequence[tuple[np.ndarray, Callable, SimpleNamespace]]) -> tuple[int, str] | None:
    """The first row that a fault of `failures` marks, and the message of the first fault marking it.

    The message is formatted from that row's values; None when no row fails.
    """
    bad = np.logical_or.reduce([mask for mask, _, _ in faults])
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    _, message, columns = next(fault for fault in faults if fault[0][row])
    return row, message(SimpleNamespace(**{name: column[row : row + 1].tolist()[0]
                                           for name, column in vars(columns).items()}))


def fits_float(value) -> bool:
    """Whether float() takes the number without overflow."""
    # 2**1024 - 2**970 is the least integer that float() rounds beyond the largest float
    return -2**1024 + 2**970 < value < 2**1024 - 2**970


# each scalar type's words in a message, and its test
_SCALARS = {int: ("an integer", lambda v: type(v) is int), float: ("a number", lambda v: type(v) in (float, int)),
            str: ("a non-empty string", lambda v: type(v) is str and v != ""),
            type(None): ("None", lambda v: v is None)}


def _type_text(hint) -> str:
    """The words for `hint` in a message; a union leaves out None, which means unset."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        return f"one of {', '.join(map(str, args))}"
    if origin is tuple:
        return f"a tuple ({', '.join('...' if arg is Ellipsis else _type_text(arg) for arg in args)})"
    return " or ".join(_type_text(arg) for arg in args if arg is not type(None)) if args else _SCALARS[hint][0]


def _fits(value, hint, name: str) -> bool:
    """Whether value has the type `hint`; ValueError naming `name` for an int beyond float range for a float."""
    if hint is float and type(value) is int and not fits_float(value):
        raise ValueError(f"{name} must fit in a float, got {value!r}")
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        return any(type(value) is type(arg) and value == arg for arg in args)
    if origin is tuple:
        items = args[:1] * len(value) if args[-1] is Ellipsis and type(value) is tuple else args
        return (type(value) is tuple and len(value) == len(items)
                and all(_fits(item, arg, name) for item, arg in zip(value, items)))
    if origin is Union or origin is UnionType:
        return any(_fits(value, arg, name) for arg in args)
    return _SCALARS[hint][1](value)


def require_type(name: str, value, hint) -> None:
    """ValueError, beginning with name, unless value has the type `hint`: the type rule of config and Detection fields.

    int takes a Python int, not a bool or numpy integer; float a Python int or float, an int only within float
    range; str a non-empty string; a Literal one of its values; a union any arm; tuple[X, Y] a tuple of that
    length, tuple[X, ...] one of any length. Another hint raises KeyError."""
    if not _fits(value, hint, name):
        raise ValueError(f"{name} must be {_type_text(hint)}, got {value!r}")


@functools.cache
def field_types(cls) -> MappingProxyType:
    """The annotation of each field of the dataclass cls, in field order: resolved once per class, so read-only."""
    hints = get_type_hints(cls)
    return MappingProxyType({field.name: hints[field.name] for field in fields(cls)})


def require_field_types(obj) -> None:
    """require_type over every field of the dataclass instance obj, in field order."""
    for name, hint in field_types(type(obj)).items():
        require_type(name, getattr(obj, name), hint)
