"""Strict field readers for the JSON documents the command line takes.

JSON has one number type, so a count or a vertex must be an integer and a
coordinate, radius or breakpoint any number; a bool (an int to Python) or
a string is neither.  Every error is a ``ValueError`` that names the
document's format (``fmt``) and the field at fault.
"""

from __future__ import annotations


def _is_integer(value) -> bool:
    return type(value) is int


def _is_number(value) -> bool:
    return type(value) in (int, float)


def fields(data, fmt: str, *names: str) -> list:
    """The values of ``names`` in the JSON object ``data``, in order."""
    if not isinstance(data, dict):
        raise ValueError(f"{fmt} must be an object with the fields "
                         f"{', '.join(map(repr, names))}, got {type(data).__name__}")
    for name in names:
        if name not in data:
            raise ValueError(f"{fmt} is missing the field {name!r}")
    return [data[name] for name in names]


def integer(value, fmt: str, what: str) -> int:
    if not _is_integer(value):
        raise ValueError(f"{fmt}: {what} must be an integer, got {value!r}")
    return value


def array(value, fmt: str, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{fmt}: {what} must be an array, got {value!r}")
    return value


def integers(value, fmt: str, what: str) -> list[int]:
    if not (isinstance(value, list) and all(map(_is_integer, value))):
        raise ValueError(f"{fmt}: {what} must be an array of integers, got {value!r}")
    return value


def numbers(value, fmt: str, what: str) -> list[float]:
    if not (isinstance(value, list) and all(map(_is_number, value))):
        raise ValueError(f"{fmt}: {what} must be an array of numbers, got {value!r}")
    return value
