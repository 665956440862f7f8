"""The one reader and the one writer of the package's JSON files, and the
type check of the values read from them."""

from __future__ import annotations

import json

from .errors import ParseError


def read_json(path) -> dict:
    """The JSON object in ``path``; else a ``ParseError`` naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: the document must be a JSON object")
    return data


def write_json(path, data, sort_keys: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def checked(value, name: str, kind=(int, float), expected: str = "a number"):
    """``value`` if it is a ``kind`` and not a bool, which Python counts as
    an int but JSON not as a number; else a ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {expected}, not {json.dumps(value)}")
    return value


def numbers(values, name: str) -> tuple[float, ...]:
    """The JSON list of numbers ``values`` as floats."""
    return tuple(float(checked(v, f"{name}[{k}]"))
                 for k, v in enumerate(checked(values, name, list, "a list")))
