"""Strict decoding of the package's text inputs.

read_text reads every input file the package parses (sweeps, points, logs,
models and configs) as UTF-8, and names the file in a DomainError when it
is not. float_columns reads the numeric rows of sweep and points files.

One loader serves calibration models, baseline calibrations, device
geometry and experiment configs. The keys must be exactly the dataclass
fields, numeric fields must be finite JSON numbers (integers too must lie
within the float range, since the model computes with them as floats), and
any other shape raises DomainError naming the document and the field.
Each of these documents applies the same per-field rule when it is built in
Python (check_fields), and S11Sweep the same integer rule to n_points.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import operator
import sys
import types
import typing
from pathlib import Path

from .errors import DomainError

# from_dict resolves each class's type hints once, not on every load
_type_hints = functools.cache(typing.get_type_hints)


def read_text(path) -> str:
    """The text of a UTF-8 file. Bytes that are not UTF-8 raise DomainError
    naming the file; a missing file raises the OSError as before."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None


def float_columns(lines, source: str, *, header: str | None = None,
                  sep: str | None = None, widths: tuple[int, ...] = (2,)
                  ) -> tuple[list[float], list[float]]:
    """The first two fields of each data row, as two columns of floats.

    Each line is stripped once; blank lines and lines that then start with
    '#' are skipped. With a header, the first line left must equal it,
    spaces aside. A row of a field count not in widths, or whose first two
    fields are not numbers, raises DomainError naming source and the row.
    """
    rows = [ln for ln in map(str.strip, lines) if ln and ln[0] != "#"]
    if header is not None:
        if not rows or rows[0].replace(" ", "") != header:
            raise DomainError(f"{source}: expected header '{header}'")
        del rows[0]
    xs, ys = [], []
    for start in range(0, len(rows), 256):  # whole columns, 256 rows at a time
        block = rows[start:start + 256]
        split = [row.split(sep) for row in block]
        try:
            if set(map(len, split)) <= set(widths):
                x, y, *_ = zip(*split)
                xs += map(float, x)
                ys += map(float, y)
                continue
        except ValueError:
            pass
        for row, fields in zip(block, split):  # name the first bad row
            if len(fields) not in widths:
                raise DomainError(f"{source}: malformed data row {row!r}")
            try:
                float(fields[0]), float(fields[1])
            except ValueError:
                raise DomainError(
                    f"{source}: non-numeric data row {row!r}") from None
    return xs, ys


def parse_json(text: str, what: str):
    """json.loads with DomainError for malformed text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{what}: malformed JSON ({exc})") from None


def load_json(cls, text: str, what: str):
    """Parse text and build dataclass cls from it with from_dict."""
    return from_dict(cls, parse_json(text, what), what)


def from_dict(cls, obj, what: str, *, partial: bool = False):
    """Build dataclass cls from a decoded JSON object, nested dataclasses
    included. Unknown keys always fail; missing keys fail unless partial,
    which leaves them at the dataclass defaults."""
    if not isinstance(obj, dict):
        raise DomainError(
            f"{what}: expected a JSON object, got {type(obj).__name__}")
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise DomainError(f"{what}: unknown keys {unknown}")
    missing = [name for name in names if name not in obj]
    if missing and not partial:
        raise DomainError(f"{what}: missing keys {missing}")
    hints = _type_hints(cls)
    return cls(**{name: _field(hints[name], obj[name], f"{what}.{name}",
                               partial)
                  for name in names if name in obj})


def check_fields(obj) -> None:
    """Run from_dict's per-field rule on each field of dataclass instance
    obj and store what it returns: numpy numbers become int or float."""
    for name, hint in _type_hints(type(obj)).items():
        object.__setattr__(obj, name,
                           _field(hint, getattr(obj, name), name, False))


def _field(hint, value, where: str, partial: bool):
    if hint is float:
        # float and int first: they skip the slower numbers.Real check
        real = isinstance(value, (float, int, numbers.Real))
        if real and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an integer literal beyond float range
                number = math.inf
            if math.isfinite(number):
                return number
        raise DomainError(f"{where}: expected a finite number, got {value!r}")
    if hint is int:
        return integer(value, where)
    origin = typing.get_origin(hint)
    if origin is types.UnionType:  # X | None
        if value is None:
            return None
        (hint,) = [h for h in typing.get_args(hint) if h is not type(None)]
        return _field(hint, value, where, partial)
    if origin is tuple:  # tuple[float, ...]
        if not isinstance(value, (list, tuple)):
            raise DomainError(f"{where}: expected a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_field(item, v, f"{where}[{i}]", partial)
                     for i, v in enumerate(value))
    if dataclasses.is_dataclass(hint):
        if isinstance(value, hint):  # built, so checked by its own class
            return value
        return from_dict(hint, value, where, partial=partial)
    if not isinstance(value, hint):
        raise DomainError(f"{where}: expected {hint.__name__}, got {value!r}")
    return value


def integer(value, where: str) -> int:
    """value as an int: anything operator.index takes (numpy integers too)
    but a bool, within the float range. Any other value raises DomainError
    naming where."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if abs(number) > sys.float_info.max:
                raise DomainError(f"{where}: integer beyond the float range")
            return number
    raise DomainError(f"{where}: expected int, got {value!r}")
