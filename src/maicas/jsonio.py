"""Strict decoding of the package's text inputs.

read_text reads every input file the package parses (sweeps, points, logs,
models and configs) as UTF-8, and names the file in a DomainError when it
is not. float_columns reads the numeric rows of sweep and points files.

One loader serves calibration models, baseline calibrations, device
geometry and experiment configs. The keys must be exactly the dataclass
fields, numeric fields must be finite JSON numbers (integers too must lie
within the float range, since the model computes with them as floats), and
any other shape raises DomainError naming the document and the field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types
import typing
from pathlib import Path

from .errors import DomainError


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
    for row in rows:
        fields = row.split(sep)
        if len(fields) not in widths:
            raise DomainError(f"{source}: malformed data row {row!r}")
        try:
            xs.append(float(fields[0]))
            ys.append(float(fields[1]))
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
    hints = typing.get_type_hints(cls)
    return cls(**{name: _field(hints[name], obj[name], f"{what}.{name}",
                               partial)
                  for name in names if name in obj})


def _field(hint, value, where: str, partial: bool):
    if typing.get_origin(hint) is types.UnionType:  # X | None
        if value is None:
            return None
        (hint,) = [h for h in typing.get_args(hint) if h is not type(None)]
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, where, partial=partial)
    if typing.get_origin(hint) is tuple:  # tuple[float, ...]
        if not isinstance(value, list):
            raise DomainError(f"{where}: expected a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_field(item, v, f"{where}[{i}]", partial)
                     for i, v in enumerate(value))
    if hint is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an integer literal beyond float range
                number = math.inf
            if math.isfinite(number):
                return number
        raise DomainError(f"{where}: expected a finite number, got {value!r}")
    if not isinstance(value, hint) or (hint is int and isinstance(value, bool)):
        raise DomainError(f"{where}: expected {hint.__name__}, got {value!r}")
    if hint is int and abs(value) > sys.float_info.max:
        raise DomainError(f"{where}: integer beyond the float range")
    return value
