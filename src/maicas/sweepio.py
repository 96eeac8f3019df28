"""Sweep serialization: one-port Touchstone and plain CSV.

Both formats round-trip the grid and magnitudes at full float64 precision
(values are written with shortest round-trip repr). Touchstone files carry a
phase column for format compliance; it is written as 0.0 and ignored on
read because the twin models magnitude only.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DomainError
from .jsonio import float_columns, read_text
from .readout import S11Sweep

TOUCHSTONE_OPTION_LINE = "# HZ S DB R 50"
CSV_HEADER = "frequency_hz,magnitude_db"

_GRID_RTOL = 1e-9


def _sweep_from_columns(freqs: np.ndarray, mags: np.ndarray, source: str) -> S11Sweep:
    if freqs.size < 2:
        raise DomainError(f"{source}: need at least 2 data rows")
    finite = np.isfinite(freqs) & np.isfinite(mags)
    if not finite.all():
        raise DomainError(f"{source}: non-finite value in data row "
                          f"{int(np.argmin(finite)) + 1}")
    grid = np.linspace(freqs[0], freqs[-1], freqs.size)
    step = grid[1] - grid[0]
    if step <= 0 or np.max(np.abs(freqs - grid)) > _GRID_RTOL * abs(step) + 1e-12:
        raise DomainError(f"{source}: frequency column is not a uniform ascending grid")
    return S11Sweep(float(freqs[0]), float(freqs[-1]), int(freqs.size), mags)


def write_touchstone(sweep: S11Sweep, path) -> None:
    lines = ["! one-port reflection magnitude", TOUCHSTONE_OPTION_LINE]
    for f, m in zip(sweep.frequencies, sweep.magnitude_db):
        lines.append(f"{float(f)!r} {float(m)!r} 0.0")
    Path(path).write_text("\n".join(lines) + "\n")


def read_touchstone(path) -> S11Sweep:
    rows, saw_options = [], False
    for line in read_text(path).splitlines():
        line = line.split("!", 1)[0].strip()
        if line.startswith("#"):
            if line[1:].upper().split() != TOUCHSTONE_OPTION_LINE[1:].split():
                raise DomainError(
                    f"{path}: unsupported Touchstone options {line!r}")
            saw_options = True
        else:
            rows.append(line)
    freqs, mags = float_columns(rows, str(path), widths=(2, 3))
    if not saw_options:
        raise DomainError(f"{path}: missing Touchstone option line")
    return _sweep_from_columns(np.asarray(freqs), np.asarray(mags), str(path))


def write_csv(sweep: S11Sweep, path) -> None:
    lines = [CSV_HEADER]
    for f, m in zip(sweep.frequencies, sweep.magnitude_db):
        lines.append(f"{float(f)!r},{float(m)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> S11Sweep:
    freqs, mags = float_columns(read_text(path).splitlines(), str(path),
                                header=CSV_HEADER, sep=",")
    return _sweep_from_columns(np.asarray(freqs), np.asarray(mags), str(path))


def write_sweep(sweep: S11Sweep, path) -> None:
    """Dispatch on file suffix: .s1p or .csv."""
    suffix = Path(path).suffix.lower()
    if suffix == ".s1p":
        write_touchstone(sweep, path)
    elif suffix == ".csv":
        write_csv(sweep, path)
    else:
        raise DomainError(f"unsupported sweep format {suffix!r}")


def read_sweep(path) -> S11Sweep:
    suffix = Path(path).suffix.lower()
    if suffix == ".s1p":
        return read_touchstone(path)
    if suffix == ".csv":
        return read_csv(path)
    raise DomainError(f"unsupported sweep format {suffix!r}")
