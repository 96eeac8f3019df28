"""Sweep serialization: one-port Touchstone and plain CSV.

Both formats round-trip the grid and magnitudes at full float64 precision
(values are written with shortest round-trip repr). The frequency column's
text is kept for the last grid written, so a run of files on one grid
formats it once. A sweep that read_sweep would refuse, such as one with a
non-finite sample, is refused before its file is opened. Touchstone files
carry a phase column for format compliance; it is written as 0.0 and
ignored on read because the twin models magnitude only.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=1, typed=True)
def _grid_text(f_start, f_stop, n_points: int) -> tuple[str, ...]:
    """repr of each frequency on the grid. typed: a float32 grid's linspace
    can differ from that of the equal float64 endpoints."""
    return tuple(map(repr, np.linspace(f_start, f_stop, n_points).tolist()))


def _write(sweep: S11Sweep, path, head: list[str], sep: str, tail: str = "") -> None:
    mags = sweep.magnitude_db
    _sweep_from_columns(sweep.frequencies, mags, f"cannot write {path}")
    grid = _grid_text(sweep.f_start, sweep.f_stop, sweep.n_points)
    rows = [f"{f}{sep}{m!r}{tail}" for f, m in zip(grid, mags.tolist())]
    Path(path).write_text("\n".join([*head, *rows]) + "\n")


def write_touchstone(sweep: S11Sweep, path) -> None:
    _write(sweep, path, ["! one-port reflection magnitude",
                         TOUCHSTONE_OPTION_LINE], " ", " 0.0")


def read_touchstone(path) -> S11Sweep:
    lines = [ln.split("!", 1)[0] if "!" in ln else ln
             for ln in read_text(path).splitlines()]
    # option lines start with '#' once stripped; float_columns skips them
    options = [ln.strip() for ln in lines if "#" in ln and ln.lstrip()[0] == "#"]
    for line in options:
        if line[1:].upper().split() != TOUCHSTONE_OPTION_LINE[1:].split():
            raise DomainError(f"{path}: unsupported Touchstone options {line!r}")
    freqs, mags = float_columns(lines, str(path), widths=(2, 3))
    if not options:
        raise DomainError(f"{path}: missing Touchstone option line")
    return _sweep_from_columns(np.asarray(freqs), np.asarray(mags), str(path))


def write_csv(sweep: S11Sweep, path) -> None:
    _write(sweep, path, [CSV_HEADER], ",")


def read_csv(path) -> S11Sweep:
    freqs, mags = float_columns(read_text(path).splitlines(), str(path),
                                header=CSV_HEADER, sep=",")
    return _sweep_from_columns(np.asarray(freqs), np.asarray(mags), str(path))


def _by_suffix(path, touchstone, csv):
    suffix = Path(path).suffix.lower()
    if suffix not in (".s1p", ".csv"):
        raise DomainError(f"unsupported sweep format {suffix!r}")
    return touchstone if suffix == ".s1p" else csv


def write_sweep(sweep: S11Sweep, path) -> None:
    """Dispatch on file suffix: .s1p or .csv."""
    _by_suffix(path, write_touchstone, write_csv)(sweep, path)


def read_sweep(path) -> S11Sweep:
    return _by_suffix(path, read_touchstone, read_csv)(path)
