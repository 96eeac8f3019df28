"""Measurand calibration: straight-line fits of f0 against the stimulus,
inversion back to the measurand, and cycling/aging figures of merit."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Literal, Sequence

from .errors import (DegenerateInput, DegenerateModel, DomainError,
                     IncompleteCycle)
from .jsonio import check_fields, float_columns, load_json

# measurand unit -> the symbol the CLI prints after a slope
MEASURAND_UNITS = {"percent-strain": "%", "mmHg": "mmHg", "um": "um",
                   "degrees": "deg", "rel-permittivity": "eps_r", "days": "day"}

_OUT_OF_RANGE = "points too far apart for least squares in float range"


def line_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and intercept via centered normal equations.
    Values whose sums leave the float range raise DegenerateInput."""
    n = len(xs)
    try:
        x_bar = math.fsum(xs) / n
        y_bar = math.fsum(ys) / n
        sxx = math.fsum((x - x_bar) ** 2 for x in xs)
        sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    except (OverflowError, ValueError):  # ValueError: fsum of inf and -inf
        raise DegenerateInput(_OUT_OF_RANGE) from None
    if sxx == 0.0:
        raise DegenerateInput("all stimulus values identical; slope undefined")
    slope = sxy / sxx
    return slope, y_bar - slope * x_bar


@dataclass(frozen=True)
class CalibrationModel:
    """f = intercept + slope * measurand, with fit quality and the frequency
    range the fit covered (used to flag extrapolation on inversion)."""

    intercept: float
    slope: float
    r_squared: float
    residual_sd: float
    measurand_unit: str
    n_points: int
    y_min: float
    y_max: float

    def __post_init__(self):
        check_fields(self)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @staticmethod
    def from_json(text: str) -> "CalibrationModel":
        """Inverse of to_json. Raises DomainError on malformed JSON, missing
        or unknown keys, and non-numeric or non-finite numbers."""
        return load_json(CalibrationModel, text, "calibration model")


def fit_linear(points: Sequence[tuple[float, float]],
               measurand_unit: str) -> CalibrationModel:
    """Ordinary least squares on (measurand, f0_hz) pairs.

    Two points always fit exactly (r_squared 1, residual_sd 0). Raises
    DegenerateInput for fewer than two points or a constant stimulus.
    """
    if measurand_unit not in MEASURAND_UNITS:
        raise DomainError(f"unknown measurand unit {measurand_unit!r}")
    n = len(points)
    if n < 2:
        raise DegenerateInput(f"need at least 2 points, got {n}")
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    slope, intercept = line_fit(xs, ys)
    if n == 2:
        r_squared, residual_sd = 1.0, 0.0
    else:
        try:
            ss_res = math.fsum((y - (intercept + slope * x)) ** 2
                               for x, y in zip(xs, ys))
            y_bar = math.fsum(ys) / n
            ss_tot = math.fsum((y - y_bar) ** 2 for y in ys)
        except (OverflowError, ValueError):
            raise DegenerateInput(_OUT_OF_RANGE) from None
        r_squared = 1.0 if ss_tot == 0.0 else min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
        residual_sd = math.sqrt(ss_res / (n - 2))
    return CalibrationModel(
        intercept=intercept,
        slope=slope,
        r_squared=r_squared,
        residual_sd=residual_sd,
        measurand_unit=measurand_unit,
        n_points=n,
        y_min=min(ys),
        y_max=max(ys),
    )


@dataclass(frozen=True)
class InversionResult:
    value: float
    extrapolated: bool


def invert(model: CalibrationModel, f0_hz: float) -> InversionResult:
    """Measurand value whose model line passes through f0_hz. Flagged as
    extrapolated when f0_hz falls outside the fitted frequency range. A
    non-finite f0_hz raises DomainError; a model that maps it to no finite
    value (zero slope, or an overflowing quotient) raises DegenerateModel."""
    return InversionResult(*_invert(model, f0_hz))


def _invert(model: CalibrationModel, f0_hz: float) -> tuple[float, bool]:
    """invert's (value, extrapolated), with no InversionResult built."""
    if not math.isfinite(f0_hz):
        raise DomainError(f"f0_hz must be finite, got {f0_hz}")
    if model.slope == 0.0:
        raise DegenerateModel("zero slope; inversion undefined")
    value = (f0_hz - model.intercept) / model.slope
    if not math.isfinite(value):
        raise DegenerateModel(
            f"inverting f0_hz {f0_hz!r} overflows (slope {model.slope!r})")
    return value, not (model.y_min <= f0_hz <= model.y_max)


Phase = Literal["loaded", "released"]


@dataclass(frozen=True)
class CyclePoint:
    cycle_index: int
    phase: Phase
    f0_hz: float


@dataclass(frozen=True, eq=False)
class CycleSeries:
    """Load/release resonance log. Cycle indices must run contiguously from
    1 and every cycle must contain both phases."""

    points: tuple[CyclePoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        cycles: dict[int, set[str]] = {}
        for p in self.points:
            if p.phase not in ("loaded", "released"):
                raise DomainError(f"unknown phase {p.phase!r}")
            cycles.setdefault(p.cycle_index, set()).add(p.phase)
        if not cycles:
            raise DegenerateInput("empty cycle series")
        indices = sorted(cycles)
        if indices != list(range(1, len(indices) + 1)):
            raise IncompleteCycle(f"cycle indices not contiguous from 1: {indices}")
        for idx in indices:
            if cycles[idx] != {"loaded", "released"}:
                raise IncompleteCycle(f"cycle {idx} is missing a phase")

    def phase_values(self, phase: Phase) -> list[float]:
        return [p.f0_hz for p in self.points if p.phase == phase]


def cycle_series(entries: Sequence[tuple[int, str, float]]) -> CycleSeries:
    return CycleSeries(tuple(CyclePoint(int(i), ph, float(f))
                             for i, ph, f in entries))


@dataclass(frozen=True)
class RepeatabilityMetrics:
    max_return_error: float
    mean_loaded_f0: float
    mean_released_f0: float
    hysteresis_span: float


def repeatability_metrics(series: CycleSeries) -> RepeatabilityMetrics:
    """Cycle-to-cycle figures: the worst released-state departure from the
    first released value, per-phase means, and the released spread."""
    released = series.phase_values("released")
    loaded = series.phase_values("loaded")
    reference = released[0]
    return RepeatabilityMetrics(
        max_return_error=max(abs(f - reference) for f in released),
        mean_loaded_f0=math.fsum(loaded) / len(loaded),
        mean_released_f0=math.fsum(released) / len(released),
        hysteresis_span=max(released) - min(released),
    )


@dataclass(frozen=True, eq=False)
class AgingSeries:
    """Resonance log over storage time. Days must start at 0 and increase
    strictly."""

    entries: tuple[tuple[float, float], ...]  # (elapsed_days, f0_hz)

    def __post_init__(self):
        entries = tuple((float(d), float(f)) for d, f in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise DegenerateInput("empty aging series")
        if entries[0][0] != 0.0:
            raise DomainError("aging series must start at day 0")
        days = [d for d, _ in entries]
        if any(b <= a for a, b in zip(days, days[1:])):
            raise DomainError("elapsed days must be strictly increasing")


@dataclass(frozen=True)
class DriftMetrics:
    slope_hz_per_day: float
    total_shift_hz: float


def drift_metrics(series: AgingSeries) -> DriftMetrics:
    """Least-squares drift rate and end-to-start shift. A constant series
    yields a slope of exactly zero."""
    if len(series.entries) < 2:
        raise DegenerateInput("drift needs at least 2 samples")
    days = [d for d, _ in series.entries]
    f0s = [f for _, f in series.entries]
    slope, _ = line_fit(days, f0s)
    return DriftMetrics(
        slope_hz_per_day=slope,
        total_shift_hz=f0s[-1] - f0s[0],
    )


POINTS_CSV_HEADER = "x,y_hz"


def parse_points(text: str, source: str = "<string>") -> list[tuple[float, float]]:
    """Parse (measurand, f0_hz) pairs from CSV text with header x,y_hz,
    read as jsonio.float_columns reads it. Values must be finite."""
    points = list(zip(*float_columns(text.splitlines(), source,
                                     header=POINTS_CSV_HEADER, sep=",")))
    for n, (x, y) in enumerate(points, 1):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"{source}: non-finite value in data row {n}")
    return points

