"""Virtual characterization campaigns.

Each mode maps a measurand grid onto deformation states (or medium swaps),
synthesizes noisy reflection sweeps, extracts the dip per repeat, and fits
the calibration line on per-point means. One kinematic coupling parameter
per mode absorbs the unmodeled fixture mechanics; it is fitted once against
a target sensitivity and frozen.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._memo import memo
from .calibration import CalibrationModel, fit_linear, line_fit
from .circuit import (TARGET_DEPTH_DB, TARGET_F0_HZ, ModelCalibration,
                      calibrate_baseline, lumped_from_geometry)
from .dsp import (MIN_DEPTH_DB, SMOOTHING_WINDOW, ResonanceEstimate,
                  _check_min_depth, extract_resonance)
from .errors import (CalibrationFailed, DegenerateInput, DomainError,
                     GridTooCoarse, NoResonance)
from .geometry import (MAX_ABS_STRAIN, DeviceGeometry, JointBend, Rest,
                       RolledDisplacement, RolledPressure, UniaxialStrain)
from .jsonio import load_json
from .readout import (ReaderCouple, S11Sweep, _check_grid, add_noise,
                      fit_reader, s11_spectrum)
from .sweepio import write_touchstone


@dataclass(frozen=True)
class ModeSpec:
    """Everything one campaign mode adds to the shared pipeline."""

    unit: str                 # a calibration.MEASURAND_UNITS key
    grid: tuple[float, ...]   # default measurand grid
    # (config, coupling, x) -> (device, deformation state) at grid value x
    state: Callable[[ExperimentConfig, float, float], tuple]
    coupling_field: str | None = None  # config field of an explicit coupling
    # effective strain per unit measurand at coupling 1 (linear kinematics);
    # None for a mode without a kinematic coupling to fit
    unit_strain: Callable[[ExperimentConfig], float] | None = None
    # Hz per unit measurand fitted when the config sets no coupling, unless
    # coupling 1 lands within band of it
    target: float | None = None
    band: float | None = None
    table: str | None = None  # bundled points table of the mode


def _in_medium(device: DeviceGeometry, rel_permittivity: float) -> DeviceGeometry:
    return replace(device, stack=replace(
        device.stack, medium_rel_permittivity=rel_permittivity))


MODE_SPECS = {
    "epicardial_strain": ModeSpec(
        "percent-strain", (0.0, 5.0, 10.0, 15.0, 20.0),
        lambda c, k, x: (c.device, UniaxialStrain(k * x / 100.0)),
        coupling_field="strain_scale", unit_strain=lambda c: 1.0 / 100.0,
        target=2.9e6, band=0.3e6, table="strain.csv"),
    "graft_pressure": ModeSpec(
        "mmHg", (50.0, 100.0, 150.0, 200.0),
        lambda c, k, x: (c.device, RolledPressure(c.lumen_diameter, x, k)),
        coupling_field="compliance", unit_strain=lambda c: 1.0,
        target=0.43e6, table="pressure.csv"),
    "stent_displacement": ModeSpec(
        "um", (0.0, 100.0, 200.0, 300.0, 400.0),
        lambda c, k, x: (c.device, RolledDisplacement(
            c.lumen_diameter, k * x, c.expansion_positive)),
        coupling_field="displacement_scale",
        unit_strain=lambda c: 1.0 / (c.lumen_diameter * 1000.0),
        table="displacement.csv"),
    "joint_bend": ModeSpec(
        "degrees", (0.0, 15.0, 30.0, 60.0, 90.0),
        lambda c, k, x: (c.device, JointBend(x, k)),
        coupling_field="bend_radius",
        unit_strain=lambda c: 1000.0 * math.pi / 180.0 / c.device.rest_length,
        table="bend.csv"),
    "media_stability": ModeSpec(
        "rel-permittivity", (1.0, 10.0, 40.0, 80.0),
        lambda c, k, x: (_in_medium(c.device, x), Rest())),
    "aging": ModeSpec(
        "days", (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0),
        lambda c, k, x: (c.device, Rest())),
}
MODES = tuple(MODE_SPECS)

DEFAULT_LUMEN_DIAMETER = 3.18  # mm
DEFAULT_BEND_RADIUS = 2.0      # mm
_RTOL_MIN = 4.0 * 2.0 ** -52  # brentq's smallest relative tolerance, 4 eps


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serializable description of one virtual campaign."""

    mode: str
    measurand_grid: tuple[float, ...]
    repeats: int = 5
    noise_sigma_db: float = 0.1
    seed: int = 0
    f_start: float = 1.5e9
    f_stop: float = 2.0e9
    n_points: int = 2001
    device: DeviceGeometry = field(default_factory=DeviceGeometry)
    calibration: ModelCalibration | None = None
    target_f0: float = TARGET_F0_HZ
    target_depth_db: float = TARGET_DEPTH_DB
    min_depth_db: float = MIN_DEPTH_DB
    lumen_diameter: float = DEFAULT_LUMEN_DIAMETER
    compliance: float | None = None      # graft strain per mmHg
    strain_scale: float | None = None    # epicardial gap-coupling scale
    displacement_scale: float = 1.0      # stent strain scale
    expansion_positive: bool = True      # stent sign convention
    bend_radius: float = DEFAULT_BEND_RADIUS
    aging_temperature: float = 70.0
    equivalent_storage: str = "16 days at 70 C ~ 1 year ambient"

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")
        grid = tuple(float(x) for x in self.measurand_grid)
        if not grid:
            raise DomainError("measurand_grid must be nonempty")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise DomainError("measurand_grid must be sorted ascending")
        object.__setattr__(self, "measurand_grid", grid)
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.repeats < 1:
            raise DomainError(f"repeats must be >= 1, got {self.repeats}")
        if not 0 <= self.noise_sigma_db < math.inf:
            raise DomainError(f"noise_sigma_db must be finite and >= 0, "
                              f"got {self.noise_sigma_db}")
        if self.n_points < SMOOTHING_WINDOW:
            raise DomainError(
                f"n_points must be >= {SMOOTHING_WINDOW}, got {self.n_points}")
        _check_grid(self.f_start, self.f_stop, self.n_points)
        _check_min_depth(self.min_depth_db)
        if self.lumen_diameter <= 0:
            raise DomainError("lumen_diameter must be > 0")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        """Inverse of to_json: every field, the device and the calibration
        included, must be present. Raises DomainError on malformed JSON,
        missing or unknown keys, and values of the wrong type."""
        return load_json(ExperimentConfig, text, "experiment config")


def default_config(mode: str, **overrides) -> ExperimentConfig:
    """Config with the standard grid for a mode."""
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}")
    kwargs = {"mode": mode, "measurand_grid": MODE_SPECS[mode].grid}
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def derive_seed(seed: int, grid_index: int, repeat_index: int) -> np.random.SeedSequence:
    """Documented per-repeat seed mixing: spawn-safe SeedSequence keyed by
    (experiment seed, grid index, repeat index)."""
    return np.random.SeedSequence((seed, grid_index, repeat_index))


def _noiseless_slope(coupling: float, config: ExperimentConfig,
                     cal: ModelCalibration, grid: Sequence[float]) -> float:
    state_at = MODE_SPECS[config.mode].state
    ys = [lumped_from_geometry(*state_at(config, coupling, x), cal).f0
          for x in grid]
    slope, _ = line_fit(grid, ys)
    return slope


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of f inside the bracket [xa, xb] by Brent's method.

    A port of scipy.optimize.brentq (its C loop, with the same operations
    in the same order, so the same root bits), except that every failure
    scipy reports with ValueError or RuntimeError is a CalibrationFailed:
    a tolerance out of range, f(xa) and f(xb) of one sign, a NaN value of
    f, or no convergence within maxiter steps.
    """
    if xtol <= 0:
        raise CalibrationFailed(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise CalibrationFailed(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise CalibrationFailed(f"the function value at x={x} is NaN")
        return fx

    def signbit(v: float) -> bool:
        return math.copysign(1.0, v) < 0

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if signbit(fpre) == signbit(fcur):
        raise CalibrationFailed("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and signbit(fpre) != signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C divides to an inf or a NaN, which fails the test below
                pass
            else:
                limit = 3 * abs(sbis) - delta
                if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                    # good short step
                    spre, scur = scur, stry
                    bisect = False
        if bisect:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise CalibrationFailed(
        f"failed to converge after {maxiter} iterations, value is {xcur}")


@memo
def fit_scenario_coupling(mode: str, target_sensitivity: float,
                          device: DeviceGeometry, cal: ModelCalibration) -> float:
    """Fit the one free kinematic parameter of a mode so the noiseless
    end-to-end sensitivity over the default grid matches the target.

    The sensitivity is monotone in the parameter, so a bracketed root solve
    is exact and deterministic. Raises CalibrationFailed when the target is
    non-positive or beyond what the strain validity window allows. A
    process fits each argument set once (see maicas._memo); failures are
    not kept.
    """
    spec = MODE_SPECS.get(mode)
    if spec is None or spec.unit_strain is None:
        raise DomainError(f"mode {mode!r} has no kinematic coupling")
    if target_sensitivity <= 0:
        raise CalibrationFailed(
            f"target sensitivity must be positive, got {target_sensitivity}")
    config = default_config(mode, device=device, calibration=cal)
    grid = config.measurand_grid
    x_extreme = max(abs(grid[0]), abs(grid[-1]))
    p_max = ((MAX_ABS_STRAIN * (1.0 - 1e-9))
             / (spec.unit_strain(config) * x_extreme))
    p_min = 1e-9 * p_max

    def residual(p: float) -> float:
        return _noiseless_slope(p, config, cal, grid) - target_sensitivity

    r_hi = residual(p_max)
    if r_hi < 0:
        raise CalibrationFailed(
            f"target {target_sensitivity:.6g} Hz/unit unreachable inside the "
            f"strain validity window (max {target_sensitivity + r_hi:.6g})",
            residual=-r_hi)
    if residual(p_min) > 0:
        raise CalibrationFailed(
            "target sensitivity below the model floor", residual=residual(p_min))
    p_star = _brentq(residual, p_min, p_max, xtol=1e-14 * p_max, rtol=8.9e-16)
    achieved = _noiseless_slope(p_star, config, cal, grid)
    if abs(achieved - target_sensitivity) > 0.02 * abs(target_sensitivity):
        raise CalibrationFailed(
            f"coupling fit residual {achieved - target_sensitivity:.3g} Hz",
            residual=abs(achieved - target_sensitivity))
    return p_star


def resolve_coupling(config: ExperimentConfig, cal: ModelCalibration) -> float:
    """Effective kinematic parameter for a config: the explicit value if
    given, else coupling 1 when the natural model lies within the mode's
    band of its target sensitivity, else a fit to that target. Modes without
    a coupling resolve to 0."""
    spec = MODE_SPECS[config.mode]
    if spec.coupling_field is None:
        return 0.0
    explicit = getattr(config, spec.coupling_field)
    if explicit is not None:
        return explicit
    if spec.band is not None and abs(_noiseless_slope(
            1.0, config, cal, config.measurand_grid) - spec.target) <= spec.band:
        return 1.0
    return fit_scenario_coupling(config.mode, spec.target, config.device, cal)


@dataclass(frozen=True, eq=False)
class PointResult:
    """All repeats at one grid value. estimates holds None where extraction
    failed; mean/sd cover the successful repeats only."""

    measurand: float
    sweeps: tuple[S11Sweep, ...]
    estimates: tuple[ResonanceEstimate | None, ...]
    mean_f0: float
    sd_f0: float
    n_ok: int


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: ExperimentConfig
    calibration: ModelCalibration
    reader: ReaderCouple
    coupling: float
    points: tuple[PointResult, ...]
    summary: CalibrationModel
    failure_count: int

    def to_summary_csv(self) -> str:
        lines = ["measurand,mean_f0_hz,sd_f0_hz,n"]
        for p in self.points:
            lines.append(f"{p.measurand!r},{p.mean_f0!r},{p.sd_f0!r},{p.n_ok}")
        return "\n".join(lines) + "\n"

    def export_sweeps(self, directory) -> list[Path]:
        """Touchstone file per repeat, named by grid and repeat index."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for gi, point in enumerate(self.points):
            for ri, sweep in enumerate(point.sweeps):
                path = directory / f"sweep_g{gi:02d}_r{ri:02d}.s1p"
                write_touchstone(sweep, path)
                written.append(path)
        return written


# run_experiment's fixed values for the config fields the plan does not read
_NOISE_FREE = {"seed": 0, "repeats": 1, "noise_sigma_db": 0.0,
               "min_depth_db": MIN_DEPTH_DB}


@memo
def campaign_plan(config: ExperimentConfig) -> tuple[
        ModelCalibration, ReaderCouple, float, tuple[S11Sweep, ...]]:
    """The noiseless part of a campaign: the baseline calibration, the
    reader, the coupling and one clean sweep per grid point.

    None of it depends on seed, repeats, noise_sigma_db or min_depth_db, so
    run_experiment passes the config with those four set to fixed values
    and a seed or noise sweep in one process computes each plan once (see
    maicas._memo). Every other field stays in the key.
    """
    cal = config.calibration
    if cal is None:
        cal = calibrate_baseline(config.device, config.target_f0,
                                 config.target_depth_db)
    rest = lumped_from_geometry(config.device, Rest(), cal)
    reader = fit_reader(rest, config.target_depth_db)
    coupling = resolve_coupling(config, cal)
    state_at = MODE_SPECS[config.mode].state
    clean = tuple(
        s11_spectrum(lumped_from_geometry(*state_at(config, coupling, x), cal),
                     reader, config.f_start, config.f_stop, config.n_points)
        for x in config.measurand_grid)
    return cal, reader, coupling, clean


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute one campaign. Fully deterministic for a fixed config: repeat
    noise comes from derive_seed(seed, grid_index, repeat_index) and the
    summary CSV is byte-identical across runs."""
    cal, reader, coupling, cleans = campaign_plan(
        replace(config, **_NOISE_FREE))
    points = []
    failures = 0
    for gi, (x, clean) in enumerate(zip(config.measurand_grid, cleans)):
        sweeps = []
        estimates: list[ResonanceEstimate | None] = []
        for ri in range(config.repeats):
            noisy = add_noise(clean, config.noise_sigma_db,
                              derive_seed(config.seed, gi, ri))
            sweeps.append(noisy)
            try:
                estimates.append(extract_resonance(noisy, config.min_depth_db))
            except (NoResonance, GridTooCoarse):
                estimates.append(None)
                failures += 1
        ok = [e.f0_hat for e in estimates if e is not None]
        if ok:
            try:
                mean = math.fsum(ok) / len(ok)
                if len(ok) >= 2:
                    var = math.fsum((f - mean) ** 2 for f in ok) / (len(ok) - 1)
                    sd = math.sqrt(var)
                else:
                    sd = 0.0
            except OverflowError:
                raise DegenerateInput(
                    f"repeat estimates at {x!r} too far apart for a mean and "
                    f"sd in float range") from None
        else:
            mean, sd = math.nan, math.nan
        points.append(PointResult(
            measurand=x,
            sweeps=tuple(sweeps),
            estimates=tuple(estimates),
            mean_f0=mean,
            sd_f0=sd,
            n_ok=len(ok),
        ))

    fit_points = [(p.measurand, p.mean_f0) for p in points if p.n_ok > 0]
    summary = fit_linear(fit_points, MODE_SPECS[config.mode].unit)
    return ExperimentResult(
        config=config,
        calibration=cal,
        reader=reader,
        coupling=coupling,
        points=tuple(points),
        summary=summary,
        failure_count=failures,
    )

