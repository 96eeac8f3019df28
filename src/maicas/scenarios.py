"""Virtual characterization campaigns.

Each mode maps a measurand grid onto deformation states (or medium swaps),
synthesizes noisy reflection sweeps, extracts the dip per repeat, and fits
the calibration line on per-point means. One kinematic coupling parameter
per mode absorbs the unmodeled fixture mechanics; it is fitted once against
a target sensitivity and frozen.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import operator
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .calibration import CalibrationModel, fit_linear, line_fit
from .circuit import (TARGET_DEPTH_DB, TARGET_F0_HZ, ModelCalibration,
                      calibrate_baseline, lumped_from_geometry)
from .dsp import (MIN_DEPTH_DB, SMOOTHING_WINDOW, ResonanceEstimate,
                  _check_min_depth, extract_resonance)
from .errors import (CalibrationFailed, DegenerateInput, DomainError,
                     GridTooCoarse, NoResonance)
from .geometry import (MAX_ABS_STRAIN, DeviceGeometry, JointBend, Rest,
                       RolledDisplacement, RolledPressure, UniaxialStrain)
from .jsonio import check_fields, load_json
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
        check_fields(self)
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")
        grid = self.measurand_grid
        if not grid:
            raise DomainError("measurand_grid must be nonempty")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise DomainError("measurand_grid must be sorted ascending")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.repeats < 1:
            raise DomainError(f"repeats must be >= 1, got {self.repeats}")
        if self.noise_sigma_db < 0:
            raise DomainError(
                f"noise_sigma_db must be >= 0, got {self.noise_sigma_db}")
        if self.n_points < SMOOTHING_WINDOW:
            raise DomainError(
                f"n_points must be >= {SMOOTHING_WINDOW}, got {self.n_points}")
        _check_grid(self.f_start, self.f_stop, self.n_points)
        _check_min_depth(self.min_depth_db)
        if self.lumen_diameter <= 0:
            raise DomainError(
                f"lumen_diameter must be > 0, got {self.lumen_diameter}")

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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on a pool of
# four uint32 words. Every step's constant is the last one times a fixed
# multiplier, whatever the data, so all keys can take each step at once.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy's hashmix
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """init, init * mult, ..., init * mult**steps, each mod 2**32."""
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


_STATE_STEPS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix per column: xor with a step's constant,
    multiply by the next one, fold the high half down."""
    h = values ^ xor
    h *= mult
    h ^= h >> _SHIFT
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two words, elementwise."""
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> _SHIFT
    return out


@functools.cache
def _entropy_steps(n_words: int) -> tuple:
    """The (xor, mult) constant rows of mix_entropy over n_words words of
    entropy: the pool fill, one row per source pool column for the cross
    mix (its own column's slot unused), one row per word past the pool."""
    n_extra = max(n_words - _POOL, 0)
    c = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + n_extra))
    fill = (c[:_POOL], c[1:_POOL + 1])
    cross, k = [], _POOL
    for src in range(_POOL):
        xor, mult = np.zeros(_POOL, np.uint32), np.zeros(_POOL, np.uint32)
        dst = [d for d in range(_POOL) if d != src]
        xor[dst], mult[dst] = c[k:k + 3], c[k + 1:k + 4]
        cross.append((xor, mult))
        k += 3
    extra = [(c[j:j + _POOL], c[j + 1:j + _POOL + 1])
             for j in range(k, k + _POOL * n_extra, _POOL)]
    return fill, cross, extra


def _seed_words(seed: int, n_grid: int, repeats: int) -> np.ndarray:
    """Row gi * repeats + ri holds
    SeedSequence((seed, gi, ri)).generate_state(4, np.uint64), the words
    PCG64 is seeded with, for every (grid, repeat) key in one pass.

    The entropy is numpy's: the seed's little-endian 32-bit words ([0] for
    0), then gi and ri as one word each. The rows are read-only."""
    n = operator.index(seed)
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    n_words = len(words) + 2
    entropy = np.zeros((n_grid * repeats, max(n_words, _POOL)), np.uint32)
    entropy[:, :n_words - 2] = words
    entropy[:, n_words - 2], entropy[:, n_words - 1] = np.divmod(
        np.arange(n_grid * repeats, dtype=np.uint32), np.uint32(repeats))
    fill, cross, extra = _entropy_steps(n_words)
    pool = _hashmix(entropy[:, :_POOL], *fill)
    for src, (xor, mult) in enumerate(cross):
        # mix into every column, then undo the source's own
        mixed = _mix(pool, _hashmix(pool[:, src:src + 1], xor, mult))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for j, (xor, mult) in enumerate(extra, _POOL):
        pool = _mix(pool, _hashmix(entropy[:, j:j + 1], xor, mult))
    state = _hashmix(np.concatenate((pool, pool), axis=1),
                     _STATE_STEPS[:-1], _STATE_STEPS[1:])
    # as generate_state builds uint64 words from uint32 ones on any host
    out = state.astype("<u4").view("<u8").astype(np.uint64)
    out.flags.writeable = False
    return out


@functools.cache
def _repeat_seed_class() -> type:
    """_RepeatSeed, built on the first call: importing the package does not
    load numpy.random, which only a campaign's noise needs."""
    from numpy.random.bit_generator import ISeedSequence

    class _RepeatSeed(ISeedSequence):
        """The seed of one repeat: its row of _seed_words, handed to PCG64.

        It answers only PCG64's request, generate_state(4, np.uint64), and
        refuses any other, so its words cannot seed another generator."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a repeat seed gives 4 uint64 words only, "
                                 f"not {n_words} of {np.dtype(dtype)}")
            return self.words

    return _RepeatSeed


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


def fit_scenario_coupling(mode: str, target_sensitivity: float,
                          device: DeviceGeometry, cal: ModelCalibration) -> float:
    """Fit the one free kinematic parameter of a mode so the noiseless
    end-to-end sensitivity over the default grid matches the target.

    The sensitivity is monotone in the parameter, so a bracketed root solve
    is exact and deterministic. Raises CalibrationFailed when the target is
    non-positive or beyond what the strain validity window allows.
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


def campaign_plan(config: ExperimentConfig) -> tuple[
        ModelCalibration, ReaderCouple, float, tuple[S11Sweep, ...]]:
    """The noiseless part of a campaign: the baseline calibration, the
    reader, the coupling and one clean sweep per grid point.

    None of it depends on seed, repeats, noise_sigma_db or min_depth_db, so
    run_experiment passes a copy of the config with those four set to fixed
    values and a seed or noise sweep in one process computes each plan once.

    The last 32 plans are kept, keyed by the repr of the config, so every
    other field stays in the key and values that compare equal but differ
    (0.0 and -0.0, also inside the device) never share a plan.
    A plan holds len(measurand_grid) * n_points float64 values (80 kB for
    a stock five-point, 2001-point campaign). A plan that raises is not
    kept and raises again on the next call.
    """
    return _plan(repr(config), config)


@functools.lru_cache(maxsize=32)
def _plan(key: str, config: ExperimentConfig):
    """campaign_plan's computation; key is the repr of config."""
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
    ri at grid index gi draws its noise from
    PCG64(SeedSequence((seed, gi, ri))), and the summary CSV is
    byte-identical across runs. The seed words of all repeats come from
    one vectorised pass of SeedSequence's hash (_seed_words). Fewer than 2
    grid points with an estimate is a DegenerateInput naming the noise."""
    key = copy.copy(config)  # config is checked: no second construction
    vars(key).update(_NOISE_FREE)
    cal, reader, coupling, cleans = campaign_plan(key)
    seeds = map(_repeat_seed_class(), _seed_words(
        config.seed, len(config.measurand_grid), config.repeats))
    points = []
    failures = 0
    for x, clean in zip(config.measurand_grid, cleans):
        sweeps = []
        estimates: list[ResonanceEstimate | None] = []
        for _ in range(config.repeats):
            noisy = add_noise(clean, config.noise_sigma_db, next(seeds))
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
    if len(fit_points) < 2:
        raise DegenerateInput(
            f"need at least 2 points, got {len(fit_points)}: "
            f"{len(points) - len(fit_points)} of {len(points)} grid points "
            f"and {failures} of {len(points) * config.repeats} repeats have "
            f"no estimate at noise_sigma_db {config.noise_sigma_db!r}")
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

