"""Inductively coupled reflection readout.

The sensor tank is interrogated through a reader coil: the reader sees its
own impedance plus the reflected tank impedance (omega*M)^2 / Z_tank. The
observable is the reflection magnitude against a 50 ohm port, which shows a
dip near the tank resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import TARGET_DEPTH_DB, LumpedCircuit
from .errors import (CalibrationFailed, DegenerateInput, DomainError,
                     require_positive)
from .jsonio import integer

PORT_IMPEDANCE_OHM = 50.0
READER_REACTANCE_RATIO = 0.1  # fit_reader's reactance fraction
DIP_SPAN = 0.05  # dip_of's first grid: f0 times 1 ± this fraction


@dataclass(frozen=True)
class ReaderCouple:
    """Reader coil and its magnetic link to the sensor."""

    reader_inductance: float
    reader_resistance: float
    coupling_coefficient: float

    def __post_init__(self):
        require_positive(self, "reader_inductance")
        if self.reader_resistance < 0:
            raise DomainError(
                f"reader_resistance must be >= 0, got {self.reader_resistance}")
        if not 0.0 <= self.coupling_coefficient < 1.0:
            raise DomainError(
                f"coupling_coefficient must be in [0, 1), got {self.coupling_coefficient}")


def _check_grid(f_start: float, f_stop: float, n_points: int) -> None:
    """DomainError unless 0 < f_start < f_stop < inf and n_points >= 2."""
    if not 0 < f_start < f_stop < math.inf:
        raise DomainError(
            f"need 0 < f_start < f_stop, got [{f_start}, {f_stop}]")
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")


def _check_passive(mags: np.ndarray) -> None:
    """DomainError when a sample, NaN aside, is above 1e-9 dB."""
    # fmax skips NaN: the largest other sample, with no boolean temporary
    if np.fmax.reduce(mags) > 1e-9:
        raise DomainError("reflection magnitude above 0 dB is not passive")


@dataclass(frozen=True, eq=False)
class S11Sweep:
    """Reflection magnitude on a uniform inclusive frequency grid."""

    f_start: float
    f_stop: float
    n_points: int
    magnitude_db: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_points", integer(self.n_points, "n_points"))
        _check_grid(self.f_start, self.f_stop, self.n_points)
        # one call converts and copies, so the caller's array stays its own
        mags = np.array(self.magnitude_db, dtype=np.float64)
        if mags.shape != (self.n_points,):
            raise DomainError(
                f"magnitude_db length {mags.shape} does not match n_points {self.n_points}")
        _check_passive(mags)
        mags.setflags(write=False)
        object.__setattr__(self, "magnitude_db", mags)

    @property
    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_start, self.f_stop, self.n_points)


def _sweep_of_checked(f_start: float, f_stop: float, n_points: int,
                      mags: np.ndarray) -> S11Sweep:
    """The S11Sweep of values that already hold all its checks: an int
    n_points, a grid _check_grid takes, and a read-only float64 mags of
    n_points samples that _check_passive takes. Skips the constructor."""
    sweep = object.__new__(S11Sweep)
    vars(sweep).update(f_start=f_start, f_stop=f_stop, n_points=n_points,
                       magnitude_db=mags)
    return sweep


def _impedance(circuit: LumpedCircuit, reader: ReaderCouple,
               f: np.ndarray) -> np.ndarray:
    """Impedance looking into the reader port at the frequencies f."""
    w = 2.0 * math.pi * f
    mutual = reader.coupling_coefficient * math.sqrt(
        reader.reader_inductance * circuit.inductance)
    z_tank = (circuit.resistance
              + 1j * (w * circuit.inductance - 1.0 / (w * circuit.capacitance)))
    return (reader.reader_resistance + 1j * w * reader.reader_inductance
            + (w * mutual) ** 2 / z_tank)


def _reflection_db(circuit: LumpedCircuit, reader: ReaderCouple,
                   f: np.ndarray) -> np.ndarray:
    """Reflection magnitude 20*log10|(z - z0)/(z + z0)| in dB at the
    frequencies f, floored at 1e-300 so a perfect match stays finite.
    Frequencies whose arithmetic overflows or underflows give NaN, so a
    campaign over such a grid ends in DegenerateInput, not a traceback."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = _impedance(circuit, reader, f)
        z0 = PORT_IMPEDANCE_OHM
        return 20.0 * np.log10(np.maximum(np.abs((z - z0) / (z + z0)), 1e-300))


def s11_spectrum(circuit: LumpedCircuit, reader: ReaderCouple,
                 f_start: float, f_stop: float, n_points: int) -> S11Sweep:
    """Reflection magnitude in dB over a uniform inclusive grid."""
    _check_grid(f_start, f_stop, n_points)
    f = np.linspace(f_start, f_stop, n_points)
    mags = _reflection_db(circuit, reader, f)
    return S11Sweep(f_start, f_stop, n_points, np.minimum(mags, 0.0))


def add_noise(sweep: S11Sweep, sigma_db: float, seed) -> S11Sweep:
    """Additive Gaussian measurement noise, clamped to keep the sweep
    passive. sigma_db = 0 returns the input unchanged; a sigma_db that is
    not finite and >= 0 is a DomainError, and a noisy sweep that is not
    finite (noise beyond the float range) is DegenerateInput. The seed is
    any seed numpy's PCG64 takes: an int, a sequence of ints or a
    SeedSequence. The result shares no array with the input and skips
    S11Sweep's checks, which hold by construction: the checked input's
    grid, and fresh float64 samples, finite and clamped at 0 dB."""
    if not 0 <= sigma_db < math.inf:
        raise DomainError(f"sigma_db must be finite and >= 0, got {sigma_db}")
    if sigma_db == 0.0:
        return sweep
    rng = np.random.Generator(np.random.PCG64(seed))
    # normal(0.0, sigma_db) is 0.0 + sigma_db * z on the same z; the 0.0 +
    # only turns -0.0 into 0.0, and so does the clamp below
    noisy = rng.standard_normal(sweep.n_points)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        noisy *= sigma_db
    noisy += sweep.magnitude_db  # IEEE addition commutes: the same bits
    if not np.isfinite(noisy).all():
        raise DegenerateInput(
            f"sweep with noise of sigma_db {sigma_db!r} is not finite")
    np.minimum(noisy, 0.0, out=noisy)
    noisy.setflags(write=False)
    return _sweep_of_checked(sweep.f_start, sweep.f_stop, sweep.n_points,
                             noisy)


def vertex_offset(y0: float, y1: float, y2: float) -> float | None:
    """Offset, in grid steps from the middle sample, of the vertex of the
    parabola through three equally spaced samples; None unless the parabola
    opens upward."""
    denom = y0 - 2.0 * y1 + y2
    if denom > 0:
        return 0.5 * (y0 - y2) / denom
    return None


def dip_of(circuit: LumpedCircuit,
           reader: ReaderCouple) -> tuple[float, float]:
    """Location and depth of the reflection dip near the tank resonance,
    from a two-stage dense evaluation, first over f0 times 1 ± DIP_SPAN,
    plus parabolic refinement. Used by the calibration fits; deterministic."""
    lo, hi = circuit.f0 * (1.0 - DIP_SPAN), circuit.f0 * (1.0 + DIP_SPAN)
    for _ in range(2):
        f = np.linspace(lo, hi, 2001)
        mags = _reflection_db(circuit, reader, f)
        i = int(np.argmin(mags))
        step = f[1] - f[0]
        lo, hi = f[i] - 3.0 * step, f[i] + 3.0 * step
    if 0 < i < len(f) - 1:
        y0, y1, y2 = mags[i - 1], mags[i], mags[i + 1]
        delta = vertex_offset(y0, y1, y2)
        if delta is not None:
            return float(f[i] + delta * step), float(y1 - 0.125 * (y0 - y2) * delta)
    return float(f[i]), float(mags[i])


def fit_reader(circuit: LumpedCircuit,
               target_depth_db: float = TARGET_DEPTH_DB) -> ReaderCouple:
    """Choose a reader that realizes the requested dip depth at the tank
    resonance.

    Construction at f0: pick the reader reactance as a fraction of the
    largest value for which the reflection target stays reachable, solve the
    resulting quadratic for the undercoupled input-resistance root, map that
    resistance to a coupling coefficient, then polish the coupling with a
    secant iteration against the actually realized dip depth.
    """
    if not target_depth_db < 0:  # NaN fails too
        raise DomainError(
            f"target_depth_db must be < 0 dB, got {target_depth_db}")
    z0 = PORT_IMPEDANCE_OHM
    g = 10.0 ** (target_depth_db / 20.0)
    w0 = 2.0 * math.pi * circuit.f0
    x_r = READER_REACTANCE_RATIO * 2.0 * z0 * g
    inductance_r = x_r / w0
    resistance_r = 1.0

    # (R_in - z0)^2 + x_r^2 = g^2 ((R_in + z0)^2 + x_r^2), lower root
    a = 1.0 - g * g
    if a == 0.0:
        raise CalibrationFailed(
            f"target depth {target_depth_db} dB rounds to a full reflection")
    b = -2.0 * z0 * (1.0 + g * g)
    c = a * (z0 * z0 + x_r * x_r)
    disc = b * b - 4.0 * a * c
    if disc <= 0:
        raise CalibrationFailed(
            f"reader reactance {x_r:.3g} ohm cannot reach {target_depth_db} dB")
    r_in = (-b - math.sqrt(disc)) / (2.0 * a)
    if r_in <= resistance_r:
        raise CalibrationFailed("matched input resistance below reader loss")

    k2 = ((r_in - resistance_r) * circuit.resistance
          / (w0 * w0 * inductance_r * circuit.inductance))
    if not 0.0 < k2 < 0.9:
        raise CalibrationFailed(
            f"required coupling k^2 = {k2:.4f} outside the physical range")
    k = math.sqrt(k2)

    def depth_error(k_try: float) -> float:
        trial = ReaderCouple(inductance_r, resistance_r, k_try)
        return dip_of(circuit, trial)[1] - target_depth_db

    # secant polish: the closed form ignores the reader reactance detuning
    k_a, e_a = k, depth_error(k)
    k_b = min(k * 1.02, 0.949)
    e_b = depth_error(k_b)
    for _ in range(25):
        if abs(e_b) < 5e-3:
            break
        if e_b == e_a:
            break
        k_next = k_b - e_b * (k_b - k_a) / (e_b - e_a)
        k_next = min(max(k_next, 1e-6), 0.949)
        k_a, e_a, k_b = k_b, e_b, k_next
        e_b = depth_error(k_b)
    if abs(e_b) > 5e-2:
        raise CalibrationFailed(
            f"dip depth fit residual {e_b:.3g} dB at k = {k_b:.4f}")
    return ReaderCouple(inductance_r, resistance_r, float(k_b))
