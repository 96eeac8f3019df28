"""Independent numerical oracles used by the test suite.

Everything here is deliberately written against different math than the
package: elliptic integrals by direct quadrature instead of scipy.special,
inductance by Neumann double integrals instead of a current-sheet closed
form, CRC-32 bit by bit instead of zlib. Tests compare the package against
these routes; the two sides share no formula code.

The exceptions are reference_extract_resonance and reference_record_to_json:
the dip extractor as it was before its medians and padding were rewritten
for speed (np.pad + np.median), and the log record encoder as it was before
the writer reused its JSON tails (a dict through json.dumps). Both are kept
verbatim so tests can require the fast versions to agree bit for bit.

So are reference_ellipk and reference_brentq, the two scipy calls the
package made before it ported them to pure Python (scipy is a test
dependency only): the elliptic integral through scipy.special and
scipy.optimize.brentq itself.

And reference_add_noise: the noise step as it was before it added the
sweep onto its own draws in place, so tests can require the same bits.
And reference_noise_seed: the per-repeat seed as run_experiment built it
before it hashed all repeats at once, a SeedSequence keyed by (campaign
seed, grid index, repeat index).

And reference_touchstone_text, reference_csv_text and
reference_float_columns: the sweep file writers' and the numeric-row
reader's per-row loops as they were before they worked on whole columns, so
tests can require every written byte and every error message to stay the
same.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, optimize, special

from maicas.dsp import MIN_DEPTH_DB, SMOOTHING_WINDOW, ResonanceEstimate
from maicas.errors import DomainError, GridTooCoarse, NoResonance

MU0 = 4.0e-7 * math.pi
EPS0 = 8.8541878128e-12


# --- elliptic integral by quadrature -----------------------------------------

def ellipk_quad(k: float) -> float:
    """Complete elliptic integral K(k) (modulus k) by adaptive quadrature."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus must be in [0, 1), got {k}")

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        return 1.0 / math.sqrt(1.0 - (k * s) * (k * s))

    val, _ = integrate.quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13)
    return val


def kk_ratio_quad(k: float) -> float:
    """K(k)/K(k') with both integrals from quadrature."""
    kp = math.sqrt(max(0.0, 1.0 - k * k))
    return ellipk_quad(k) / ellipk_quad(kp)


# --- coplanar-strip / parallel-plate capacitance bounds ----------------------

def cps_pair_capacitance(width_m: float, gap_m: float, length_m: float,
                         eps_top: float, eps_bot: float) -> float:
    """Capacitance of one isolated coplanar strip pair (zero-thickness).

    Conformal-map result for two strips of equal width separated by a gap,
    each half-space filled with its own dielectric. Lower bound for a
    multi-gap interdigitated bank in the same dielectric.
    """
    k = gap_m / (gap_m + 2.0 * width_m)
    kp = math.sqrt(1.0 - k * k)
    geom = ellipk_quad(kp) / ellipk_quad(k)
    return EPS0 * 0.5 * (eps_top + eps_bot) * length_m * geom


def parallel_plate_upper_bound(n_fingers: int, width_m: float, gap_m: float,
                               length_m: float, eps_top: float,
                               eps_bot: float) -> float:
    """Every gap replaced by a uniform-field plate capacitor of plate area
    width x length: strictly overestimates the fringing-field value when
    width/gap >= 1."""
    eps = max(eps_top, eps_bot)
    return EPS0 * eps * (n_fingers - 1) * width_m * length_m / gap_m


# --- Neumann double-integral loop inductance ---------------------------------

def _filament_pair_integral(length_m: float, d: float) -> float:
    """Inner Neumann integral for two parallel filaments of equal length
    at perpendicular distance d: closed form of
    int_0^l int_0^l dx1 dx2 / sqrt((x1-x2)^2 + d^2)."""
    l = length_m
    if d == 0.0:
        raise ValueError("coincident filaments diverge")
    return 2.0 * (l * math.asinh(l / d) - math.hypot(l, d) + d)


def strip_self_inductance(length_m: float, width_m: float) -> float:
    """Self-inductance of a flat zero-thickness strip, uniform current sheet,
    by quadrature over the transverse coordinate."""
    w = width_m

    def integrand(u: float) -> float:
        return (w - u) * _filament_pair_integral(length_m, u)

    # integrable log singularity at u=0; let quad handle it
    val, _ = integrate.quad(integrand, 0.0, w, epsabs=1e-18, epsrel=1e-11,
                            limit=200)
    return (MU0 / (4.0 * math.pi)) * (2.0 / (w * w)) * val


def strip_mutual_inductance(length_m: float, width_m: float,
                            center_distance_m: float) -> float:
    """Mutual inductance of two coplanar parallel strips (equal width and
    length) whose centerlines are center_distance apart."""
    w = width_m
    d0 = center_distance_m

    def integrand(v: float) -> float:
        return (w - abs(v - d0)) * _filament_pair_integral(length_m, abs(v))

    val, _ = integrate.quad(integrand, d0 - w, d0 + w, epsabs=1e-18,
                            epsrel=1e-11, limit=200)
    return (MU0 / (4.0 * math.pi)) * (1.0 / (w * w)) * val


def square_loop_inductance_neumann(outer_side_m: float,
                                   width_m: float) -> float:
    """Single-turn square loop of flat trace: 4 self terms minus 4 opposite-
    side mutual terms (perpendicular sides couple to exactly zero). Uses
    centerline side length; corner regions are approximated."""
    side_c = outer_side_m - width_m
    l_self = strip_self_inductance(side_c, width_m)
    m_opp = strip_mutual_inductance(side_c, width_m, side_c)
    return 4.0 * (l_self - m_opp)


# --- reference CRC-32 ---------------------------------------------------------

def crc32_reference(data: bytes) -> int:
    """Bit-by-bit reflected CRC-32, polynomial 0xEDB88320, init/final
    0xFFFFFFFF. Check value over b"123456789" is 0xCBF43926."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


# --- ordinary-least-squares oracle -------------------------------------------

def ols_oracle(x, y):
    """Slope/intercept/R^2/residual-sd via numpy polyfit, as an independent
    route to the package's normal-equation fit. residual sd uses the n-2
    denominator."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = intercept + slope * x
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    n = len(x)
    resid_sd = math.sqrt(ss_res / (n - 2)) if n > 2 else 0.0
    return slope, intercept, r2, resid_sd


# --- reference dip extractor (np.pad + np.median) ----------------------------

def _reference_smooth(mags: np.ndarray) -> np.ndarray:
    padded = np.pad(mags, SMOOTHING_WINDOW // 2, mode="reflect")
    kernel = np.full(SMOOTHING_WINDOW, 1.0 / SMOOTHING_WINDOW)
    return np.convolve(padded, kernel, mode="valid")


def reference_extract_resonance(sweep,
                                min_depth_db: float = MIN_DEPTH_DB) -> ResonanceEstimate:
    """Locate the reflection dip.

    Raises NoResonance when the dip does not clear min_depth_db below the
    sweep median, GridTooCoarse when the minimum sits on a sweep endpoint,
    and DomainError for sweeps shorter than the smoothing window.
    """
    if sweep.n_points < SMOOTHING_WINDOW:
        raise DomainError(
            f"need at least {SMOOTHING_WINDOW} points, got {sweep.n_points}")
    if min_depth_db <= 0:
        raise DomainError(f"min_depth_db must be > 0, got {min_depth_db}")
    raw = sweep.magnitude_db
    smoothed = _reference_smooth(raw)
    i = int(np.argmin(smoothed))  # argmin takes the first (lowest) frequency
    baseline = float(np.median(smoothed))
    depth = baseline - float(smoothed[i])
    if depth < min_depth_db:
        raise NoResonance(
            f"dip depth {depth:.2f} dB below threshold {min_depth_db:.2f} dB")
    if i == 0 or i == sweep.n_points - 1:
        raise GridTooCoarse("dip sits on a sweep endpoint; widen the grid")

    step = (sweep.f_stop - sweep.f_start) / (sweep.n_points - 1)
    y0, y1, y2 = float(raw[i - 1]), float(raw[i]), float(raw[i + 1])
    denom = y0 - 2.0 * y1 + y2
    refined = False
    delta = 0.0
    if denom > 0:
        delta = 0.5 * (y0 - y2) / denom
        if abs(delta) <= 1.0:
            refined = True
        else:
            delta = 0.0
    f0_hat = sweep.f_start + (i + delta) * step

    residual = raw - smoothed
    mad = float(np.median(np.abs(residual - np.median(residual))))
    sigma_hat = max(1.4826 * mad, 1e-12)
    return ResonanceEstimate(
        f0_hat=float(f0_hat),
        depth_db=depth,
        snr_estimate=depth / sigma_hat,
        refined=refined,
    )


# --- reference noise step (out-of-place sum and clamp) -----------------------

def reference_add_noise(clean: np.ndarray, sigma_db: float, seed) -> np.ndarray:
    """The noisy magnitudes readout.add_noise gave for sigma_db > 0."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.minimum(clean + rng.normal(0.0, sigma_db, clean.size), 0.0)


def reference_noise_seed(seed: int, grid_index: int,
                         repeat_index: int) -> np.random.SeedSequence:
    """The seed of repeat repeat_index at grid index grid_index."""
    return np.random.SeedSequence((seed, grid_index, repeat_index))


# --- reference log record encoder (dict + json.dumps) ------------------------

def reference_record_to_json(record) -> str:
    obj = {
        "device_id": record.device_id,
        "timestamp_us": record.timestamp_us,
        "f0_hat_hz": record.f0_hat_hz,
        "measurand_value": record.measurand_value,
        "measurand_unit": record.measurand_unit,
        "calibration_id": record.calibration_id,
        "quality": record.quality,
    }
    if record.error is not None:
        obj["error"] = record.error
    return json.dumps(obj)


# --- the scipy calls the package made before its pure-Python ports -----------

def reference_ellipk(k: float) -> float:
    """circuit._ellipk as it was when it called scipy.special, verbatim."""
    m = k * k
    if m > 0.99:
        # near the logarithmic singularity use the 1-m formulation
        return float(special.ellipkm1(1.0 - m))
    return float(special.ellipk(m))


reference_ellpk = special.ellipkm1
reference_brentq = optimize.brentq


# --- sweep file writers, one row at a time ------------------------------------

def reference_touchstone_text(sweep) -> str:
    """The text sweepio.write_touchstone wrote, from its per-row loop."""
    lines = ["! one-port reflection magnitude", "# HZ S DB R 50"]
    for f, m in zip(sweep.frequencies, sweep.magnitude_db):
        lines.append(f"{float(f)!r} {float(m)!r} 0.0")
    return "\n".join(lines) + "\n"


def reference_csv_text(sweep) -> str:
    """The text sweepio.write_csv wrote, from its per-row loop."""
    lines = ["frequency_hz,magnitude_db"]
    for f, m in zip(sweep.frequencies, sweep.magnitude_db):
        lines.append(f"{float(f)!r},{float(m)!r}")
    return "\n".join(lines) + "\n"


def reference_float_columns(lines, source, *, header=None, sep=None,
                            widths=(2,)):
    """jsonio.float_columns as it was, converting one row at a time."""
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
