"""Resonance extraction from a reflection sweep.

Pipeline: 5-point moving average (reflect padding), global minimum of the
smoothed trace with the lowest-frequency tie break, then a 3-point parabolic
refinement on the raw samples around that index. Dip depth is measured
against the median of the smoothed sweep. A dip whose snr_estimate is
below MIN_SNR is one the noise alone could have made: NoResonance. The
floor tells noise from a dip on sweeps of 201 points or more. On fewer
points the MAD of the residual can come out near 0, so pure noise can
read any SNR (1e15 on 7 to 41 points clamped at 0 dB), and no constant
floor refuses it.

The medians (baseline and the noise MAD) are taken by partitioning at
fixed ranks. They are exact np.median equivalents for NaN-free input: the
middle value for odd lengths, the mean of the two middle values for even
lengths, equal to np.median bit for bit. They do not scan for NaN: argmin
returns the first NaN, so a sweep holding one has a NaN at the argmin and
a NaN depth and SNR whatever the medians give.

The residual is formed only after the depth and endpoint tests and a
-inf test. A -inf sample makes the trace -inf around it and the residual
there -inf - -inf, which numpy warns about, so such a sweep must end
before that. With the -inf in the first three samples the trace's minimum
sits on the low endpoint: GridTooCoarse. Anywhere else it is a
DomainError: when the trace is not finite, the smallest non-NaN sample is
looked up, and a finite sweep skips that look-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooCoarse, NoResonance
from .readout import S11Sweep, vertex_offset

SMOOTHING_WINDOW = 5
MIN_DEPTH_DB = 3.0
MIN_SNR = 10.0  # half-clamped noise on 201 points read under 8 in 2e6 draws

_HALF_WINDOW = SMOOTHING_WINDOW // 2
_KERNEL = np.full(SMOOTHING_WINDOW, 1.0 / SMOOTHING_WINDOW)


@dataclass(frozen=True)
class ResonanceEstimate:
    """Dip location and quality figures.

    depth_db is positive (magnitude of the dip below the baseline).
    refined is False when the parabolic step was rejected and the estimate
    fell back to the grid point.

    snr_estimate is depth_db over sigma_hat = 1.4826 * MAD of the residual
    raw - smoothed (the 5-point mean), floored at 1e-12. For white noise of
    standard deviation sigma that residual has deviation sqrt(4/5) sigma,
    so sigma_hat reads about 0.894 sigma and the SNR about 12% high
    (median sigma_hat / sigma 0.891-0.896 on a wide dip, 401 or 2001
    points, sigma 0.05-1 dB). Two conditions move it. A dip whose own
    curvature is large against the noise reads higher: 0.99 for a 20 dB
    dip 10 samples wide (standard deviation) under 0.05 dB. Clamping at
    0 dB (add_noise keeps a sweep passive) reads lower: 0.78 at 1 dB on a
    -0.5 dB baseline, 0.66 at 0.5 dB on a 0 dB one.
    """

    f0_hat: float
    depth_db: float
    snr_estimate: float
    refined: bool


def _smooth(mags: np.ndarray) -> np.ndarray:
    """Moving average with reflect padding (the edge sample is not
    repeated), the same values as np.pad(..., mode="reflect") for sweeps
    of at least SMOOTHING_WINDOW points."""
    padded = np.concatenate((mags[_HALF_WINDOW:0:-1], mags,
                             mags[-2:-_HALF_WINDOW - 2:-1]))
    # the kernel is symmetric: correlating is convolving, without
    # np.convolve's kernel reversal and argument checks
    return np.correlate(padded, _KERNEL, mode="valid")


def _median(values: np.ndarray) -> np.float64:
    """np.median of a nonempty 1-D float64 array without its dispatch
    overhead: the same bits for NaN-free input. Input with a NaN gives an
    unspecified value; the caller decides what it means.

    values is partitioned in place: its order is lost, its values stay.
    A caller that still reads the array in order afterwards passes a copy.

    The middle values are summed onto 0.0, as np.mean sums them. That turns
    a -0.0 result into 0.0, so the result does not depend on which of two
    tied signed zeros a partition puts at the middle rank.
    """
    k = values.size // 2
    if values.size % 2:
        values.partition(k)
        return values[k] + 0.0
    values.partition((k - 1, k))
    return (values[k - 1] + values[k] + 0.0) / 2


def _check_min_depth(min_depth_db: float) -> None:
    """DomainError unless min_depth_db > 0; NaN fails too."""
    if not min_depth_db > 0:
        raise DomainError(f"min_depth_db must be > 0, got {min_depth_db}")


def extract_resonance(sweep: S11Sweep,
                      min_depth_db: float = MIN_DEPTH_DB) -> ResonanceEstimate:
    """Locate the reflection dip.

    Raises NoResonance when the dip does not clear min_depth_db below the
    sweep median or its snr_estimate is below MIN_SNR (a NaN SNR is not
    refused), GridTooCoarse when the minimum sits on a sweep endpoint,
    and DomainError for sweeps shorter than the smoothing window or
    holding a -inf sample that is not such an endpoint dip.
    """
    return ResonanceEstimate(*_extract(sweep, min_depth_db))


def _extract(sweep: S11Sweep, min_depth_db: float = MIN_DEPTH_DB) -> tuple:
    """extract_resonance's four fields, in ResonanceEstimate's order, with
    no estimate built: the log path reads them straight off the tuple."""
    if sweep.n_points < SMOOTHING_WINDOW:
        raise DomainError(
            f"need at least {SMOOTHING_WINDOW} points, got {sweep.n_points}")
    _check_min_depth(min_depth_db)
    raw = sweep.magnitude_db
    smoothed = _smooth(raw)
    i = int(smoothed.argmin())  # argmin takes the first (lowest) frequency
    # a copy: the residual below still reads smoothed in order
    baseline = float(_median(smoothed.copy()))
    depth = baseline - float(smoothed[i])
    if depth < min_depth_db:
        raise NoResonance(
            f"dip depth {depth:.2f} dB below threshold {min_depth_db:.2f} dB")
    if i == 0 or i == sweep.n_points - 1:
        raise GridTooCoarse("dip sits on a sweep endpoint; widen the grid")
    if not math.isfinite(smoothed[i]) and np.fmin.reduce(raw) == -math.inf:
        raise DomainError("sweep holds a -inf dB sample")

    step = (sweep.f_stop - sweep.f_start) / (sweep.n_points - 1)
    delta = vertex_offset(float(raw[i - 1]), float(raw[i]), float(raw[i + 1]))
    refined = delta is not None and abs(delta) <= 1.0
    f0_hat = sweep.f_start + (i + (delta if refined else 0.0)) * step

    residual = raw - smoothed
    centre = _median(residual)
    residual -= centre
    mad = float(_median(np.abs(residual, out=residual)))
    sigma_hat = max(1.4826 * mad, 1e-12)
    snr = depth / sigma_hat
    if snr < MIN_SNR:  # NaN passes: a NaN sweep is not refused here
        raise NoResonance(f"dip SNR {snr:.2f} below floor {MIN_SNR:.2f}")
    return float(f0_hat), depth, snr, refined
