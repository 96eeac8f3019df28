"""Resonance extraction from a reflection sweep.

Pipeline: 5-point moving average (reflect padding), global minimum of the
smoothed trace with the lowest-frequency tie break, then a 3-point parabolic
refinement on the raw samples around that index. Dip depth is measured
against the median of the smoothed sweep.

The medians (baseline and the noise MAD) are taken by partitioning at
fixed ranks. They are exact np.median equivalents: the middle value for
odd lengths, the mean of the two middle values for even lengths, equal to
np.median bit for bit. NaN propagates: a sweep holding a NaN gives a NaN
median, as with np.median. The NaN scans behind that run only when the
smoothed trace is not finite, and one sample of it tells: the one at the
argmin. argmin returns the first NaN when there is one; a passive
S11Sweep holds no +inf, and finite samples at most 1e-9 cannot sum to
+inf, so the trace holds no +inf either. So the value at the argmin is
finite exactly when every value of the trace is. A finite trace means
finite samples, since every sample weighs into it. Passive finite samples
lie between the most negative float and 1e-9, so the residual (sample
minus trace) is finite too, and its deviations from their median can
overflow to infinity but never turn NaN. So the scans could not find
anything.

The residual is formed only after the depth and endpoint tests. A -inf
sample makes the trace -inf around it and the residual there -inf - -inf,
which numpy warns about; a sweep whose dip is such a sample at the low end
must end in GridTooCoarse before that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridTooCoarse, NoResonance
from .readout import S11Sweep, vertex_offset

SMOOTHING_WINDOW = 5
MIN_DEPTH_DB = 3.0

_HALF_WINDOW = SMOOTHING_WINDOW // 2
_KERNEL = np.full(SMOOTHING_WINDOW, 1.0 / SMOOTHING_WINDOW)


@dataclass(frozen=True)
class ResonanceEstimate:
    """Dip location and quality figures.

    depth_db is positive (magnitude of the dip below the baseline).
    refined is False when the parabolic step was rejected and the estimate
    fell back to the grid point.
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


def _median(values: np.ndarray, *, nan_free: bool = False) -> np.float64:
    """np.median of a nonempty 1-D float64 array without its dispatch
    overhead: the same bits for NaN-free input, NaN for input with a NaN.
    nan_free=True skips the NaN scan; the caller vouches for the input.

    values is partitioned in place: its order is lost, its values stay.
    A caller that still reads the array in order afterwards passes a copy.

    The middle values are summed onto 0.0, as np.mean sums them. That turns
    a -0.0 result into 0.0, so the result does not depend on which of two
    tied signed zeros a partition puts at the middle rank.
    """
    if not nan_free and np.isnan(values).any():
        return np.float64(np.nan)
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
    sweep median, GridTooCoarse when the minimum sits on a sweep endpoint,
    and DomainError for sweeps shorter than the smoothing window.
    """
    if sweep.n_points < SMOOTHING_WINDOW:
        raise DomainError(
            f"need at least {SMOOTHING_WINDOW} points, got {sweep.n_points}")
    _check_min_depth(min_depth_db)
    raw = sweep.magnitude_db
    smoothed = _smooth(raw)
    i = int(smoothed.argmin())  # argmin takes the first (lowest) frequency
    nan_free = math.isfinite(smoothed[i])
    # a copy: the residual below still reads smoothed in order
    baseline = float(_median(smoothed.copy(), nan_free=nan_free))
    depth = baseline - float(smoothed[i])
    if depth < min_depth_db:
        raise NoResonance(
            f"dip depth {depth:.2f} dB below threshold {min_depth_db:.2f} dB")
    if i == 0 or i == sweep.n_points - 1:
        raise GridTooCoarse("dip sits on a sweep endpoint; widen the grid")

    step = (sweep.f_stop - sweep.f_start) / (sweep.n_points - 1)
    delta = vertex_offset(float(raw[i - 1]), float(raw[i]), float(raw[i + 1]))
    refined = delta is not None and abs(delta) <= 1.0
    f0_hat = sweep.f_start + (i + (delta if refined else 0.0)) * step

    residual = raw - smoothed
    centre = _median(residual, nan_free=nan_free)
    residual -= centre
    mad = float(_median(np.abs(residual, out=residual), nan_free=nan_free))
    sigma_hat = max(1.4826 * mad, 1e-12)
    return ResonanceEstimate(
        f0_hat=float(f0_hat),
        depth_db=depth,
        snr_estimate=depth / sigma_hat,
        refined=refined,
    )
