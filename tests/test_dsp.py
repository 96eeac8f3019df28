import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from maicas.dsp import (MIN_DEPTH_DB, MIN_SNR, SMOOTHING_WINDOW, _median,
                        extract_resonance)
from maicas.errors import DomainError, GridTooCoarse, NoResonance
from maicas.readout import S11Sweep, add_noise, dip_of, s11_spectrum


def gaussian_dip(n, center, depth_db, sigma=2.0):
    idx = np.arange(n, dtype=np.float64)
    return -depth_db * np.exp(-0.5 * ((idx - center) / sigma) ** 2)


class TestHappyPath:
    def test_recovers_noiseless_dip(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 2001)
        est = extract_resonance(sweep)
        f_true, depth_true = dip_of(rest_circuit, reader)
        step = (2.0e9 - 1.5e9) / 2000
        assert abs(est.f0_hat - f_true) < step / 10
        # depth is measured on the smoothed trace, which rounds off a sharp
        # dip slightly
        assert est.depth_db == pytest.approx(-depth_true, abs=1.0)
        assert est.refined

    def test_depth_is_reported_positive(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 801)
        assert extract_resonance(sweep).depth_db > 0

    def test_deterministic(self, rest_circuit, reader):
        sweep = add_noise(
            s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 801), 0.1, 3)
        a = extract_resonance(sweep)
        b = extract_resonance(sweep)
        assert (a.f0_hat, a.depth_db, a.snr_estimate, a.refined) == \
               (b.f0_hat, b.depth_db, b.snr_estimate, b.refined)

    def test_survives_moderate_noise(self, rest_circuit, reader):
        clean = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 2001)
        truth = extract_resonance(clean).f0_hat
        noisy = add_noise(clean, 0.1, 11)
        est = extract_resonance(noisy)
        assert abs(est.f0_hat - truth) < 2e6
        assert est.snr_estimate > 3.0

    def test_clean_sweep_has_higher_snr_than_noisy(self, rest_circuit, reader):
        clean = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 2001)
        noisy = add_noise(clean, 0.3, 5)
        assert (extract_resonance(clean).snr_estimate
                > extract_resonance(noisy).snr_estimate)


def noise_reading(n, dip_width, sigma, baseline_db, draws=200):
    """Median of sigma_hat / sigma, sigma_hat = depth_db / snr_estimate,
    over seeded noise draws on a 20 dB Gaussian dip dip_width samples wide
    (standard deviation) below baseline_db."""
    clean = S11Sweep(1.5e9, 2.0e9, n, baseline_db + gaussian_dip(
        n, n / 2, 20.0, dip_width))
    ratios = []
    for seed in range(draws):
        est = extract_resonance(add_noise(clean, sigma, seed))
        ratios.append(est.depth_db / est.snr_estimate / sigma)
    return float(np.median(ratios))


class TestSnrEstimate:
    """snr_estimate is depth over 1.4826 MAD of raw minus the 5-point
    mean, which reads sqrt(4/5) sigma for white noise."""

    @pytest.mark.parametrize("n", [401, 2001])
    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.5, 1.0])
    def test_white_noise_reads_sqrt_four_fifths_sigma(self, n, sigma):
        assert 0.87 <= noise_reading(n, n / 10, sigma, -20.0) <= 0.92

    def test_a_narrow_dip_under_small_noise_reads_higher(self):
        """The dip's own curvature adds to the residual."""
        assert noise_reading(401, 401 / 40, 0.05, -20.0) > 0.95
        assert 0.87 <= noise_reading(401, 401 / 40, 0.5, -20.0) <= 0.92

    def test_the_zero_db_clamp_reads_lower(self):
        """add_noise clips samples above 0 dB, which narrows the residual."""
        assert noise_reading(401, 401 / 10, 1.0, -0.5) < 0.85
        assert noise_reading(401, 401 / 10, 0.5, 0.0) < 0.75


class TestSnrFloor:
    """A dip the noise alone could have made is not a measurement: an
    snr_estimate below MIN_SNR is NoResonance."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(201, 2001), sigma=st.floats(1e-3, 1e300),
           baseline=st.floats(-100.0, 0.0), seed=st.integers(0, 2**64 - 1))
    def test_white_noise_is_never_accepted(self, n, sigma, baseline, seed):
        """add_noise clamps at 0 dB, so a sigma far above the baseline
        clamps half the samples: the noise whose SNR reads highest. On
        fewer points the floor is no guarantee (see the dsp docstring)."""
        flat = S11Sweep(1.5e9, 2.0e9, n, np.full(n, baseline))
        with pytest.raises((NoResonance, GridTooCoarse)):
            extract_resonance(add_noise(flat, sigma, seed))

    def test_floor_is_exclusive(self, monkeypatch, rest_circuit, reader):
        sweep = add_noise(
            s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 401), 1.0, 3)
        snr = extract_resonance(sweep).snr_estimate
        assert snr >= MIN_SNR
        monkeypatch.setattr("maicas.dsp.MIN_SNR", snr)
        assert extract_resonance(sweep).snr_estimate == snr
        monkeypatch.setattr("maicas.dsp.MIN_SNR", np.nextafter(snr, np.inf))
        with pytest.raises(NoResonance, match="below floor"):
            extract_resonance(sweep)


class TestTieBreakAndRefinement:
    def test_equal_dips_resolve_to_lowest_frequency(self):
        n = 41
        mags = gaussian_dip(n, 10, 20.0) + gaussian_dip(n, 30, 20.0)
        sweep = S11Sweep(1.0e9, 2.0e9, n, mags)
        step = 1.0e9 / (n - 1)
        est = extract_resonance(sweep)
        assert abs(est.f0_hat - (1.0e9 + 10 * step)) < step / 2

    def test_interior_symmetric_dip_lands_on_grid_point(self):
        n = 41
        sweep = S11Sweep(1.0e9, 2.0e9, n, gaussian_dip(n, 20, 15.0))
        step = 1.0e9 / (n - 1)
        est = extract_resonance(sweep)
        assert est.f0_hat == pytest.approx(1.0e9 + 20 * step, rel=1e-12)
        assert est.refined

    def test_flat_bottom_reports_unrefined(self):
        mags = np.zeros(21)
        mags[7] = mags[13] = -5.0
        mags[8:13] = -20.0
        est = extract_resonance(S11Sweep(1.0e9, 2.0e9, 21, mags))
        assert not est.refined
        step = 1.0e9 / 20
        assert abs(est.f0_hat - (1.0e9 + 10 * step)) < 1.5 * step

    def test_affine_magnitude_map_keeps_location(self):
        n = 61
        mags = gaussian_dip(n, 25, 18.0, sigma=3.0)
        base = extract_resonance(S11Sweep(1.0e9, 2.0e9, n, mags))
        moved = extract_resonance(S11Sweep(1.0e9, 2.0e9, n, 0.5 * mags - 1.0))
        assert moved.f0_hat == pytest.approx(base.f0_hat, rel=1e-12)
        assert moved.depth_db == pytest.approx(0.5 * base.depth_db, rel=1e-9)
        assert moved.refined == base.refined


class TestRejection:
    def test_flat_sweep(self):
        with pytest.raises(NoResonance):
            extract_resonance(S11Sweep(1.0e9, 2.0e9, 101, np.full(101, -3.0)))

    def test_shallow_dip(self):
        mags = gaussian_dip(41, 20, 2.0)
        with pytest.raises(NoResonance):
            extract_resonance(S11Sweep(1.0e9, 2.0e9, 41, mags))

    def test_min_depth_is_adjustable(self):
        mags = gaussian_dip(41, 20, 2.0)
        est = extract_resonance(S11Sweep(1.0e9, 2.0e9, 41, mags),
                                min_depth_db=1.0)
        assert est.depth_db > 1.0

    def test_dip_on_left_edge(self):
        mags = np.linspace(-10.0, 0.0, 101)
        with pytest.raises(GridTooCoarse):
            extract_resonance(S11Sweep(1.0e9, 2.0e9, 101, mags))

    def test_dip_on_right_edge(self):
        mags = np.linspace(0.0, -10.0, 101)
        with pytest.raises(GridTooCoarse):
            extract_resonance(S11Sweep(1.0e9, 2.0e9, 101, mags))

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            extract_resonance(S11Sweep(1.0e9, 2.0e9, 4, [-1, -5, -9, -2]))

    def test_nonpositive_threshold(self):
        sweep = S11Sweep(1.0e9, 2.0e9, 41, gaussian_dip(41, 20, 15.0))
        with pytest.raises(DomainError):
            extract_resonance(sweep, min_depth_db=0.0)

    def test_nan_threshold(self):
        """NaN compares false both ways: it must fail the check, not pass it
        and then let a 0.1 dB wiggle through the depth test."""
        mags = np.full(11, -1.0)
        mags[5] = -1.1
        sweep = S11Sweep(1.0e9, 2.0e9, 11, mags)
        with pytest.raises(DomainError, match="min_depth_db must be > 0, got nan"):
            extract_resonance(sweep, min_depth_db=float("nan"))


def test_module_constants():
    assert SMOOTHING_WINDOW == 5
    assert MIN_DEPTH_DB == 3.0


# Sample values a sweep may hold: a few repeated levels so ties (signed
# zeros included) are common, a continuum, and the non-finite values
# S11Sweep lets through.
_LEVELS = st.sampled_from([0.0, -0.0, -1.0, -3.0, -3.0 - 2.0 ** -40, -20.0])
_SAMPLES = st.one_of(_LEVELS, st.floats(-80.0, 0.0))
_HOSTILE = st.sampled_from([np.nan, -np.inf])


@st.composite
def hostile_sweeps(draw):
    n = draw(st.integers(SMOOTHING_WINDOW, 400))
    mags = draw(arrays(np.float64, n, elements=_SAMPLES, fill=_LEVELS))
    if draw(st.booleans()):
        mags = mags + gaussian_dip(n, draw(st.floats(0.0, n - 1.0)),
                                   draw(st.floats(1.0, 40.0)),
                                   draw(st.floats(0.5, 8.0)))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        mags[i] = draw(_HOSTILE)
    return S11Sweep(1.0e9, 2.0e9, n, mags)


def outcome(extract, sweep):
    try:
        est = extract(sweep)
    except Exception as exc:
        return type(exc)
    return (repr(est.f0_hat), repr(est.depth_db), repr(est.snr_estimate),
            est.refined)


class TestReferenceEquivalence:
    """The extractor against the np.pad + np.median reference it replaced:
    identical estimates, down to the last bit, or the same exception. Two
    departures, where the reference returns an estimate: for a sweep
    holding -inf the extractor raises DomainError, and for an SNR below
    MIN_SNR (NaN is not below it) NoResonance."""

    @settings(max_examples=300, deadline=None)
    @given(sweep=hostile_sweeps())
    def test_matches_reference_extractor(self, sweep):
        with np.errstate(all="ignore"):
            want = outcome(oracles.reference_extract_resonance, sweep)
            if not isinstance(want, type):
                if np.isneginf(sweep.magnitude_db).any():
                    want = DomainError
                elif float(want[2]) < MIN_SNR:
                    want = NoResonance
            assert outcome(extract_resonance, sweep) == want

    @pytest.mark.parametrize("n", [400, 401])
    def test_nan_next_to_dip_matches_reference(self, n):
        mags = gaussian_dip(n, n // 3, 30.0)
        mags[n // 3 + 1] = np.nan
        sweep = S11Sweep(1.0e9, 2.0e9, n, mags)
        with np.errstate(all="ignore"):
            assert (outcome(extract_resonance, sweep)
                    == outcome(oracles.reference_extract_resonance, sweep))

    @settings(max_examples=300, deadline=None)
    @given(values=arrays(np.float64, st.integers(1, 60),
                         elements=st.one_of(_LEVELS, st.just(-np.inf),
                                            st.just(np.inf),
                                            st.floats(allow_nan=False))))
    def test_median_is_numpy_median_bit_for_bit(self, values):
        """The contract _median keeps: NaN-free input, ±inf, signed zeros
        and ties included, gives np.median's bits. A sweep holding a NaN
        never needs more: its depth and SNR are NaN whatever the medians
        give."""
        with np.errstate(all="ignore"):
            assert (np.float64(_median(values)).tobytes()
                    == np.float64(np.median(values)).tobytes())


class TestShiftEquivariance:
    """Moving the grid by d moves f0_hat by d and changes nothing else: the
    same exception, or the same depth, SNR and refinement bits. The
    tolerance on f0_hat is a millionth of the grid step, fixed before any
    example is drawn. Rounding the shifted endpoints, the step and the
    interpolated position costs a few ulps of the largest frequency, which
    on these grids (span at least 1e-3 of f_start, at most 400 points,
    shift at most 10 f_start) stays below 1e-8 of a step."""

    @settings(max_examples=300, deadline=None)
    @given(sweep=hostile_sweeps(), f_start=st.floats(1e6, 1e10),
           span=st.floats(1e-3, 10.0), shift=st.floats(-0.9, 10.0))
    def test_shift_moves_only_f0(self, sweep, f_start, span, shift):
        n = sweep.n_points
        f_stop = f_start * (1.0 + span)
        d = f_start * shift
        tolerance = 1e-6 * (f_stop - f_start) / (n - 1)
        base = S11Sweep(f_start, f_stop, n, sweep.magnitude_db)
        moved = S11Sweep(f_start + d, f_stop + d, n, sweep.magnitude_db)
        with np.errstate(all="ignore"):
            a, b = outcome(extract_resonance, base), outcome(
                extract_resonance, moved)
        if isinstance(a, type) or isinstance(b, type):
            assert a == b
            return
        assert a[1:] == b[1:]
        assert abs(float(b[0]) - (float(a[0]) + d)) <= tolerance


class TestKernelEdges:
    """What the in-place medians and the one-sample non-finite test must
    keep."""

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_minus_inf_at_the_low_end_is_grid_too_coarse(self, index):
        """The trace is -inf from sample 0 on, so the dip is on the
        endpoint; the residual, -inf - -inf there, is never formed."""
        mags = gaussian_dip(41, 20, 15.0)
        mags[index] = -np.inf
        sweep = S11Sweep(1.0e9, 2.0e9, 41, mags)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(GridTooCoarse):
                extract_resonance(sweep)

    @pytest.mark.parametrize("index", [3, 10, 20, 38, 39, 40])
    def test_minus_inf_past_the_low_end_is_a_domain_error(self, index):
        """Not a dip at -inf dB: the residual, -inf - -inf around the
        sample, is never formed."""
        mags = gaussian_dip(41, 20, 15.0)
        mags[index] = -np.inf
        sweep = S11Sweep(1.0e9, 2.0e9, 41, mags)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="-inf"):
                extract_resonance(sweep)

    def test_minus_inf_next_to_a_nan_is_a_domain_error(self):
        mags = gaussian_dip(41, 20, 15.0)
        mags[10], mags[30] = np.nan, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="-inf"):
                extract_resonance(S11Sweep(1.0e9, 2.0e9, 41, mags))

    @settings(max_examples=100, deadline=None)
    @given(sweep=hostile_sweeps())
    def test_sweep_magnitudes_are_left_alone(self, sweep):
        before = sweep.magnitude_db.tobytes()
        with np.errstate(all="ignore"):
            outcome(extract_resonance, sweep)
        assert sweep.magnitude_db.tobytes() == before
        assert not sweep.magnitude_db.flags.writeable

    @pytest.mark.parametrize("index", [0, 150, 399])
    def test_one_nan_anywhere_is_seen(self, index):
        """A NaN away from the dip is still seen: argmin stops at it, so
        the outcome, NaN figures included, is the reference's."""
        mags = gaussian_dip(400, 200, 20.0)
        mags[index] = np.nan
        sweep = S11Sweep(1.0e9, 2.0e9, 400, mags)
        with np.errstate(all="ignore"):
            assert (outcome(extract_resonance, sweep)
                    == outcome(oracles.reference_extract_resonance, sweep))
