import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from maicas import readout
from maicas.circuit import LumpedCircuit
from maicas.errors import CalibrationFailed, DegenerateInput, DomainError
from maicas.readout import (ReaderCouple, S11Sweep, add_noise, dip_of,
                            fit_reader, s11_spectrum)


def mesh_impedance(circuit, reader, f):
    """Two-port oracle: solve the coupled mesh equations directly."""
    w = 2.0 * math.pi * f
    m = reader.coupling_coefficient * math.sqrt(
        reader.reader_inductance * circuit.inductance)
    z = np.array([
        [reader.reader_resistance + 1j * w * reader.reader_inductance,
         1j * w * m],
        [1j * w * m,
         circuit.resistance + 1j * w * circuit.inductance
         + 1.0 / (1j * w * circuit.capacitance)],
    ])
    currents = np.linalg.solve(z, np.array([1.0, 0.0]))
    return 1.0 / currents[0]


def reflection_db(z):
    """20*log10|(z - 50)/(z + 50)|, the reflection against the 50 ohm port."""
    return 20.0 * math.log10(abs((z - 50.0) / (z + 50.0)))


class TestInputImpedance:
    """The impedance behind s11_spectrum, through the reflection it gives."""

    def test_matches_mesh_solution(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 23)
        want = [reflection_db(mesh_impedance(rest_circuit, reader, f))
                for f in sweep.frequencies]
        assert sweep.magnitude_db == pytest.approx(want, rel=1e-10)

    def test_zero_coupling_leaves_reader_alone(self, rest_circuit):
        bare = ReaderCouple(6e-9, 1.0, 0.0)
        sweep = s11_spectrum(rest_circuit, bare, 1.6e9, 1.8e9, 11)
        want = [reflection_db(1.0 + 2j * math.pi * f * 6e-9)
                for f in sweep.frequencies]
        assert sweep.magnitude_db == pytest.approx(want, rel=1e-12)


class TestS11Spectrum:
    def test_dip_depth_at_design_point(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 2001)
        assert float(np.min(sweep.magnitude_db)) == pytest.approx(-14.0, abs=0.1)

    def test_passive(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.0e9, 3.0e9, 501)
        assert np.all(sweep.magnitude_db <= 0.0)

    def test_quarter_capacitance_doubles_dip_frequency(self, rest_circuit, reader):
        quarter = LumpedCircuit(rest_circuit.inductance,
                                rest_circuit.capacitance / 4.0,
                                rest_circuit.resistance)
        f1, _ = dip_of(rest_circuit, reader)
        f2, _ = dip_of(quarter, reader)
        assert abs(f2 / f1 - 2.0) < 1e-3


class TestDipOf:
    def test_near_natural_resonance(self, rest_circuit, reader):
        f_dip, depth = dip_of(rest_circuit, reader)
        # loading shifts the dip off f0 by well under a percent
        assert abs(f_dip - rest_circuit.f0) / rest_circuit.f0 < 0.01
        assert depth == pytest.approx(-14.0, abs=0.1)

    def test_grid_refinement_converges(self, rest_circuit, reader,
                                       monkeypatch):
        monkeypatch.setattr(readout, "DIP_SPAN", 0.20)
        f_wide, _ = dip_of(rest_circuit, reader)
        monkeypatch.setattr(readout, "DIP_SPAN", 0.02)
        f_tight, _ = dip_of(rest_circuit, reader)
        assert abs(f_wide - f_tight) < 50e3

    def test_no_dip_falls_back_to_the_lowest_grid_point(self, rest_circuit):
        """With no coupling the reflection rises with frequency, so each
        stage's minimum is its first point and no parabola is fitted: the
        second grid starts 3 steps of the first below f0*(1 - DIP_SPAN)."""
        bare = ReaderCouple(6e-9, 1.0, 0.0)
        f_dip, depth = dip_of(rest_circuit, bare)
        lo = rest_circuit.f0 * (1.0 - readout.DIP_SPAN)
        step = 2.0 * readout.DIP_SPAN * rest_circuit.f0 / 2000
        assert f_dip == pytest.approx(lo - 3.0 * step, rel=1e-12)
        assert depth == pytest.approx(
            reflection_db(1.0 + 2j * math.pi * f_dip * 6e-9), rel=1e-9)

    def test_returns_plain_floats(self, rest_circuit, reader):
        f_dip, depth = dip_of(rest_circuit, reader)
        assert type(f_dip) is float
        assert type(depth) is float


class TestS11SweepContainer:
    def test_frequencies_grid(self):
        sweep = S11Sweep(1.0e9, 2.0e9, 5, [-1.0, -2.0, -9.0, -2.0, -1.0])
        assert np.allclose(sweep.frequencies,
                           [1.0e9, 1.25e9, 1.5e9, 1.75e9, 2.0e9])

    def test_magnitudes_read_only_copy(self):
        src = np.array([-1.0, -2.0, -3.0])
        sweep = S11Sweep(1.0e9, 2.0e9, 3, src)
        src[0] = -99.0
        assert sweep.magnitude_db[0] == -1.0
        with pytest.raises(ValueError):
            sweep.magnitude_db[0] = 0.0

    @pytest.mark.parametrize("f_start,f_stop,n,mags", [
        (2.0e9, 1.0e9, 3, [-1.0, -1.0, -1.0]),   # inverted span
        (1.0e9, 2.0e9, 1, [-1.0]),               # single point
        (1.0e9, 2.0e9, 3, [-1.0, -1.0]),         # length mismatch
        (1.0e9, 2.0e9, 3, [-1.0, 0.5, -1.0]),    # active (gain) sample
        (-1.0, 2.0e9, 3, [-1.0, -1.0, -1.0]),    # negative frequency
        (1.0e9, 2.0e9, 3, [math.nan, 0.5, -1.0]),  # a NaN hides no gain
        (1.0e9, 1.0e9, 3, [-1.0, -1.0, -1.0]),   # empty span
    ])
    def test_rejects_malformed(self, f_start, f_stop, n, mags):
        with pytest.raises(DomainError):
            S11Sweep(f_start, f_stop, n, mags)

    @pytest.mark.parametrize("n", [3.0, np.float64(3.0), "3", True, None,
                                   2.5], ids=["float", "numpy-float", "str",
                                              "bool", "None", "fraction"])
    def test_n_points_must_be_an_integer(self, n):
        """n_points follows the JSON loader's integer rule, so a float
        count is refused here, not later by linspace or a frame header."""
        with pytest.raises(DomainError, match=r"n_points: expected int"):
            S11Sweep(1.0e9, 2.0e9, n, [-1.0, -2.0, -1.0])

    @pytest.mark.parametrize("n", [np.int64(3), np.uint8(3)])
    def test_numpy_n_points_is_stored_as_int(self, n):
        sweep = S11Sweep(1.0e9, 2.0e9, n, [-1.0, -2.0, -1.0])
        assert type(sweep.n_points) is int and sweep.n_points == 3

    @pytest.mark.parametrize("f_start,f_stop", [
        (math.nan, 2.0e9), (1.0, math.inf), (1.0, math.nan),
        (math.inf, math.inf), (-math.inf, 2.0e9)])
    def test_rejects_non_finite_grid_ends(self, rest_circuit, reader,
                                          f_start, f_stop):
        """Both S11Sweep and s11_spectrum go through the one grid check."""
        message = f"need 0 < f_start < f_stop, got [{f_start}, {f_stop}]"
        with pytest.raises(DomainError) as excinfo:
            S11Sweep(f_start, f_stop, 3, np.zeros(3))
        assert str(excinfo.value) == message
        with pytest.raises(DomainError) as excinfo:
            s11_spectrum(rest_circuit, reader, f_start, f_stop, 3)
        assert str(excinfo.value) == message


class TestAddNoise:
    def test_zero_sigma_is_identity(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 101)
        assert add_noise(sweep, 0.0, 0) is sweep

    def test_seed_determinism(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 101)
        a = add_noise(sweep, 0.1, 42)
        b = add_noise(sweep, 0.1, 42)
        c = add_noise(sweep, 0.1, 43)
        assert np.array_equal(a.magnitude_db, b.magnitude_db)
        assert not np.array_equal(a.magnitude_db, c.magnitude_db)

    def test_accepts_seed_sequence(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 101)
        ss = np.random.SeedSequence((0, 1, 2))
        a = add_noise(sweep, 0.1, ss)
        b = add_noise(sweep, 0.1, np.random.SeedSequence((0, 1, 2)))
        assert np.array_equal(a.magnitude_db, b.magnitude_db)

    def test_noise_stays_passive(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 2001)
        noisy = add_noise(sweep, 3.0, 1)
        assert np.all(noisy.magnitude_db <= 0.0)

    def test_negative_sigma_rejected(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 11)
        with pytest.raises(DomainError):
            add_noise(sweep, -0.1, 0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_rejected(self, rest_circuit, reader, sigma):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 11)
        with pytest.raises(DomainError, match="finite"):
            add_noise(sweep, sigma, 0)

    @pytest.mark.parametrize("sigma", [8.98846567431158e307, 1.7e308])
    def test_overflowing_noise_is_degenerate(self, rest_circuit, reader,
                                             sigma):
        """A finite sigma whose draws leave the float range gives no sweep
        at all, not one with infinite samples."""
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 201)
        with pytest.raises(DegenerateInput, match="is not finite"):
            add_noise(sweep, sigma, 0)

    def test_huge_finite_noise_still_passes(self, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 201)
        noisy = add_noise(sweep, 1e300, 0)
        assert np.isfinite(noisy.magnitude_db).all()

    @settings(max_examples=200, deadline=None)
    @given(clean=arrays(np.float64, st.integers(2, 300),
                        elements=st.one_of(
                            st.sampled_from([0.0, -0.0, -5e-324, -3.0]),
                            st.floats(-80.0, 0.0))),
           sigma=st.one_of(st.sampled_from([5e-324, 1e-300, 1e-17]),
                           st.floats(1e-6, 20.0)),
           seed=st.integers(0, 2 ** 64 - 1))
    def test_same_bits_as_the_reference(self, clean, sigma, seed):
        """The in-place sum and clamp give the bytes of the out-of-place
        ones, signed zeros included, and leave the clean sweep alone."""
        sweep = S11Sweep(1.5e9, 2.0e9, clean.size, clean)
        before = sweep.magnitude_db.tobytes()
        noisy = add_noise(sweep, sigma, seed)
        assert (noisy.magnitude_db.tobytes()
                == oracles.reference_add_noise(clean, sigma, seed).tobytes())
        assert sweep.magnitude_db.tobytes() == before


class TestFitReader:
    @pytest.mark.parametrize("target", [-20.0, -14.0, -6.0])
    def test_hits_target_depth(self, rest_circuit, target):
        fitted = fit_reader(rest_circuit, target_depth_db=target)
        _, depth = dip_of(rest_circuit, fitted)
        assert abs(depth - target) < 0.05

    def test_coupling_physical(self, rest_circuit, reader):
        assert 0.0 < reader.coupling_coefficient < 0.95
        assert reader.reader_resistance > 0.0
        assert reader.reader_inductance > 0.0

    def test_stock_fit_is_the_snapshot(self, rest_circuit):
        snapshot = Path(__file__).parent / "snapshots" / "fit_reader_rest.txt"
        assert repr(fit_reader(rest_circuit)) + "\n" == snapshot.read_text()

    def test_nonnegative_depth_rejected(self, rest_circuit):
        with pytest.raises(DomainError):
            fit_reader(rest_circuit, target_depth_db=0.5)

    def test_zero_depth_is_a_domain_error(self, rest_circuit):
        """0 dB is refused as a target, before the fit finds that it
        rounds to a full reflection."""
        with pytest.raises(DomainError,
                           match="^target_depth_db must be < 0 dB, got 0$"):
            fit_reader(rest_circuit, target_depth_db=0)

    def test_nan_depth_is_named(self, rest_circuit):
        with pytest.raises(DomainError,
                           match="^target_depth_db must be < 0 dB, got nan$"):
            fit_reader(rest_circuit, target_depth_db=math.nan)

    @pytest.mark.parametrize("scale, k2", [(0.0, "0.0000"), (10.0, "1.8682")])
    def test_coupling_outside_the_physical_range_fails(self, rest_circuit,
                                                       scale, k2):
        """A lossless tank needs k^2 = 0, and one with ten times the stock
        loss needs more than 0.9."""
        lossy = LumpedCircuit(rest_circuit.inductance,
                              rest_circuit.capacitance,
                              rest_circuit.resistance * scale)
        with pytest.raises(CalibrationFailed,
                           match=rf"^required coupling k\^2 = {k2} outside"):
            fit_reader(lossy)

    def test_shallow_depth_needs_less_than_the_reader_loss(self,
                                                          rest_circuit):
        """A 0.1 dB dip needs an input resistance under the 1 ohm the reader
        itself loses."""
        with pytest.raises(CalibrationFailed, match=(
                "^matched input resistance below reader loss$")):
            fit_reader(rest_circuit, target_depth_db=-0.1)

    def test_a_dip_the_coupling_cannot_move_fails(self, rest_circuit,
                                                  monkeypatch):
        """A dip 1 dB off the target whatever the coupling: the secant stops
        on two equal errors rather than divide by zero, and the residual
        left is a CalibrationFailed."""
        monkeypatch.setattr(readout, "dip_of",
                            lambda circuit, reader: (circuit.f0, -15.0))
        with pytest.raises(CalibrationFailed,
                           match=r"^dip depth fit residual -1 dB at k = "):
            fit_reader(rest_circuit, target_depth_db=-14.0)

    def test_impossible_depth_fails(self, rest_circuit):
        with pytest.raises((CalibrationFailed, DomainError)):
            fit_reader(rest_circuit, target_depth_db=-200.0)


class TestDefaultReader:
    def test_validation(self):
        with pytest.raises(DomainError):
            ReaderCouple(6e-9, 1.0, 1.0)      # k must stay below unity
        with pytest.raises(DomainError):
            ReaderCouple(-6e-9, 1.0, 0.1)
        with pytest.raises(DomainError,
                           match="reader_resistance must be >= 0, got -1"):
            ReaderCouple(6e-9, -1.0, 0.1)

    def test_lossless_reader_accepted(self):
        assert ReaderCouple(6e-9, 0.0, 0.1).reader_resistance == 0.0
