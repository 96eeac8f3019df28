import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from maicas.circuit import (FINGER_COUNT_MAX, FINGER_COUNT_MIN,
                            FINGER_LENGTH_MAX_UM, FINGER_LENGTH_MIN_UM,
                            LumpedCircuit, ModelCalibration, _ellipk, _ellpk,
                            calibrate_baseline,
                            ide_capacitance, initial_calibration,
                            loop_inductance, lumped_from_geometry,
                            resonance_frequency)
from maicas import readout
from maicas.errors import CalibrationFailed, DomainError
from maicas.geometry import (DeviceGeometry, IdeGeometry, LoopGeometry,
                             Rest, SubstrateStack, UniaxialStrain)


def same_bits(a: float, b: float) -> bool:
    """Equal down to the sign of zero; any NaN equals any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


# Moduli at and next to the ends of [0, 1], subnormals included.
_EDGE_MODULI = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-160, 2.0 ** -27,
                math.nextafter(1.0, 0.0), 1.0 - 2.0 ** -52, 1.0]


class TestEllipkPort:
    """The pure-Python Cephes ellpk port against the scipy calls it
    replaced: the same bits."""

    @settings(max_examples=1000, deadline=None)
    @given(k=st.floats(0.0, 1.0) | st.sampled_from(_EDGE_MODULI)
           | st.floats(0.0, 1e-6).map(lambda e: 1.0 - e))
    def test_ellipk_matches_parent_bit_for_bit(self, k):
        assert same_bits(_ellipk(k), oracles.reference_ellipk(k))

    @settings(max_examples=1000, deadline=None)
    @given(x=st.floats() | st.floats(0.0, 2.0 ** -53)
           | st.sampled_from([0.0, -0.0, 5e-324, 2.0 ** -53,
                              math.nextafter(2.0 ** -53, 1.0), 1.0,
                              math.nextafter(1.0, 2.0), math.inf]))
    def test_ellpk_matches_scipy_ellipkm1(self, x):
        assert same_bits(_ellpk(x), float(oracles.reference_ellpk(x)))

    def test_every_branch_is_reached(self):
        # rational form, logarithmic asymptote, singularity, domain error
        assert 1.5 < _ellpk(0.5) < 2.0
        assert _ellpk(2.0 ** -60) == pytest.approx(
            math.log(4.0) + 30.0 * math.log(2.0), rel=1e-15)
        assert _ellpk(0.0) == math.inf and _ellipk(1.0) == math.inf
        assert math.isnan(_ellpk(-1.0)) and math.isnan(_ellpk(math.nan))
        assert _ellpk(4.0) == pytest.approx(_ellpk(0.25) / 2.0, rel=1e-15)


class TestResonance:
    def test_textbook_value(self):
        # 100 nH with 100 fF resonates at 1/(2 pi 1e-10) Hz
        assert resonance_frequency(100e-9, 100e-15) == pytest.approx(
            1.0 / (2.0 * math.pi * 1e-10), rel=1e-12)

    def test_identity_on_random_pairs(self):
        rng = np.random.Generator(np.random.PCG64(7))
        l_vals = 10.0 ** rng.uniform(-9, -6, 1000)
        c_vals = 10.0 ** rng.uniform(-15, -10, 1000)
        for l, c in zip(l_vals, c_vals):
            f0 = resonance_frequency(l, c)
            assert abs(f0 * 2.0 * math.pi * math.sqrt(l * c) - 1.0) < 1e-12

    def test_quarter_capacitance_doubles(self):
        f1 = resonance_frequency(40e-9, 1.2e-12)
        f2 = resonance_frequency(40e-9, 1.2e-12 / 4.0)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)

    @pytest.mark.parametrize("l,c", [(0.0, 1e-12), (-1e-9, 1e-12),
                                     (1e-9, 0.0), (1e-9, -1e-12)])
    def test_domain(self, l, c):
        with pytest.raises(DomainError):
            resonance_frequency(l, c)


class TestLumpedCircuit:
    def test_validation(self):
        with pytest.raises(DomainError):
            LumpedCircuit(0.0, 1e-12, 1.0)
        with pytest.raises(DomainError):
            LumpedCircuit(1e-9, 1e-12, -1.0)

    @pytest.mark.parametrize("values, field", [
        ((math.inf, 1e-12, 1.0), "inductance"),
        ((1e-9, 0.0, 1.0), "capacitance"),
        ((1e-9, math.inf, 1.0), "capacitance"),
        ((1e-9, 1e-12, math.inf), "resistance")])
    def test_each_range_refuses_its_open_ends(self, values, field):
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            LumpedCircuit(*values)

    def test_a_lossless_tank_is_accepted(self):
        assert LumpedCircuit(1e-9, 1e-12, 0.0).resistance == 0.0


class TestIdeCapacitance:
    def test_two_finger_case_matches_coplanar_pair_oracle(self, device):
        ide = IdeGeometry(finger_count=2, finger_length=4000.0,
                          trace_width=120.0, gap=30.0)
        got = ide_capacitance(ide, device.stack)
        # independent route: gap-modulus map + quadrature elliptic integrals
        from maicas.circuit import _half_space_permittivities
        period = 2.0 * (ide.trace_width + ide.gap) * 1e-6
        eps_top, eps_bot = _half_space_permittivities(device.stack, period)
        want = oracles.cps_pair_capacitance(
            120e-6, 30e-6, 4000e-6, eps_top, eps_bot)
        assert got == pytest.approx(want, rel=1e-9)

    def test_default_geometry_frozen_value(self, device):
        got = ide_capacitance(device.ide, device.stack)
        assert got == pytest.approx(1.1248e-12, rel=1e-3)

    def test_below_parallel_plate_upper_bound(self, device):
        got = ide_capacitance(device.ide, device.stack)
        cap = oracles.parallel_plate_upper_bound(
            8, 120e-6, 30e-6, 4000e-6,
            device.stack.substrate_rel_permittivity,
            device.stack.substrate_rel_permittivity)
        assert got < cap

    def test_monotone_in_finger_count(self, device):
        caps = [ide_capacitance(replace(device.ide, finger_count=n),
                                device.stack)
                for n in range(2, 20)]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_linear_in_length(self, device):
        c1 = ide_capacitance(replace(device.ide, finger_length=1000.0),
                             device.stack)
        c2 = ide_capacitance(replace(device.ide, finger_length=2000.0),
                             device.stack)
        assert c2 == pytest.approx(2.0 * c1, rel=1e-12)

    def test_decreasing_in_gap(self, device):
        caps = [ide_capacitance(replace(device.ide, gap=g), device.stack)
                for g in (15.0, 30.0, 60.0, 120.0)]
        assert all(b < a for a, b in zip(caps, caps[1:]))

    def test_increasing_in_medium_permittivity(self, device):
        stacks = [replace(device.stack, medium_rel_permittivity=e)
                  for e in (1.0, 10.0, 40.0, 80.0)]
        caps = [ide_capacitance(device.ide, s) for s in stacks]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_thinner_encapsulation_more_medium_sensitive(self, device):
        def sensitivity(t_enc):
            stack_air = replace(device.stack, encapsulation_thickness=t_enc,
                                medium_rel_permittivity=1.0)
            stack_wet = replace(stack_air, medium_rel_permittivity=80.0)
            return (ide_capacitance(device.ide, stack_wet)
                    - ide_capacitance(device.ide, stack_air))
        assert sensitivity(50.0) > sensitivity(200.0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=2, max_value=32),
           gap=st.floats(min_value=10.0, max_value=200.0),
           width=st.floats(min_value=20.0, max_value=300.0))
    def test_always_positive_and_finite(self, n, gap, width):
        stack = DeviceGeometry().stack
        c = ide_capacitance(
            IdeGeometry(finger_count=n, finger_length=1000.0,
                        trace_width=width, gap=gap), stack)
        assert 0 < c < 1e-9

    @pytest.mark.parametrize("ide", [
        IdeGeometry(finger_length=1e-320),  # both cells underflow to 0
        IdeGeometry(gap=1e-300),  # both moduli round to 1
        # the interior cell underflows to 0, the exterior one to 5e-324
        IdeGeometry(finger_length=2e-307, trace_width=1.0, gap=1000.0),
        # the exterior modulus rounds to 1, the interior one stays below
        IdeGeometry(gap=1.2e-6),
        # the interior modulus rounds to 1, the exterior one stays below
        IdeGeometry(gap=1e-14)],
        ids=["zero", "infinite", "zero-interior", "infinite-exterior",
             "infinite-interior"])
    def test_a_zero_or_infinite_cell_is_refused_by_name(self, device, ide):
        with pytest.raises(DomainError, match=(
                f"^electrode cells of width {ide.trace_width} μm, gap "
                f"{ide.gap} μm and length {ide.finger_length} μm have no "
                "finite capacitance$")):
            ide_capacitance(ide, device.stack)


class TestLoopInductance:
    def test_against_neumann_oracle(self, device):
        got = loop_inductance(device.loop)
        want = oracles.square_loop_inductance_neumann(10e-3, 120e-6)
        assert abs(got - want) / want < 0.05

    def test_frozen_value(self, device):
        assert loop_inductance(device.loop) == pytest.approx(
            40.5274e-9, rel=1e-3)

    def test_two_turn_ratio(self):
        l1 = loop_inductance(LoopGeometry(turns=1))
        l2 = loop_inductance(LoopGeometry(turns=2))
        assert 2.0 < l2 / l1 < 4.0

    def test_axis_scale_equals_area_equivalent_square(self):
        scaled = loop_inductance(LoopGeometry(outer_side=10.0, axis_scale=1.2))
        square = loop_inductance(
            LoopGeometry(outer_side=10.0 * math.sqrt(1.2)))
        assert scaled == pytest.approx(square, rel=1e-12)

    def test_loop_that_fits_at_rest_can_fail_compressed(self):
        """Three turns fit a 1 mm side at rest, not the square of half its
        enclosed area."""
        loop = LoopGeometry(outer_side=1.0, turns=3, axis_scale=0.5)
        with pytest.raises(DomainError, match=(
                "^loop turns do not fit the strained outer side$")):
            loop_inductance(loop)

    def test_turns_that_exactly_fill_the_strained_side_are_refused(self):
        """A 250 μm turn in half of a 1 mm side leaves d_in exactly 0."""
        loop = LoopGeometry(outer_side=1.0, trace_width=250.0,
                            axis_scale=0.25)
        with pytest.raises(DomainError, match=(
                "^loop turns do not fit the strained outer side$")):
            loop_inductance(loop)

    def test_grows_with_side(self):
        vals = [loop_inductance(LoopGeometry(outer_side=s))
                for s in (5.0, 10.0, 20.0)]
        assert vals[0] < vals[1] < vals[2]


class TestModelCalibration:
    def test_json_round_trip(self):
        cal = ModelCalibration(1.02, 1.1e-14, 6, 992.5, 5.0)
        again = ModelCalibration.from_json(cal.to_json())
        assert again == cal

    def test_json_field_names(self):
        obj = json.loads(ModelCalibration(1.0, 1e-15, 8, 4000.0, 5.0).to_json())
        assert set(obj) == {"eff_permittivity_scale", "parasitic_C_offset",
                            "ide_finger_count", "ide_finger_length", "loss_R"}

    def test_all_fields_positive(self):
        with pytest.raises(DomainError):
            ModelCalibration(0.0, 1e-15, 8, 4000.0, 5.0)
        with pytest.raises(DomainError):
            ModelCalibration(1.0, -1e-15, 8, 4000.0, 5.0)

    def test_two_fingers_are_accepted(self):
        cal = ModelCalibration(1.0, 1e-13, 2, 1000.0, 5.0)
        assert cal.ide_finger_count == 2

    def test_one_finger_is_refused_by_name(self):
        """The calibration's finger count obeys IdeGeometry's floor, so a
        plan never fails on a field the document does not have."""
        with pytest.raises(DomainError,
                           match="^ide_finger_count must be >= 2, got 1$"):
            ModelCalibration(1.0, 1e-13, 1, 1000.0, 5.0)


class TestLumpedFromGeometry:
    def test_calibration_overrides_nominal_fingers(self, device, baseline_cal):
        circuit = lumped_from_geometry(device, Rest(), baseline_cal)
        raw = ide_capacitance(
            replace(device.ide,
                    finger_count=baseline_cal.ide_finger_count,
                    finger_length=baseline_cal.ide_finger_length),
            device.stack)
        want = (baseline_cal.eff_permittivity_scale * raw
                + baseline_cal.parasitic_C_offset)
        assert circuit.capacitance == pytest.approx(want, rel=1e-12)
        assert circuit.resistance == baseline_cal.loss_R

    def test_strain_reduces_capacitance(self, device, baseline_cal):
        c0 = lumped_from_geometry(device, Rest(), baseline_cal)
        c1 = lumped_from_geometry(device, UniaxialStrain(0.1), baseline_cal)
        assert c1.capacitance < c0.capacitance
        assert c1.f0 > c0.f0

    def test_a_strained_call_builds_two_documents(self, device, baseline_cal,
                                                  monkeypatch):
        """The strained bank and loop are the only documents a call
        builds: no calibrated DeviceGeometry, no second copy of either."""
        built = []

        def counting(original):
            def post_init(self):
                built.append(type(self).__name__)
                original(self)
            return post_init

        for cls in (IdeGeometry, LoopGeometry, SubstrateStack,
                    DeviceGeometry, ModelCalibration):
            monkeypatch.setattr(cls, "__post_init__",
                                counting(cls.__post_init__))
        lumped_from_geometry(device, UniaxialStrain(0.1), baseline_cal)
        assert sorted(built) == ["IdeGeometry", "LoopGeometry"]


class TestCalibrateBaseline:
    def test_rest_resonance_hits_target(self, rest_circuit):
        assert abs(rest_circuit.f0 - 1.71e9) < 1e3

    def test_parameters_inside_bounds(self, baseline_cal):
        assert FINGER_COUNT_MIN <= baseline_cal.ide_finger_count <= FINGER_COUNT_MAX
        assert FINGER_LENGTH_MIN_UM <= baseline_cal.ide_finger_length <= FINGER_LENGTH_MAX_UM
        # the capacitance is linear in finger length, so the length absorbs
        # the target and the scale is 1 up to rounding
        assert abs(baseline_cal.eff_permittivity_scale - 1.0) <= 1e-12

    def test_fixed_point_keeps_initial_parameters(self, device):
        identity = initial_calibration(device)
        f_own = lumped_from_geometry(device, Rest(), identity).f0
        cal = calibrate_baseline(device, f_own)
        assert cal == identity

    def test_unreachable_target_fails(self, device):
        with pytest.raises(CalibrationFailed):
            calibrate_baseline(device, 100e9)

    def test_bad_targets_rejected(self, device):
        with pytest.raises(DomainError):
            calibrate_baseline(device, -1.0)
        with pytest.raises(DomainError):
            calibrate_baseline(device, 1.71e9, target_depth_db=2.0)
        # NaN fails both checks, and a zero or infinite f0 the first, by name
        for f0 in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError,
                               match=f"^target_f0 must be > 0, got {f0}$"):
                calibrate_baseline(device, f0)
        with pytest.raises(DomainError,
                           match="^target_depth_db must be < 0 dB, got nan$"):
            calibrate_baseline(device, 1.71e9, math.nan)
        # a 1 Hz target fails the fit at once if a 0 dB depth gets through
        with pytest.raises(DomainError,
                           match="^target_depth_db must be < 0 dB, got 0.0$"):
            calibrate_baseline(device, 1.0, 0.0)

    def test_deterministic(self, device, baseline_cal):
        assert calibrate_baseline(device, 1.71e9, -14.0) == baseline_cal

    @pytest.fixture()
    def reader_fits(self, monkeypatch):
        """Every circuit readout.fit_reader is called with, in call order."""
        calls = []
        real = readout.fit_reader

        def counting(circuit, target_depth_db):
            calls.append(circuit)
            return real(circuit, target_depth_db)

        monkeypatch.setattr(readout, "fit_reader", counting)
        return calls

    def test_recentres_the_coupled_dip(self, reader_fits):
        """A 5 mm loop's first dip misses the target: one recentring step
        pulls the tank so the coupled dip, not the bare tank, sits on it."""
        device = DeviceGeometry(loop=LoopGeometry(outer_side=5.0))
        cal = calibrate_baseline(device, 1.71e9, -14.0)
        assert len(reader_fits) == 2
        circuit = lumped_from_geometry(device, Rest(), cal)
        f_dip, depth = readout.dip_of(circuit,
                                      readout.fit_reader(circuit, -14.0))
        assert f_dip == pytest.approx(1_710_000_452, abs=1.0)
        assert depth == pytest.approx(-14.002, abs=5e-4)
        assert circuit.f0 == pytest.approx(1_709_204_123, abs=1.0)

    def test_recentring_stops_when_the_tank_drifts(self, reader_fits):
        """At 0.3 GHz / -3 dB the centred dip leaves the tank more than
        1 MHz off target: the fit stops there instead of using all four
        rounds."""
        device = DeviceGeometry(loop=LoopGeometry(outer_side=5.0))
        with pytest.raises(CalibrationFailed, match=(
                r"^baseline fit did not converge to 3e\+08 Hz / -3 dB$")):
            calibrate_baseline(device, 0.3e9, -3.0)
        assert len(reader_fits) == 2
