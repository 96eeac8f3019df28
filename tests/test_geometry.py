import math
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from maicas import circuit
from maicas.circuit import (ide_capacitance, loop_inductance,
                            lumped_from_geometry)
from maicas.errors import DomainError, OutOfModelRange
from maicas.geometry import (DeviceGeometry, IdeGeometry, JointBend,
                             LoopGeometry, Rest, RolledDisplacement,
                             RolledPressure, SubstrateStack, UniaxialStrain,
                             device_from_dict, strain_of)


class TestValidation:
    def test_defaults_are_valid(self):
        device = DeviceGeometry()
        assert device.ide.finger_count == 8
        assert device.loop.outer_side == 10.0
        assert device.stack.substrate_rel_permittivity == pytest.approx(2.68)

    @pytest.mark.parametrize("kwargs", [
        {"finger_count": 1},
        {"finger_count": 0},
        {"finger_length": 0.0},
        {"finger_length": -4.0},
        {"trace_width": 0.0},
        {"gap": -30.0},
    ])
    def test_bad_ide(self, kwargs):
        with pytest.raises(DomainError):
            IdeGeometry(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"outer_side": 0.0},
        {"turns": 0},
        {"trace_width": -1.0},
        {"turn_spacing": -1.0},
        {"axis_scale": 0.0},
    ])
    def test_bad_loop(self, kwargs):
        with pytest.raises(DomainError):
            LoopGeometry(**kwargs)

    def test_loop_turns_must_fit(self):
        # 40 turns of 120 um trace exceed a 10 mm side
        with pytest.raises(DomainError):
            LoopGeometry(outer_side=10.0, turns=40, trace_width=120.0,
                         turn_spacing=30.0)

    def test_loop_metal_filling_the_side_exactly_is_refused(self):
        # one 250 um trace on each edge spans the whole 0.5 mm side
        with pytest.raises(DomainError, match="do not fit in outer_side"):
            LoopGeometry(outer_side=0.5, turns=1, trace_width=250.0)

    @pytest.mark.parametrize("kwargs", [
        {"base_thickness": 0.0},
        {"encapsulation_thickness": -1.0},
        {"substrate_rel_permittivity": 0.0},
        {"medium_rel_permittivity": -2.0},
        {"metal_thickness": 0.0},
    ])
    def test_bad_stack(self, kwargs):
        with pytest.raises(DomainError):
            SubstrateStack(**kwargs)

    def test_bad_device(self):
        with pytest.raises(DomainError):
            DeviceGeometry(rest_length=0.0)
        with pytest.raises(DomainError):
            DeviceGeometry(poisson_ratio=0.6)

    def test_poisson_ratio_upper_edge(self):
        """0.5 is incompressible and accepted; the 1e-12 of slack is the
        first value refused."""
        assert DeviceGeometry(poisson_ratio=0.5).poisson_ratio == 0.5
        with pytest.raises(DomainError, match="poisson_ratio must be in"):
            DeviceGeometry(poisson_ratio=0.5 + 1e-12)


class TestStrainOf:
    def test_rest_is_zero(self, device):
        assert strain_of(Rest(), device) == 0.0

    def test_uniaxial_passthrough(self, device):
        assert strain_of(UniaxialStrain(0.12), device) == 0.12

    def test_pressure_is_compliance_times_pressure(self, device):
        state = RolledPressure(lumen_diameter=3.18, pressure=100.0,
                               compliance=2.0e-3)
        assert strain_of(state, device) == pytest.approx(0.2)

    def test_zero_pressure_is_rest(self, device):
        state = RolledPressure(lumen_diameter=3.18, pressure=0.0,
                               compliance=2.0e-3)
        assert strain_of(state, device) == 0.0

    def test_negative_pressure_rejected(self):
        with pytest.raises(DomainError, match="pressure must be >= 0, got -1"):
            RolledPressure(lumen_diameter=3.18, pressure=-1.0,
                           compliance=2.0e-3)

    def test_displacement_hoop_strain(self, device):
        # 318 um on a 3.18 mm lumen is 10% of the circumference
        state = RolledDisplacement(lumen_diameter=3.18, displacement=318.0)
        assert strain_of(state, device) == pytest.approx(0.1)

    def test_displacement_sign_flag(self, device):
        grow = RolledDisplacement(3.18, 318.0, expansion_positive=True)
        shrink = RolledDisplacement(3.18, 318.0, expansion_positive=False)
        assert strain_of(shrink, device) == -strain_of(grow, device)

    def test_bend_arc_elongation(self, device):
        # 90 degrees at 2 mm effective radius over a 10 mm rest length
        state = JointBend(angle=90.0, effective_radius=2.0)
        expected = 2.0 * 1000.0 * math.pi / 2.0 / 10_000.0
        assert strain_of(state, device) == pytest.approx(expected)

    def test_bend_angle_upper_edge_accepted(self, device):
        state = JointBend(angle=120.0, effective_radius=2.0)
        expected = 2.0 * 1000.0 * (2.0 * math.pi / 3.0) / 10_000.0
        assert strain_of(state, device) == pytest.approx(expected)

    def test_bend_angle_window(self):
        with pytest.raises(DomainError):
            JointBend(angle=-5.0, effective_radius=2.0)
        with pytest.raises(DomainError):
            JointBend(angle=121.0, effective_radius=2.0)

    def test_out_of_window_strain(self, device):
        for state in (UniaxialStrain(0.51),
                      RolledPressure(3.18, 300.0, 2.0e-3),
                      UniaxialStrain(math.nan),
                      RolledPressure(3.18, math.nan, 1e-3),
                      JointBend(0.0, 1e306)):  # (1e306 mm in μm) · 0 rad
            with pytest.raises(OutOfModelRange, match="effective strain"):
                strain_of(state, device)

    @pytest.mark.parametrize("state", ["rest", 0.1, DeviceGeometry()])
    def test_unknown_state_rejected(self, device, state):
        with pytest.raises(DomainError, match="unknown deformation state"):
            strain_of(state, device)

    def test_window_boundary_inclusive(self, device):
        assert strain_of(UniaxialStrain(0.5), device) == 0.5
        assert strain_of(UniaxialStrain(-0.5), device) == -0.5


class TestApplyStrain:
    """The strain rule, checked on the tank lumped_from_geometry builds
    from the calibrated geometry: gaps ×(1+ε), overlap ×(1−νε), loop axis
    ×(1+ε), widths and the calibrated finger count fixed."""

    def test_zero_strain_identity(self, device, baseline_cal):
        rest = lumped_from_geometry(device, Rest(), baseline_cal)
        for eps in (0.0, -0.0):
            assert lumped_from_geometry(
                device, UniaxialStrain(eps), baseline_cal) == rest

    def test_gap_opens_with_strain(self, baseline_cal):
        # no Poisson contraction, so the overlap stays the calibrated one
        device = DeviceGeometry(poisson_ratio=0.0)
        rest = lumped_from_geometry(device, Rest(), baseline_cal)
        strained = lumped_from_geometry(device, UniaxialStrain(0.2), baseline_cal)
        ide = IdeGeometry(baseline_cal.ide_finger_count,
                          baseline_cal.ide_finger_length,
                          device.ide.trace_width, device.ide.gap * 1.2)
        want = (baseline_cal.eff_permittivity_scale
                * ide_capacitance(ide, device.stack)
                + baseline_cal.parasitic_C_offset)
        assert strained.capacitance == pytest.approx(want, rel=1e-12)
        assert strained.capacitance < rest.capacitance

    def test_poisson_contraction_of_fingers(self, baseline_cal):
        # the bank's capacitance is linear in the overlap
        state, offset = UniaxialStrain(0.2), baseline_cal.parasitic_C_offset
        free = lumped_from_geometry(DeviceGeometry(poisson_ratio=0.0), state,
                                    baseline_cal)
        contracted = lumped_from_geometry(DeviceGeometry(), state, baseline_cal)
        ratio = (contracted.capacitance - offset) / (free.capacitance - offset)
        assert ratio == pytest.approx(1.0 - 0.49 * 0.2, rel=1e-9)

    def test_loop_axis_scales(self, device, baseline_cal):
        rest = lumped_from_geometry(device, Rest(), baseline_cal)
        strained = lumped_from_geometry(device, UniaxialStrain(0.2), baseline_cal)
        want = loop_inductance(LoopGeometry(axis_scale=1.2))
        assert strained.inductance == pytest.approx(want, rel=1e-12)
        assert strained.inductance > rest.inductance

    def test_widths_never_change(self, device, baseline_cal, monkeypatch):
        seen = {}
        ide_kernel, loop_kernel = circuit.ide_capacitance, circuit.loop_inductance
        monkeypatch.setattr(circuit, "ide_capacitance", lambda ide, stack:
                            ide_kernel(seen.setdefault("ide", ide), stack))
        monkeypatch.setattr(circuit, "loop_inductance", lambda loop:
                            loop_kernel(seen.setdefault("loop", loop)))
        lumped_from_geometry(device, UniaxialStrain(0.3), baseline_cal)
        assert seen["ide"].trace_width == device.ide.trace_width
        assert seen["ide"].finger_count == baseline_cal.ide_finger_count
        assert seen["ide"].finger_count != device.ide.finger_count
        assert seen["loop"] == LoopGeometry(axis_scale=1.3)

    def test_window_enforced(self, device, baseline_cal):
        with pytest.raises(OutOfModelRange):
            lumped_from_geometry(device, UniaxialStrain(0.7), baseline_cal)

    @given(st.floats(min_value=-0.5, max_value=0.5))
    def test_gap_scaling_exact(self, device, baseline_cal, eps):
        """The tank is the kernels on the strained calibrated geometry,
        bit for bit."""
        cal = baseline_cal
        tank = lumped_from_geometry(device, UniaxialStrain(eps), cal)
        ide = IdeGeometry(
            finger_count=cal.ide_finger_count,
            finger_length=cal.ide_finger_length
            * (1.0 - device.poisson_ratio * eps),
            trace_width=device.ide.trace_width,
            gap=device.ide.gap * (1.0 + eps))
        loop = LoopGeometry(axis_scale=1.0 + eps)
        want = (cal.eff_permittivity_scale * ide_capacitance(ide, device.stack)
                + cal.parasitic_C_offset)
        assert tank.capacitance.hex() == want.hex()
        assert tank.inductance.hex() == loop_inductance(loop).hex()

    @given(st.floats(min_value=-0.45, max_value=-1e-9))
    def test_compression_closes_gap_but_stays_positive(self, device,
                                                       baseline_cal, eps):
        rest = lumped_from_geometry(device, Rest(), baseline_cal)
        strained = lumped_from_geometry(device, UniaxialStrain(eps), baseline_cal)
        assert rest.capacitance < strained.capacitance < math.inf


def test_device_dict_round_trip(device):
    assert device_from_dict(asdict(device)) == device


def test_device_dict_partial():
    rebuilt = device_from_dict({"ide": {"finger_count": 12}})
    assert rebuilt.ide.finger_count == 12
    assert rebuilt.loop == DeviceGeometry().loop


@pytest.mark.parametrize("obj", [
    {"ide": {"fingers": 12}},
    {"antenna": {}},
    {"loop": {"turns": "two"}},
    {"stack": []},
    {"rest_length": float("nan")},
])
def test_device_dict_rejects_unknown_keys_and_bad_values(obj):
    with pytest.raises(DomainError):
        device_from_dict(obj)
