import math
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from maicas.errors import DomainError, OutOfModelRange
from maicas.geometry import (DeviceGeometry, IdeGeometry, JointBend,
                             LoopGeometry, Rest, RolledDisplacement,
                             RolledPressure, SubstrateStack, UniaxialStrain,
                             apply_strain, device_from_dict, strain_of)


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


class TestStrainOf:
    def test_rest_is_zero(self, device):
        assert strain_of(Rest(), device) == 0.0

    def test_uniaxial_passthrough(self, device):
        assert strain_of(UniaxialStrain(0.12), device) == 0.12

    def test_pressure_is_compliance_times_pressure(self, device):
        state = RolledPressure(lumen_diameter=3.18, pressure=100.0,
                               compliance=2.0e-3)
        assert strain_of(state, device) == pytest.approx(0.2)

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

    def test_bend_angle_window(self):
        with pytest.raises(DomainError):
            JointBend(angle=-5.0, effective_radius=2.0)
        with pytest.raises(DomainError):
            JointBend(angle=121.0, effective_radius=2.0)

    def test_out_of_window_strain(self, device):
        with pytest.raises(OutOfModelRange):
            strain_of(UniaxialStrain(0.51), device)
        with pytest.raises(OutOfModelRange):
            strain_of(RolledPressure(3.18, 300.0, 2.0e-3), device)

    def test_window_boundary_inclusive(self, device):
        assert strain_of(UniaxialStrain(0.5), device) == 0.5
        assert strain_of(UniaxialStrain(-0.5), device) == -0.5


class TestApplyStrain:
    def test_zero_strain_identity(self, device):
        assert apply_strain(device, 0.0) is device

    def test_gap_opens_with_strain(self, device):
        strained = apply_strain(device, 0.2)
        assert strained.ide.gap == pytest.approx(device.ide.gap * 1.2)

    def test_poisson_contraction_of_fingers(self, device):
        strained = apply_strain(device, 0.2)
        expected = device.ide.finger_length * (1.0 - 0.49 * 0.2)
        assert strained.ide.finger_length == pytest.approx(expected)

    def test_loop_axis_scales(self, device):
        strained = apply_strain(device, 0.2)
        assert strained.loop.axis_scale == pytest.approx(1.2)

    def test_widths_never_change(self, device):
        strained = apply_strain(device, 0.3)
        assert strained.ide.trace_width == device.ide.trace_width
        assert strained.loop.trace_width == device.loop.trace_width
        assert strained.ide.finger_count == device.ide.finger_count

    def test_window_enforced(self, device):
        with pytest.raises(OutOfModelRange):
            apply_strain(device, 0.7)

    @given(st.floats(min_value=-0.5, max_value=0.5))
    def test_gap_scaling_exact(self, eps):
        device = DeviceGeometry()
        strained = apply_strain(device, eps)
        assert strained.ide.gap == device.ide.gap * (1.0 + eps)
        assert strained.loop.axis_scale == device.loop.axis_scale * (1.0 + eps)

    @given(st.floats(min_value=-0.45, max_value=0.45))
    def test_compression_closes_gap_but_stays_positive(self, eps):
        strained = apply_strain(DeviceGeometry(), eps)
        assert strained.ide.gap > 0


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
