"""Exact DomainError text of every field that must be strictly positive."""

import typing

import pytest

from maicas.circuit import ModelCalibration
from maicas.errors import DomainError
from maicas.geometry import (DeviceGeometry, IdeGeometry, JointBend,
                             LoopGeometry, RolledDisplacement, RolledPressure,
                             SubstrateStack)
from maicas.readout import ReaderCouple

# (type, valid keyword arguments, fields that must be > 0)
POSITIVE_FIELDS = [
    (SubstrateStack, {},
     ("base_thickness", "encapsulation_thickness", "metal_thickness")),
    (IdeGeometry, {}, ("finger_length", "trace_width", "gap")),
    (LoopGeometry, {},
     ("outer_side", "trace_width", "turn_spacing", "axis_scale")),
    (DeviceGeometry, {}, ("rest_length",)),
    (RolledPressure,
     {"lumen_diameter": 3.18, "pressure": 100.0, "compliance": 1e-3},
     ("lumen_diameter",)),
    (RolledDisplacement, {"lumen_diameter": 3.18, "displacement": 100.0},
     ("lumen_diameter",)),
    (JointBend, {"angle": 30.0, "effective_radius": 2.0},
     ("effective_radius",)),
    (ModelCalibration,
     {"eff_permittivity_scale": 1.0, "parasitic_C_offset": 1e-18,
      "ide_finger_count": 8, "ide_finger_length": 4000.0, "loss_R": 5.0},
     ("eff_permittivity_scale", "parasitic_C_offset", "ide_finger_count",
      "ide_finger_length", "loss_R")),
    (ReaderCouple,
     {"reader_inductance": 1e-8, "reader_resistance": 1.0,
      "coupling_coefficient": 0.1},
     ("reader_inductance",)),
]

CASES = [pytest.param(cls, kwargs, name, value,
                      id=f"{cls.__name__}.{name}={value}")
         for cls, kwargs, names in POSITIVE_FIELDS
         for name in names for value in (0, -1)]

# the config documents store an int given for a float field as a float
# before their range checks run, as their JSON loader does
DOCUMENTS = (SubstrateStack, IdeGeometry, LoopGeometry, DeviceGeometry,
             ModelCalibration)


@pytest.mark.parametrize("cls, kwargs, name, value", CASES)
def test_non_positive_field_message(cls, kwargs, name, value):
    with pytest.raises(DomainError) as exc:
        cls(**{**kwargs, name: value})
    if cls in DOCUMENTS and typing.get_type_hints(cls)[name] is float:
        value = float(value)
    assert str(exc.value) == f"{name} must be > 0, got {value}"


@pytest.mark.parametrize("kwargs, message", [
    ({"turns": 0, "trace_width": -1}, "turns must be >= 1, got 0"),
    ({"outer_side": 0, "turns": 0}, "outer_side must be > 0, got 0.0"),
    # the one check across fields names each field it reads
    ({"trace_width": 1e6}, "turns = 1 of trace_width = 1000000.0 μm and "
     "turn_spacing = 30.0 μm do not fit in outer_side = 10.0 mm"),
])
def test_first_bad_loop_field_is_reported(kwargs, message):
    with pytest.raises(DomainError) as exc:
        LoopGeometry(**kwargs)
    assert str(exc.value) == message


def test_valid_arguments_construct():
    for cls, kwargs, _ in POSITIVE_FIELDS:
        cls(**kwargs)
