"""Parametric device geometry and deformation kinematics.

Maps each physical scenario (uniaxial strain, luminal pressure, radial
displacement, joint bend) onto an effective strain, which the circuit
module applies to the calibrated geometry. Lengths are micrometres unless a
field says otherwise; loop sides and lumen diameters are millimetres.

All types are immutable values; straining never mutates the rest geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, OutOfModelRange, require_positive
from .jsonio import check_fields, from_dict

# Validity window of the small-strain kinematic model.
MAX_ABS_STRAIN = 0.5

# Near-incompressible elastomer.
DEFAULT_POISSON_RATIO = 0.49


@dataclass(frozen=True)
class SubstrateStack:
    """Dielectric environment of the electrodes.

    base_thickness, encapsulation_thickness, metal_thickness in μm.
    medium_rel_permittivity describes the medium above the encapsulation
    (air = 1.0, saline/serum much higher).
    """

    base_thickness: float = 200.0
    encapsulation_thickness: float = 200.0
    substrate_rel_permittivity: float = 2.68
    medium_rel_permittivity: float = 1.0
    metal_thickness: float = 30.0

    def __post_init__(self):
        check_fields(self)
        require_positive(self, "base_thickness", "encapsulation_thickness",
                         "metal_thickness")
        for name in ("substrate_rel_permittivity", "medium_rel_permittivity"):
            if getattr(self, name) < 1.0:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class IdeGeometry:
    """Interdigitated electrode bank.

    finger_length is the overlap length of adjacent fingers (μm);
    trace_width and gap are the finger width w and inter-finger gap g (μm).
    """

    finger_count: int = 8
    finger_length: float = 4000.0
    trace_width: float = 120.0
    gap: float = 30.0

    def __post_init__(self):
        check_fields(self)
        if self.finger_count < 2:
            raise DomainError(f"finger_count must be >= 2, got {self.finger_count}")
        require_positive(self, "finger_length", "trace_width", "gap")


@dataclass(frozen=True)
class LoopGeometry:
    """Planar square loop antenna/inductor.

    outer_side in mm; trace_width and turn_spacing in μm. axis_scale carries
    the (1+ε) elongation of the enclosed dimension along the strain axis; it
    is 1.0 for the fabricated rest geometry.
    """

    outer_side: float = 10.0
    turns: int = 1
    trace_width: float = 120.0
    turn_spacing: float = 30.0
    axis_scale: float = 1.0

    def __post_init__(self):
        check_fields(self)
        require_positive(self, "outer_side")
        if self.turns < 1:
            raise DomainError(f"turns must be >= 1, got {self.turns}")
        require_positive(self, "trace_width", "turn_spacing", "axis_scale")
        # The turns must physically fit inside the outer side.
        metal_span = 2 * (self.turns * self.trace_width
                          + (self.turns - 1) * self.turn_spacing)
        if metal_span >= self.outer_side * 1000.0:
            raise DomainError(
                f"turns = {self.turns} of trace_width = {self.trace_width} μm "
                f"and turn_spacing = {self.turn_spacing} μm do not fit in "
                f"outer_side = {self.outer_side} mm")


@dataclass(frozen=True)
class DeviceGeometry:
    """Complete sensor: IDE bank + loop + dielectric stack.

    rest_length is the sensing-axis length L0 (μm) used by the bend
    arc-elongation model.
    """

    ide: IdeGeometry = IdeGeometry()
    loop: LoopGeometry = LoopGeometry()
    stack: SubstrateStack = SubstrateStack()
    rest_length: float = 10_000.0
    poisson_ratio: float = DEFAULT_POISSON_RATIO

    def __post_init__(self):
        check_fields(self)
        require_positive(self, "rest_length")
        if not 0.0 <= self.poisson_ratio < 0.5 + 1e-12:
            raise DomainError(
                f"poisson_ratio must be in [0, 0.5], got {self.poisson_ratio}")


# --- Deformation states -----------------------------------------------------


@dataclass(frozen=True)
class Rest:
    """Fabricated, undeformed, unrolled state."""


@dataclass(frozen=True)
class UniaxialStrain:
    """Directly imposed strain along the sensing axis."""

    strain: float


@dataclass(frozen=True)
class RolledPressure:
    """Rolled around a lumen; pressure maps to hoop strain via compliance.

    lumen_diameter in mm, pressure in mmHg, compliance in strain/mmHg.
    """

    lumen_diameter: float
    pressure: float
    compliance: float

    def __post_init__(self):
        require_positive(self, "lumen_diameter")
        if self.pressure < 0:
            raise DomainError(f"pressure must be >= 0, got {self.pressure}")


@dataclass(frozen=True)
class RolledDisplacement:
    """Rolled around a lumen whose diameter changes by a set displacement.

    lumen_diameter in mm, displacement in μm. expansion_positive selects the
    sign convention: True maps positive displacement to positive
    (gap-opening) strain, which matches the rising frequency data this model
    was anchored to; False flips it.
    """

    lumen_diameter: float
    displacement: float
    expansion_positive: bool = True

    def __post_init__(self):
        require_positive(self, "lumen_diameter")


@dataclass(frozen=True)
class JointBend:
    """Bent over a joint through angle degrees; arc elongation model.

    effective_radius in mm is the lever arm from the neutral plane.
    """

    angle: float
    effective_radius: float

    def __post_init__(self):
        if not 0.0 <= self.angle <= 120.0:
            raise DomainError(
                f"angle must be in [0, 120] degrees, got {self.angle}")
        require_positive(self, "effective_radius")


DeformationState = Rest | UniaxialStrain | RolledPressure | RolledDisplacement | JointBend


def strain_of(state: DeformationState, device: DeviceGeometry) -> float:
    """Effective sensing-axis strain of a deformation state.

    Raises OutOfModelRange when the state maps outside |ε| <= 0.5 or to NaN.
    """
    if isinstance(state, Rest):
        eps = 0.0
    elif isinstance(state, UniaxialStrain):
        eps = state.strain
    elif isinstance(state, RolledPressure):
        eps = state.compliance * state.pressure
    elif isinstance(state, RolledDisplacement):
        # displacement is μm, lumen_diameter mm
        eps = state.displacement / (state.lumen_diameter * 1000.0)
        if not state.expansion_positive:
            eps = -eps
    elif isinstance(state, JointBend):
        # arc elongation: r·θ over the rest length, r mm -> μm
        theta_rad = math.radians(state.angle)
        eps = (state.effective_radius * 1000.0 * theta_rad) / device.rest_length
    else:
        raise DomainError(f"unknown deformation state {state!r}")
    if not abs(eps) <= MAX_ABS_STRAIN:  # NaN fails too
        raise OutOfModelRange(
            f"effective strain {eps:.4f} outside ±{MAX_ABS_STRAIN} validity window")
    return eps


def device_from_dict(obj: dict) -> DeviceGeometry:
    """Inverse of dataclasses.asdict; missing keys and sections fall back to
    defaults. Unknown keys and non-numeric values raise DomainError."""
    return from_dict(DeviceGeometry, obj, "device", partial=True)
