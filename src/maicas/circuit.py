"""Lumped-element extraction from device geometry.

The sensor is reduced to a series R-L-C tank: interdigitated-electrode
capacitance from a conformal-mapping closed form, loop inductance from a
current-sheet closed form, and a fitted series loss resistor. A one-time
baseline calibration absorbs everything the geometry alone cannot predict
(exact finger layout, effective permittivity, parasitics, loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace
import json

from .errors import CalibrationFailed, DomainError, require_positive
from .geometry import (DeviceGeometry, DeformationState, IdeGeometry,
                       LoopGeometry, Rest, SubstrateStack, strain_of)
from .jsonio import check_fields, load_json

VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
VACUUM_PERMEABILITY = 4.0e-7 * math.pi  # H/m

# Square current-sheet coefficients (c1, c2, c3, c4).
_SHEET_COEFFS_SQUARE = (1.27, 2.07, 0.18, 0.13)

# Cephes ellpk: MACHEP = 2**-53 splits the rational form from the asymptote
_MACHEP = 2.0 ** -53
_LOG4 = 1.3862943611198906188  # log(4), Cephes C1


def _ellpk(x: float) -> float:
    """Complete elliptic integral of the first kind as a function of the
    complementary parameter x = 1 - m = 1 - k*k.

    A port of the Cephes ``ellpk`` that scipy's ``special.ellipk(m)`` and
    ``ellipkm1(1 - m)`` both call: for 2**-53 < x <= 1 the rational form
    P(x) - log(x)*Q(x), below it the leading terms of the logarithmic
    singularity, log(4) - log(x)/2, then inf at x = 0 and NaN for x < 0 or
    NaN; x > 1 maps onto 1/x. The two degree-10 polynomials are evaluated
    by Horner's rule in Cephes' ``polevl`` order, highest power first, so
    the result is bit-identical to scipy's.
    """
    if x > 1.0:
        return 0.0 if x == math.inf else _ellpk(1.0 / x) / math.sqrt(x)
    if x > _MACHEP:
        p = ((((((((((1.37982864606273237150e-4 * x
                      + 2.28025724005875567385e-3) * x
                     + 7.97404013220415179367e-3) * x
                    + 9.85821379021226008714e-3) * x
                   + 6.87489687449949877925e-3) * x
                  + 6.18901033637687613229e-3) * x
                 + 8.79078273952743772254e-3) * x
                + 1.49380448916805252718e-2) * x
               + 3.08851465246711995998e-2) * x
              + 9.65735902811690126535e-2) * x
             + 1.38629436111989062502)
        q = ((((((((((2.94078955048598507511e-5 * x
                      + 9.14184723865917226571e-4) * x
                     + 5.94058303753167793257e-3) * x
                    + 1.54850516649762399335e-2) * x
                   + 2.39089602715924892727e-2) * x
                  + 3.01204715227604046988e-2) * x
                 + 3.73774314173823228969e-2) * x
                + 4.88280347570998239232e-2) * x
               + 7.03124996963957469739e-2) * x
              + 1.24999999999870820058e-1) * x
             + 4.99999999999999999821e-1)
        return p - math.log(x) * q
    if x > 0.0:
        return _LOG4 - 0.5 * math.log(x)
    if x == 0.0:
        return math.inf
    return math.nan


def _ellipk(k: float) -> float:
    """Complete elliptic integral of the first kind K(k) of the modulus k,
    bit-identical to scipy's ``special.ellipk(k*k)``."""
    return _ellpk(1.0 - k * k)


def _kk_ratio(k: float) -> float:
    """K(k)/K(k'), the workhorse ratio of coplanar-electrode maps."""
    kp = math.sqrt(max(0.0, 1.0 - k * k))
    return _ellipk(k) / _ellipk(kp)


def _half_space_permittivities(stack: SubstrateStack, period_m: float) -> tuple[float, float]:
    """Effective permittivity seen above and below the electrode plane.

    The periodic coplanar field decays over the electrode period; a layer of
    thickness t screens the half space behind it with weight
    exp(-4*pi*t/period). Above the fingers: encapsulation then medium.
    Below: base elastomer then air.
    """
    w_top = math.exp(-4.0 * math.pi * (stack.encapsulation_thickness * 1e-6) / period_m)
    w_bot = math.exp(-4.0 * math.pi * (stack.base_thickness * 1e-6) / period_m)
    eps_top = (stack.substrate_rel_permittivity
               + (stack.medium_rel_permittivity - stack.substrate_rel_permittivity) * w_top)
    eps_bot = (stack.substrate_rel_permittivity
               + (1.0 - stack.substrate_rel_permittivity) * w_bot)
    return eps_top, eps_bot


def ide_capacitance(ide: IdeGeometry, stack: SubstrateStack) -> float:
    """Capacitance (F) of the interdigitated bank.

    Unit-cell conformal-mapping network: interior fingers contribute
    half-cells with modulus sin(pi*eta/2), the two exterior fingers
    contribute cells with modulus 2*sqrt(eta)/(1+eta), eta = w/(w+g).
    Strictly decreasing in gap, strictly increasing in finger count and
    overlap length.
    """
    w = ide.trace_width * 1e-6
    g = ide.gap * 1e-6
    length = ide.finger_length * 1e-6
    eta = w / (w + g)
    k_int = math.sin(0.5 * math.pi * eta)
    k_ext = 2.0 * math.sqrt(eta) / (1.0 + eta)
    eps_top, eps_bot = _half_space_permittivities(stack, 2.0 * (w + g))
    eps_sum = eps_top + eps_bot
    c_int = eps_sum * VACUUM_PERMITTIVITY * length * _kk_ratio(k_int)
    c_ext = eps_sum * VACUUM_PERMITTIVITY * length * _kk_ratio(k_ext)
    if not (0.0 < c_int < math.inf and 0.0 < c_ext < math.inf):
        raise DomainError(
            f"electrode cells of width {ide.trace_width} μm, gap {ide.gap} μm "
            f"and length {ide.finger_length} μm have no finite capacitance")
    n = ide.finger_count
    if n == 2:
        # single gap between two exterior half-cells in series
        return 0.5 * c_ext
    series_ends = 2.0 * c_int * c_ext / (c_int + c_ext)
    return 0.5 * (n - 3) * c_int + series_ends


def loop_inductance(loop: LoopGeometry) -> float:
    """Inductance (H) of the planar square loop via the current-sheet
    closed form. A strained loop (axis_scale != 1) is mapped to the square
    of equal enclosed area."""
    d_out = loop.outer_side * 1e-3 * math.sqrt(loop.axis_scale)
    w = loop.trace_width * 1e-6
    s = loop.turn_spacing * 1e-6
    n = loop.turns
    d_in = d_out - 2.0 * (n * w + (n - 1) * s)
    if d_in <= 0:
        raise DomainError("loop turns do not fit the strained outer side")
    d_avg = 0.5 * (d_out + d_in)
    rho = (d_out - d_in) / (d_out + d_in)
    if rho == 0.0:
        raise DomainError("loop turns vanish against the outer side")
    c1, c2, c3, c4 = _SHEET_COEFFS_SQUARE
    return (0.5 * VACUUM_PERMEABILITY * n * n * d_avg * c1
            * (math.log(c2 / rho) + c3 * rho + c4 * rho * rho))


def resonance_frequency(inductance: float, capacitance: float) -> float:
    """f0 = 1/(2*pi*sqrt(L*C)). DomainError on non-positive input."""
    if inductance <= 0:
        raise DomainError(f"inductance must be > 0, got {inductance}")
    if capacitance <= 0:
        raise DomainError(f"capacitance must be > 0, got {capacitance}")
    return 1.0 / (2.0 * math.pi * math.sqrt(inductance * capacitance))


@dataclass(frozen=True)
class LumpedCircuit:
    """Series R-L-C equivalent of the sensor. f0 is always derived from
    the stored element values, never cached."""

    inductance: float
    capacitance: float
    resistance: float

    def __post_init__(self):
        if not 0 < self.inductance < math.inf:
            raise DomainError(
                f"inductance must be finite and > 0, got {self.inductance}")
        if not 0 < self.capacitance < math.inf:
            raise DomainError(
                f"capacitance must be finite and > 0, got {self.capacitance}")
        if not 0 <= self.resistance < math.inf:
            raise DomainError(
                f"resistance must be finite and >= 0, got {self.resistance}")

    @property
    def f0(self) -> float:
        return resonance_frequency(self.inductance, self.capacitance)


@dataclass(frozen=True)
class ModelCalibration:
    """Frozen per-device fit: everything the geometry alone cannot pin down.

    parasitic_C_offset in farad, ide_finger_length in μm, loss_R in ohm.
    """

    eff_permittivity_scale: float
    parasitic_C_offset: float
    ide_finger_count: int
    ide_finger_length: float
    loss_R: float

    def __post_init__(self):
        check_fields(self)
        require_positive(self, "eff_permittivity_scale", "parasitic_C_offset",
                         "ide_finger_count", "ide_finger_length", "loss_R")
        if self.ide_finger_count < 2:  # the fewest fingers an IdeGeometry has
            raise DomainError(
                f"ide_finger_count must be >= 2, got {self.ide_finger_count}")

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @staticmethod
    def from_json(text: str) -> "ModelCalibration":
        """Inverse of to_json, as strict as CalibrationModel.from_json."""
        return load_json(ModelCalibration, text, "baseline calibration")


# A just-positive placeholder: the uncalibrated model carries no parasitic.
_MIN_OFFSET_F = 1e-18

TARGET_F0_HZ = 1.71e9     # stock baseline target: rest resonance
TARGET_DEPTH_DB = -14.0   # and reflection dip depth
LOSS_R_OHM = 5.0          # series loss of every baseline calibration

# Search box of calibrate_baseline.
FINGER_COUNT_MIN, FINGER_COUNT_MAX = 4, 64
FINGER_LENGTH_MIN_UM, FINGER_LENGTH_MAX_UM = 200.0, 8000.0
FINGER_LENGTH_PIVOT_UM = 1000.0  # preferred overlap scale
OFFSET_FRACTION = 0.05  # parasitic share of total C


def initial_calibration(device: DeviceGeometry) -> ModelCalibration:
    """Identity calibration: nominal fingers, unit permittivity scale,
    negligible parasitic offset."""
    return ModelCalibration(
        eff_permittivity_scale=1.0,
        parasitic_C_offset=_MIN_OFFSET_F,
        ide_finger_count=device.ide.finger_count,
        ide_finger_length=device.ide.finger_length,
        loss_R=LOSS_R_OHM,
    )


def lumped_from_geometry(device: DeviceGeometry, state: DeformationState,
                         cal: ModelCalibration) -> LumpedCircuit:
    """Strain the calibrated geometry and extract the series tank.

    The calibrated finger count and overlap replace the nominal ones, and
    the state's effective strain ε deforms them: gaps open by (1+ε), finger
    overlap shrinks by the Poisson contraction (1 − ν·ε), and the loop's
    enclosed dimension along the strain axis scales by (1+ε). Metal trace
    widths never change: copper is treated as inextensible relative to the
    elastomer.
    """
    eps = strain_of(state, device)
    ide = replace(device.ide, finger_count=cal.ide_finger_count,
                  finger_length=cal.ide_finger_length
                  * (1.0 - device.poisson_ratio * eps),
                  gap=device.ide.gap * (1.0 + eps))
    loop = replace(device.loop, axis_scale=device.loop.axis_scale * (1.0 + eps))
    capacitance = (cal.eff_permittivity_scale
                   * ide_capacitance(ide, device.stack)
                   + cal.parasitic_C_offset)
    return LumpedCircuit(loop_inductance(loop), capacitance, cal.loss_R)


def calibrate_baseline(device: DeviceGeometry, target_f0: float = TARGET_F0_HZ,
                       target_depth_db: float = TARGET_DEPTH_DB) -> ModelCalibration:
    """One-time deterministic baseline fit.

    Chooses finger count/length in the search box so the interdigitated bank
    lands near the capacitance the loop needs to resonate at target_f0, then
    sets the permittivity scale so the Rest-state f0 hits the target in
    closed form. The dip depth is handled jointly by the reader coupling fit
    (see readout.fit_reader); if the resulting dip center drifts more than
    the tolerance off target, the capacitance is recentred and the coupling
    refitted. Everything is closed-form or bracketed 1-D search: no
    stochastic steps, well under the evaluation budget.

    Raises CalibrationFailed when the target is unreachable inside the
    search box or the joint dip residual stays above tolerance.
    """
    from . import readout  # deferred: readout imports this module's types

    if not 0 < target_f0 < math.inf:  # NaN and inf fail too
        raise DomainError(f"target_f0 must be > 0, got {target_f0}")
    if not target_depth_db < 0:  # NaN fails too
        raise DomainError(
            f"target_depth_db must be < 0 dB, got {target_depth_db}")

    inductance = loop_inductance(device.loop)

    # Fixed point: if the uncalibrated model already hits the target, keep it.
    identity = initial_calibration(device)
    rest = lumped_from_geometry(device, Rest(), identity)
    if abs(rest.f0 - target_f0) <= 1e6:
        readout.fit_reader(rest, target_depth_db)
        return identity

    def solve_stage_a(c_total: float) -> ModelCalibration:
        """Closed-form placement of (count, length, scale, offset) for a
        requested total capacitance."""
        offset = OFFSET_FRACTION * c_total
        c_ide_target = c_total - offset
        best = None
        for count in range(FINGER_COUNT_MIN, FINGER_COUNT_MAX + 1):
            per_meter = ide_capacitance(
                replace(device.ide, finger_count=count, finger_length=1e6),
                device.stack)  # 1e6 μm = 1 m of overlap
            length = 1e6 * c_ide_target / per_meter
            if not FINGER_LENGTH_MIN_UM <= length <= FINGER_LENGTH_MAX_UM:
                continue
            badness = abs(math.log(length / FINGER_LENGTH_PIVOT_UM))
            if best is None or badness < best[0]:
                best = (badness, count, length)
        if best is None:
            raise CalibrationFailed(
                f"no finger layout inside bounds reaches C = {c_total:.3e} F")
        _, count, length = best
        c_raw = ide_capacitance(
            replace(device.ide, finger_count=count, finger_length=length),
            device.stack)
        scale = c_ide_target / c_raw
        return ModelCalibration(
            eff_permittivity_scale=scale,
            parasitic_C_offset=offset,
            ide_finger_count=count,
            ide_finger_length=length,
            loss_R=LOSS_R_OHM,
        )

    try:
        c_total = 1.0 / (inductance * (2.0 * math.pi * target_f0) ** 2)
    except ArithmeticError:  # the square overflows or the product underflows
        raise CalibrationFailed(
            f"no capacitance resonates at {target_f0:.6g} Hz in "
            "float range") from None
    cal = solve_stage_a(c_total)

    # Joint depth fit + dip recentring.
    for _ in range(4):
        circuit = lumped_from_geometry(device, Rest(), cal)
        reader = readout.fit_reader(circuit, target_depth_db)
        f_dip, depth = readout.dip_of(circuit, reader)
        f_resid = abs(f_dip - target_f0)
        d_resid = abs(depth - target_depth_db)
        if f_resid <= 0.6e6 and d_resid <= 0.5:
            if abs(circuit.f0 - target_f0) > 1e6:
                break  # sensor f0 drifted out while centring the dip
            return cal
        # pull the tank so the coupled dip, not the bare tank, sits on target
        c_total *= (f_dip / target_f0) ** 2
        cal = solve_stage_a(c_total)

    raise CalibrationFailed(
        f"baseline fit did not converge to {target_f0:.6g} Hz / "
        f"{target_depth_db:.3g} dB")
