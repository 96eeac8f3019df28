"""Digital twin of a passive LC cardiovascular sensor with wireless
reflection readout.

Pipeline: geometry -> lumped circuit -> coupled-reader reflection sweep ->
dip extraction -> calibration fit/inversion -> virtual campaigns ->
telemetry framing and gateway logging.
"""

from .calibration import (AgingSeries, CalibrationModel, CyclePoint,
                          CycleSeries, DriftMetrics, InversionResult,
                          RepeatabilityMetrics, cycle_series, drift_metrics,
                          fit_linear, invert, repeatability_metrics)
from .circuit import (LumpedCircuit, ModelCalibration, calibrate_baseline,
                      ide_capacitance, loop_inductance, lumped_from_geometry,
                      resonance_frequency)
from .dsp import ResonanceEstimate, extract_resonance
from .errors import (BadMagic, CalibrationFailed, ChecksumMismatch,
                     DegenerateInput, DegenerateModel, DomainError,
                     FrameError, GridTooCoarse, IncompleteCycle, InvalidGrid,
                     MaicasError, MalformedLength, NoResonance,
                     OutOfModelRange, UnsupportedVersion)
from .geometry import (DeviceGeometry, IdeGeometry, JointBend, LoopGeometry,
                       Rest, RolledDisplacement, RolledPressure,
                       SubstrateStack, UniaxialStrain, strain_of)
from .readout import (ReaderCouple, S11Sweep, add_noise, fit_reader,
                      s11_spectrum)
from .scenarios import (ExperimentConfig, ExperimentResult, PointResult,
                        default_config, fit_scenario_coupling,
                        run_experiment)
from .telemetry import (MeasurandRecord, TelemetryFrame, decode_frame,
                        encode_frame, gateway, read_log, start_server)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
