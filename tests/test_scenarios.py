import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from maicas.circuit import ModelCalibration, lumped_from_geometry
from maicas.errors import (CalibrationFailed, DegenerateInput, DomainError)
from maicas.geometry import DeviceGeometry
from maicas.scenarios import (MODE_SPECS, ExperimentConfig, _brentq,
                              default_config, derive_seed,
                              fit_scenario_coupling, run_experiment)
from maicas.sweepio import read_touchstone


DROP = object()  # marks a JSON key to delete

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"
SNAPSHOT_CONFIGS = {
    "default": lambda: default_config("epicardial_strain"),
    "calibrated": lambda: default_config(
        "graft_pressure", seed=3, compliance=1.7e-4, strain_scale=0.1 + 0.2,
        device=DeviceGeometry(rest_length=12_500.0),
        calibration=ModelCalibration(
            eff_permittivity_scale=1.234567890123, parasitic_C_offset=4.5e-13,
            ide_finger_count=9, ide_finger_length=3987.5, loss_R=6.25)),
}


def quiet_config(mode, device, cal, **overrides):
    """Single noiseless repeat, precomputed calibration: fast and exact."""
    kwargs = dict(device=device, calibration=cal, repeats=1,
                  noise_sigma_db=0.0)
    kwargs.update(overrides)
    return default_config(mode, **kwargs)


class TestConfigValidation:
    def test_default_grids_cover_all_modes(self):
        for mode, spec in MODE_SPECS.items():
            cfg = default_config(mode)
            assert cfg.measurand_grid == spec.grid

    @pytest.mark.parametrize("kwargs", [
        {"mode": "waterfall", "measurand_grid": (0.0, 1.0)},
        {"mode": "epicardial_strain", "measurand_grid": ()},
        {"mode": "epicardial_strain", "measurand_grid": (5.0, 0.0)},
        {"mode": "epicardial_strain", "measurand_grid": (0.0, 5.0), "repeats": 0},
        {"mode": "epicardial_strain", "measurand_grid": (0.0, 5.0), "seed": -1},
        {"mode": "epicardial_strain", "measurand_grid": (0.0, 5.0),
         "noise_sigma_db": -0.1},
        {"mode": "epicardial_strain", "measurand_grid": (0.0, 5.0),
         "n_points": 4},
        {"mode": "graft_pressure", "measurand_grid": (50.0, 100.0),
         "lumen_diameter": 0.0},
        {"mode": "epicardial_strain", "measurand_grid": (0.0, 5.0),
         "f_start": 2.0e9, "f_stop": 1.5e9},
        {"mode": "epicardial_strain", "measurand_grid": (0.0, 5.0),
         "noise_sigma_db": math.inf},
        {"mode": "epicardial_strain", "measurand_grid": (0.0, 5.0),
         "noise_sigma_db": math.nan},
        {"mode": "aging", "measurand_grid": (0.0, 16.0), "min_depth_db": -1.0},
        {"mode": "aging", "measurand_grid": (0.0, 16.0),
         "min_depth_db": math.nan},
        {"mode": "aging", "measurand_grid": (0.0, 16.0), "f_start": math.nan},
        {"mode": "aging", "measurand_grid": (0.0, 16.0), "f_stop": math.inf},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(DomainError):
            ExperimentConfig(**kwargs)

    def test_json_round_trip(self, baseline_cal):
        cfg = default_config("graft_pressure", seed=7, repeats=3,
                             calibration=baseline_cal)
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_json_round_trip_without_calibration(self):
        cfg = default_config("joint_bend", bend_radius=1.5)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("name", sorted(SNAPSHOT_CONFIGS))
    def test_config_json_bytes_are_the_snapshot(self, name):
        """config.json as simulate writes it, pinned byte for byte."""
        text = SNAPSHOT_CONFIGS[name]().to_json() + "\n"
        assert text == (SNAPSHOT_DIR / f"config_{name}.json").read_text()

    @pytest.mark.parametrize("path,value", [
        (("calibration", "loss_R"), DROP),
        (("calibration", "colour"), "blue"),
        (("device", "ide", "finger_count"), 8.5),
        (("device", "stack", "gap"), 30.0),
        (("device",), None),
        (("measurand_grid",), [50.0, "high"]),
        (("measurand_grid",), 50.0),
        (("expansion_positive",), 1),
        (("compliance",), "stiff"),
    ])
    def test_json_nested_fields_are_strict(self, baseline_cal, path, value):
        obj = json.loads(default_config(
            "graft_pressure", calibration=baseline_cal).to_json())
        *parents, key = path
        target = obj
        for name in parents:
            target = target[name]
        if value is DROP:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(DomainError):
            ExperimentConfig.from_json(json.dumps(obj))


class TestSeedDerivation:
    def test_deterministic(self):
        a = derive_seed(3, 1, 2).generate_state(4)
        b = derive_seed(3, 1, 2).generate_state(4)
        assert list(a) == list(b)

    def test_distinct_across_indices(self):
        states = {tuple(derive_seed(s, g, r).generate_state(4))
                  for s in (0, 1) for g in (0, 1, 2) for r in (0, 1, 2)}
        assert len(states) == 18


class TestCouplingFits:
    def test_epicardial_gap_coupling(self, device, baseline_cal):
        gamma = fit_scenario_coupling("epicardial_strain", 2.9e6,
                                      device, baseline_cal)
        assert gamma == pytest.approx(1.45, abs=0.05)
        cfg = quiet_config("epicardial_strain", device, baseline_cal,
                           strain_scale=gamma)
        slope = run_experiment(cfg).summary.slope
        assert abs(slope - 2.9e6) <= 0.02 * 2.9e6

    def test_graft_compliance(self, device, baseline_cal):
        alpha = fit_scenario_coupling("graft_pressure", 0.43e6,
                                      device, baseline_cal)
        assert 0.0 < alpha < 0.01   # strain per mmHg stays small
        cfg = quiet_config("graft_pressure", device, baseline_cal,
                           compliance=alpha)
        slope = run_experiment(cfg).summary.slope
        assert abs(slope - 0.43e6) <= 0.02 * 0.43e6

    def test_stent_displacement_scale(self, device, baseline_cal):
        scale = fit_scenario_coupling("stent_displacement", 0.31e6,
                                      device, baseline_cal)
        cfg = quiet_config("stent_displacement", device, baseline_cal,
                           displacement_scale=scale)
        slope = run_experiment(cfg).summary.slope
        assert abs(slope - 0.31e6) <= 0.02 * 0.31e6

    def test_feasible_bend_target(self, device, baseline_cal):
        radius = fit_scenario_coupling("joint_bend", 1.0e6,
                                       device, baseline_cal)
        cfg = quiet_config("joint_bend", device, baseline_cal,
                           bend_radius=radius)
        slope = run_experiment(cfg).summary.slope
        assert abs(slope - 1.0e6) <= 0.02 * 1.0e6

    def test_bend_target_beyond_strain_window_fails(self, device, baseline_cal):
        # the 0..90 degree grid cannot produce ~4.9 MHz/degree inside the
        # +/-50% strain validity window
        with pytest.raises(CalibrationFailed):
            fit_scenario_coupling("joint_bend", 4.885e6, device, baseline_cal)

    @pytest.mark.parametrize("target", [0.0, -1e6])
    def test_nonpositive_target_fails(self, device, baseline_cal, target):
        with pytest.raises(CalibrationFailed):
            fit_scenario_coupling("epicardial_strain", target,
                                  device, baseline_cal)

    def test_mode_without_coupling_rejected(self, device, baseline_cal):
        with pytest.raises(DomainError):
            fit_scenario_coupling("media_stability", 1.0e6,
                                  device, baseline_cal)


def _shape(kind: int, root: float, scale: float):
    """A function with a sign change at root: smooth, odd-order, flat
    between jumps, or NaN near the root. scale spans 1e-200..1e200 so that
    products of function values underflow or overflow."""
    if kind == 0:
        return lambda x: scale * (x - root)
    if kind == 1:
        return lambda x: scale * (x - root) ** 3
    if kind == 2:
        return lambda x: scale * math.tanh(x - root)
    if kind == 3:
        return lambda x: scale * math.expm1(x - root)
    if kind == 4:
        return lambda x: scale * (1.0 if x > root else -1.0)
    if kind == 5:
        return lambda x: scale * (math.floor((x - root) * 3.0) + 0.5)
    return lambda x: math.nan if abs(x - root) < 1e-3 else scale * (x - root)


def root_or_error(solve, f, a, b, xtol, rtol, maxiter):
    try:
        return struct.pack("<d", solve(f, a, b, xtol=xtol, rtol=rtol,
                                       maxiter=maxiter))
    except (ValueError, RuntimeError, CalibrationFailed):
        return "raised"


class TestBrentqPort:
    """The pure-Python brentq against scipy.optimize.brentq: the same root
    bits, or an error (CalibrationFailed where scipy raises ValueError or
    RuntimeError)."""

    @settings(max_examples=500, deadline=None)
    @given(kind=st.integers(0, 6), a=st.floats(-20.0, 20.0),
           width=st.floats(1e-3, 100.0), flip=st.booleans(),
           root_at=st.floats(-0.1, 1.1),
           scale=st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e),
           sign=st.sampled_from([1.0, -1.0]),
           xtol=st.floats(1e-300, 1.0) | st.sampled_from([0.0, -1.0, 5e-324]),
           rtol=st.sampled_from([8.881784197001252e-16, 8.9e-16, 1e-10,
                                 1e-3, 1e-16]),
           maxiter=st.sampled_from([100, 20, 5]))
    def test_matches_scipy(self, kind, a, width, flip, root_at, scale, sign,
                           xtol, rtol, maxiter):
        b = a + width
        if flip:
            a, b = b, a
        f = _shape(kind, a + root_at * (b - a), sign * scale)
        assert (root_or_error(_brentq, f, a, b, xtol, rtol, maxiter)
                == root_or_error(oracles.reference_brentq, f, a, b, xtol,
                                 rtol, maxiter))

    @pytest.mark.parametrize("f,a,b,xtol,rtol,maxiter,message", [
        (lambda x: x - 5.0, 0.0, 1.0, 1e-12, 8.9e-16, 100, "different signs"),
        (lambda x: math.nan, 0.0, 1.0, 1e-12, 8.9e-16, 100, "NaN"),
        (lambda x: x, -1.0, 2.0, 0.0, 8.9e-16, 100, "xtol"),
        (lambda x: x, -1.0, 2.0, 1e-12, 1e-16, 100, "rtol"),
        (math.tanh, -1.0, 2.0, 1e-300, 8.9e-16, 3, "converge"),
    ])
    def test_failures_are_calibration_failed(self, f, a, b, xtol, rtol,
                                             maxiter, message):
        with pytest.raises(CalibrationFailed, match=message):
            _brentq(f, a, b, xtol, rtol, maxiter)


class TestRunExperiment:
    def test_epicardial_default_resolution_fits_gap_coupling(self, device,
                                                             baseline_cal):
        # the natural gap response is below the accepted band, so the
        # default resolution fits the coupling scale to the nominal slope
        cfg = quiet_config("epicardial_strain", device, baseline_cal)
        result = run_experiment(cfg)
        assert result.coupling == pytest.approx(1.45, abs=0.05)
        assert abs(result.summary.slope - 2.9e6) <= 0.3e6

    def test_graft_defaults_hit_nominal_sensitivity(self, device,
                                                    baseline_cal):
        result = run_experiment(
            quiet_config("graft_pressure", device, baseline_cal))
        assert 0.42e6 <= result.summary.slope <= 0.44e6
        assert result.summary.measurand_unit == "mmHg"

    def test_point_structure(self, device, baseline_cal):
        cfg = default_config("epicardial_strain", device=device,
                             calibration=baseline_cal, repeats=3,
                             noise_sigma_db=0.1, seed=5)
        result = run_experiment(cfg)
        assert len(result.points) == len(cfg.measurand_grid)
        for point in result.points:
            assert len(point.sweeps) == 3
            assert len(point.estimates) == 3
            assert point.n_ok == 3
            assert point.sd_f0 > 0.0
        assert result.failure_count == 0

    def test_single_noiseless_repeat_has_zero_sd(self, device, baseline_cal):
        result = run_experiment(
            quiet_config("epicardial_strain", device, baseline_cal))
        for point in result.points:
            assert point.sd_f0 == 0.0
            assert point.n_ok == 1

    @pytest.mark.parametrize("mode", ["epicardial_strain", "graft_pressure",
                                      "stent_displacement", "joint_bend"])
    def test_noiseless_means_increase_with_stimulus(self, device,
                                                    baseline_cal, mode):
        result = run_experiment(quiet_config(mode, device, baseline_cal))
        means = [p.mean_f0 for p in result.points]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_summary_csv_deterministic(self, device, baseline_cal):
        cfg = default_config("graft_pressure", device=device,
                             calibration=baseline_cal, seed=3)
        a = run_experiment(cfg).to_summary_csv()
        b = run_experiment(cfg).to_summary_csv()
        assert a == b
        assert a.splitlines()[0] == "measurand,mean_f0_hz,sd_f0_hz,n"
        assert len(a.splitlines()) == 1 + len(cfg.measurand_grid)

    def test_seed_changes_noise(self, device, baseline_cal):
        base = default_config("graft_pressure", device=device,
                              calibration=baseline_cal, seed=3)
        other = default_config("graft_pressure", device=device,
                               calibration=baseline_cal, seed=4)
        assert (run_experiment(base).to_summary_csv()
                != run_experiment(other).to_summary_csv())

    def test_write_and_export(self, device, baseline_cal, tmp_path):
        cfg = quiet_config("joint_bend", device, baseline_cal)
        result = run_experiment(cfg)
        written = result.export_sweeps(tmp_path / "sweeps")
        assert len(written) == len(cfg.measurand_grid)
        assert written[0].name == "sweep_g00_r00.s1p"
        sweep = read_touchstone(written[0])
        assert sweep.n_points == cfg.n_points

    def test_all_extractions_failing_raises(self, device, baseline_cal):
        cfg = default_config("epicardial_strain", device=device,
                             calibration=baseline_cal, repeats=1,
                             noise_sigma_db=0.0, min_depth_db=50.0)
        with pytest.raises(DegenerateInput):
            run_experiment(cfg)

    def test_aging_mode_is_flat(self, device, baseline_cal):
        result = run_experiment(quiet_config("aging", device, baseline_cal))
        assert result.summary.slope == 0.0
        assert result.summary.measurand_unit == "days"

    def test_media_mode_slope_negative(self, device, baseline_cal):
        result = run_experiment(
            quiet_config("media_stability", device, baseline_cal))
        means = [p.mean_f0 for p in result.points]
        assert all(b < a for a, b in zip(means, means[1:]))
        assert result.summary.slope < 0.0
        assert result.summary.measurand_unit == "rel-permittivity"


def media_f0(device, cal, rel_permittivity):
    """Resonance of the media_stability mode's state at one medium."""
    config = default_config("media_stability", device=device,
                            calibration=cal)
    state = MODE_SPECS["media_stability"].state(config, 0.0, rel_permittivity)
    return lumped_from_geometry(*state, cal).f0


class TestMediaShift:
    def test_calibration_medium_is_fixed_point(self, device, baseline_cal,
                                               rest_circuit):
        same = media_f0(device, baseline_cal,
                        device.stack.medium_rel_permittivity)
        assert same == rest_circuit.f0

    def test_monotone_decreasing_in_permittivity(self, device, baseline_cal):
        f0s = [media_f0(device, baseline_cal, e)
               for e in (1.0, 10.0, 40.0, 80.0)]
        assert all(b < a for a, b in zip(f0s, f0s[1:]))

    def test_saline_shift_is_resolvable(self, device, baseline_cal):
        shift = (media_f0(device, baseline_cal, 1.0)
                 - media_f0(device, baseline_cal, 80.0))
        assert shift > 1e6   # far above the noise floor of the extractor
