import functools
import json
import math
import operator
import struct
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from maicas import scenarios
from maicas.calibration import fit_linear
from maicas.circuit import ModelCalibration, lumped_from_geometry
from maicas.dsp import extract_resonance
from maicas.errors import (CalibrationFailed, DegenerateInput, DomainError,
                           GridTooCoarse, NoResonance)
from maicas.geometry import DeviceGeometry, LoopGeometry
from maicas.readout import add_noise
from maicas.scenarios import (MODE_SPECS, MODES, ExperimentConfig, _brentq,
                              _repeat_seed_class, _seed_words, default_config,
                              fit_scenario_coupling, run_experiment)
from maicas.sweepio import read_touchstone


DROP = object()  # marks a JSON key to delete

# every config field but the grid and the nested dataclasses, and values of
# every kind for them: JSON's and Python's numbers at their edges, strings,
# None, numpy scalars
_SCALAR_FIELDS = [f.name for f in fields(ExperimentConfig)
                  if f.name not in ("measurand_grid", "device", "calibration")]
_FIELD_VALUES = (
    st.integers(-2 ** 1100, 2 ** 1100) | st.integers(-10, 3000)
    | st.floats() | st.sampled_from(
        [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
         -5e-324, 1e-310, True, False, None])
    | st.text(max_size=12) | st.sampled_from(MODES)
    | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
    | st.floats().map(np.float64))

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

# the config's nested documents, as attribute paths from a config holding
# all of them
_NESTED_CONFIG = SNAPSHOT_CONFIGS["calibrated"]()
_DOCUMENTS = [("device",), ("device", "ide"), ("device", "loop"),
              ("device", "stack"), ("calibration",)]


def _scalar_paths(document):
    """The paths of the fields of a nested document that hold no document
    themselves."""
    doc = functools.reduce(getattr, document, _NESTED_CONFIG)
    return [document + (f.name,) for f in fields(doc)
            if not is_dataclass(getattr(doc, f.name))]


def _replaced(obj, path, value):
    """obj with the field at path set to value, each document on the way
    built again with replace."""
    if not path:
        return value
    head, *rest = path
    return replace(obj, **{head: _replaced(getattr(obj, head), rest, value)})


def assert_one_verdict(stock, path, value):
    """Set the field at path to value in Python and in stock's JSON: both
    are refused, the Python refusal naming the field, or both give the same
    config, which survives to_json and from_json unchanged."""
    obj = json.loads(stock.to_json())
    *parents, name = path
    functools.reduce(dict.__getitem__, parents, obj)[name] = value
    # a numpy integer is written as the JSON integer it stands for
    text = json.dumps(obj, default=operator.index)
    try:
        loaded = ExperimentConfig.from_json(text)
    except DomainError:
        loaded = None
    try:
        built = _replaced(stock, path, value)
    except DomainError as exc:
        assert name in str(exc)
        assert loaded is None
        return
    assert loaded is not None
    assert repr(loaded) == repr(built)
    assert repr(ExperimentConfig.from_json(built.to_json())) == repr(built)


def quiet_config(mode, device, cal, **overrides):
    """Single noiseless repeat, precomputed calibration: fast and exact."""
    kwargs = dict(device=device, calibration=cal, repeats=1,
                  noise_sigma_db=0.0)
    kwargs.update(overrides)
    return default_config(mode, **kwargs)


class TestConfigValidation:
    def test_default_config_rejects_unknown_mode(self):
        with pytest.raises(DomainError, match="^unknown mode 'waterfall'$"):
            default_config("waterfall")

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

    @pytest.mark.parametrize("grid", [(), (0.0,), (4.0, 4.0), (-0.0, 0.0)])
    def test_grid_needs_two_distinct_values(self, grid):
        """A line through fewer than 2 distinct values has no slope; the
        config refuses it before any plan or sweep is built."""
        with pytest.raises(DomainError, match=(
                r"^measurand_grid needs 2 distinct values to fit, got ")):
            default_config("aging", measurand_grid=grid)

    @pytest.mark.parametrize("field,value", [
        ("seed", 3.5), ("seed", True), ("seed", np.float64(3.0)),
        ("repeats", 2.0), ("repeats", np.True_), ("n_points", 401.0),
        ("n_points", "401"),
        ("measurand_grid", (math.nan, 1.0)), ("measurand_grid", (0.0, math.inf)),
        ("measurand_grid", (-math.inf, 0.0)),
        ("lumen_diameter", math.nan), ("lumen_diameter", math.inf),
    ])
    def test_refuses_what_the_json_loader_refuses(self, field, value):
        """Construction refuses each value from_json refuses, naming the
        field, before any campaign work."""
        with pytest.raises(DomainError, match=field):
            default_config("aging", **{field: value})

    def test_numpy_integers_are_stored_as_int(self):
        cfg = default_config("aging", seed=np.int64(3), repeats=np.uint8(2),
                             n_points=np.int32(401))
        assert [type(v) for v in (cfg.seed, cfg.repeats, cfg.n_points)] == \
            [int, int, int]
        assert cfg == default_config("aging", seed=3, repeats=2, n_points=401)
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_nested_numpy_integers_are_stored_as_int(self):
        loop = LoopGeometry(turns=np.int64(1))
        assert type(loop.turns) is int
        cfg = default_config("aging", device=DeviceGeometry(loop=loop))
        assert repr(cfg) == repr(default_config("aging"))
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(_SCALAR_FIELDS), value=_FIELD_VALUES)
    def test_construction_refuses_exactly_what_from_json_refuses(self, name,
                                                                 value):
        """Built in Python or read from JSON, a field value gets the same
        verdict; a refusal names the field, and a config that builds
        survives to_json and from_json unchanged."""
        assert_one_verdict(default_config("aging"), (name,), value)

    @pytest.mark.parametrize("document", _DOCUMENTS, ids=".".join)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), value=_FIELD_VALUES)
    def test_nested_documents_refuse_exactly_what_from_json_refuses(
            self, document, data, value):
        """The same property for each field of each nested document."""
        path = data.draw(st.sampled_from(_scalar_paths(document)))
        assert_one_verdict(_NESTED_CONFIG, path, value)

    @pytest.mark.parametrize("path,value", [
        (("device", "ide", "finger_count"), 8.5),
        (("device", "ide", "finger_length"), math.inf),
        (("device", "rest_length"), math.nan),
        (("device", "loop", "turns"), True),
        (("calibration", "ide_finger_count"), 8.5),
    ], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
    def test_nested_fields_refuse_at_construction(self, path, value):
        with pytest.raises(DomainError, match=path[-1]):
            _replaced(_NESTED_CONFIG, path, value)

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


# seeds on both sides of each 32-bit word boundary, where numpy's entropy
# gains a word (from 2**64 on, mix_entropy's loop past the pool runs)
_WORD_EDGES = st.sampled_from(
    [0, 1] + [2 ** k + d for k in (32, 64, 96, 128) for d in (-1, 0, 1)])


class TestSeedDerivation:
    """_seed_words hashes every repeat's key as SeedSequence does."""

    def test_deterministic(self):
        a = _seed_words(3, 2, 3)
        b = _seed_words(3, 2, 3)
        assert a.tobytes() == b.tobytes()

    def test_distinct_across_indices(self):
        states = {tuple(row) for s in (0, 1) for row in _seed_words(s, 3, 3)}
        assert len(states) == 18

    @settings(max_examples=150, deadline=None)
    @given(seed=_WORD_EDGES | st.integers(0, 2 ** 130), data=st.data(),
           n_grid=st.integers(1, 12), repeats=st.integers(1, 300))
    def test_words_state_and_draws_match_seed_sequence(self, seed, data,
                                                       n_grid, repeats):
        words = _seed_words(seed, n_grid, repeats)
        assert words.shape == (n_grid * repeats, 4)
        keys = {(0, 0), (n_grid - 1, repeats - 1),
                (data.draw(st.integers(0, n_grid - 1)),
                 data.draw(st.integers(0, repeats - 1)))}
        for gi, ri in keys:
            row = words[gi * repeats + ri]
            reference = oracles.reference_noise_seed(seed, gi, ri)
            want = reference.generate_state(4, np.uint64)
            assert row.dtype == want.dtype and row.shape == want.shape
            assert row.tobytes() == want.tobytes()
            ours = np.random.PCG64(_repeat_seed_class()(row))
            numpys = np.random.PCG64(reference)
            assert ours.state == numpys.state
            assert (np.random.Generator(ours).normal(size=8).tobytes()
                    == np.random.Generator(numpys).normal(size=8).tobytes())

    @pytest.mark.parametrize("request_", [(4, np.uint32), (8, np.uint32),
                                          (2, np.uint64), (8, np.uint64),
                                          (4, np.int64), (4, np.float64)])
    def test_repeat_seed_refuses_other_requests(self, request_):
        seed = _repeat_seed_class()(_seed_words(0, 1, 1)[0])
        with pytest.raises(ValueError, match="4 uint64 words only"):
            seed.generate_state(*request_)

    @pytest.mark.parametrize("generator", [np.random.MT19937,
                                           np.random.Philox,
                                           np.random.SFC64])
    def test_other_generators_are_refused(self, generator):
        with pytest.raises(ValueError, match="4 uint64 words only"):
            generator(_repeat_seed_class()(_seed_words(0, 1, 1)[0]))

    def test_words_are_read_only(self):
        with pytest.raises(ValueError):
            _seed_words(0, 1, 1)[0, 0] = 1


def oracle_campaign(config):
    """run_experiment's sweep bytes, summary CSV and model JSON, with each
    repeat's noise seeded by its own SeedSequence."""
    clean = [p.sweeps[0] for p in run_experiment(
        replace(config, repeats=1, noise_sigma_db=0.0)).points]
    sweeps, lines, fit_points = [], ["measurand,mean_f0_hz,sd_f0_hz,n"], []
    for gi, x in enumerate(config.measurand_grid):
        ok = []
        for ri in range(config.repeats):
            noisy = add_noise(clean[gi], config.noise_sigma_db,
                              oracles.reference_noise_seed(config.seed, gi, ri))
            sweeps.append(noisy.magnitude_db.tobytes())
            try:
                ok.append(extract_resonance(noisy, config.min_depth_db).f0_hat)
            except (NoResonance, GridTooCoarse):
                pass
        mean = math.fsum(ok) / len(ok) if ok else math.nan
        sd = (math.sqrt(math.fsum((f - mean) ** 2 for f in ok) / (len(ok) - 1))
              if len(ok) >= 2 else 0.0 if ok else math.nan)
        lines.append(f"{x!r},{mean!r},{sd!r},{len(ok)}")
        if ok:
            fit_points.append((x, mean))
    summary = fit_linear(fit_points, MODE_SPECS[config.mode].unit)
    return sweeps, "\n".join(lines) + "\n", summary.to_json()


@settings(max_examples=12, deadline=None)
@given(seed=st.sampled_from([0, 7, 2 ** 32 + 3, 2 ** 64 + 1]),
       repeats=st.integers(1, 4), sigma=st.sampled_from([0.05, 0.3, 2.0]),
       mode=st.sampled_from(["graft_pressure", "epicardial_strain"]))
def test_run_experiment_matches_the_seed_sequence_loop(seed, repeats, sigma,
                                                       mode):
    config = default_config(mode, seed=seed, repeats=repeats,
                            noise_sigma_db=sigma, n_points=401)
    result = run_experiment(config)
    sweeps = [s.magnitude_db.tobytes() for p in result.points for s in p.sweeps]
    assert ((sweeps, result.to_summary_csv(), result.summary.to_json())
            == oracle_campaign(config))


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

    def test_target_below_the_model_floor_fails(self, device, baseline_cal):
        """1e-30 Hz per percent is below the slope at the smallest coupling
        searched, 1e-9 of the largest."""
        with pytest.raises(CalibrationFailed,
                           match="^target sensitivity below the model floor$"):
            fit_scenario_coupling("epicardial_strain", 1e-30,
                                  device, baseline_cal)

    def test_a_root_off_the_target_fails(self, device, baseline_cal,
                                         monkeypatch):
        """The root is checked against the target: a solver that returns
        the bracket's low end leaves more than 2% of it."""
        monkeypatch.setattr(scenarios, "_brentq",
                            lambda f, xa, xb, **tolerances: xa)
        with pytest.raises(CalibrationFailed,
                           match=r"^coupling fit residual -2\.9e\+06 Hz$"):
            fit_scenario_coupling("epicardial_strain", 2.9e6,
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

    def test_in_band_natural_slope_keeps_unit_coupling(self):
        # at 3 GHz the natural gap response, 3.04 MHz/%, is within the
        # 0.3 MHz/% band of 2.9 MHz/%, so no coupling is fitted
        cfg = default_config("epicardial_strain", target_f0=3.0e9,
                             f_start=2.8e9, f_stop=3.3e9, repeats=2)
        assert run_experiment(cfg).coupling == 1.0

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
        with pytest.raises(DegenerateInput, match=(
                r"^need at least 2 points, got 0: 5 of 5 grid points and 5 "
                r"of 5 repeats have no estimate at noise_sigma_db 0\.0$")):
            run_experiment(cfg)

    def test_estimates_too_far_apart_for_an_sd_are_degenerate(self):
        """Two repeats of pure noise on a 7-point grid up to 1e160 Hz read
        dips at 6.7e159 and 8.3e159 Hz. Their sum is finite, but each
        deviation from the mean squares past the float range."""
        config = default_config(
            "aging", measurand_grid=(0.0, 1.0), f_start=1e150, f_stop=1e160,
            n_points=7, repeats=2, noise_sigma_db=1.0, min_depth_db=0.1,
            seed=10)
        with pytest.raises(DegenerateInput, match=(
                r"^repeat estimates at 1\.0 too far apart for a mean and sd "
                r"in float range$")):
            run_experiment(config)

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
