"""The campaign plan cache: what it keeps, what it keys apart, its bound."""

import sys
import threading
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from maicas import scenarios
from maicas.circuit import calibrate_baseline
from maicas.errors import (CalibrationFailed, DomainError, MaicasError,
                           OutOfModelRange)
from maicas.geometry import DeviceGeometry, SubstrateStack
from maicas.readout import fit_reader
from maicas.scenarios import (MODES, default_config, fit_scenario_coupling,
                              run_experiment)


@pytest.mark.parametrize("call,error", [
    (lambda d, c, cal: calibrate_baseline(d, 100e9), CalibrationFailed),
    (lambda d, c, cal: calibrate_baseline(d, -1.0), DomainError),
    (lambda d, c, cal: fit_reader(c, 0.5), DomainError),
    (lambda d, c, cal: fit_reader(c, -200.0), CalibrationFailed),
    (lambda d, c, cal: fit_scenario_coupling("joint_bend", 4.885e6, d, cal),
     CalibrationFailed),
    (lambda d, c, cal: fit_scenario_coupling("media_stability", 1e6, d, cal),
     DomainError),
])
def test_a_failing_fit_raises_on_every_call(device, rest_circuit,
                                            baseline_cal, call, error):
    for _ in range(3):
        with pytest.raises(error):
            call(device, rest_circuit, baseline_cal)


def campaign_bytes(config):
    """What a campaign writes: summary.csv, model.json and the bytes of
    every noisy sweep; or the type and message of its MaicasError."""
    try:
        result = run_experiment(config)
    except MaicasError as exc:
        return type(exc), str(exc)
    sweeps = [(s.f_start, s.f_stop, s.n_points, s.magnitude_db.tobytes())
              for point in result.points for s in point.sweeps]
    return (result.to_summary_csv(), result.summary.to_json(),
            result.coupling, sweeps)


@settings(max_examples=30, deadline=None)
@given(mode=st.sampled_from(MODES), seed=st.integers(0, 2 ** 64 - 1),
       repeats=st.integers(1, 3),
       sigma=st.sampled_from([0.0, 0.05, 0.3]) | st.floats(0.0, 2.0),
       n_points=st.integers(5, 401),
       min_depth=st.sampled_from([3.0, 0.5, 12.0]))
def test_run_experiment_matches_the_plain_plan(mode, seed, repeats, sigma,
                                               n_points, min_depth):
    config = default_config(mode, seed=seed, repeats=repeats,
                            noise_sigma_db=sigma, n_points=n_points,
                            min_depth_db=min_depth)
    kept = campaign_bytes(config)
    with mock.patch.object(scenarios, "_plan", scenarios._plan.__wrapped__):
        plain = campaign_bytes(config)
    assert kept == plain
    assert campaign_bytes(config) == kept


@pytest.fixture()
def spectra(monkeypatch):
    """The clean spectra campaigns compute from now on, one list entry
    each."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    original = scenarios.s11_spectrum
    monkeypatch.setattr(scenarios, "s11_spectrum", counting)
    return calls


# an f_start no other test uses, so each test below starts with no plan
def fresh_config(offset, **fields):
    return default_config("epicardial_strain", n_points=201,
                          f_start=1.5e9 + offset, **fields)


def test_noise_side_fields_share_one_plan(spectra):
    config = fresh_config(101.0)
    run_experiment(config)
    assert len(spectra) == len(config.measurand_grid)
    for fields in ({"seed": 7}, {"repeats": 2}, {"noise_sigma_db": 0.0},
                   {"noise_sigma_db": 0.5}, {"min_depth_db": 1.5},
                   {"seed": 3, "repeats": 1, "noise_sigma_db": 0.2,
                    "min_depth_db": 4.0}):
        run_experiment(replace(config, **fields))
    assert len(spectra) == len(config.measurand_grid)


@pytest.mark.parametrize("fields", [
    {"device": DeviceGeometry(rest_length=12_000.0)},
    {"measurand_grid": (0.0, 5.0, 10.0)},
    {"measurand_grid": (-0.0, 5.0, 10.0, 15.0, 20.0)},
    {"f_start": 1.5e9 + 203.0},
    {"strain_scale": 0.5},
    {"n_points": 203},
], ids=["device", "grid", "signed-zero-grid", "f_start", "coupling",
        "n_points"])
def test_other_fields_get_their_own_plan(spectra, fields):
    """Every field but the four noise-side ones is in the key."""
    config = fresh_config(202.0)
    assert config.measurand_grid[0] == 0.0
    run_experiment(config)
    before = len(spectra)
    changed = replace(config, **fields)
    run_experiment(changed)
    assert len(spectra) == before + len(changed.measurand_grid)
    run_experiment(replace(changed, seed=5))
    assert len(spectra) == before + len(changed.measurand_grid)


@pytest.mark.parametrize("a,b", [
    pytest.param({"device": DeviceGeometry(poisson_ratio=0.0),
                  "strain_scale": 1.0},
                 {"device": DeviceGeometry(poisson_ratio=-0.0),
                  "strain_scale": 1.0},
                 id="0.0--0.0"),
])
def test_equal_arguments_that_differ_get_their_own_entries(spectra, a, b):
    """Configs that compare equal but differ inside the device (-0.0 for
    0.0) get a plan each, and the first keeps its own."""
    first, second = fresh_config(602.0, **a), fresh_config(602.0, **b)
    assert first == second
    run_experiment(first)
    before = len(spectra)
    run_experiment(second)
    assert len(spectra) == before + len(second.measurand_grid)
    run_experiment(replace(first, seed=5))
    assert len(spectra) == before + len(second.measurand_grid)


def test_an_int_for_a_float_field_shares_the_plan(spectra):
    """An int given for a float field is stored as a float, so the config
    is the one built with the float, and the two share a plan."""
    first = fresh_config(603.0, device=DeviceGeometry(
        stack=SubstrateStack(metal_thickness=30.0)))
    second = fresh_config(603.0, device=DeviceGeometry(
        stack=SubstrateStack(metal_thickness=30)))
    assert repr(first) == repr(second)
    run_experiment(first)
    before = len(spectra)
    run_experiment(second)
    assert len(spectra) == before


def test_a_warm_run_builds_no_config(spectra, monkeypatch):
    """run_experiment keys its plan from a copy of the config it is given,
    not from a second ExperimentConfig, so a warm run builds none."""
    built = []

    def counting(self):
        built.append(self)
        original(self)

    original = scenarios.ExperimentConfig.__post_init__
    config = fresh_config(605.0)
    run_experiment(config)
    before = len(spectra)
    monkeypatch.setattr(scenarios.ExperimentConfig, "__post_init__",
                        counting)
    warm = replace(config, seed=5)
    assert len(built) == 1
    run_experiment(warm)
    run_experiment(config)
    assert len(built) == 1
    assert len(spectra) == before


def test_failures_are_recomputed_not_kept(monkeypatch):
    """A calibration that fails is tried again on every call."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    original = scenarios.calibrate_baseline
    monkeypatch.setattr(scenarios, "calibrate_baseline", counting)
    config = fresh_config(604.0, target_f0=100e9)
    for seed in range(3):
        with pytest.raises(CalibrationFailed):
            run_experiment(replace(config, seed=seed))
    assert len(calls) == 3


def test_size_is_bounded_and_least_recently_used_goes_first(spectra,
                                                            baseline_cal):
    """32 plans are kept; one more drops the least recently used. Each
    plan computes one spectrum per grid point, two here."""
    plans = [default_config("aging", measurand_grid=(0.0, 1.0), n_points=5,
                            f_start=1.5e9 + 400.0 + k, calibration=baseline_cal)
             for k in range(33)]
    for config in plans[:32]:
        scenarios.campaign_plan(config)
    assert len(spectra) == 2 * 32
    scenarios.campaign_plan(plans[0])   # the first is now the most recent
    scenarios.campaign_plan(plans[32])  # one past the bound: the second goes
    assert len(spectra) == 2 * 33
    spectra.clear()
    scenarios.campaign_plan(plans[0])
    scenarios.campaign_plan(plans[1])
    assert [args[2] for args in spectra] == [plans[1].f_start] * 2


def test_concurrent_callers_each_get_their_own_value():
    """Four threads share cold plans; each campaign's bytes are those of a
    serial run with the plain plan."""
    configs = [fresh_config(500.0 + k, repeats=1, seed=k)
               for k in range(4)]
    with mock.patch.object(scenarios, "_plan", scenarios._plan.__wrapped__):
        want = [campaign_bytes(config) for config in configs]
    wrong = []

    def worker(offset):
        try:
            for i in range(12):
                k = (i + offset) % len(configs)
                if campaign_bytes(configs[k]) != want[k]:
                    wrong.append(k)
        except Exception as exc:  # a worker's error must fail the test
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_a_failing_plan_raises_on_every_call(spectra):
    """The third grid point leaves the strain validity window after two
    spectra; each call computes them again and raises again."""
    config = fresh_config(303.0, measurand_grid=(0.0, 5.0, 1000.0),
                          strain_scale=1.0)
    for calls in (1, 2, 3):
        with pytest.raises(OutOfModelRange):
            run_experiment(replace(config, seed=calls))
        assert len(spectra) == 2 * calls
