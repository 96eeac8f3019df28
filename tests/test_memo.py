"""The bounded per-process memo on the seed-independent fits."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from maicas._memo import MEMO_SIZE, memo
from maicas.circuit import LumpedCircuit, calibrate_baseline
from maicas.errors import CalibrationFailed, DomainError, MaicasError
from maicas.geometry import (DeviceGeometry, IdeGeometry, LoopGeometry,
                             SubstrateStack)
from maicas.readout import fit_reader
from maicas.scenarios import fit_scenario_coupling

devices = st.builds(
    DeviceGeometry,
    ide=st.builds(IdeGeometry,
                  finger_count=st.integers(2, 32),
                  finger_length=st.floats(500.0, 8000.0),
                  trace_width=st.floats(20.0, 300.0),
                  gap=st.floats(10.0, 200.0)),
    loop=st.builds(LoopGeometry,
                   outer_side=st.floats(6.0, 14.0),
                   turns=st.integers(1, 3)),
    stack=st.builds(SubstrateStack,
                    substrate_rel_permittivity=st.floats(1.5, 4.0)))

# documented sensitivity of each coupled mode, Hz per unit
SENSITIVITIES = {"epicardial_strain": 2.9e6, "graft_pressure": 0.43e6,
                 "stent_displacement": 0.31e6, "joint_bend": 1.0e6}


def outcome(function, *args):
    """The return value, or the type and message of the MaicasError."""
    try:
        return function(*args)
    except MaicasError as exc:
        return type(exc), str(exc)


def assert_memo_matches_plain(function, *args):
    first = outcome(function, *args)
    assert first == outcome(function.__wrapped__, *args)
    assert outcome(function, *args) == first


@settings(max_examples=25, deadline=None)
@given(device=devices, target_f0=st.floats(1.5e9, 2.0e9),
       depth=st.floats(-20.0, -8.0))
def test_calibrate_baseline_matches_the_plain_fit(device, target_f0, depth):
    assert_memo_matches_plain(calibrate_baseline, device, target_f0, depth)


@settings(max_examples=25, deadline=None)
@given(circuit=st.builds(LumpedCircuit,
                         inductance=st.floats(5e-9, 50e-9),
                         capacitance=st.floats(0.1e-12, 2e-12),
                         resistance=st.floats(0.5, 20.0)),
       depth=st.floats(-30.0, -3.0))
def test_fit_reader_matches_the_plain_fit(circuit, depth):
    assert_memo_matches_plain(fit_reader, circuit, depth)


@settings(max_examples=15, deadline=None)
@given(mode=st.sampled_from(sorted(SENSITIVITIES)),
       factor=st.floats(0.2, 3.0),
       rest_length=st.floats(5000.0, 20000.0),
       poisson_ratio=st.floats(0.3, 0.5))
def test_fit_scenario_coupling_matches_the_plain_fit(
        baseline_cal, mode, factor, rest_length, poisson_ratio):
    device = DeviceGeometry(rest_length=rest_length,
                            poisson_ratio=poisson_ratio)
    assert_memo_matches_plain(fit_scenario_coupling, mode,
                              factor * SENSITIVITIES[mode], device,
                              baseline_cal)


def test_a_repeated_call_returns_the_kept_value(device, rest_circuit,
                                                baseline_cal):
    assert calibrate_baseline(device, 1.71e9, -14.0) is \
        calibrate_baseline(device, 1.71e9, -14.0)
    assert fit_reader(rest_circuit, -14.0) is fit_reader(rest_circuit, -14.0)
    assert fit_scenario_coupling("graft_pressure", 0.43e6, device,
                                 baseline_cal) is \
        fit_scenario_coupling("graft_pressure", 0.43e6, device, baseline_cal)


@pytest.mark.parametrize("a,b", [
    (8, 8.0),
    (0.0, -0.0),
    (DeviceGeometry(ide=IdeGeometry(finger_count=8)),
     DeviceGeometry(ide=IdeGeometry(finger_count=8.0))),
    (DeviceGeometry(poisson_ratio=0.0), DeviceGeometry(poisson_ratio=-0.0)),
])
def test_equal_arguments_that_differ_get_their_own_entries(a, b):
    assert a == b
    echo = memo(lambda x: x)
    assert echo(a) is a
    assert echo(b) is b
    assert echo(a) is a


def test_the_fits_keep_int_float_and_signed_zero_apart(rest_circuit):
    by_int = fit_reader(rest_circuit, -14)
    by_float = fit_reader(rest_circuit, -14.0)
    assert by_int == by_float and by_int is not by_float
    plus = calibrate_baseline(DeviceGeometry(poisson_ratio=0.0))
    minus = calibrate_baseline(DeviceGeometry(poisson_ratio=-0.0))
    assert plus == minus and plus is not minus


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


def test_failures_are_recomputed_not_kept():
    calls = []

    def failing(x):
        calls.append(x)
        raise DomainError("no fit")

    fit = memo(failing)
    for _ in range(3):
        with pytest.raises(DomainError):
            fit(1)
    assert calls == [1, 1, 1]


def test_size_is_bounded_and_least_recently_used_goes_first():
    calls = []

    def square(x):
        calls.append(x)
        return x * x

    fit = memo(square)
    for x in range(MEMO_SIZE):
        fit(x)
    fit(0)          # 0 becomes the most recently used
    fit(MEMO_SIZE)  # one past the size: drops 1, the least recently used
    calls.clear()
    assert fit(0) == 0 and fit(1) == 1
    assert calls == [1]


def test_concurrent_callers_each_get_their_own_value():
    fit = memo(lambda x: x * x)
    wrong = []

    def worker(offset):
        try:
            for i in range(30000):
                x = (i * 7 + offset) % (2 * MEMO_SIZE)
                if fit(x) != x * x:
                    wrong.append(x)
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
