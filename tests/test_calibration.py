import json
from importlib import resources

import numpy as np
import pytest

import oracles
from maicas.calibration import (MEASURAND_UNITS, AgingSeries,
                                CalibrationModel, cycle_series,
                                drift_metrics, fit_linear, invert,
                                parse_points, repeatability_metrics)
from maicas.errors import (DegenerateInput, DegenerateModel, DomainError,
                           IncompleteCycle)


def bundled_points(name):
    text = resources.files("maicas.data").joinpath(name).read_text()
    return parse_points(text, name)


class TestFitLinear:
    def test_matches_least_squares_oracle(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(20):
            n = int(rng.integers(3, 40))
            xs = rng.uniform(-10, 10, n)
            ys = 1.7e9 + 2.9e6 * xs + rng.normal(0, 1e6, n)
            model = fit_linear(list(zip(xs, ys)), "percent-strain")
            slope, intercept, r2, resid = oracles.ols_oracle(xs, ys)
            assert model.slope == pytest.approx(slope, rel=1e-9)
            assert model.intercept == pytest.approx(intercept, rel=1e-9)
            assert model.r_squared == pytest.approx(r2, rel=1e-9)
            assert model.residual_sd == pytest.approx(resid, rel=1e-9)

    def test_matches_polyfit(self):
        xs = np.arange(10.0)
        ys = 5.0 + 3.0 * xs + np.sin(xs)
        model = fit_linear(list(zip(xs, ys)), "mmHg")
        b, a = np.polyfit(xs, ys, 1)
        assert model.slope == pytest.approx(b, rel=1e-12)
        assert model.intercept == pytest.approx(a, rel=1e-12)

    def test_two_points_fit_exactly(self):
        model = fit_linear([(0.0, 1.70e9), (10.0, 1.73e9)], "percent-strain")
        assert model.slope == pytest.approx(3.0e6, rel=1e-12)
        assert model.r_squared == 1.0
        assert model.residual_sd == 0.0

    def test_exact_line_has_unit_r_squared(self):
        pts = [(x, 2.0e9 - 4.0e5 * x) for x in range(8)]
        model = fit_linear(pts, "um")
        assert model.r_squared == pytest.approx(1.0, abs=1e-12)
        assert model.residual_sd < 1e-3

    def test_y_range_recorded(self):
        pts = [(0.0, 1.70e9), (5.0, 1.72e9), (10.0, 1.74e9)]
        model = fit_linear(pts, "degrees")
        assert model.y_min == 1.70e9
        assert model.y_max == 1.74e9

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateInput):
            fit_linear([(1.0, 1.7e9)], "mmHg")
        with pytest.raises(DegenerateInput):
            fit_linear([(2.0, 1.7e9), (2.0, 1.8e9)], "mmHg")

    def test_rejects_unknown_unit(self):
        with pytest.raises(DomainError):
            fit_linear([(0.0, 1.7e9), (1.0, 1.8e9)], "furlongs")

    def test_known_units(self):
        for unit in ("percent-strain", "mmHg", "um", "degrees"):
            assert unit in MEASURAND_UNITS


class TestModelJson:
    def test_round_trip(self):
        model = fit_linear([(0.0, 1.7e9), (5.0, 1.72e9), (9.0, 1.74e9)],
                           "mmHg")
        again = CalibrationModel.from_json(model.to_json())
        assert again == model

    def test_fields_present(self):
        model = fit_linear([(0.0, 1.7e9), (1.0, 1.8e9)], "um")
        obj = json.loads(model.to_json())
        assert set(obj) == {"intercept", "slope", "r_squared", "residual_sd",
                            "measurand_unit", "n_points", "y_min", "y_max"}

    @pytest.mark.parametrize("field,value", [
        ("slope", None), ("slope", True), ("slope", "1e6"),
        ("slope", float("nan")), ("y_max", float("inf")),
        ("n_points", 2.5), ("measurand_unit", 3),
    ])
    def test_rejects_wrong_types_and_non_finite(self, field, value):
        obj = json.loads(fit_linear([(0.0, 1.7e9), (1.0, 1.8e9)],
                                    "um").to_json())
        obj[field] = value
        with pytest.raises(DomainError):
            CalibrationModel.from_json(json.dumps(obj))

    @pytest.mark.parametrize("text", ["", "[]", "null", '{"slope": 1.0'])
    def test_rejects_non_objects(self, text):
        with pytest.raises(DomainError):
            CalibrationModel.from_json(text)


class TestInvert:
    def test_round_trip_through_forward_model(self):
        model = fit_linear([(0.0, 1.70e9), (4.0, 1.712e9), (8.0, 1.724e9)],
                           "percent-strain")
        for x in (0.5, 3.0, 7.5):
            f = model.intercept + model.slope * x
            assert invert(model, f).value == pytest.approx(x, rel=1e-12)

    def test_intercept_maps_to_zero(self):
        model = fit_linear([(0.0, 1.70e9), (10.0, 1.73e9)], "percent-strain")
        assert invert(model, model.intercept).value == 0.0

    def test_graft_pressure_example(self):
        model = fit_linear(bundled_points("pressure.csv"), "mmHg")
        got = invert(model, 1.7195e9)
        want = (1.7195e9 - 1.6545e9) / 0.432e6
        tolerance = max(model.residual_sd / abs(model.slope), 1e-9)
        assert abs(got.value - want) <= tolerance
        assert got.value == pytest.approx(150.46, abs=0.5)

    def test_extrapolation_flag_uses_frequency_range(self):
        model = fit_linear([(0.0, 1.70e9), (5.0, 1.72e9), (10.0, 1.74e9)],
                           "mmHg")
        assert not invert(model, 1.71e9).extrapolated
        assert not invert(model, 1.70e9).extrapolated   # boundary inclusive
        assert not invert(model, 1.74e9).extrapolated
        assert invert(model, 1.699e9).extrapolated
        assert invert(model, 1.741e9).extrapolated

    def test_negative_slope_extrapolation(self):
        model = fit_linear([(0.0, 1.74e9), (10.0, 1.70e9)], "um")
        assert not invert(model, 1.72e9).extrapolated
        assert invert(model, 1.75e9).extrapolated

    def test_zero_slope_rejected(self):
        model = CalibrationModel(1.7e9, 0.0, 0.0, 1e5, "mmHg", 5,
                                 1.69e9, 1.71e9)
        with pytest.raises(DegenerateModel):
            invert(model, 1.7e9)

    @pytest.mark.parametrize("intercept, slope, f0", [
        (1.7e9, 1e-310, 1.75e9),          # finite slope, quotient overflows
        (-1.5e308, 1.0, 1.5e308),         # f0 - intercept overflows
    ])
    def test_overflowing_inversion_rejected(self, intercept, slope, f0):
        model = CalibrationModel(intercept, slope, 1.0, 1e5, "mmHg", 5,
                                 1.69e9, 1.71e9)
        with pytest.raises(DegenerateModel):
            invert(model, f0)

    @pytest.mark.parametrize("f0", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_f0_rejected(self, f0):
        model = fit_linear([(0.0, 1.70e9), (10.0, 1.73e9)], "mmHg")
        with pytest.raises(DomainError):
            invert(model, f0)


class TestCycleSeries:
    def make(self, jitter_hz=0.0, cycles=5, seed=2):
        rng = np.random.Generator(np.random.PCG64(seed))
        entries = []
        for i in range(1, cycles + 1):
            entries.append((i, "loaded",
                            1.725e9 + rng.uniform(-jitter_hz, jitter_hz)))
            entries.append((i, "released",
                            1.710e9 + rng.uniform(-jitter_hz, jitter_hz)))
        return cycle_series(entries)

    def test_perfect_return_gives_zero_error(self):
        metrics = repeatability_metrics(self.make(jitter_hz=0.0))
        assert metrics.max_return_error == 0.0
        assert metrics.hysteresis_span == 0.0
        assert metrics.mean_loaded_f0 == pytest.approx(1.725e9)
        assert metrics.mean_released_f0 == pytest.approx(1.710e9)

    def test_jittered_return_error_bounded(self):
        metrics = repeatability_metrics(self.make(jitter_hz=0.5e6))
        assert 0.0 < metrics.max_return_error <= 1.0e6
        assert metrics.hysteresis_span <= 1.0e6

    def test_return_error_references_first_release(self):
        series = cycle_series([
            (1, "loaded", 1.725e9), (1, "released", 1.710e9),
            (2, "loaded", 1.725e9), (2, "released", 1.7102e9),
            (3, "loaded", 1.725e9), (3, "released", 1.7094e9),
        ])
        metrics = repeatability_metrics(series)
        assert metrics.max_return_error == pytest.approx(0.6e6, rel=1e-9)

    def test_missing_phase_rejected(self):
        with pytest.raises(IncompleteCycle):
            cycle_series([(1, "loaded", 1.7e9), (1, "released", 1.71e9),
                          (2, "loaded", 1.7e9)])

    def test_gap_in_cycle_indices_rejected(self):
        with pytest.raises(IncompleteCycle):
            cycle_series([(1, "loaded", 1.7e9), (1, "released", 1.71e9),
                          (3, "loaded", 1.7e9), (3, "released", 1.71e9)])

    def test_unknown_phase_rejected(self):
        with pytest.raises(DomainError):
            cycle_series([(1, "half-loaded", 1.7e9), (1, "released", 1.7e9)])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            cycle_series([])


class TestAging:
    def test_flat_noisy_series_has_negligible_drift(self):
        rng = np.random.Generator(np.random.PCG64(17))
        days = [float(d) for d in range(0, 17 * 7, 7)]
        entries = [(d, 1.71e9 + rng.normal(0.0, 0.2e6)) for d in days]
        metrics = drift_metrics(AgingSeries(tuple(entries)))
        assert abs(metrics.slope_hz_per_day) < 0.1e6
        assert abs(metrics.total_shift_hz) < 1.0e6

    def test_constant_series_has_exactly_zero_slope(self):
        series = AgingSeries(tuple((float(d), 1.71e9) for d in (0, 7, 14)))
        metrics = drift_metrics(series)
        assert metrics.slope_hz_per_day == 0.0
        assert metrics.total_shift_hz == 0.0

    def test_linear_drift_recovered(self):
        series = AgingSeries(tuple((float(d), 1.71e9 - 5e3 * d)
                                   for d in range(0, 113, 7)))
        metrics = drift_metrics(series)
        assert metrics.slope_hz_per_day == pytest.approx(-5e3, rel=1e-9)

    def test_must_start_at_day_zero(self):
        with pytest.raises(DomainError):
            AgingSeries(((1.0, 1.71e9), (2.0, 1.71e9)))

    def test_days_strictly_increasing(self):
        with pytest.raises(DomainError):
            AgingSeries(((0.0, 1.71e9), (7.0, 1.71e9), (7.0, 1.72e9)))

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            AgingSeries(())


class TestPointsCsv:
    def test_comments_skipped(self):
        pts = parse_points("# table\nx,y_hz\n0.0,1.7e9\n1.0,1.71e9\n")
        assert pts == [(0.0, 1.7e9), (1.0, 1.71e9)]

    @pytest.mark.parametrize("body", [
        "x\n0.0\n", "x,y_hz\n0.0\n", "x,y_hz\n0.0,abc\n", "",
        "x,y_hz\n0.0,1.7e9\n1.0,nan\n2.0,1.72e9\n",
        "x,y_hz\n0.0,1.7e9\ninf,1.71e9\n2.0,1.72e9\n",
    ])
    def test_rejects_malformed(self, body):
        with pytest.raises(DomainError):
            parse_points(body)

    @pytest.mark.parametrize("name,slope_hz,unit", [
        ("strain.csv", 2.94e6, "percent-strain"),
        ("pressure.csv", 0.432e6, "mmHg"),
        ("displacement.csv", 0.31e6, "um"),
        ("bend.csv", 4.885057e6, "degrees"),
    ])
    def test_bundled_tables_fit_expected_slopes(self, name, slope_hz, unit):
        model = fit_linear(bundled_points(name), unit)
        assert model.slope == pytest.approx(slope_hz, rel=1e-4)
        assert model.r_squared > 0.97
