import contextlib
import functools
import io
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maicas.calibration import fit_linear
from maicas.circuit import ModelCalibration, calibrate_baseline
from maicas.cli import main
from maicas.geometry import DeviceGeometry
from maicas.readout import add_noise, s11_spectrum
from maicas.scenarios import MODES, default_config
from maicas.sweepio import write_sweep
from maicas.telemetry import encode_frame, read_log, split_dump, start_server

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"
SUBCOMMANDS = ("simulate", "extract", "fit", "invert", "calibrate-baseline",
               "serve", "gateway", "replay")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fixed_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("LINES", raising=False)


class TestHelp:
    def test_top_level_snapshot(self, capsys, fixed_columns):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert out == (SNAPSHOT_DIR / "help_main.txt").read_text()

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_snapshot(self, capsys, fixed_columns, name):
        code, out, _ = run_cli(capsys, name, "--help")
        assert code == 0
        assert out == (SNAPSHOT_DIR / f"help_{name.replace('-', '_')}.txt").read_text()


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "fit", "--points", "strain.csv",
                             "--frobnicate")
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "transmogrify")
        assert code == 2

    def test_domain_error_is_json_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--points", "no-such.csv")
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert "no-such.csv" in payload["message"]

    def test_missing_file_is_reported_not_raised(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "extract",
                               str(tmp_path / "missing.s1p"))
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFoundError"


class TestArgumentRefusals:
    """Argument combinations main() refuses before it reads or writes a
    file: exit 1 with one JSON line naming DomainError."""

    @pytest.mark.parametrize("argv,message", [
        (("simulate", "--out", "{tmp}/run"),
         "one of --config or --mode is required"),
        (("serve", "--frames", "{tmp}/x.bin", "--mode", "aging", "--port", "0"),
         "--frames and --config/--mode are mutually exclusive; pass either "
         "a recorded dump or an experiment to synthesize"),
        (("replay", "--frames", "{tmp}/x.bin", "--mode", "aging",
          "--out", "{tmp}/y.bin"),
         "--frames and --config/--mode are mutually exclusive; pass either "
         "a recorded dump or an experiment to synthesize"),
        (("replay", "--frames", "{tmp}/x.bin", "--log", "{tmp}/x.ndjson"),
         "--log requires --model for inversion"),
    ])
    def test_refused(self, capsys, tmp_path, argv, message):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "DomainError", "message": message}
        assert list(tmp_path.iterdir()) == []


DEFECTS = ("malformed", "missing_key", "unknown_key", "non_numeric")


def broken_json(obj: dict, defect: str, numeric_key: str) -> str:
    """A JSON document with one defect, on numeric_key where it names a
    field."""
    obj = dict(obj)
    if defect == "malformed":
        return json.dumps(obj)[:-1]
    if defect == "missing_key":
        del obj[numeric_key]
    elif defect == "unknown_key":
        obj["colour"] = "blue"
    else:
        obj[numeric_key] = "steep"
    return json.dumps(obj)


def assert_one_error_line(capsys, *argv, error="DomainError"):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


class TestStrictJson:
    """A defective model or config file is exit 1 with one JSON error line
    on stderr, never a traceback."""

    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("command", ["invert", "extract", "replay"])
    def test_bad_model(self, capsys, tmp_path, rest_circuit, reader,
                       command, defect):
        model = fit_linear([(50.0, 1.676e9), (200.0, 1.741e9)], "mmHg")
        model_path = tmp_path / "model.json"
        model_path.write_text(
            broken_json(json.loads(model.to_json()), defect, "slope"))
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 201)
        sweep_path = tmp_path / "sweep.s1p"
        write_sweep(sweep, sweep_path)
        dump = tmp_path / "frames.bin"
        dump.write_bytes(encode_frame(1, 0, sweep))
        log = tmp_path / "log.ndjson"
        argv = {
            "invert": ["invert", "--model", str(model_path),
                       "--f0", "1.7e9"],
            "extract": ["extract", str(sweep_path),
                        "--model", str(model_path)],
            "replay": ["replay", "--frames", str(dump),
                       "--model", str(model_path), "--log", str(log)],
        }[command]
        assert_one_error_line(capsys, *argv)
        assert not log.exists()

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        """json.loads raises a plain ValueError, not a JSONDecodeError, for
        an integer of more than 4,300 digits: still malformed JSON."""
        model_path = tmp_path / "big.json"
        model_path.write_text(f'{{"slope_hz_per_unit": {"9" * 5000}}}')
        assert_one_error_line(capsys, "invert", "--model", str(model_path),
                              "--f0", "1.7e9")

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_bad_simulate_config(self, capsys, tmp_path, defect):
        config = json.loads(default_config("graft_pressure").to_json())
        config_path = tmp_path / "config.json"
        config_path.write_text(
            broken_json(config, defect, "noise_sigma_db"))
        assert_one_error_line(capsys, "simulate", "--config",
                              str(config_path),
                              "--out", str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()


class TestInputBoundaries:
    """Negative seeds, non-finite numbers in input files, negative gateway
    counts and ports outside 0..65535 are exit 1 with one JSON error line,
    not a traceback, a NaN result or a run that does nothing."""

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_port_outside_the_u16_range(self, capsys, port):
        assert_one_error_line(capsys, "serve", "--mode", "aging",
                              "--port", port)

    @pytest.mark.parametrize("flags", [
        ("--port", "-1", "--max-connect-attempts", "1"),
        ("--port", "65536", "--max-connect-attempts", "1"),
        ("--max-frames", "-3"),
        ("--max-connect-attempts", "0")])
    def test_gateway_counts_and_port(self, capsys, tmp_path, flags):
        model = tmp_path / "model.json"
        model.write_text(fit_linear([(50.0, 1.676e9), (200.0, 1.741e9)],
                                    "mmHg").to_json())
        log = tmp_path / "log.ndjson"
        with socket.socket() as refuser:  # bound, never listening
            refuser.bind(("127.0.0.1", 0))
            # a --port in flags comes later and wins
            assert_one_error_line(
                capsys, "gateway", "--model", str(model), "--log", str(log),
                "--port", str(refuser.getsockname()[1]), *flags)
        assert not log.exists()

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_sigma_flag(self, capsys, tmp_path, sigma):
        assert_one_error_line(capsys, "simulate", "--mode", "aging",
                              "--out", str(tmp_path / "run"),
                              "--sigma-db", sigma)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("interval_ms", ["inf", "nan", "-5", "1e13"])
    def test_serve_interval_outside_bounds(self, capsys, interval_ms):
        # checked before binding: the busy port would be an OSError
        with socket.create_server(("127.0.0.1", 0)) as busy:
            assert_one_error_line(capsys, "serve", "--mode", "aging",
                                  "--port", str(busy.getsockname()[1]),
                                  "--interval-ms", interval_ms)

    def test_negative_seed_flag(self, capsys, tmp_path):
        assert_one_error_line(capsys, "simulate", "--mode", "aging",
                              "--out", str(tmp_path / "run"), "--seed", "-1")
        assert not (tmp_path / "run").exists()

    def test_negative_seed_in_config(self, capsys, tmp_path):
        config = json.loads(default_config("aging").to_json())
        config["seed"] = -1
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert_one_error_line(capsys, "simulate", "--config", str(config_path),
                              "--out", str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    def test_nan_row_in_points(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("x,y_hz\n0.0,1.7e9\n1.0,nan\n2.0,1.72e9\n")
        assert_one_error_line(capsys, "fit", "--points", str(points))

    @pytest.mark.parametrize("name", ["sweep.csv", "sweep.s1p"])
    def test_nan_magnitude_in_sweep(self, capsys, tmp_path, rest_circuit,
                                    reader, name):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 201)
        mags = sweep.magnitude_db
        path = tmp_path / name
        # the writers refuse a NaN sample, so the file is edited after
        write_sweep(sweep, path)
        text = path.read_text()
        path.write_text(text.replace(
            repr(float(mags[int(np.argmin(mags)) + 1])), "nan", 1))
        assert path.read_text().count("nan") == 1
        assert_one_error_line(capsys, "extract", str(path))

    @pytest.mark.parametrize("threshold", ["nan", "0"])
    def test_threshold_flag_outside_bounds(self, capsys, tmp_path,
                                           rest_circuit, reader, threshold):
        path = tmp_path / "sweep.s1p"
        write_sweep(s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 201),
                    path)
        assert_one_error_line(capsys, "extract", str(path),
                              "--min-depth-db", threshold)

    @staticmethod
    def spoil_utf8(path: Path, keep: bytes) -> None:
        """Put a 0xff byte, which UTF-8 never uses, after the first keep."""
        path.write_bytes(path.read_bytes().replace(keep, keep + b"\xff", 1))

    @pytest.mark.parametrize("name", ["sweep.csv", "sweep.s1p"])
    def test_non_utf8_sweep(self, capsys, tmp_path, rest_circuit, reader,
                            name):
        path = tmp_path / name
        write_sweep(s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 201),
                    path)
        self.spoil_utf8(path, b"\n1")
        assert_one_error_line(capsys, "extract", str(path))

    def test_non_utf8_points(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("x,y_hz\n0.0,1.7e9\n1.0,1.71e9\n")
        self.spoil_utf8(points, b"1.0,")
        assert_one_error_line(capsys, "fit", "--points", str(points))

    @pytest.mark.parametrize("command", ["invert", "extract", "replay"])
    def test_non_utf8_model(self, capsys, tmp_path, rest_circuit, reader,
                            command):
        model = tmp_path / "model.json"
        model.write_text(fit_linear([(0.0, 1.7e9), (1.0, 1.71e9)],
                                    "mmHg").to_json())
        self.spoil_utf8(model, b'"mm')
        argv = {
            "invert": ["invert", "--f0", "1.7e9"],
            "extract": ["extract", str(tmp_path / "sweep.s1p")],
            "replay": ["replay", "--frames", str(tmp_path / "dump.bin"),
                       "--log", str(tmp_path / "log.ndjson")],
        }[command]
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 201)
        write_sweep(sweep, tmp_path / "sweep.s1p")
        (tmp_path / "dump.bin").write_bytes(encode_frame(1, 0, sweep))
        assert_one_error_line(capsys, *argv, "--model", str(model))

    @pytest.mark.parametrize("mode,path,value,error", [
        ("aging", ("device", "ide", "finger_count"), 10 ** 400, "DomainError"),
        ("aging", ("device", "loop", "turns"), 10 ** 400, "DomainError"),
        ("aging", ("device", "ide", "gap"), 1e308, "DomainError"),
        ("aging", ("device", "loop", "outer_side"), 1e308, "DomainError"),
        ("aging", ("target_f0",), 5e-324, "CalibrationFailed"),
        ("aging", ("target_depth_db",), -5e-324, "CalibrationFailed"),
        ("aging", ("measurand_grid",), [0.0, 1e200], "DegenerateInput"),
        ("epicardial_strain", ("f_stop",), 3.5e163, "DegenerateInput"),
        ("epicardial_strain", ("f_start",), 5e-324, "DegenerateInput"),
        ("graft_pressure", ("calibration", "ide_finger_length"), 1e308,
         "DomainError"),
        ("epicardial_strain", ("noise_sigma_db",), 8.98846567431158e307,
         "DegenerateInput"),
        # (1e306 mm in μm) · 0 rad is a NaN strain at the 0° grid point
        ("joint_bend", ("bend_radius",), 1e306, "OutOfModelRange"),
    ], ids=lambda v: ("/".join(v) if isinstance(v, tuple)
                      else "10**400" if v == 10 ** 400 else None))
    def test_extreme_config_value(self, capsys, tmp_path, baseline_cal,
                                  mode, path, value, error):
        """Finite values so extreme that the arithmetic would overflow or
        divide by zero are a named error, not a traceback."""
        cal = baseline_cal if path[0] == "calibration" else None
        config = json.loads(default_config(
            mode, n_points=201, repeats=2, calibration=cal).to_json())
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "simulate", "--config",
                                 str(config_path), "--out",
                                 str(tmp_path / "run"))
        assert (code, out, len(err.splitlines())) == (1, "", 1)
        assert json.loads(err)["error"] == error

    def test_points_beyond_float_squares(self, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("x,y_hz\n0,1e200\n1,-1e200\n2,1e200\n")
        code, out, err = run_cli(capsys, "fit", "--points", str(points))
        assert (code, out, len(err.splitlines())) == (1, "", 1)
        assert json.loads(err)["error"] == "DegenerateInput"

    @pytest.mark.parametrize("command", ["simulate", "calibrate-baseline"])
    def test_non_utf8_config(self, capsys, tmp_path, command):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": \xff}')
        argv = [command, "--config", str(config)]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "run")]
        assert_one_error_line(capsys, *argv)


# Any JSON value, nested a little, and numbers of every size and sign.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
# The extremes: subnormals, the largest floats, integers beyond them.
extremes = (st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308])
            .flatmap(lambda x: st.sampled_from([x, -x]))
            | st.integers(2 ** 1023, 2 ** 1100).flatmap(
                lambda n: st.sampled_from([n, -n])))
numbers = st.integers() | st.floats() | extremes
finite = st.floats(allow_nan=False, allow_infinity=False) | extremes

# Fields that set how much work a valid config asks for, and the values
# they may take, so each example stays fast.
SIZE_FIELDS = {
    "n_points": st.integers(-2, 301),
    "repeats": st.integers(-1, 3),
    "measurand_grid": st.lists(numbers, max_size=5),
}


@st.composite
def mutated(draw, template: dict):
    """template (a JSON object, nested objects included) with up to four
    edits: a value replaced, a key deleted, or an unknown key added."""
    obj = json.loads(json.dumps(template))
    for _ in range(draw(st.integers(0, 4))):
        parent = obj
        while parent:
            key = draw(st.sampled_from(sorted(parent)))
            if not (isinstance(parent[key], dict) and parent[key]
                    and draw(st.booleans())):
                break
            parent = parent[key]
        action = draw(st.sampled_from(["replace"] * 4 + ["delete", "add"]))
        if action == "add" or not parent:
            parent[draw(st.text(max_size=6))] = draw(json_values)
        elif action == "delete":
            del parent[key]
        elif key in SIZE_FIELDS:
            parent[key] = draw(SIZE_FIELDS[key])
        else:
            value = parent[key]
            scaled = (st.floats(-4.0, 4.0).map(lambda x: value * x)
                      if isinstance(value, (int, float)) and abs(value) < 1e300
                      else st.nothing())
            parent[key] = draw(scaled | finite | st.integers() | json_values)
    return obj


def json_documents(templates):
    """Text of a mutated template, of any JSON value, or a cut-off one.
    templates is a function returning the list, so that a failing example
    does not print the whole list."""
    picked = st.integers(0, len(templates()) - 1).flatmap(
        lambda i: mutated(templates()[i]))
    docs = st.one_of(picked, picked, picked, json_values).map(json.dumps)
    cut = docs.flatmap(
        lambda text: st.integers(0, len(text)).map(lambda n: text[:n]))
    return st.one_of(docs, docs, docs, cut)


@functools.cache
def config_templates() -> list[dict]:
    """Each mode's default config, small and fast, without a calibration
    and with the stock device's baseline calibration."""
    cal = json.loads(calibrate_baseline(DeviceGeometry()).to_json())
    templates = []
    for mode in MODES:
        config = json.loads(default_config(mode, n_points=201,
                                           repeats=2).to_json())
        templates += [config, {**config, "calibration": cal}]
    return templates


@functools.cache
def model_templates() -> list[dict]:
    return [json.loads(fit_linear([(50.0, 1.676e9), (200.0, 1.741e9)],
                                  "mmHg").to_json())]


def run_main_quietly(*argv) -> tuple[int, str]:
    """main(argv) with stdout and stderr captured; returns the exit code and
    stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    if code == 1:
        assert len(err.splitlines()) == 1
        assert set(json.loads(err)) == {"error", "message"}


class TestArbitraryJson:
    """main() on any --config or --model document exits 0, 1 or 2 and never
    raises; an exit 1 is one JSON error line."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory, rest_circuit, reader):
        path = tmp_path_factory.mktemp("arbitrary-json")
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 201)
        write_sweep(sweep, path / "sweep.s1p")
        (path / "dump.bin").write_bytes(
            encode_frame(1, 0, sweep) + encode_frame(1, 1, sweep))
        return path

    @settings(max_examples=150, deadline=None)
    @given(doc=json_documents(config_templates))
    def test_simulate_config(self, workdir, doc):
        config = workdir / "config.json"
        config.write_text(doc)
        assert_clean_exit(*run_main_quietly(
            "simulate", "--config", str(config),
            "--out", str(workdir / "run")))

    @settings(max_examples=150, deadline=None)
    @given(doc=json_documents(model_templates),
           command=st.sampled_from(["invert", "extract", "replay"]),
           f0=st.floats() | st.integers())
    def test_model(self, workdir, doc, command, f0):
        model = workdir / "model.json"
        model.write_text(doc)
        log = workdir / "log.ndjson"
        log.unlink(missing_ok=True)
        argv = {
            "invert": ["invert", "--f0", str(f0)],
            "extract": ["extract", str(workdir / "sweep.s1p")],
            "replay": ["replay", "--frames", str(workdir / "dump.bin"),
                       "--log", str(log)],
        }[command]
        assert_clean_exit(*run_main_quietly(*argv, "--model", str(model)))


class TestFit:
    @pytest.mark.parametrize("table,first_line", [
        ("strain.csv", "b = 2.94 MHz/%"),
        ("pressure.csv", "b = 0.432 MHz/mmHg"),
        ("displacement.csv", "b = 0.31 MHz/um"),
        ("bend.csv", "b = 4.88506 MHz/deg"),
    ])
    def test_bundled_tables(self, capsys, table, first_line):
        code, out, _ = run_cli(capsys, "fit", "--points", table)
        assert code == 0
        assert out.splitlines()[0] == first_line

    def test_pressure_intercept_line(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--points", "pressure.csv")
        assert code == 0
        assert "a = 1.6545 GHz" in out.splitlines()

    def test_explicit_unit_overrides_bundled(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--points", "strain.csv",
                               "--unit", "mmHg")
        assert code == 0
        assert out.splitlines()[0] == "b = 2.94 MHz/mmHg"

    def test_filesystem_path_beats_bundled_name(self, capsys, tmp_path,
                                                monkeypatch):
        local = tmp_path / "strain.csv"
        local.write_text("x,y_hz\n0.0,1.0e9\n1.0,1.002e9\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "fit", "--points", "strain.csv")
        assert code == 0
        assert out.splitlines()[0] == "b = 2 MHz/%"

    def test_model_written_and_invertible(self, capsys, tmp_path):
        model_path = tmp_path / "pressure_model.json"
        code, _, _ = run_cli(capsys, "fit", "--points", "pressure.csv",
                             "--out", str(model_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "invert", "--model", str(model_path),
                               "--f0", "1.7195e9")
        assert code == 0
        payload = json.loads(out)
        assert payload["measurand_value"] == pytest.approx(150.46, abs=0.1)
        assert payload["measurand_unit"] == "mmHg"
        assert payload["extrapolated"] is False

    @pytest.mark.parametrize("f0", ["nan", "inf"])
    def test_non_finite_f0_is_one_error_line(self, capsys, tmp_path, f0):
        """argparse's float takes nan and inf; invert turns them away
        instead of printing a NaN that is not JSON."""
        model_path = tmp_path / "pressure_model.json"
        code, _, _ = run_cli(capsys, "fit", "--points", "pressure.csv",
                             "--out", str(model_path))
        assert code == 0
        assert_one_error_line(capsys, "invert", "--model", str(model_path),
                              "--f0", f0)

    def test_infinite_fit_is_one_error_line_and_no_file(self, capsys,
                                                        tmp_path):
        """A fit whose line overflows is refused as the model reader would
        refuse it, before a model file is written."""
        points = tmp_path / "p.csv"
        points.write_text("x,y_hz\n0,0\n1e-160,1e300\n")
        model_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "fit", "--points", str(points),
                                 "--unit", "mmHg", "--out", str(model_path))
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "DomainError",
            "message": "intercept: expected a finite number, got -inf"}
        assert not model_path.exists()

    def test_overflowing_inversion_is_one_error_line(self, capsys, tmp_path):
        """A finite slope the strict loader accepts can still overflow the
        quotient; that is an error, not "Infinity"."""
        model_path = tmp_path / "pressure_model.json"
        run_cli(capsys, "fit", "--points", "pressure.csv",
                "--out", str(model_path))
        model = json.loads(model_path.read_text())
        model["slope"] = 1e-310
        model_path.write_text(json.dumps(model))
        assert_one_error_line(capsys, "invert", "--model", str(model_path),
                              "--f0", "1.75e9", error="DegenerateModel")


class TestExtract:
    def test_plain_and_with_model(self, capsys, tmp_path, rest_circuit,
                                  reader):
        sweep_path = tmp_path / "bench.s1p"
        write_sweep(add_noise(
            s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 801), 0.1, 4),
            sweep_path)
        code, out, _ = run_cli(capsys, "extract", str(sweep_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["f0_hat_hz"] == pytest.approx(1.7103e9, rel=1e-3)
        assert payload["depth_db"] > 3.0
        assert "measurand_value" not in payload

        model_path = tmp_path / "model.json"
        run_cli(capsys, "fit", "--points", "strain.csv", "--out",
                str(model_path))
        code, out, _ = run_cli(capsys, "extract", str(sweep_path),
                               "--model", str(model_path))
        payload = json.loads(out)
        assert code == 0
        assert payload["measurand_unit"] == "percent-strain"
        assert "extrapolated" in payload

    def test_threshold_failure_maps_to_exit_1(self, capsys, tmp_path,
                                              rest_circuit, reader):
        sweep_path = tmp_path / "bench.csv"
        write_sweep(s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 801),
                    sweep_path)
        code, _, err = run_cli(capsys, "extract", str(sweep_path),
                               "--min-depth-db", "40")
        assert code == 1
        assert json.loads(err)["error"] == "NoResonance"


class TestCalibrateBaseline:
    def test_stock_device(self, capsys, tmp_path):
        out_path = tmp_path / "cal.json"
        code, out, _ = run_cli(capsys, "calibrate-baseline",
                               "--out", str(out_path))
        assert code == 0
        lines = out.splitlines()
        cal = ModelCalibration.from_json(lines[-2])
        assert cal == ModelCalibration.from_json(out_path.read_text())
        rest_line = lines[-1]
        assert rest_line.startswith("rest_f0_hz = ")
        assert float(rest_line.split(" = ")[1]) == pytest.approx(1.71e9,
                                                                 abs=1e3)

    def test_stock_device_stdout_is_the_snapshot(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate-baseline")
        assert code == 0
        assert out == (SNAPSHOT_DIR / "calibrate_baseline_stock.txt").read_text()

    @pytest.mark.parametrize("flag,value,target", [
        ("--f0", "nan", "target_f0"),
        ("--f0", "inf", "target_f0"),
        ("--depth-db", "nan", "target_depth_db"),
    ])
    def test_non_finite_target_is_named(self, capsys, flag, value, target):
        code, out, err = run_cli(capsys, "calibrate-baseline", flag, value)
        assert (code, out, len(err.splitlines())) == (1, "", 1)
        line = json.loads(err)
        assert line["error"] == "DomainError"
        assert line["message"].startswith(f"{target} must be ")


class TestSimulate:
    def test_writes_artifacts_deterministically(self, capsys, tmp_path,
                                                baseline_cal, device):
        cfg_path = tmp_path / "config.json"
        from maicas.scenarios import MODES, default_config
        cfg_path.write_text(default_config(
            "graft_pressure", device=device, calibration=baseline_cal,
            repeats=2).to_json())

        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                               "--out", str(tmp_path / "a"))
        assert code == 0
        assert "failures = 0" in out
        assert any(line.startswith("b = 0.43") for line in out.splitlines())

        run_cli(capsys, "simulate", "--config", str(cfg_path),
                "--out", str(tmp_path / "b"))
        assert ((tmp_path / "a" / "summary.csv").read_bytes()
                == (tmp_path / "b" / "summary.csv").read_bytes())

        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--seed", "9", "--out", str(tmp_path / "c"))
        assert code == 0
        assert ((tmp_path / "a" / "summary.csv").read_bytes()
                != (tmp_path / "c" / "summary.csv").read_bytes())

        for name in ("summary.csv", "model.json", "config.json"):
            assert (tmp_path / "a" / name).exists()

    def test_export_sweeps(self, capsys, tmp_path, baseline_cal, device):
        cfg_path = tmp_path / "config.json"
        from maicas.scenarios import MODES, default_config
        cfg_path.write_text(default_config(
            "joint_bend", device=device, calibration=baseline_cal,
            repeats=1, noise_sigma_db=0.0).to_json())
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg_path),
                             "--out", str(tmp_path / "run"),
                             "--export-sweeps")
        assert code == 0
        files = sorted((tmp_path / "run" / "sweeps").glob("*.s1p"))
        assert len(files) == 5

    def test_noise_far_above_the_dip_is_no_measurement(
            self, capsys, tmp_path, baseline_cal, device):
        """Every repeat is pure noise to the extractor, whose SNR floor
        refuses it, so no point is left to fit, and the message says so."""
        cfg_path = tmp_path / "config.json"
        from maicas.scenarios import default_config
        cfg_path.write_text(default_config(
            "graft_pressure", device=device, calibration=baseline_cal,
            repeats=2, n_points=201, noise_sigma_db=1e300).to_json())
        code, out, err = run_cli(capsys, "simulate", "--config",
                                 str(cfg_path), "--out", str(tmp_path / "run"))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "DegenerateInput",
            "message": "need at least 2 points, got 0: 4 of 4 grid points "
                       "and 8 of 8 repeats have no estimate at "
                       "noise_sigma_db 1e+300"}

    def test_config_and_mode_are_exclusive(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config", "x.json",
                               "--mode", "aging", "--out", str(tmp_path))
        assert code == 1
        assert json.loads(err)["error"] == "DomainError"

    def test_summary_parses_as_points(self, capsys, tmp_path, baseline_cal,
                                      device):
        cfg_path = tmp_path / "config.json"
        from maicas.scenarios import MODES, default_config
        cfg_path.write_text(default_config(
            "epicardial_strain", device=device, calibration=baseline_cal,
            repeats=1, noise_sigma_db=0.0).to_json())
        run_cli(capsys, "simulate", "--config", str(cfg_path),
                "--out", str(tmp_path / "run"))
        rows = (tmp_path / "run" / "summary.csv").read_text().splitlines()
        assert rows[0] == "measurand,mean_f0_hz,sd_f0_hz,n"
        assert len(rows) == 6


class TestReplayAndGateway:
    @pytest.fixture()
    def campaign(self, tmp_path, baseline_cal, device, capsys):
        """Config file plus the model fitted from its own simulated
        campaign, so inverted values land back on the stimulus grid."""
        from maicas.scenarios import MODES, default_config
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(default_config(
            "graft_pressure", device=device, calibration=baseline_cal,
            repeats=2).to_json())
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "sim")]) == 0
        capsys.readouterr()  # drop the setup output from the capture buffer
        return cfg_path, tmp_path / "sim" / "model.json"

    def test_record_then_process_offline(self, capsys, tmp_path, campaign):
        cfg_path, model_path = campaign
        dump = tmp_path / "frames.bin"
        code, out, _ = run_cli(capsys, "replay", "--config", str(cfg_path),
                               "--out", str(dump))
        assert code == 0
        assert out.strip() == f"wrote 8 frames to {dump}"
        assert len(split_dump(dump.read_bytes())) == 8

        log = tmp_path / "log.ndjson"
        code, out, _ = run_cli(capsys, "replay", "--frames", str(dump),
                               "--model", str(model_path), "--log", str(log))
        assert code == 0
        counts = json.loads(out)
        # end-of-grid frames may straddle the fitted frequency range
        assert counts["no_resonance"] == 0
        assert counts["ok"] + counts["extrapolated"] == 8
        assert counts["ok"] >= 6
        records = read_log(log)
        assert len(records) == 8
        model = json.loads(model_path.read_text())
        tolerance = 2.0 * model["residual_sd"] / abs(model["slope"])
        grid = (50.0, 100.0, 150.0, 200.0)
        for i, record in enumerate(records):
            assert record["measurand_value"] == pytest.approx(
                grid[i // 2], abs=tolerance)

    @pytest.mark.parametrize("command", ["gateway", "replay"])
    @pytest.mark.parametrize("head", [
        b"hello\n", b'{"schema": "maicas-log/9"}\n', b"[1,2]\n"])
    def test_foreign_log_is_left_alone(self, capsys, tmp_path, rest_circuit,
                                       reader, command, head):
        """A log read_log would refuse is one JSON error line, and not a
        byte of it changes."""
        model = tmp_path / "model.json"
        model.write_text(fit_linear([(50.0, 1.676e9), (200.0, 1.741e9)],
                                    "mmHg").to_json())
        dump = tmp_path / "frames.bin"
        dump.write_bytes(encode_frame(1, 0, s11_spectrum(
            rest_circuit, reader, 1.5e9, 2.0e9, 201)))
        log = tmp_path / "log.ndjson"
        content = head + b'{"device_id": 7}\n{"torn'
        log.write_bytes(content)
        with socket.socket() as refuser:  # bound, never listening
            refuser.bind(("127.0.0.1", 0))
            argv = {
                "gateway": ["gateway", "--no-reconnect", "--port",
                            str(refuser.getsockname()[1])],
                "replay": ["replay", "--frames", str(dump)],
            }[command]
            assert_one_error_line(capsys, *argv, "--model", str(model),
                                  "--log", str(log))
        assert log.read_bytes() == content

    @pytest.mark.parametrize("slope", [1e-310, 0.0])
    def test_replay_with_a_degenerate_model(self, capsys, tmp_path, campaign,
                                            slope):
        cfg_path, model_path = campaign
        dump = tmp_path / "frames.bin"
        run_cli(capsys, "replay", "--config", str(cfg_path),
                "--out", str(dump))
        model = json.loads(model_path.read_text())
        model["slope"] = slope
        bad_model = tmp_path / "bad_model.json"
        bad_model.write_text(json.dumps(model))
        log = tmp_path / "log.ndjson"
        code, out, _ = run_cli(capsys, "replay", "--frames", str(dump),
                               "--model", str(bad_model), "--log", str(log))
        assert code == 0
        assert json.loads(out) == {"ok": 0, "extrapolated": 0,
                                   "no_resonance": 8}
        records = read_log(log)
        assert [r["error"] for r in records] == ["degenerate_model"] * 8
        assert all(r["measurand_value"] is None for r in records)

    def test_replay_argument_pairing(self, capsys, tmp_path, campaign):
        cfg_path, model_path = campaign
        cases = [
            ("replay", "--config", str(cfg_path)),                  # neither
            ("replay", "--config", str(cfg_path), "--out",
             str(tmp_path / "x.bin"), "--log", str(tmp_path / "x.ndjson")),
            ("replay", "--log", str(tmp_path / "y.ndjson"),
             "--model", str(model_path)),                           # no dump
        ]
        for argv in cases:
            code, _, err = run_cli(capsys, *argv)
            assert code == 1
            assert json.loads(err)["error"] == "DomainError"

    def test_gateway_against_live_server(self, capsys, tmp_path, campaign):
        cfg_path, model_path = campaign
        dump = tmp_path / "frames.bin"
        run_cli(capsys, "replay", "--config", str(cfg_path),
                "--out", str(dump))
        frames = split_dump(dump.read_bytes())
        server, _ = start_server(frames, port=0)
        try:
            port = server.server_address[1]
            log = tmp_path / "live.ndjson"
            code, out, _ = run_cli(capsys, "gateway",
                                   "--model", str(model_path),
                                   "--log", str(log),
                                   "--port", str(port),
                                   "--max-frames", str(len(frames)))
            assert code == 0
            stats = json.loads(out)
            assert stats["frames_seen"] == len(frames)
            assert stats["records_ok"] + stats["records_extrapolated"] == \
                len(frames)
            assert stats["records_error"] == 0
            assert len(read_log(log)) == len(frames)
        finally:
            server.shutdown()
            server.server_close()


def console_script(*argv):
    """Run the maicas console script: the installed one when it is on PATH,
    else the [project.scripts] target from pyproject.toml, imported from
    the checkout's src directory the way the generated script calls it."""
    if shutil.which("maicas"):
        return subprocess.run(["maicas", *argv], capture_output=True,
                              text=True)
    root = Path(__file__).resolve().parents[1]
    target = re.search(r'^maicas = "([\w.]+):(\w+)"$',
                       (root / "pyproject.toml").read_text(), re.MULTILINE)
    module, function = target.groups()
    code = (f"import sys; from {module} import {function}; "
            f"sys.exit({function}())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env)


class TestInstalledEntryPoint:
    def test_console_script_help(self):
        proc = console_script("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: maicas")

    def test_console_script_usage_error(self):
        proc = console_script()
        assert proc.returncode == 2


def module_env() -> dict:
    """The environment for python -m maicas.cli from the checkout."""
    env = dict(os.environ, COLUMNS="80")
    env.pop("LINES", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        env.get("PYTHONPATH")]))
    return env


class TestModuleRun:
    """python -m maicas.cli runs the same CLI as the console script."""

    @staticmethod
    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "maicas.cli", *argv],
                              capture_output=True, text=True,
                              env=module_env())

    def test_help_is_the_snapshot(self):
        proc = self.run_module("--help")
        assert proc.returncode == 0
        assert proc.stdout == (SNAPSHOT_DIR / "help_main.txt").read_text()

    def test_domain_error_is_one_json_line(self, tmp_path):
        proc = self.run_module("simulate", "--mode", "aging", "--out",
                               str(tmp_path / "run"), "--seed", "-1")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr)["error"] == "DomainError"
        assert not (tmp_path / "run").exists()


class TestServe:
    def test_gateway_logs_what_serve_streams(self, capsys, tmp_path):
        """serve on --port 0 names the port it bound; a gateway reading it
        writes the log replay writes for the same campaign."""
        model = tmp_path / "model.json"
        dump = tmp_path / "frames.bin"
        assert main(["fit", "--points", "pressure.csv",
                     "--out", str(model)]) == 0
        assert main(["replay", "--mode", "graft_pressure", "--seed", "0",
                     "--out", str(dump)]) == 0
        assert main(["replay", "--frames", str(dump), "--model", str(model),
                     "--log", str(tmp_path / "replay.ndjson")]) == 0
        capsys.readouterr()
        server = subprocess.Popen(
            [sys.executable, "-m", "maicas.cli", "serve", "--mode",
             "graft_pressure", "--seed", "0", "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=module_env())
        try:
            line = server.stdout.readline()
            found = re.fullmatch(
                r"serving 20 frames on 127\.0\.0\.1:([1-9]\d*)\n", line)
            assert found, line
            code, out, _ = run_cli(capsys, "gateway", "--model", str(model),
                                   "--log", str(tmp_path / "live.ndjson"),
                                   "--port", found.group(1),
                                   "--max-frames", "20",
                                   "--max-connect-attempts", "1")
        finally:
            server.terminate()
            server.communicate(timeout=30)
        assert code == 0
        assert json.loads(out)["frames_seen"] == 20
        assert ((tmp_path / "live.ndjson").read_bytes()
                == (tmp_path / "replay.ndjson").read_bytes())

    @staticmethod
    def interrupted(*argv) -> subprocess.CompletedProcess:
        """python -m maicas.cli argv, sent SIGINT once its first output
        line (serve) or its fourth log line (gateway) appears."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "maicas.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=module_env(),
            # an ignored SIGINT would stay ignored across exec
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            if argv[0] == "serve":
                assert proc.stdout.readline().startswith("serving ")
            else:
                log = Path(argv[argv.index("--log") + 1])
                deadline = time.monotonic() + 30.0
                while not (log.exists()
                           and log.read_bytes().count(b"\n") >= 4):
                    assert time.monotonic() < deadline, "no records"
                    time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def test_interrupted_serve_exits_130_silently(self):
        proc = self.interrupted("serve", "--mode", "aging", "--port", "0")
        assert proc.returncode == 130
        assert proc.stderr == ""

    def test_interrupted_gateway_log_ends_on_a_whole_record(
            self, tmp_path, rest_circuit, reader):
        sweep = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 101)
        frames = [encode_frame(1, i, sweep) for i in range(50)]
        model = tmp_path / "model.json"
        model.write_text(fit_linear([(50.0, 1.676e9), (200.0, 1.741e9)],
                                    "mmHg").to_json())
        log = tmp_path / "live.ndjson"
        server, _ = start_server(frames, port=0, frame_interval_s=0.01)
        try:
            proc = self.interrupted(
                "gateway", "--model", str(model), "--log", str(log),
                "--port", str(server.server_address[1]))
        finally:
            server.shutdown()
            server.server_close()
        assert proc.returncode == 130
        assert (proc.stdout, proc.stderr) == ("", "")
        assert log.read_bytes().endswith(b"\n")
        assert len(read_log(log)) >= 3
