import contextlib
import io
import json
import math
import re
import socket
import struct
import tempfile
import threading
import time
import types
import warnings
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from maicas import telemetry
from maicas.calibration import fit_linear, invert
from maicas.dsp import extract_resonance
from maicas.errors import (BadMagic, ChecksumMismatch, DomainError,
                           FrameError, InvalidGrid, MaicasError,
                           MalformedLength, OutOfModelRange,
                           UnsupportedVersion)
from maicas.readout import S11Sweep, add_noise, s11_spectrum
from maicas.telemetry import (HEADER_SIZE, LOG_SCHEMA, MAGIC,
                              MAX_STREAM_POINTS, GatewayStats,
                              MeasurandRecord, calibration_id_of,
                              decode_frame, default_port, encode_frame,
                              frames_from_sweeps, gateway, process_frames,
                              read_frame, read_log, record_from_frame,
                              split_dump, start_server, _LogWriter)


@pytest.fixture(scope="module")
def sweep_pool(rest_circuit, reader):
    clean = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 101)
    return [add_noise(clean, 0.1, i) for i in range(40)]


@pytest.fixture(scope="module")
def pressure_model():
    # slope/intercept of the graft bench table, wide enough y-range for the
    # sweeps the tests synthesize
    pts = [(p, 1.6545e9 + 0.432e6 * p) for p in (50.0, 100.0, 150.0, 200.0)]
    return fit_linear(pts, "mmHg")


@pytest.fixture()
def id_calls(monkeypatch):
    """Every model calibration_id_of is called with, in call order."""
    calls = []
    real = telemetry.calibration_id_of

    def counting(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(telemetry, "calibration_id_of", counting)
    return calls


def mixed_frames(sweep_pool):
    """Valid frames plus one each of a bit flip under the CRC, a flat
    payload, and a NaN next to the dip."""
    frames = frames_from_sweeps(sweep_pool[:6])
    flipped = bytearray(frames[1])
    flipped[60] ^= 1
    frames[1] = bytes(flipped)
    flat = S11Sweep(1.5e9, 2.0e9, 64, np.full(64, -2.0))
    frames.append(encode_frame(1, 6000, flat))
    mags = sweep_pool[6].magnitude_db.copy()
    mags[np.argmin(mags) + 1] = np.nan
    frames.append(encode_frame(1, 7000, S11Sweep(1.5e9, 2.0e9, 101, mags)))
    return frames


def record_of(raw, model) -> MeasurandRecord:
    return record_from_frame(raw, model, cal_id=calibration_id_of(model))


def constructor_path_record(raw, model) -> MeasurandRecord:
    """The record of raw with its sweep built by S11Sweep's constructor,
    through TelemetryFrame.sweep, as record_from_frame once built it."""
    device_id = timestamp_us = 0
    cal_id = calibration_id_of(model)
    try:
        frame = decode_frame(raw)
        device_id, timestamp_us = frame.device_id, frame.timestamp_us
        estimate = extract_resonance(frame.sweep)
        inversion = invert(model, estimate.f0_hat)
    except MaicasError as exc:
        error = re.sub(r"(?<!^)(?=[A-Z])", "_", type(exc).__name__).lower()
        return MeasurandRecord(device_id, timestamp_us, None, None,
                               model.measurand_unit, cal_id, "no_resonance",
                               error)
    return MeasurandRecord(
        device_id, timestamp_us, estimate.f0_hat, inversion.value,
        model.measurand_unit, cal_id,
        "extrapolated" if inversion.extrapolated else "ok")


def log_frame_by_frame(frames, model, path) -> bytes:
    """The log record_from_frame gives one frame at a time."""
    writer = _LogWriter(path)
    for raw in frames:
        writer.append(record_of(raw, model))
    writer.close()
    return path.read_bytes()


def recompute_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def crafted_frame(magic=MAGIC, version=1, device_id=7, timestamp=11,
                  f_start=1.5e9, f_stop=2.0e9, mags=(-1.0, -9.0, -1.0),
                  declared=None):
    n = len(mags) if declared is None else declared
    header = struct.pack("<4sBQQddI", magic, version, device_id, timestamp,
                         f_start, f_stop, n)
    payload = np.asarray(mags, dtype="<f4").tobytes()
    return recompute_crc(header + payload)


class TestFrameLayout:
    def test_header_size(self):
        assert HEADER_SIZE == 41

    def test_frame_size(self, sweep_pool):
        frame = encode_frame(1, 0, sweep_pool[0])
        assert len(frame) == 45 + 4 * sweep_pool[0].n_points

    def test_magic_and_version_bytes(self, sweep_pool):
        frame = encode_frame(1, 0, sweep_pool[0])
        assert frame[:4] == b"MAIC"
        assert frame[4] == 1

    def test_crc_matches_reference_implementation(self, sweep_pool):
        frame = encode_frame(3, 9, sweep_pool[0])
        stored = struct.unpack("<I", frame[-4:])[0]
        assert stored == oracles.crc32_reference(frame[:-4])

    def test_reference_crc_check_value(self):
        assert oracles.crc32_reference(b"123456789") == 0xCBF43926

    def test_reference_crc_agrees_with_zlib(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(20):
            buf = rng.bytes(int(rng.integers(1, 200)))
            assert oracles.crc32_reference(buf) == zlib.crc32(buf)


class TestRoundTrip:
    def test_thousand_frames_field_exact(self, rest_circuit, reader):
        clean = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 41)
        sweeps = [add_noise(clean, 0.2, i) for i in range(1000)]
        for i, sweep in enumerate(sweeps):
            frame = decode_frame(encode_frame(i, 2 * i, sweep))
            assert frame.device_id == i
            assert frame.timestamp_us == 2 * i
            assert frame.f_start == sweep.f_start
            assert frame.f_stop == sweep.f_stop
            assert frame.n_points == sweep.n_points
            quantized = np.asarray(sweep.magnitude_db,
                                   dtype="<f4").astype(np.float64)
            assert np.array_equal(frame.magnitude_db, quantized)

    def test_u64_extremes(self, sweep_pool):
        frame = decode_frame(encode_frame(2 ** 64 - 1, 0, sweep_pool[0]))
        assert frame.device_id == 2 ** 64 - 1
        assert frame.timestamp_us == 0

    def test_sweep_property(self, sweep_pool):
        frame = decode_frame(encode_frame(1, 0, sweep_pool[0]))
        sweep = frame.sweep
        assert isinstance(sweep, S11Sweep)
        assert sweep.n_points == sweep_pool[0].n_points

    @pytest.mark.parametrize("f_start,f_stop,mags,message", [
        (math.nan, 2.0e9, (-1.0, -9.0, -1.0), "need 0 < f_start < f_stop"),
        (1.5e9, math.nan, (-1.0, -9.0, -1.0), "need 0 < f_start < f_stop"),
        (1.5e9, 2.0e9, (-1.0, 0.5, -1.0), "not passive")],
        ids=["nan-start", "nan-stop", "above-0-db"])
    def test_sweep_property_checks_a_hand_built_frame(self, f_start, f_stop,
                                                      mags, message):
        """A frame decode_frame did not make has had no checks, so its
        sweep goes through all of S11Sweep's."""
        frame = telemetry.TelemetryFrame(1, 0, f_start, f_stop, 3,
                                         np.array(mags))
        with pytest.raises(DomainError, match=message):
            frame.sweep

    def test_decoded_samples_are_read_only(self, sweep_pool):
        frame = decode_frame(encode_frame(1, 0, sweep_pool[0]))
        assert frame.magnitude_db.dtype == np.float64
        assert frame.magnitude_db.flags.owndata
        with pytest.raises(ValueError):
            frame.magnitude_db[0] = 0.0

    @pytest.mark.parametrize("device_id,timestamp", [
        (-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64),
    ])
    def test_encode_rejects_out_of_range_ids(self, sweep_pool, device_id,
                                             timestamp):
        with pytest.raises(DomainError):
            encode_frame(device_id, timestamp, sweep_pool[0])

    def test_encode_rejects_a_point_count_past_u32(self):
        """The count is checked before the header is packed; a stub stands
        in for a sweep of 2**32 points."""
        stub = types.SimpleNamespace(f_start=1.5e9, f_stop=2.0e9,
                                     n_points=2 ** 32, magnitude_db=None)
        with pytest.raises(DomainError, match="^n_points outside u32 range$"):
            encode_frame(1, 0, stub)


class TestCorruption:
    def test_every_single_bit_flip_is_a_checksum_mismatch(self):
        frame = bytearray(crafted_frame())
        for bit in range(len(frame) * 8):
            corrupt = bytearray(frame)
            corrupt[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ChecksumMismatch):
                decode_frame(bytes(corrupt))

    def test_magic_corruption_is_caught_by_checksum_first(self):
        frame = bytearray(crafted_frame())
        frame[0] ^= 0xFF
        with pytest.raises(ChecksumMismatch):
            decode_frame(bytes(frame))

    def test_bad_magic_with_valid_checksum(self):
        with pytest.raises(BadMagic):
            decode_frame(crafted_frame(magic=b"XAIC"))

    def test_unsupported_version_with_valid_checksum(self):
        with pytest.raises(UnsupportedVersion):
            decode_frame(crafted_frame(version=2))

    def test_declared_count_longer_than_buffer(self):
        with pytest.raises(MalformedLength):
            decode_frame(crafted_frame(declared=5))

    def test_declared_count_shorter_than_buffer(self):
        with pytest.raises(MalformedLength):
            decode_frame(crafted_frame(declared=2))

    @pytest.mark.parametrize("kwargs", [
        {"mags": (-1.0,)},                       # single point
        {"f_start": 0.0},                        # zero start
        {"f_start": -1.0e9},                     # negative start
        {"f_start": 2.0e9, "f_stop": 1.5e9},     # inverted span
        {"f_start": float("nan")},               # non-finite
        {"f_stop": float("inf")},                # infinite stop
    ])
    def test_grid_sanity_with_valid_checksum(self, kwargs):
        with pytest.raises(InvalidGrid):
            decode_frame(crafted_frame(**kwargs))

    def test_truncated_buffer(self):
        with pytest.raises(MalformedLength):
            decode_frame(crafted_frame()[:30])

    def test_a_frame_of_the_minimum_length_reaches_the_grid_check(self):
        """A header and a CRC, no payload: 45 bytes is long enough to be
        framed, and its 0 points are an invalid grid."""
        frame = crafted_frame(mags=())
        assert len(frame) == HEADER_SIZE + 4
        with pytest.raises(InvalidGrid, match="^n_points must be >= 2, got 0$"):
            decode_frame(frame)


# Header floats a hostile sender may put in a frame whose CRC it recomputed.
_GRID_EDGES = st.one_of(
    st.sampled_from([1.5e9, 2.0e9, 0.0, -0.0, -1.0e9, math.nan, math.inf,
                     -math.inf]),
    st.floats())


def mostly(valid, hostile):
    """The valid value three times in four, else a hostile one."""
    return st.one_of(st.just(valid), st.just(valid), st.just(valid), hostile)


@st.composite
def rebuilt_frames(draw):
    """Frames with a valid CRC over arbitrary header fields and payload."""
    mags = draw(arrays("<f4", st.integers(0, 40),
                       elements=st.floats(width=32)))
    payload = mags.tobytes() + draw(mostly(b"", st.binary(max_size=7)))
    f_start, f_stop = draw(mostly((1.5e9, 2.0e9),
                                  st.tuples(_GRID_EDGES, _GRID_EDGES)))
    header = struct.pack(
        "<4sBQQddI",
        draw(mostly(MAGIC, st.binary(min_size=4, max_size=4))),
        draw(mostly(1, st.integers(0, 255))),
        draw(st.integers(0, 2 ** 64 - 1)), draw(st.integers(0, 2 ** 64 - 1)),
        f_start, f_stop,
        draw(mostly(mags.size, st.integers(0, 2 ** 32 - 1))))
    return recompute_crc(header + payload)


class TestHostileFrames:
    """Whatever arrives, decode_frame decodes it or raises a FrameError, and
    record_from_frame turns it into a record without raising."""

    @staticmethod
    def decodes_or_frame_error(raw, model):
        """Also: decode_frame's six fields are _decode's tuple, which
        record_from_frame reads; and building the sweep from those checked
        fields, with only passivity left to check, gives the record
        S11Sweep's constructor gives, for NaN, ±inf, subnormal and
        above-0-dB samples too."""
        try:
            frame = decode_frame(raw)
        except FrameError:
            pass
        else:
            assert frame.n_points == frame.magnitude_db.size >= 2
            assert 0 < frame.f_start < frame.f_stop < math.inf
            assert type(frame.n_points) is int
            *head, mags = telemetry._decode(raw)
            assert tuple(vars(frame).values())[:5] == tuple(head)
            assert frame.magnitude_db.tobytes() == mags.tobytes()
            assert not mags.flags.writeable
        with np.errstate(all="ignore"):
            got = record_of(raw, model)
            want = constructor_path_record(raw, model)
        assert isinstance(got, MeasurandRecord)
        assert (oracles.reference_record_to_json(got)
                == oracles.reference_record_to_json(want))

    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes(self, raw, pressure_model):
        self.decodes_or_frame_error(raw, pressure_model)

    @settings(max_examples=500, deadline=None)
    @given(raw=rebuilt_frames())
    def test_frames_with_recomputed_crc(self, raw, pressure_model):
        self.decodes_or_frame_error(raw, pressure_model)

    def test_non_passive_sample_is_a_domain_error_record(
            self, sweep_pool, pressure_model, tmp_path):
        mags = sweep_pool[0].magnitude_db.copy()
        mags[10] = 0.5
        raw = crafted_frame(device_id=42, timestamp=4242, mags=mags)
        expected = {
            "device_id": 42, "timestamp_us": 4242, "f0_hat_hz": None,
            "measurand_value": None, "measurand_unit": "mmHg",
            "calibration_id": calibration_id_of(pressure_model),
            "quality": "no_resonance", "error": "domain_error"}
        record = record_of(raw, pressure_model)
        assert json.loads(oracles.reference_record_to_json(record)) == expected
        log = tmp_path / "log.ndjson"
        process_frames([raw], pressure_model, log)
        assert read_log(log) == [expected]

    def test_same_records_as_the_constructor_path_on_measurements(
            self, sweep_pool, pressure_model):
        frames = mixed_frames(sweep_pool)
        got = [record_of(raw, pressure_model) for raw in frames]
        assert got == [constructor_path_record(raw, pressure_model)
                       for raw in frames]
        assert {record.quality for record in got} == {"ok", "no_resonance"}

    @pytest.mark.parametrize("sample,refused", [
        (np.nextafter(np.float32(1e-9), np.float32(1)), True),
        (np.float32(1e-9), False)], ids=["above", "at"])
    def test_passivity_edge_of_a_float32_sample(
            self, sweep_pool, pressure_model, sample, refused):
        """The float32 neighbour above 1e-9 widens to about 1.0000000827e-09,
        past the constructor's 1e-9 rounding allowance; 1e-9 itself widens
        to about 9.9999997e-10, inside it."""
        mags = sweep_pool[0].magnitude_db.copy()
        mags[10] = sample
        raw = crafted_frame(device_id=42, timestamp=4242, mags=mags)
        record = record_of(raw, pressure_model)
        assert (record.device_id, record.timestamp_us) == (42, 4242)
        assert (record.error == "domain_error") is refused
        assert record == constructor_path_record(raw, pressure_model)

    @pytest.mark.parametrize("index", [100, 399])
    def test_minus_inf_sample_is_a_domain_error_record(
            self, rest_circuit, reader, pressure_model, tmp_path, index):
        """Not a measurement, and no RuntimeWarning on the way."""
        clean = s11_spectrum(rest_circuit, reader, 1.5e9, 2.0e9, 401)
        mags = add_noise(clean, 0.1, 3).magnitude_db.copy()
        mags[index] = -np.inf
        raw = crafted_frame(device_id=42, timestamp=4242, mags=mags)
        expected = {
            "device_id": 42, "timestamp_us": 4242, "f0_hat_hz": None,
            "measurand_value": None, "measurand_unit": "mmHg",
            "calibration_id": calibration_id_of(pressure_model),
            "quality": "no_resonance", "error": "domain_error"}
        log = tmp_path / "log.ndjson"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = record_of(raw, pressure_model)
            process_frames([raw], pressure_model, log)
        assert json.loads(oracles.reference_record_to_json(record)) == expected
        assert read_log(log) == [expected]


class TestStreamFraming:
    def test_split_concatenated_dump(self, sweep_pool):
        frames = frames_from_sweeps(sweep_pool[:7], device_id=4)
        assert split_dump(b"".join(frames)) == frames

    def test_empty_stream(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_truncated_header(self):
        with pytest.raises(MalformedLength):
            read_frame(io.BytesIO(b"MAIC\x01\x00"))

    def test_truncated_body(self, sweep_pool):
        frame = encode_frame(1, 0, sweep_pool[0])
        with pytest.raises(MalformedLength):
            read_frame(io.BytesIO(frame[:-3]))

    def test_hostile_point_count_is_capped(self):
        header = struct.pack("<4sBQQddI", MAGIC, 1, 0, 0, 1.5e9, 2.0e9,
                             MAX_STREAM_POINTS + 1)
        with pytest.raises(MalformedLength):
            read_frame(io.BytesIO(header + b"\x00" * 64))

    def test_a_point_count_at_the_cap_is_read(self):
        header = struct.pack("<4sBQQddI", MAGIC, 1, 0, 0, 1.5e9, 2.0e9,
                             MAX_STREAM_POINTS)
        with pytest.raises(MalformedLength, match="inside a frame body"):
            read_frame(io.BytesIO(header + b"\x00" * 64))

    def test_framing_preserved_after_valid_frames(self, sweep_pool):
        frames = frames_from_sweeps(sweep_pool[:3])
        stream = io.BytesIO(b"".join(frames))
        assert read_frame(stream) == frames[0]
        assert read_frame(stream) == frames[1]
        assert read_frame(stream) == frames[2]
        assert read_frame(stream) is None


class TestRecords:
    def test_calibration_id_stable_and_short(self, pressure_model):
        a = calibration_id_of(pressure_model)
        assert a == calibration_id_of(pressure_model)
        assert len(a) == 12
        other = fit_linear([(0.0, 1.7e9), (1.0, 1.71e9)], "um")
        assert calibration_id_of(other) != a

    def test_signed_zero_intercepts_get_distinct_ids(self, pressure_model):
        positive = replace(pressure_model, intercept=0.0)
        negative = replace(pressure_model, intercept=-0.0)
        assert positive == negative
        assert positive.to_json() != negative.to_json()
        assert calibration_id_of(positive) != calibration_id_of(negative)

    def test_ok_record(self, sweep_pool, pressure_model):
        frame = encode_frame(5, 99, sweep_pool[0])
        record = record_of(frame, pressure_model)
        assert record.quality == "ok"
        assert record.device_id == 5
        assert record.timestamp_us == 99
        assert record.error is None
        want = (record.f0_hat_hz - pressure_model.intercept) / pressure_model.slope
        assert record.measurand_value == pytest.approx(want, rel=1e-12)

    def test_corrupt_frame_record(self, sweep_pool, pressure_model):
        frame = bytearray(encode_frame(5, 99, sweep_pool[0]))
        frame[50] ^= 0x10
        record = record_of(bytes(frame), pressure_model)
        assert record.quality == "no_resonance"
        assert record.error == "checksum_mismatch"
        assert record.f0_hat_hz is None
        assert (record.device_id, record.timestamp_us) == (0, 0)

    @pytest.mark.parametrize("slope", [1e-310, 0.0])
    def test_degenerate_model_record(self, sweep_pool, pressure_model,
                                     tmp_path, slope):
        """A model that inverts to no finite value gives no_resonance
        records naming the model, never an Infinity or a crash."""
        model = replace(pressure_model, slope=slope)
        frames = frames_from_sweeps(sweep_pool[:3], device_id=5)
        record = record_of(frames[1], model)
        assert record == MeasurandRecord(
            device_id=5, timestamp_us=1000, f0_hat_hz=None,
            measurand_value=None, measurand_unit="mmHg",
            calibration_id=calibration_id_of(model), quality="no_resonance",
            error="degenerate_model")
        log = tmp_path / "log.ndjson"
        counts = process_frames(frames, model, log)
        assert counts == {"ok": 0, "extrapolated": 0, "no_resonance": 3}
        assert [r["error"] for r in read_log(log)] == ["degenerate_model"] * 3

    def test_any_package_error_is_a_record(self, sweep_pool, pressure_model,
                                           monkeypatch):
        """A package error outside the ones decode, extract and invert
        raise today still becomes a record naming it."""
        def refuse(model, f0):
            raise OutOfModelRange("outside the model")

        monkeypatch.setattr(telemetry, "invert", refuse)
        record = record_of(encode_frame(5, 99, sweep_pool[0]), pressure_model)
        assert record.quality == "no_resonance"
        assert record.error == "out_of_model_range"
        assert (record.device_id, record.timestamp_us) == (5, 99)
        assert record.f0_hat_hz is None

    def test_flat_sweep_record(self, pressure_model):
        flat = S11Sweep(1.5e9, 2.0e9, 64, np.full(64, -2.0))
        record = record_of(encode_frame(1, 1, flat), pressure_model)
        assert record.quality == "no_resonance"
        assert record.error == "no_resonance"

    def test_extrapolated_record(self, sweep_pool):
        narrow = fit_linear([(0.0, 1.760e9), (10.0, 1.765e9)], "mmHg")
        record = record_of(encode_frame(1, 1, sweep_pool[0]), narrow)
        assert record.quality == "extrapolated"
        assert record.measurand_value is not None


class TestLog:
    def test_process_frames_counts_and_schema(self, sweep_pool,
                                              pressure_model, tmp_path):
        frames = frames_from_sweeps(sweep_pool[:5])
        corrupt = bytearray(frames[2])
        corrupt[60] ^= 1
        frames[2] = bytes(corrupt)
        log = tmp_path / "telemetry.ndjson"
        counts = process_frames(frames, pressure_model, log)
        assert counts == {"ok": 4, "extrapolated": 0, "no_resonance": 1}
        lines = log.read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": "maicas-log/1"}
        assert len(lines) == 6
        records = read_log(log)
        assert [r["quality"] for r in records] == \
               ["ok", "ok", "no_resonance", "ok", "ok"]
        assert records[2]["error"] == "checksum_mismatch"

    def test_no_constructor_pass_per_frame(self, sweep_pool, pressure_model,
                                           tmp_path, monkeypatch):
        """decode_frame checks the grid, so record_from_frame builds each
        frame's sweep without S11Sweep's constructor."""
        calls = []
        checks = S11Sweep.__post_init__

        def counted(self):
            calls.append(self)
            checks(self)

        frames = frames_from_sweeps(sweep_pool[:8])
        monkeypatch.setattr(S11Sweep, "__post_init__", counted)
        counts = process_frames(frames, pressure_model, tmp_path / "log")
        assert sum(counts.values()) == 8
        assert calls == []

    def test_no_frame_built_per_frame(self, sweep_pool, pressure_model,
                                      tmp_path, monkeypatch):
        """record_from_frame reads _decode's tuple; only decode_frame builds
        a TelemetryFrame."""
        calls = []
        init = telemetry.TelemetryFrame.__init__

        def counted(self, *args):
            calls.append(args)
            init(self, *args)

        frames = mixed_frames(sweep_pool)
        monkeypatch.setattr(telemetry.TelemetryFrame, "__init__", counted)
        counts = process_frames(frames, pressure_model, tmp_path / "log")
        assert sum(counts.values()) == len(frames)
        assert calls == []
        decode_frame(frames[0])
        assert len(calls) == 1

    def test_model_hashed_once_per_call(self, sweep_pool, pressure_model,
                                        tmp_path, id_calls):
        frames = mixed_frames(sweep_pool)
        process_frames(frames, pressure_model, tmp_path / "batch.ndjson")
        assert id_calls == [pressure_model]
        assert ((tmp_path / "batch.ndjson").read_bytes()
                == log_frame_by_frame(frames, pressure_model,
                                      tmp_path / "by_frame.ndjson"))

    def test_append_only_across_runs(self, sweep_pool, pressure_model,
                                     tmp_path):
        log = tmp_path / "telemetry.ndjson"
        process_frames(frames_from_sweeps(sweep_pool[:2]), pressure_model, log)
        first = log.read_text()
        process_frames(frames_from_sweeps(sweep_pool[2:4]), pressure_model, log)
        second = log.read_text()
        assert second.startswith(first)
        assert second.count('"schema"') == 1
        assert len(read_log(log)) == 4

    def test_torn_tail_is_dropped_before_the_next_append(
            self, sweep_pool, pressure_model, tmp_path):
        first = frames_from_sweeps(sweep_pool[:2])
        then = frames_from_sweeps(sweep_pool[2:4])
        log = tmp_path / "telemetry.ndjson"
        process_frames(first, pressure_model, log)
        whole = log.read_bytes()
        log.write_bytes(whole[:-20])  # the writer stopped mid-record
        with pytest.raises(DomainError, match="telemetry.ndjson: line 3 "):
            read_log(log)
        process_frames(then, pressure_model, log)
        kept = whole[:whole.rindex(b"\n", 0, len(whole) - 20) + 1]
        assert log.read_bytes().startswith(kept)
        clean = tmp_path / "clean.ndjson"
        process_frames(first[:1], pressure_model, clean)
        process_frames(then, pressure_model, clean)
        assert log.read_bytes() == clean.read_bytes()

    def test_a_last_line_missing_only_its_newline_is_kept(
            self, sweep_pool, pressure_model, tmp_path):
        log = tmp_path / "telemetry.ndjson"
        process_frames(frames_from_sweeps(sweep_pool[:2]), pressure_model, log)
        whole = log.read_bytes()
        log.write_bytes(whole[:-1])
        assert len(read_log(log)) == 2
        process_frames(frames_from_sweeps(sweep_pool[2:3]), pressure_model,
                       log)
        assert log.read_bytes().startswith(whole)
        assert len(read_log(log)) == 3

    def test_torn_tail_behind_more_than_one_block(
            self, sweep_pool, pressure_model, tmp_path):
        """_prepare_append reads back from the end a block at a time, past
        a torn line longer than several blocks, to the newline before it."""
        frames = frames_from_sweeps(sweep_pool[:3])
        log = tmp_path / "telemetry.ndjson"
        process_frames(frames[:2], pressure_model, log)
        with log.open("ab") as fh:  # digits past json's int limit, too
            fh.write(b'{"device_id": ' + b"9" * (3 * telemetry._TAIL_BLOCK))
        process_frames(frames[2:], pressure_model, log)
        assert log.read_bytes() == log_frame_by_frame(
            frames, pressure_model, tmp_path / "clean.ndjson")

    def test_torn_schema_line_is_rewritten(self, sweep_pool, pressure_model,
                                           tmp_path):
        log = tmp_path / "telemetry.ndjson"
        log.write_text('{"schema": "mai')
        process_frames(frames_from_sweeps(sweep_pool[:2]), pressure_model, log)
        assert log.read_text().count('"schema"') == 1
        assert len(read_log(log)) == 2

    def test_read_log_rejects_non_utf8(self, sweep_pool, pressure_model,
                                       tmp_path):
        log = tmp_path / "telemetry.ndjson"
        process_frames(frames_from_sweeps(sweep_pool[:2]), pressure_model, log)
        log.write_bytes(log.read_bytes().replace(b"mmHg", b"mm\xffHg", 1))
        with pytest.raises(DomainError, match="telemetry.ndjson: not UTF-8"):
            read_log(log)

    def test_each_record_is_flushed(self, sweep_pool, pressure_model,
                                    tmp_path):
        log = tmp_path / "telemetry.ndjson"
        writer = _LogWriter(log)
        try:
            for n, raw in enumerate(frames_from_sweeps(sweep_pool[:3]), 2):
                writer.append(record_of(raw, pressure_model))
                assert log.read_bytes().count(b"\n") == n
        finally:
            writer.close()

    def test_one_write_per_record(self, sweep_pool, pressure_model,
                                  tmp_path):
        records = [record_of(raw, pressure_model)
                   for raw in mixed_frames(sweep_pool)]
        writer = _LogWriter(tmp_path / "log.ndjson")
        fh = writer._fh = _ShortWrites(writer._fh)
        try:
            for record in records:
                writer.append(record)
        finally:
            writer.close()
        assert fh.calls == [
            (oracles.reference_record_to_json(r) + "\n").encode()
            for r in records]

    @pytest.mark.parametrize("most", [1, 7, 100])
    def test_a_short_write_is_finished(self, sweep_pool, pressure_model,
                                       tmp_path, most):
        """A write that takes at most `most` bytes is followed by writes of
        the rest, so the log is the one full writes give."""
        frames = mixed_frames(sweep_pool)
        full = log_frame_by_frame(frames, pressure_model,
                                  tmp_path / "full.ndjson")
        log = tmp_path / "short.ndjson"
        log.write_bytes(full[:full.index(b"\n") + 1])  # the schema line
        writer = _LogWriter(log)
        fh = writer._fh = _ShortWrites(writer._fh, most)
        try:
            for raw in frames:
                writer.append(record_of(raw, pressure_model))
        finally:
            writer.close()
        assert log.read_bytes() == full
        assert len(fh.calls) > len(frames)
        assert all(len(data) > 0 for data in fh.calls)

    def test_a_write_that_takes_nothing_is_an_os_error(
            self, sweep_pool, pressure_model, tmp_path):
        """Not a silently cut line: the append raises, and the next writer
        drops the torn line as it drops any other."""
        frames = frames_from_sweeps(sweep_pool[:3])
        log = tmp_path / "log.ndjson"
        process_frames(frames[:2], pressure_model, log)
        whole = log.read_bytes()
        writer = _LogWriter(log)
        writer._fh = _ShortWrites(writer._fh, 10, stall_after=1)
        try:
            with pytest.raises(OSError, match=re.escape(
                    f"{log}: a write took none of the last ")):
                writer.append(record_of(frames[2], pressure_model))
        finally:
            writer.close()
        assert log.read_bytes().startswith(whole)
        assert len(log.read_bytes()) == len(whole) + 10
        process_frames(frames[2:], pressure_model, log)
        assert log.read_bytes() == log_frame_by_frame(
            frames, pressure_model, tmp_path / "clean.ndjson")

    def test_read_log_refuses_an_int_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "long.ndjson"
        path.write_text(f'{{"schema": "{LOG_SCHEMA}"}}\n'
                        f'{{"device_id": {"9" * 5000}}}\n')
        with pytest.raises(DomainError, match=(
                "long.ndjson: line 2 is not JSON .*4300 digits")):
            read_log(path)

    def test_read_log_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"schema": "other/9"}\n')
        with pytest.raises(DomainError):
            read_log(path)
        path.write_text("")
        with pytest.raises(DomainError):
            read_log(path)
        path.write_text('["schema"]\n')
        with pytest.raises(DomainError):
            read_log(path)


class _ShortWrites:
    """A log file that records each write's bytes and writes at most `most`
    of them, or none after `stall_after` writes."""

    def __init__(self, fh, most=None, stall_after=None):
        self.fh, self.most, self.stall_after = fh, most, stall_after
        self.calls = []

    def write(self, data):
        self.calls.append(bytes(data))
        if self.stall_after is not None and len(self.calls) > self.stall_after:
            return 0
        return self.fh.write(data[:self.most])

    def close(self):
        self.fh.close()


_NUMBERS = st.one_of(st.none(), st.sampled_from([0.0, -0.0, math.nan,
                                                  math.inf, -math.inf]),
                     st.floats())
_U64 = st.integers(0, 2 ** 64 - 1)
_NAMES = st.one_of(st.sampled_from(["mmHg", "percent-strain", 'say "no"',
                                    "back\\slash", "\u00b5m", "\u2103",
                                    "tab\tnew\nline"]),
                   st.text(max_size=12))

_RECORDS = st.builds(
    MeasurandRecord, device_id=_U64, timestamp_us=_U64, f0_hat_hz=_NUMBERS,
    measurand_value=_NUMBERS, measurand_unit=_NAMES, calibration_id=_NAMES,
    quality=st.sampled_from(["ok", "extrapolated", "no_resonance"]),
    error=st.one_of(st.none(), st.sampled_from(["checksum_mismatch",
                                                "domain_error"]), _NAMES))


class TestRecordLines:
    """The writer's lines against the dict + json.dumps encoder it
    replaced, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(batch=st.lists(_RECORDS, min_size=1, max_size=6))
    def test_lines_match_reference_encoder(self, batch):
        batch = batch + batch[::-1]  # repeats reuse the cached tails
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.ndjson"
            writer = _LogWriter(path)
            for record in batch:
                writer.append(record)
            writer.close()
            written = path.read_bytes()
        lines = [json.dumps({"schema": LOG_SCHEMA})]
        lines += [oracles.reference_record_to_json(r) for r in batch]
        assert written == ("\n".join(lines) + "\n").encode()


def _log_text(records) -> bytes:
    return "".join(oracles.reference_record_to_json(r) + "\n"
                   for r in records).encode()


_SCHEMA_BYTES = (json.dumps({"schema": LOG_SCHEMA}) + "\n").encode()
_RECORD_LINES = st.lists(_RECORDS, max_size=3).map(_log_text)


@st.composite
def _torn_line(draw, line: bytes) -> bytes:
    """A proper prefix of line without its newline, as a writer that
    stopped mid-record leaves it."""
    return line[:draw(st.integers(0, len(line) - 2))]


# The bytes a log file may hold when a writer opens it.
_EXISTING = st.one_of(
    st.just(b""),
    _RECORD_LINES.map(lambda lines: _SCHEMA_BYTES + lines),
    st.tuples(_RECORD_LINES, _RECORDS.map(lambda r: _log_text([r])).flatmap(
        _torn_line)).map(lambda t: _SCHEMA_BYTES + t[0] + t[1]),
    _torn_line(_SCHEMA_BYTES),
    _RECORD_LINES.map(lambda lines: (_SCHEMA_BYTES + lines)[:-1]),
    st.tuples(st.sampled_from([b'{"schema": "maicas-log/9"}', b"[1,2]",
                               b'{"schema": 1}', b'"maicas-log/1"',
                               b"hello", b"", b"{", b"hello\r",
                               b"\xff", b'{"schema": "\xe9"}',
                               b'{"schema": "maicas-log/1"}\xff',
                               b'{"schema": "maicas-log/1"}\r{}']),
              st.booleans(), _RECORD_LINES).map(
        lambda t: t[0] + b"\n" * t[1] + t[2]),
    st.binary(max_size=40),
)


def _records(data: bytes):
    """read_log of a file holding data, or None when it refuses the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.ndjson"
        path.write_bytes(data)
        try:
            return read_log(path)
        except DomainError:
            return None


class TestLogHead:
    """The writer refuses a log its reader refuses, and leaves it as it
    was; into any other log it appends."""

    @settings(max_examples=300, deadline=None)
    @given(existing=_EXISTING, batch=st.lists(_RECORDS, min_size=1,
                                              max_size=3))
    def test_refuse_unchanged_or_append(self, existing, batch):
        before = _records(existing) if existing else []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.ndjson"
            path.write_bytes(existing)
            try:
                writer = _LogWriter(path)
            except DomainError as exc:
                assert str(path) in str(exc)
                assert path.read_bytes() == existing
                assert before is None  # the reader refuses it too
                return
            for record in batch:
                writer.append(record)
            writer.close()
            after = _records(path.read_bytes())
        new = [json.loads(oracles.reference_record_to_json(r))
               for r in batch]
        if before is None:  # a torn last line is dropped
            whole_lines = existing[:existing.rfind(b"\n") + 1]
            before = _records(whole_lines) if whole_lines else []
        if before is not None:
            assert json.dumps(after) == json.dumps(before + new)

    @settings(max_examples=300, deadline=None)
    @given(existing=_EXISTING, block=st.integers(1, 9))
    @example(existing=_SCHEMA_BYTES + b'{"torn', block=1)
    @example(existing=_SCHEMA_BYTES + b'{"device_id": 1}', block=1)
    def test_read_back_block_leaves_what_a_whole_read_left(self, existing,
                                                           block):
        """Whatever the block size, _prepare_append keeps a last line that
        parses, adding its newline, and cuts any other back to the last
        newline, as when it read the whole file to find that newline."""
        if existing and not existing.endswith(b"\n"):
            kept = existing.rfind(b"\n") + 1
            if telemetry._entries(existing[kept:]) is not None:
                want = existing + b"\n"
            else:
                want = existing[:kept]
        else:
            want = existing
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as patch:
            patch.setattr(telemetry, "_TAIL_BLOCK", block)
            path = Path(tmp) / "log.ndjson"
            path.write_bytes(existing)
            try:
                size = telemetry._prepare_append(path)
            except DomainError:
                assert path.read_bytes() == existing
                return
            assert path.read_bytes() == want
            assert size == len(want)

    @pytest.mark.parametrize("content,head", [
        (b'hello\n{"device_id": 1}\n{"torn', b"hello\n"),
        (b"hello", b"hello"),
        (b'{"schema": "maicas-log/9"}\n{"torn',
         b'{"schema": "maicas-log/9"}\n'),
        (b"[1,2]\n", b"[1,2]\n"),
        (b"\xff\xfe\n{}\n", b"\xff\xfe\n"),
        (b"x" * 100, b"x" * 80)])
    def test_foreign_head_is_refused(self, sweep_pool, pressure_model,
                                     tmp_path, content, head):
        """The message names the file and at most 80 bytes of its first
        line; nothing is cut or appended."""
        log = tmp_path / "telemetry.ndjson"
        log.write_bytes(content)
        with pytest.raises(DomainError) as excinfo:
            process_frames(frames_from_sweeps(sweep_pool[:2]),
                           pressure_model, log)
        assert str(excinfo.value) == (
            f"{log}: not a {LOG_SCHEMA} log, its first line is "
            f"{head!r}; nothing appended")
        assert log.read_bytes() == content


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@contextlib.contextmanager
def serving(frames, frame_interval_s=0.0):
    """A loopback frame server for the block. Yields the server."""
    server, _ = start_server(frames, port=0, frame_interval_s=frame_interval_s)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@contextlib.contextmanager
def payload_server(payload: bytes):
    """A loopback server that sends payload to each client and then closes
    the connection. Yields its port."""
    with serving([payload]) as server:
        yield server.server_address[1]


def session_bytes(server) -> bytes:
    """Everything one client receives, up to the server's close."""
    with socket.create_connection(server.server_address) as client:
        return b"".join(iter(lambda: client.recv(1 << 16), b""))


@pytest.fixture()
def sendall_calls(monkeypatch):
    """The outcome of every socket sendall in call order: the byte count
    it sent, or the OSError it raised."""
    calls = []
    real = socket.socket.sendall

    def recording(sock, data, *args):
        try:
            real(sock, data, *args)
        except OSError as exc:
            calls.append(exc)
            raise
        calls.append(len(data))

    monkeypatch.setattr(socket.socket, "sendall", recording)
    return calls


@pytest.fixture()
def sleeps(monkeypatch):
    """The gateway's backoff sleeps in call order, which return at once.
    telemetry.time.sleep is the process-wide time.sleep, so only calls on
    the test's own thread are recorded; a frame server's pause between
    frames, on its handler thread, really sleeps."""
    calls = []
    real = time.sleep
    test_thread = threading.get_ident()

    def recording(seconds):
        if threading.get_ident() == test_thread:
            calls.append(seconds)
        else:
            real(seconds)

    monkeypatch.setattr(telemetry.time, "sleep", recording)
    return calls


class TestFrameServer:
    @pytest.mark.parametrize("interval", [0.0, 0.001])
    def test_a_session_is_one_write_unless_paced(self, sweep_pool,
                                                 sendall_calls, interval):
        frames = frames_from_sweeps(sweep_pool * 5)
        assert len(frames) == 200
        with serving(frames, interval) as server:
            assert session_bytes(server) == b"".join(frames)
        expected = ([len(f) for f in frames] if interval
                    else [len(b"".join(frames))])
        assert sendall_calls == expected

    @pytest.mark.parametrize("n, interval, pauses", [
        (5, 0.25, [0.25] * 4), (1, 0.25, []), (0, 0.25, []), (5, 0.0, [])])
    def test_a_paced_session_pauses_between_frames_only(
            self, sweep_pool, monkeypatch, n, interval, pauses):
        slept = []
        monkeypatch.setattr(telemetry.time, "sleep", slept.append)
        frames = frames_from_sweeps(sweep_pool[:n])
        with serving(frames, interval) as server:
            assert session_bytes(server) == b"".join(frames)
        assert slept == pauses

    def test_a_client_that_leaves_mid_write(self, sweep_pool, pressure_model,
                                            sendall_calls, capfd, tmp_path):
        # three 8 MB frames after the small ones, more than the loopback
        # buffers hold: a gateway that takes three frames and closes leaves
        # the server inside its one sendall. Their flipped bit makes each a
        # cheap ChecksumMismatch record.
        n = 1 << 21
        big = bytearray(encode_frame(
            1, 0, S11Sweep(1.5e9, 2.0e9, n, np.full(n, -1.0))))
        big[HEADER_SIZE] ^= 1
        frames = frames_from_sweeps(sweep_pool[:4]) + [bytes(big)] * 3
        with serving(frames) as server:
            port = server.server_address[1]
            first = gateway("127.0.0.1", port, pressure_model,
                            tmp_path / "left.ndjson", max_frames=3)
            full = gateway("127.0.0.1", port, pressure_model,
                           tmp_path / "live.ndjson", max_frames=len(frames))
        assert first.frames_seen == 3
        assert full.frames_seen == len(frames)
        assert full.reconnects == 0
        left = [c for c in sendall_calls if isinstance(c, OSError)]
        assert len(left) == 1
        assert [c for c in sendall_calls if c not in left] == [
            len(b"".join(frames))]
        process_frames(frames, pressure_model, tmp_path / "offline.ndjson")
        assert ((tmp_path / "live.ndjson").read_bytes()
                == (tmp_path / "offline.ndjson").read_bytes())
        assert "Traceback" not in capfd.readouterr().err

    def test_the_longest_pause_is_accepted(self):
        with serving([], telemetry.MAX_SERVE_INTERVAL_S) as server:
            assert server.frame_interval_s == telemetry.MAX_SERVE_INTERVAL_S

    def test_shutdown_returns_promptly(self):
        with serving([]) as server:
            time.sleep(0.02)  # let serve_forever enter its poll
            start = time.perf_counter()
            server.shutdown()
            assert time.perf_counter() - start < 0.2


class TestGateway:
    def run_loopback(self, frames, model, log, **kwargs):
        server, _ = start_server(frames, port=free_port())
        try:
            port = server.server_address[1]
            return gateway("127.0.0.1", port, model, log,
                           max_frames=len(frames), **kwargs)
        finally:
            server.shutdown()
            server.server_close()

    def test_loopback_matches_offline_processing(self, sweep_pool,
                                                 pressure_model, tmp_path):
        frames = frames_from_sweeps(sweep_pool[:8], device_id=2)
        stats = self.run_loopback(frames, pressure_model,
                                  tmp_path / "live.ndjson")
        assert stats == GatewayStats(frames_seen=8, records_ok=8,
                                     records_extrapolated=0, records_error=0,
                                     reconnects=0)
        process_frames(frames, pressure_model, tmp_path / "offline.ndjson")
        live = read_log(tmp_path / "live.ndjson")
        offline = read_log(tmp_path / "offline.ndjson")
        assert live == offline
        assert [r["timestamp_us"] for r in live] == \
               [i * 1000 for i in range(8)]

    def test_model_hashed_once_per_call(self, sweep_pool, pressure_model,
                                        tmp_path, id_calls):
        frames = mixed_frames(sweep_pool)
        stats = self.run_loopback(frames, pressure_model,
                                  tmp_path / "live.ndjson")
        assert stats.frames_seen == len(frames)
        assert id_calls == [pressure_model]
        assert ((tmp_path / "live.ndjson").read_bytes()
                == log_frame_by_frame(frames, pressure_model,
                                      tmp_path / "by_frame.ndjson"))

    def test_corrupt_frame_mid_stream_logged_and_skipped(self, sweep_pool,
                                                         pressure_model,
                                                         tmp_path):
        frames = frames_from_sweeps(sweep_pool[:5])
        hit = bytearray(frames[1])
        hit[70] ^= 2
        frames[1] = bytes(hit)
        stats = self.run_loopback(frames, pressure_model,
                                  tmp_path / "log.ndjson")
        assert stats.frames_seen == 5
        assert stats.records_ok == 4
        assert stats.records_error == 1
        qualities = [r["quality"] for r in read_log(tmp_path / "log.ndjson")]
        assert qualities[1] == "no_resonance"

    def test_two_clients_replay_independently(self, sweep_pool,
                                              pressure_model, tmp_path):
        frames = frames_from_sweeps(sweep_pool[:3])
        server, _ = start_server(frames, port=free_port())
        try:
            port = server.server_address[1]
            for name in ("a.ndjson", "b.ndjson"):
                stats = gateway("127.0.0.1", port, pressure_model,
                                tmp_path / name, max_frames=3)
                assert stats.frames_seen == 3
        finally:
            server.shutdown()
            server.server_close()
        assert (read_log(tmp_path / "a.ndjson")
                == read_log(tmp_path / "b.ndjson"))

    def test_backoff_sequence_against_closed_port(self, pressure_model,
                                                  tmp_path, sleeps):
        stats = gateway("127.0.0.1", free_port(), pressure_model,
                        tmp_path / "none.ndjson", max_connect_attempts=6)
        assert stats.frames_seen == 0
        assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0]

    def test_backoff_cap(self, pressure_model, tmp_path, sleeps):
        gateway("127.0.0.1", free_port(), pressure_model,
                tmp_path / "none.ndjson", max_connect_attempts=9)
        assert sleeps == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]

    def test_no_reconnect_stops_after_first_failure(self, pressure_model,
                                                    tmp_path, sleeps):
        stats = gateway("127.0.0.1", free_port(), pressure_model,
                        tmp_path / "none.ndjson", reconnect=False)
        assert stats.frames_seen == 0
        assert sleeps == []

    def test_reconnects_after_the_server_closes(self, sweep_pool,
                                                 pressure_model, tmp_path,
                                                 sleeps):
        frames = mixed_frames(sweep_pool)
        n = len(frames)
        with payload_server(b"".join(frames)) as port:
            stats = gateway("127.0.0.1", port, pressure_model,
                            tmp_path / "live.ndjson", max_frames=2 * n + 3)
        counts = process_frames((frames * 3)[:2 * n + 3], pressure_model,
                                tmp_path / "offline.ndjson")
        assert stats == GatewayStats(
            frames_seen=2 * n + 3, records_ok=counts["ok"],
            records_extrapolated=counts["extrapolated"],
            records_error=counts["no_resonance"], reconnects=2)
        assert sleeps == [0.5, 0.5]
        assert ((tmp_path / "live.ndjson").read_bytes()
                == (tmp_path / "offline.ndjson").read_bytes())

    @pytest.mark.parametrize("reconnect", [True, False])
    def test_torn_frame_ends_the_session(self, sweep_pool, pressure_model,
                                         tmp_path, sleeps, reconnect):
        # a torn frame is lost framing, not a clean end of stream, so the
        # gateway reconnects even with reconnect=False
        frames = mixed_frames(sweep_pool)
        payload = b"".join(frames[:3]) + frames[3][:HEADER_SIZE + 10]
        with payload_server(payload) as port:
            stats = gateway("127.0.0.1", port, pressure_model,
                            tmp_path / "live.ndjson", max_frames=9,
                            reconnect=reconnect)
        counts = process_frames(frames[:3] * 3, pressure_model,
                                tmp_path / "offline.ndjson")
        assert stats == GatewayStats(
            frames_seen=9, records_ok=counts["ok"],
            records_extrapolated=counts["extrapolated"],
            records_error=counts["no_resonance"], reconnects=2)
        assert sleeps == [0.5, 0.5]
        assert ((tmp_path / "live.ndjson").read_bytes()
                == (tmp_path / "offline.ndjson").read_bytes())

    def test_no_reconnect_ends_at_a_clean_end_of_stream(
            self, sweep_pool, pressure_model, tmp_path, sleeps):
        frames = mixed_frames(sweep_pool)
        with payload_server(b"".join(frames)) as port:
            stats = gateway("127.0.0.1", port, pressure_model,
                            tmp_path / "live.ndjson", reconnect=False)
        assert stats.frames_seen == len(frames)
        assert stats.reconnects == 0
        assert sleeps == []

    def test_zero_max_frames_never_connects(self, pressure_model, tmp_path,
                                            sleeps):
        log = tmp_path / "none.ndjson"
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.setblocking(False)
            stats = gateway("127.0.0.1", listener.getsockname()[1],
                            pressure_model, log, max_frames=0)
            with pytest.raises(BlockingIOError):
                listener.accept()
        assert stats == GatewayStats(0, 0, 0, 0, 0)
        assert sleeps == []
        assert log.read_text() == json.dumps({"schema": LOG_SCHEMA}) + "\n"

    def test_frames_slower_than_the_connect_timeout(
            self, sweep_pool, pressure_model, tmp_path, monkeypatch, sleeps):
        # only the connect is timed: a server that paces its frames more
        # slowly than the connect timeout keeps its one session
        monkeypatch.setattr(telemetry, "CONNECT_TIMEOUT_S", 0.1)
        frames = frames_from_sweeps(sweep_pool[:3])
        server, _ = start_server(frames, port=0, frame_interval_s=0.25)
        try:
            stats = gateway("127.0.0.1", server.server_address[1],
                            pressure_model, tmp_path / "live.ndjson",
                            max_frames=3)
        finally:
            server.shutdown()
            server.server_close()
        assert stats.reconnects == 0
        assert sleeps == []
        assert [r["timestamp_us"] for r in read_log(tmp_path / "live.ndjson")
                ] == [0, 1000, 2000]

    @pytest.mark.parametrize("counts", [
        {"max_frames": -1}, {"max_frames": -3},
        {"max_connect_attempts": 0}, {"max_connect_attempts": -2}])
    def test_negative_counts_are_domain_errors(self, pressure_model,
                                               tmp_path, sleeps, counts):
        log = tmp_path / "none.ndjson"
        with pytest.raises(DomainError):
            gateway("127.0.0.1", free_port(), pressure_model, log,
                    **counts)
        assert sleeps == []
        assert not log.exists()

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_port_outside_the_u16_range(self, pressure_model, tmp_path,
                                        port):
        log = tmp_path / "none.ndjson"
        with pytest.raises(DomainError, match=str(port)):
            gateway("127.0.0.1", port, pressure_model, log,
                    max_connect_attempts=1)
        assert not log.exists()
        with pytest.raises(DomainError, match=str(port)):
            start_server([], port=port)


def test_default_port_env_override(monkeypatch):
    monkeypatch.delenv("MAICAS_PORT", raising=False)
    assert default_port() == 47917
    monkeypatch.setenv("MAICAS_PORT", "50123")
    assert default_port() == 50123
    monkeypatch.setenv("MAICAS_PORT", "0")  # any free port, as --port 0
    assert default_port() == 0
    monkeypatch.setenv("MAICAS_PORT", "65535")
    assert default_port() == 65535
    for bad in ("65536", "-1", "port"):
        monkeypatch.setenv("MAICAS_PORT", bad)
        with pytest.raises(DomainError, match="MAICAS_PORT"):
            default_port()
