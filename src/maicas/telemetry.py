"""Binary frame protocol and the log-writing gateway.

Frame layout (little-endian): magic "MAIC", version u8, device_id u64,
timestamp_us u64, f_start f64, f_stop f64, n_points u32, then n_points
float32 reflection magnitudes, then CRC-32 over everything before it.
Total size 45 + 4*n_points bytes.

The decoder verifies the checksum before interpreting any field, so any
single corrupted bit in a frame surfaces as ChecksumMismatch rather than a
misleading semantic error. BadMagic and the other structural errors are
reserved for internally consistent but foreign or malformed buffers.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .calibration import CalibrationModel, invert
from .dsp import extract_resonance
from .errors import (BadMagic, ChecksumMismatch, DomainError, FrameError,
                     InvalidGrid, MaicasError, MalformedLength,
                     UnsupportedVersion)
from .jsonio import read_text
from .readout import S11Sweep, _check_grid

if TYPE_CHECKING:
    import socketserver

MAGIC = b"MAIC"
PROTOCOL_VERSION = 1
_HEADER = struct.Struct("<4sBQQddI")
HEADER_SIZE = _HEADER.size  # 41
_CRC = struct.Struct("<I")

DEFAULT_PORT = 47917
PORT_ENV_VAR = "MAICAS_PORT"

# gateway backoff between connections; a successful connect resets it
BACKOFF_INITIAL_S = 0.5
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_S = 30.0
CONNECT_TIMEOUT_S = 5.0  # of the connect only: a read waits for its frame

FRAME_INTERVAL_US = 1000  # timestamp step of synthesized frames, from 0
MAX_SERVE_INTERVAL_S = 86400.0  # longest pause start_server takes: one day

# refuse to buffer absurd frames when framing off a live stream
MAX_STREAM_POINTS = 1 << 24

LOG_SCHEMA = "maicas-log/1"
_SCHEMA_LINE = (json.dumps({"schema": LOG_SCHEMA}) + "\n").encode()


def _checked_port(port: int, source: str) -> int:
    """port, or DomainError naming its source when outside 0..65535."""
    if not 0 <= port <= 65535:
        raise DomainError(f"{source} {port} outside 0..65535")
    return port


def default_port() -> int:
    """Port from the environment override, else the fixed default."""
    raw = os.environ.get(PORT_ENV_VAR)
    if raw is None:
        return DEFAULT_PORT
    try:
        return _checked_port(int(raw), PORT_ENV_VAR)
    except ValueError:
        raise DomainError(f"{PORT_ENV_VAR}={raw!r} is not an integer")


@dataclass(frozen=True, eq=False)
class TelemetryFrame:
    device_id: int
    timestamp_us: int
    f_start: float
    f_stop: float
    n_points: int
    magnitude_db: np.ndarray  # float32 values widened to float64

    @property
    def sweep(self) -> S11Sweep:
        return S11Sweep(self.f_start, self.f_stop, self.n_points,
                        self.magnitude_db)


def encode_frame(device_id: int, timestamp_us: int, sweep: S11Sweep) -> bytes:
    """Serialize one sweep. Magnitudes are quantized to float32."""
    if not 0 <= device_id < 2 ** 64:
        raise DomainError(f"device_id {device_id} outside u64 range")
    if not 0 <= timestamp_us < 2 ** 64:
        raise DomainError(f"timestamp_us {timestamp_us} outside u64 range")
    if sweep.n_points >= 2 ** 32:
        raise DomainError("n_points outside u32 range")
    header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, device_id, timestamp_us,
                          sweep.f_start, sweep.f_stop, sweep.n_points)
    payload = np.asarray(sweep.magnitude_db, dtype="<f4").tobytes()
    body = header + payload
    return body + _CRC.pack(zlib.crc32(body))


def decode_frame(buf: bytes) -> TelemetryFrame:
    """Parse and validate one complete frame buffer.

    Validation order: structural length, checksum, magic, version, declared
    point count against the buffer, grid sanity.
    """
    if len(buf) < HEADER_SIZE + 4:
        raise MalformedLength(
            f"frame of {len(buf)} bytes is shorter than the minimum "
            f"{HEADER_SIZE + 4}")
    stored = _CRC.unpack_from(buf, len(buf) - 4)[0]
    actual = zlib.crc32(memoryview(buf)[:-4])
    if stored != actual:
        raise ChecksumMismatch(
            f"CRC stored {stored:#010x} != computed {actual:#010x}")
    magic, version, device_id, timestamp_us, f_start, f_stop, n_points = \
        _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise UnsupportedVersion(f"version {version} not supported")
    expected = HEADER_SIZE + 4 * n_points + 4
    if len(buf) != expected:
        raise MalformedLength(
            f"frame of {len(buf)} bytes does not match declared "
            f"n_points {n_points} ({expected} bytes)")
    try:
        _check_grid(f_start, f_stop, n_points)
    except DomainError as exc:
        raise InvalidGrid(str(exc)) from None
    mags = np.frombuffer(buf, dtype="<f4", count=n_points,
                         offset=HEADER_SIZE).astype(np.float64)
    return TelemetryFrame(device_id, timestamp_us, f_start, f_stop,
                          int(n_points), mags)


def read_frame(stream) -> bytes | None:
    """Pull one raw frame off a binary stream using the declared length.
    Returns None at a clean end of stream; raises MalformedLength on
    truncation. Content validation is decode_frame's job."""
    header = stream.read(HEADER_SIZE)
    if len(header) == 0:
        return None
    if len(header) < HEADER_SIZE:
        raise MalformedLength(
            f"stream ended inside a frame header ({len(header)} bytes)")
    n_points = _HEADER.unpack(header)[-1]
    if n_points > MAX_STREAM_POINTS:
        raise MalformedLength(
            f"declared n_points {n_points} exceeds the stream cap")
    rest_size = 4 * n_points + 4
    rest = stream.read(rest_size)
    if len(rest) < rest_size:
        raise MalformedLength(
            f"stream ended inside a frame body ({len(rest)}/{rest_size} bytes)")
    return header + rest


def frames_from_sweeps(sweeps, device_id: int = 1) -> list[bytes]:
    """One frame per sweep, timestamped FRAME_INTERVAL_US apart from 0."""
    return [encode_frame(device_id, i * FRAME_INTERVAL_US, sw)
            for i, sw in enumerate(sweeps)]


def frames_from_result(result, device_id: int = 1) -> list[bytes]:
    """Flatten an ExperimentResult's noisy sweeps in grid-then-repeat
    order."""
    sweeps = [sweep for point in result.points for sweep in point.sweeps]
    return frames_from_sweeps(sweeps, device_id)


@functools.cache
def _frame_server_class() -> type:
    """_FrameServer, built on the first start_server: importing the package
    does not load socketserver, which only serving needs."""
    import socketserver

    class _FrameHandler(socketserver.BaseRequestHandler):
        def handle(self):
            try:
                for i, chunk in enumerate(self.server.chunks):
                    if i:
                        time.sleep(self.server.frame_interval_s)
                    self.request.sendall(chunk)
            except OSError:
                pass  # client went away; other sessions are unaffected

    class _FrameServer(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

        def __init__(self, address, frames: list[bytes],
                     frame_interval_s: float):
            # unpaced: one write a session, not a send and GIL handover a frame
            self.chunks = (frames if frame_interval_s > 0
                           else [b"".join(frames)])
            self.frame_interval_s = frame_interval_s
            super().__init__(address, _FrameHandler)

    return _FrameServer


def start_server(frames: list[bytes], host: str = "127.0.0.1",
                 port: int | None = None,
                 frame_interval_s: float = 0.0) -> tuple[socketserver.TCPServer, threading.Thread]:
    """Bind and serve the frame list on a background thread; port 0 binds
    a free one. Every client connection replays the full list, pausing
    frame_interval_s between frames; a pause outside 0..MAX_SERVE_INTERVAL_S
    is a DomainError. With no pause a session is one write of the whole
    dump: the server joins the frames once, here, and holds that copy
    (330 kB for 200 401-point frames, 8 MB for 1000 2001-point ones).
    Returns (server, thread); call server.shutdown(), which returns within
    about 50 ms, then server.server_close()."""
    if not 0 <= frame_interval_s <= MAX_SERVE_INTERVAL_S:
        raise DomainError(f"frame interval {frame_interval_s} s outside "
                          f"0..{MAX_SERVE_INTERVAL_S:g} s")
    port = default_port() if port is None else _checked_port(port, "port")
    server = _frame_server_class()((host, port), list(frames),
                                   frame_interval_s)
    # shutdown() waits up to one poll; an idle server wakes ~20 times a second
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    return server, thread


@dataclass(frozen=True)
class MeasurandRecord:
    device_id: int
    timestamp_us: int
    f0_hat_hz: float | None
    measurand_value: float | None
    measurand_unit: str
    calibration_id: str
    quality: str  # ok | extrapolated | no_resonance
    error: str | None = None


def calibration_id_of(model: CalibrationModel) -> str:
    """Short stable content hash naming the calibration used."""
    digest = hashlib.sha256(model.to_json().encode()).hexdigest()
    return digest[:12]


def _snake_case(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


@functools.lru_cache(maxsize=64)
def _record_tail(unit: str, cal_id: str, quality: str,
                 error: str | None) -> str:
    """The end of a record line, from the key after measurand_value to the
    newline, as json.dumps writes it."""
    obj = {"measurand_unit": unit, "calibration_id": cal_id,
           "quality": quality}
    if error is not None:
        obj["error"] = error
    return json.dumps(obj)[1:] + "\n"


def _json_number(value) -> str:
    """json.dumps of one number or None; finite floats, ints and None skip
    the encoder."""
    kind = type(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)
    if value is None:
        return "null"
    return json.dumps(value)  # NaN, Infinity, -Infinity, other types


def record_from_frame(raw: bytes, model: CalibrationModel, *,
                      cal_id: str) -> MeasurandRecord:
    """Decode, extract and invert one frame into a log record. Any package
    error (MaicasError) these raise becomes a no_resonance record naming
    it; a frame that does not decode keeps device_id and timestamp_us at 0.

    cal_id must be calibration_id_of(model), hashed once by the caller for
    all the frames it logs against the model.
    """
    device_id = timestamp_us = 0
    try:
        frame = decode_frame(raw)
        device_id, timestamp_us = frame.device_id, frame.timestamp_us
        estimate = extract_resonance(frame.sweep)
        inversion = invert(model, estimate.f0_hat)
    except MaicasError as exc:
        return MeasurandRecord(
            device_id=device_id, timestamp_us=timestamp_us, f0_hat_hz=None,
            measurand_value=None, measurand_unit=model.measurand_unit,
            calibration_id=cal_id, quality="no_resonance",
            error=_snake_case(type(exc).__name__))
    return MeasurandRecord(
        device_id=device_id, timestamp_us=timestamp_us,
        f0_hat_hz=estimate.f0_hat, measurand_value=inversion.value,
        measurand_unit=model.measurand_unit, calibration_id=cal_id,
        quality="extrapolated" if inversion.extrapolated else "ok")


@dataclass(frozen=True)
class GatewayStats:
    frames_seen: int
    records_ok: int
    records_extrapolated: int
    records_error: int
    reconnects: int


def _is_schema(head) -> bool:
    """Whether a log's parsed first line names this module's schema."""
    return isinstance(head, dict) and head.get("schema") == LOG_SCHEMA


def _entries(data: bytes) -> list | None:
    """The JSON values read_log parses from the lines of data, or None
    where it would refuse one of them."""
    try:
        return [json.loads(line) for line in data.decode("utf-8").splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def _check_head(path: Path, head: bytes) -> None:
    """DomainError naming path and head unless head, the first line of a
    non-empty log, is a schema line read_log accepts or a torn start of the
    one _LogWriter writes."""
    if not head.endswith(b"\n") and _SCHEMA_LINE.startswith(head):
        return
    entries = _entries(head)
    if not (entries and _is_schema(entries[0])):
        raise DomainError(f"{path}: not a {LOG_SCHEMA} log, its first line "
                          f"is {head[:80]!r}; nothing appended")


def _prepare_append(path: Path) -> int:
    """Check the head of an existing log, then make it end in a newline.
    A last line that read_log parses only lacks its newline, which is
    added; any other partial last line, left by a writer that stopped
    mid-record, is cut back to the last newline. Returns the size of the
    file afterwards (0 for a missing file). A head _check_head refuses
    raises before anything is changed."""
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return 0
    with fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return 0
        fh.seek(0)
        _check_head(path, fh.readline())
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return size
        fh.seek(0)
        data = fh.read()
        kept = data.rfind(b"\n") + 1
        if _entries(data[kept:]) is not None:
            fh.write(b"\n")
            return size + 1
        fh.truncate(kept)
        return kept


class _LogWriter:
    """Append-only NDJSON log. The first line of a fresh file names the
    schema. An existing file whose first line read_log would refuse is a
    DomainError, and the file is left as it was. A torn last line is
    dropped before the first append (see _prepare_append), so each record
    starts on its own line.

    A record line is what json.dumps writes for the record's fields, error
    only when set. The string fields after the numbers (unit, calibration
    id, quality, error) repeat from record to record, so their JSON is
    encoded once per combination: _record_tail is an lru_cache shared by
    all writers."""

    def __init__(self, path):
        self.path = Path(path)
        fresh = _prepare_append(self.path) == 0
        self._fh = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write(_SCHEMA_LINE.decode())

    def _write(self, text: str) -> None:
        self._fh.write(text)
        self._fh.flush()

    def append(self, record: MeasurandRecord) -> None:
        self._write(
            f'{{"device_id": {_json_number(record.device_id)}, '
            f'"timestamp_us": {_json_number(record.timestamp_us)}, '
            f'"f0_hat_hz": {_json_number(record.f0_hat_hz)}, '
            f'"measurand_value": {_json_number(record.measurand_value)}, '
            + _record_tail(record.measurand_unit, record.calibration_id,
                           record.quality, record.error))

    def close(self) -> None:
        self._fh.close()


def read_log(path) -> list[dict]:
    """Parse an NDJSON log, checking the schema line. A line that is not
    JSON raises DomainError naming the path and the line number."""
    lines = read_text(path).splitlines()
    if not lines:
        raise DomainError(f"{path}: empty log")
    entries = []
    for number, line in enumerate(lines, 1):
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise DomainError(
                f"{path}: line {number} is not JSON ({exc.msg})") from None
    head = entries[0]
    if not _is_schema(head):
        raise DomainError(f"{path}: unknown log schema {head!r}")
    return entries[1:]


def process_frames(frames, model: CalibrationModel, log_path) -> dict[str, int]:
    """Append one record per raw frame, in order, to the NDJSON log.
    Returns quality counts. frames is any iterable: a list for replay, a
    live server's stream for the gateway."""
    cal_id = calibration_id_of(model)
    writer = _LogWriter(log_path)
    counts = {"ok": 0, "extrapolated": 0, "no_resonance": 0}
    try:
        for raw in frames:
            record = record_from_frame(raw, model, cal_id=cal_id)
            writer.append(record)
            counts[record.quality] += 1
    finally:
        writer.close()
    return counts


def split_dump(data: bytes) -> list[bytes]:
    """Split a concatenated frame dump back into frames."""
    return list(iter(functools.partial(read_frame, io.BytesIO(data)), None))


def _server_frames(address, tally: dict[str, int], *, reconnect: bool,
                   max_connect_attempts: int | None):
    """Raw frames from a server in arrival order, across connections: the
    connect, backoff and reconnect policy that gateway documents.
    tally["reconnects"] counts the connects after the first attempt."""
    import socket  # only the live gateway connects

    backoff = BACKOFF_INITIAL_S
    for attempts in itertools.count(1):
        try:
            sock = socket.create_connection(address,
                                            timeout=CONNECT_TIMEOUT_S)
            sock.settimeout(None)
        except OSError:
            if not reconnect or (max_connect_attempts is not None
                                 and attempts >= max_connect_attempts):
                return
        else:
            if attempts > 1:
                tally["reconnects"] += 1
            backoff = BACKOFF_INITIAL_S
            with sock, sock.makefile("rb") as stream:
                try:
                    yield from iter(functools.partial(read_frame, stream),
                                    None)
                except (FrameError, OSError):
                    pass  # framing lost; reconnect for a fresh stream
                else:
                    if not reconnect:
                        return  # clean end of stream
        time.sleep(backoff)
        backoff = min(backoff * BACKOFF_FACTOR, BACKOFF_CAP_S)


def gateway(host: str, port: int | None, model: CalibrationModel, log_path,
            *, max_frames: int | None = None, reconnect: bool = True,
            max_connect_attempts: int | None = None) -> GatewayStats:
    """Log the frames a server streams: process_frames over the first
    max_frames of them (all when None), read across reconnections.

    A session that ends in lost framing or a socket error is followed by a
    backoff sleep (0.5 s doubling to 30 s, reset by each connect) and a new
    connection; so is a clean end of stream unless reconnect is False. A
    refused connect is retried the same way unless reconnect is False or
    max_connect_attempts are spent. Only the connect is timed: a read waits
    for its frame however slowly the server sends it.
    max_frames < 0, max_connect_attempts < 1 and a port outside 0..65535
    are DomainErrors, raised before the log is opened."""
    if max_frames is not None and max_frames < 0:
        raise DomainError(f"max_frames must be >= 0, got {max_frames}")
    if max_connect_attempts is not None and max_connect_attempts < 1:
        raise DomainError(
            f"max_connect_attempts must be >= 1, got {max_connect_attempts}")
    port = default_port() if port is None else _checked_port(port, "port")
    tally = {"reconnects": 0}
    with contextlib.closing(_server_frames(
            (host, port), tally, reconnect=reconnect,
            max_connect_attempts=max_connect_attempts)) as frames:
        counts = process_frames(itertools.islice(frames, max_frames), model,
                                log_path)
    return GatewayStats(sum(counts.values()), counts["ok"],
                        counts["extrapolated"], counts["no_resonance"],
                        tally["reconnects"])
