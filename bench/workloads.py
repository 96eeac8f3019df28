"""Inputs and workloads of the maicas benchmark.

Every workload is a closed loop driven by one caller. It builds its inputs
from the workload seed in ``__init__`` (the set-up that ``setup_s`` times),
then runs numbered passes. A pass is the unit that ``pass_ms_p50`` and
``pass_ms_p90`` time; ``cycle`` consecutive passes cover every distinct input
once, so counts taken over whole cycles repeat exactly at a fixed seed.

The program is always reached through module attributes looked up at call
time (``scenarios.run_experiment``, ``telemetry.gateway``, ...), so the
wrappers the traced run installs see every call the workload makes. Code
that runs outside the timed pass (``absorb``, ``verify``) calls no wrapped
function while tracing is on, so it adds no spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
import struct
import zlib
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from maicas import cli, scenarios, sweepio, telemetry

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Seed streams: each input of each workload draws from its own stream of
# the workload seed, so changing one workload's inputs never moves another's.
CAMPAIGN_STREAM, REPLAY_STREAM, GATEWAY_STREAM, FILES_STREAM = 1, 2, 3, 4
HOSTILE_SUBSTREAM = 1

# Wire layout of a frame, restated here so that the hostile-frame generator
# does not depend on the program's own encoder or validation.
FRAME_HEADER = struct.Struct("<4sBQQddI")
N_POINTS_OFFSET = FRAME_HEADER.size - 4

# Documented end-to-end sensitivities (scenarios module docstrings and
# README) and the band a campaign's fitted slope must fall in.
DOCUMENTED_SLOPES = {"graft_pressure": 0.43e6, "epicardial_strain": 2.9e6}
SLOPE_BAND = 0.02


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input stream of a workload seed."""
    state = np.random.SeedSequence((seed, *keys)).generate_state(1)
    return int(state[0])


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def hostile_mix(frames: list[bytes], seed: int) -> tuple[list[bytes], list[str]]:
    """Corrupt a seeded choice of frames at the byte level.

    Exactly n//50 frames get one payload bit flipped under the stored CRC
    ("bitflip", must decode as checksum_mismatch), n//100 get a flat dipless
    payload under a recomputed CRC ("flat"), and n//200 get a NaN next to
    the dip under a recomputed CRC ("nan"). Returns the frames and the kind
    of each ("valid" for the untouched ones).
    """
    n = len(frames)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    kinds = ["valid"] * n
    n_flip, n_flat, n_nan = n // 50, n // 100, n // 200
    for pos in order[:n_flip]:
        kinds[pos] = "bitflip"
    for pos in order[n_flip:n_flip + n_flat]:
        kinds[pos] = "flat"
    for pos in order[n_flip + n_flat:n_flip + n_flat + n_nan]:
        kinds[pos] = "nan"
    out = []
    for raw, kind in zip(frames, kinds):
        if kind == "valid":
            out.append(raw)
            continue
        buf = bytearray(raw)
        n_points = struct.unpack_from("<I", buf, N_POINTS_OFFSET)[0]
        start, stop = FRAME_HEADER.size, FRAME_HEADER.size + 4 * n_points
        if kind == "bitflip":
            buf[start + int(rng.integers(4 * n_points))] ^= 1 << int(rng.integers(8))
        else:
            mags = np.frombuffer(bytes(buf[start:stop]), dtype="<f4").copy()
            if kind == "flat":
                mags = np.minimum(rng.normal(-0.2, 0.1, n_points), 0.0)
            else:
                dip = int(np.argmin(mags))
                mags[dip + 1 if dip + 1 < n_points else dip - 1] = np.nan
            buf[start:stop] = mags.astype("<f4").tobytes()
            buf[stop:] = struct.pack("<I", zlib.crc32(bytes(buf[:stop])))
        out.append(bytes(buf))
    return out, kinds


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def record_failed(record: dict, kind: str) -> bool:
    """A valid frame must give ok or extrapolated with finite values; a
    hostile one must give no_resonance."""
    if kind == "valid":
        return not (record.get("quality") in ("ok", "extrapolated")
                    and _finite(record.get("f0_hat_hz"))
                    and _finite(record.get("measurand_value")))
    return record.get("quality") != "no_resonance"


def classify(records: list[dict], kinds: list[str]) -> Counter:
    """Quality counts plus failures (wrong outcome, or a frame never
    logged) for the records of one pass, in frame order."""
    tally = Counter()
    for record, kind in zip(records, kinds):
        tally["records_" + str(record.get("quality"))] += 1
        tally["records_failed"] += record_failed(record, kind)
    tally["records_failed"] += max(0, len(kinds) - len(records))
    return tally


def parse_log(data: bytes) -> list[dict]:
    """Records of an NDJSON log, without the schema line."""
    return [json.loads(line) for line in data.decode().splitlines()[1:]]


def log_tuples(records: list[dict]) -> list[list]:
    """The fields the replay golden digest covers. Field tuples, not raw
    lines, so records that gain fields keep the digest valid."""
    return [[r.get("f0_hat_hz"), r.get("measurand_value"), r.get("quality"),
             r.get("error")] for r in records]


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class Workload:
    """Shared bookkeeping. Subclasses set name, why, cycle, sweeps_per_pass
    and implement run_pass, absorb and verify."""

    name = ""
    why = ""
    cycle = 1
    sweeps_per_pass = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.tally = Counter()      # per-layer counts, reset per phase
        self.stage_s = Counter()    # time per stage inside passes
        self.stage_items = Counter()
        self.problems: list[str] = []
        self.last_pass = -1

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Campaign(Workload):
    name = "campaign"
    why = ("virtual characterisation as in maicas simulate: the only workload "
           "where circuit, readout fitting and scenarios do real work")
    sweeps_per_pass = sum(len(c.measurand_grid) * c.repeats for c in
                          map(scenarios.default_config, scenarios.MODES))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.outputs: dict[int, list[tuple[str, str]]] = {}

    def pass_seed(self, i: int) -> int:
        return derive(self.seed, CAMPAIGN_STREAM, i)

    def run_pass(self, i: int):
        seed = self.pass_seed(i)
        return [scenarios.run_experiment(scenarios.default_config(mode, seed=seed))
                for mode in scenarios.MODES]

    @staticmethod
    def files_of(results) -> list[tuple[str, str]]:
        """summary.csv and model.json of each mode, as maicas simulate
        writes them."""
        return [(r.to_summary_csv(), r.summary.to_json() + "\n") for r in results]

    @staticmethod
    def sane(result) -> bool:
        s = result.summary
        if not all(map(math.isfinite, (s.slope, s.intercept, s.r_squared))):
            return False
        target = DOCUMENTED_SLOPES.get(result.config.mode)
        return target is None or abs(s.slope / target - 1.0) <= SLOPE_BAND

    def absorb(self, i: int, results) -> None:
        self.last_pass = i
        for result in results:
            n = len(result.config.measurand_grid) * result.config.repeats
            self.attempted += n
            if self.sane(result):
                self.failed += result.failure_count
            else:
                self.failed += n
                self.check(False, f"pass {i}: {result.config.mode} campaign "
                                  f"fails the sanity check (slope "
                                  f"{result.summary.slope!r})")
        self.outputs[i] = self.files_of(results)
        for old in [k for k in self.outputs if k not in (0, i)]:
            del self.outputs[old]  # verify needs only the first and last

    def verify(self) -> None:
        for i in sorted({0, self.last_pass}):
            self.check(self.files_of(self.run_pass(i)) == self.outputs[i],
                       f"campaign pass {i} differs on rerun")
        if self.seed == DEFAULT_SEED:
            expected = golden()["campaign"]
            for mode, (summary, model) in zip(scenarios.MODES, self.outputs[0]):
                got = {"summary.csv": sha256(summary), "model.json": sha256(model)}
                self.check(got == expected[mode], f"campaign {mode} digests "
                           f"{got} differ from the recorded {expected[mode]}")


class _FrameWorkload(Workload):
    """Frames from a graft-pressure campaign with the hostile mix."""

    frames_per_pass = 200

    def build_frames(self, stream: int, repeats: int, n_points: int) -> None:
        result = scenarios.run_experiment(scenarios.default_config(
            "graft_pressure", repeats=repeats, n_points=n_points,
            seed=derive(self.seed, stream)))
        frames = telemetry.frames_from_result(result)
        self.frames, self.kinds = hostile_mix(
            frames, derive(self.seed, stream, HOSTILE_SUBSTREAM))
        self.model = result.summary
        self.log_path = self.workdir / "records.ndjson"
        self.first_log: dict[int, bytes] = {}

    def chunk(self, i: int) -> slice:
        k = i % self.cycle
        return slice(k * self.frames_per_pass, (k + 1) * self.frames_per_pass)

    def absorb_log(self, i: int, data: bytes, records: list[dict]) -> None:
        self.last_pass = i
        part = self.chunk(i)
        kinds = self.kinds[part]
        tally = classify(records, kinds)
        self.attempted += len(kinds)
        self.failed += tally["records_failed"]
        self.tally.update(tally)
        self.tally["frames"] += len(kinds)
        self.tally["bytes_in"] += sum(map(len, self.frames[part]))
        self.tally["log_bytes"] += len(data)
        first = self.first_log.setdefault(i % self.cycle, data)
        self.check(data == first, f"{self.name} pass {i} log differs from "
                                  f"the first pass over the same frames")

    def offline_log(self, part: slice) -> bytes:
        path = self.workdir / "offline.ndjson"
        path.unlink(missing_ok=True)
        telemetry.process_frames(self.frames[part], self.model, path)
        return path.read_bytes()


class Replay(_FrameWorkload):
    name = "replay"
    why = ("offline user path: a 1000-frame 2001-point dump with hostile "
           "frames into an NDJSON log, then the log read back")
    cycle = 5
    sweeps_per_pass = _FrameWorkload.frames_per_pass

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.build_frames(REPLAY_STREAM, repeats=250, n_points=2001)

    def run_pass(self, i: int):
        self.log_path.unlink(missing_ok=True)
        t0 = perf_counter()
        telemetry.process_frames(self.frames[self.chunk(i)], self.model,
                                 self.log_path)
        t1 = perf_counter()
        records = telemetry.read_log(self.log_path)
        t2 = perf_counter()
        self.stage_s["process"] += t1 - t0
        self.stage_s["read"] += t2 - t1
        self.stage_items["process"] += self.frames_per_pass
        self.stage_items["read"] += len(records)
        return records

    def absorb(self, i: int, records) -> None:
        self.absorb_log(i, self.log_path.read_bytes(), records)

    def verify(self) -> None:
        last = self.last_pass % self.cycle
        self.check(self.offline_log(self.chunk(last)) == self.first_log[last],
                   "replay log differs on rerun")
        if self.seed == DEFAULT_SEED:
            logs = [self.first_log.get(k) or self.offline_log(self.chunk(k))
                    for k in range(self.cycle)]
            got = sha256(json.dumps([t for data in logs
                                     for t in log_tuples(parse_log(data))]))
            self.check(got == golden()["replay"],
                       f"replay log tuples digest {got} differs from the "
                       f"recorded {golden()['replay']}")


class Gateway(_FrameWorkload):
    name = "gateway"
    why = ("live path: loopback server and gateway over 401-point hostile "
           "frames, the only workload with sockets and stream framing")
    sweeps_per_pass = _FrameWorkload.frames_per_pass

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.build_frames(GATEWAY_STREAM, repeats=50, n_points=401)
        self.server, self.thread = telemetry.start_server(
            self.frames, "127.0.0.1", 0)
        self.port = self.server.server_address[1]

    def run_pass(self, i: int):
        self.log_path.unlink(missing_ok=True)
        t0 = perf_counter()
        stats = telemetry.gateway("127.0.0.1", self.port, self.model,
                                  self.log_path, reconnect=False,
                                  max_frames=len(self.frames))
        self.stage_s["process"] += perf_counter() - t0
        self.stage_items["process"] += len(self.frames)
        return stats

    def absorb(self, i: int, stats) -> None:
        data = self.log_path.read_bytes()
        self.absorb_log(i, data, parse_log(data))

    def verify(self) -> None:
        self.check(self.offline_log(slice(None)) == self.first_log[0],
                   "gateway log differs from offline process_frames of the "
                   "same frames")

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        super().close()


class SweepFiles(Workload):
    name = "sweep_files"
    why = ("sweep files: .s1p and .csv written, then each read back through "
           "maicas extract in process; sweepio and cli work, circuit does not")
    repeats = 25
    sweeps_per_pass = 5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        result = scenarios.run_experiment(scenarios.default_config(
            "graft_pressure", repeats=self.repeats,
            seed=derive(self.seed, FILES_STREAM)))
        self.model_path = self.workdir / "model.json"
        self.model_path.write_text(result.summary.to_json() + "\n")
        # One sub-result per run of five repeats at one grid point, so a
        # pass exports through ExperimentResult.export_sweeps as a user
        # would, at a size that gives enough passes for a p90.
        self.subs = []
        for point in result.points:
            for k in range(0, self.repeats, self.sweeps_per_pass):
                part = slice(k, k + self.sweeps_per_pass)
                self.subs.append(dataclasses.replace(result, points=(
                    dataclasses.replace(point, sweeps=point.sweeps[part],
                                        estimates=point.estimates[part]),)))
        self.cycle = len(self.subs)
        self.first: dict[int, tuple] = {}

    def expected_f0(self, j: int) -> list[float]:
        f0 = [e.f0_hat for e in self.subs[j].points[0].estimates]
        return f0 + f0

    def run_pass(self, i: int):
        j = i % self.cycle
        sub = self.subs[j]
        directory = self.workdir / "files" / f"p{j:02d}"
        t0 = perf_counter()
        files = sub.export_sweeps(directory)
        for ri, sweep in enumerate(sub.points[0].sweeps):
            path = directory / f"sweep_g00_r{ri:02d}.csv"
            sweepio.write_sweep(sweep, path)
            files.append(path)
        t1 = perf_counter()
        outputs = []
        for path in files:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["extract", str(path), "--model",
                                 str(self.model_path)])
            outputs.append((code, out.getvalue()))
        t2 = perf_counter()
        self.stage_s["export"] += t1 - t0
        self.stage_s["extract"] += t2 - t1
        self.stage_items["export"] += len(files)
        self.stage_items["extract"] += len(files)
        return files, outputs

    def absorb(self, i: int, pass_output) -> None:
        self.last_pass = i
        files, outputs = pass_output
        j = i % self.cycle
        for (code, text), f0 in zip(outputs, self.expected_f0(j)):
            self.attempted += 1
            self.failed += code != 0 or json.loads(text)["f0_hat_hz"] != f0
        contents = [Path(f).read_bytes() for f in files]
        self.tally["bytes_written"] += sum(map(len, contents))
        seen = ([sha256(c) for c in contents], outputs)
        self.check(self.first.setdefault(j, seen) == seen,
                   f"sweep_files pass {i} differs from the first pass over "
                   f"the same sweeps")

    def verify(self) -> None:
        files, outputs = self.run_pass(self.last_pass)
        seen = ([sha256(Path(f).read_bytes()) for f in files], outputs)
        self.check(seen == self.first[self.last_pass % self.cycle],
                   "sweep_files pass differs on rerun")


WORKLOADS = {w.name: w for w in (Campaign, Replay, Gateway, SweepFiles)}
