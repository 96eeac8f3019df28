"""The maicas benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1. The
line before it is a report with the workload's own stage metrics and the
run's context (host, versions, code size, host-speed probe); the same
report, and the spans of a traced run, are written under bench/.runs/.
See bench/README.md for what each workload and metric measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"
WORK = BENCH / ".work"

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

# A fixed job that does not use maicas runs just before every timed pass.
# The shared host this benchmark runs on changes speed by up to 2x within
# seconds; a pass and the probe right before it slow down together, so
# pass time x (REF_PROBE_S / probe time) reads what the pass would take on
# the host at the speed where the probe takes REF_PROBE_S (its time on the
# 2-core machine the benchmark was sized on, when that machine was quiet).
# Over ten seeds this cut the spread of the pass metrics about threefold.
PROBE_ITEMS = 20_000
REF_PROBE_S = 1.5e-3

GATE = [  # name, unit: the end-to-end metrics, printed with --trace 0
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("norm_sweeps_per_s", "1/s"),
    ("norm_pass_ms_p50", "ms"),
    ("norm_pass_ms_p90", "ms"),
]

# name, unit, span or tally key, how the value is derived (see per_layer)
PER_LAYER = [
    ("circuit.calibrate_baseline.calls_per_pass", "count", "circuit.calibrate_baseline", "calls_per_pass"),
    ("circuit.calibrate_baseline.self_ms_per_pass", "ms", "circuit.calibrate_baseline", "self_ms_per_pass"),
    ("circuit.lumped_from_geometry.calls_per_pass", "count", "circuit.lumped_from_geometry", "calls_per_pass"),
    ("circuit.lumped_from_geometry.us_per_call", "us", "circuit.lumped_from_geometry", "us_per_call"),
    ("readout.fit_reader.calls_per_pass", "count", "readout.fit_reader", "calls_per_pass"),
    ("readout.fit_reader.self_ms_per_pass", "ms", "readout.fit_reader", "self_ms_per_pass"),
    ("readout.dip_of.calls_per_pass", "count", "readout.dip_of", "calls_per_pass"),
    ("readout.dip_of.us_per_call", "us", "readout.dip_of", "us_per_call"),
    ("readout.s11_spectrum.us_per_call", "us", "readout.s11_spectrum", "us_per_call"),
    ("readout.add_noise.us_per_call", "us", "readout.add_noise", "us_per_call"),
    ("dsp.extract_resonance.calls", "count", "dsp.extract_resonance", "calls_per_pass"),
    ("dsp.extract_resonance.us_per_call", "us", "dsp.extract_resonance", "us_per_call"),
    ("dsp.extract_resonance.raised", "count", "dsp.extract_resonance", "raised_per_pass"),
    ("calibration.fit_linear.us_per_call", "us", "calibration.fit_linear", "us_per_call"),
    ("calibration.invert.us_per_call", "us", "calibration.invert", "us_per_call"),
    ("scenarios.run_experiment.self_ms_per_pass", "ms", "scenarios.run_experiment", "self_ms_per_pass"),
    ("scenarios.resolve_coupling.self_ms_per_pass", "ms", "scenarios.resolve_coupling", "self_ms_per_pass"),
    ("scenarios.fit_scenario_coupling.calls_per_pass", "count", "scenarios.fit_scenario_coupling", "calls_per_pass"),
    ("scenarios.export_sweeps.self_ms", "ms", "scenarios.export_sweeps", "self_ms_per_call"),
    ("telemetry.record_from_frame.self_us", "us", "telemetry.record_from_frame", "self_us_per_call"),
    ("telemetry.calibration_id_of.calls_per_frame", "count", "telemetry.calibration_id_of", "calls_per_frame"),
    ("telemetry.calibration_id_of.us_per_call", "us", "telemetry.calibration_id_of", "us_per_call"),
    ("telemetry.calibration_id_of.useful_ratio", "ratio", "telemetry.calibration_id_of", "useful_ratio"),
    ("telemetry.decode_frame.us_per_call", "us", "telemetry.decode_frame", "us_per_call"),
    ("telemetry.decode_frame.raised", "count", "telemetry.decode_frame", "raised_per_pass"),
    ("telemetry.process_frames.self_ms_per_kframe", "ms", "telemetry.process_frames", "self_ms_per_kframe"),
    ("telemetry.gateway.self_ms_per_kframe", "ms", "telemetry.gateway", "self_ms_per_kframe"),
    ("telemetry.read_frame.us_per_call", "us", "telemetry.read_frame", "us_per_call"),
    ("telemetry.read_log.ms", "ms", "telemetry.read_log", "ms_per_call"),
    ("telemetry.records.ok", "count", "records_ok", "tally_per_pass"),
    ("telemetry.records.extrapolated", "count", "records_extrapolated", "tally_per_pass"),
    ("telemetry.records.no_resonance", "count", "records_no_resonance", "tally_per_pass"),
    ("telemetry.records.failed", "count", "records_failed", "tally_per_pass"),
    ("telemetry.bytes_in", "B", "bytes_in", "tally_per_pass"),
    ("telemetry.log_bytes", "B", "log_bytes", "tally_per_pass"),
    ("sweepio.write_touchstone.ms_per_file", "ms", "sweepio.write_touchstone", "ms_per_call"),
    ("sweepio.write_csv.ms_per_file", "ms", "sweepio.write_csv", "ms_per_call"),
    ("sweepio.read_touchstone.ms_per_file", "ms", "sweepio.read_touchstone", "ms_per_call"),
    ("sweepio.read_csv.ms_per_file", "ms", "sweepio.read_csv", "ms_per_call"),
    ("sweepio.bytes_written", "B", "bytes_written", "tally_per_pass"),
    ("cli.extract.self_ms_per_call", "ms", "cli.main", "self_ms_per_call"),
    ("trace.overhead_pct", "%", None, "overhead_pct"),
]

# Printed in the report line only, measured untraced: the same pass
# metrics as measured, without the host-speed correction, and the stage
# metrics, which exist on some workloads only.
REPORTED = [("sweeps_per_s", "1/s"), ("pass_ms_p50", "ms"),
            ("pass_ms_p90", "ms"), ("probe_ms_p50", "ms")]
STAGES = {  # stage -> (name, unit)
    "process": ("frames_per_s", "1/s"),
    "read": ("log_read_records_per_s", "1/s"),
    "export": ("export_files_per_s", "1/s"),
    "extract": ("extract_files_per_s", "1/s"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "replay", "gateway", "sweep_files"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def speed_probe(data) -> float:
    """Seconds taken by the fixed job that gauges the host's speed."""
    t0 = time.perf_counter()
    sum(i * i for i in range(PROBE_ITEMS))
    np.sort(data)
    return time.perf_counter() - t0


def timed_passes(workload, seconds: float, tracer=None):
    """Run passes until the deadline, each after a speed probe. Returns
    (pass seconds, probe seconds) pairs: one list, or with a tracer two
    (untraced, traced). With a tracer, whole cycles alternate untraced and
    traced so that both see the same host, and the run ends after a traced
    cycle; the workload's tally then counts the traced passes only."""
    data = np.random.default_rng(0).random(PROBE_ITEMS)
    timings = ([], [])
    tallies = (workload.tally, type(workload.tally)())
    block = workload.cycle * (2 if tracer else 1)
    i = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and i % block >= workload.cycle
        workload.tally = tallies[traced]
        probe = speed_probe(data)
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            output = workload.run_pass(i)
            t1 = time.perf_counter()
        finally:
            if traced:
                tracer.uninstall()
        timings[traced].append((t1 - t0, probe))
        workload.absorb(i, output)
        i += 1
        if t1 >= deadline and i % block == 0:
            return timings if tracer else timings[0]


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def pass_metrics(workload, timings) -> dict[str, float]:
    """Pass metrics as measured, and corrected for the host's speed."""
    durations = [d for d, _ in timings]
    scaled = [d * REF_PROBE_S / probe for d, probe in timings]
    return {
        "sweeps_per_s": workload.sweeps_per_pass * len(durations) / sum(durations),
        "pass_ms_p50": statistics.median(durations) * 1e3,
        "pass_ms_p90": _p90(durations) * 1e3,
        "norm_sweeps_per_s": workload.sweeps_per_pass * len(scaled) / sum(scaled),
        "norm_pass_ms_p50": statistics.median(scaled) * 1e3,
        "norm_pass_ms_p90": _p90(scaled) * 1e3,
        "probe_ms_p50": statistics.median(p for _, p in timings) * 1e3,
    }


def per_layer(stats, distinct, tally, passes: int,
              overhead_pct: float) -> dict[str, float]:
    """Per-layer values over the traced passes. A layer the workload never
    calls reads 0."""
    frames = tally["frames"]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name, _unit, key, kind in PER_LAYER:
        s = stats.get(key, {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0})
        calls = s["calls"]
        values[name] = {
            "calls_per_pass": ratio(calls, passes),
            "raised_per_pass": ratio(s["raised"], passes),
            "self_ms_per_pass": ratio(1e3 * s["self_s"], passes),
            "us_per_call": ratio(1e6 * s["total_s"], calls),
            "ms_per_call": ratio(1e3 * s["total_s"], calls),
            "self_ms_per_call": ratio(1e3 * s["self_s"], calls),
            "self_us_per_call": ratio(1e6 * s["self_s"], calls),
            "calls_per_frame": ratio(calls, frames),
            "useful_ratio": ratio(len(distinct.get(key, ())), calls),
            "self_ms_per_kframe": ratio(1e6 * s["self_s"], frames),
            "tally_per_pass": ratio(tally[key], passes),
            "overhead_pct": overhead_pct,
        }[kind]
    return values


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the workload being ready
    to run its first pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited {code} without getting ready")
    return elapsed


def _tree_digest(*dirs: Path) -> tuple[str, list[Path]]:
    files = sorted(p for d in dirs for p in d.rglob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest(), files


def collected_tests() -> int | None:
    """Tests pytest collects at the root, cached per content of src/ and
    tests/ because collection takes seconds."""
    key, _ = _tree_digest(SRC, ROOT / "tests")
    cache = RUNS / "test_count.json"
    try:
        cached = json.loads(cache.read_text())
        if cached["key"] == key:
            return cached["count"]
    except (OSError, ValueError, KeyError):
        pass
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q",
             "-p", "no:cacheprovider"], cwd=ROOT, capture_output=True,
            text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None
    counts = re.findall(r"^(\d+) tests? collected", out, re.MULTILINE)
    count = int(counts[-1]) if counts else None
    cache.write_text(json.dumps({"key": key, "count": count}))
    return count


def context() -> dict:
    import scipy
    _, files = _tree_digest(SRC)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in files),
        "test_count": collected_tests(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maicas" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no maicas package under {SRC}; run from "
                         f"the root of a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    kind = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    if args.setup_probe:
        workload = kind(args.seed, workdir)
        print("ready", flush=True)
        workload.close()
        return 0

    RUNS.mkdir(parents=True, exist_ok=True)
    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload = kind(args.seed, workdir)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setup_samples}
    try:
        if args.trace:
            from spans import Tracer, WRAPPED, resolve, scan_bindings
            tracer = Tracer()
            plain, traced = timed_passes(workload, args.seconds, tracer)
            base, with_spans = (pass_metrics(workload, d) for d in (plain, traced))
            report["untraced"], report["traced"] = base, with_spans
            overhead = 100.0 * (with_spans["norm_pass_ms_p50"]
                                / base["norm_pass_ms_p50"] - 1.0)
            values = per_layer(tracer.stats(), tracer.distinct, workload.tally,
                               len(traced), overhead)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _, _ in PER_LAYER}
            tracer.write(RUNS / f"spans-{args.workload}.jsonl")
            report["unlisted_bindings"] = sorted(
                {b for bs in WRAPPED.values() for b in scan_bindings(resolve(bs[0]))}
                - {b for bs in WRAPPED.values() for b in bs})
        else:
            timings = timed_passes(workload, args.seconds)
            values = {"setup_s": statistics.median(setup_samples),
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      **pass_metrics(workload, timings)}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in GATE}
            stages = {STAGES[k][0]: {"value": workload.stage_items[k] / t,
                                     "unit": STAGES[k][1]}
                      for k, t in workload.stage_s.items() if t > 0}
            report["metrics"] = {
                **metrics, **stages,
                **{name: {"value": values[name], "unit": unit}
                   for name, unit in REPORTED}}
            report["passes"] = len(timings)
        workload.verify()
    finally:
        workload.close()

    result = {"correct": not workload.problems, "attempted": workload.attempted,
              "failed": workload.failed, "metrics": metrics}
    report.update(failed_share=workload.failed / max(workload.attempted, 1),
                  problems=workload.problems, context=context())
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
