"""Command-line front end for the sensor twin.

Exit codes: 0 success, 1 domain error (one JSON line on stderr), 2 usage
error, 130 interrupted. All outputs are deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

from . import telemetry
from .calibration import (CalibrationModel, MEASURAND_UNITS, fit_linear,
                          invert, parse_points)
from .circuit import (TARGET_DEPTH_DB, TARGET_F0_HZ, calibrate_baseline,
                      lumped_from_geometry)
from .dsp import MIN_DEPTH_DB, extract_resonance
from .errors import DomainError, MaicasError
from .geometry import DeviceGeometry, Rest, device_from_dict
from .jsonio import parse_json, read_text
from .scenarios import (MODE_SPECS, MODES, ExperimentConfig, default_config,
                        run_experiment)
from .sweepio import read_sweep

BUNDLED_TABLES = {spec.table: spec.unit for spec in MODE_SPECS.values()
                  if spec.table is not None}


def _resolve_points(name_or_path: str) -> tuple[str, str | None]:
    """A --points argument is a filesystem path, or the bare name of one of
    the bundled tables (strain.csv, pressure.csv, displacement.csv,
    bend.csv). Returns the CSV text and, for bundled tables, their unit."""
    path = Path(name_or_path)
    if path.exists():
        return read_text(path), BUNDLED_TABLES.get(path.name)
    if name_or_path in BUNDLED_TABLES:
        text = resources.files("maicas").joinpath(
            "data", name_or_path).read_text()
        return text, BUNDLED_TABLES[name_or_path]
    raise DomainError(f"points file {name_or_path!r} not found")


def _load_experiment_config(args) -> ExperimentConfig:
    if args.config is not None and args.mode is not None:
        raise DomainError(
            "--config and --mode are mutually exclusive; the config file "
            "already fixes the mode")
    if args.config is not None:
        config = ExperimentConfig.from_json(read_text(args.config))
    elif args.mode is not None:
        config = default_config(args.mode)
    else:
        raise DomainError("one of --config or --mode is required")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.sigma_db is not None:
        overrides["noise_sigma_db"] = args.sigma_db
    if overrides:
        config = replace(config, **overrides)
    return config


def _cmd_simulate(args) -> int:
    config = _load_experiment_config(args)
    result = run_experiment(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "summary.csv"
    summary_path.write_text(result.to_summary_csv())
    (out_dir / "model.json").write_text(result.summary.to_json() + "\n")
    (out_dir / "config.json").write_text(config.to_json() + "\n")
    if args.export_sweeps:
        result.export_sweeps(out_dir / "sweeps")
    symbol = MEASURAND_UNITS[result.summary.measurand_unit]
    print(f"wrote {summary_path}")
    print(f"b = {result.summary.slope / 1e6:.6g} MHz/{symbol}")
    print(f"failures = {result.failure_count}")
    return 0


def _cmd_extract(args) -> int:
    sweep = read_sweep(args.sweep)
    estimate = extract_resonance(sweep, args.min_depth_db)
    out = {
        "f0_hat_hz": estimate.f0_hat,
        "depth_db": estimate.depth_db,
        "snr_estimate": estimate.snr_estimate,
        "refined": estimate.refined,
    }
    if args.model is not None:
        model = CalibrationModel.from_json(read_text(args.model))
        inv = invert(model, estimate.f0_hat)
        out["measurand_value"] = inv.value
        out["measurand_unit"] = model.measurand_unit
        out["extrapolated"] = inv.extrapolated
    print(json.dumps(out))
    return 0


def _cmd_fit(args) -> int:
    text, bundled_unit = _resolve_points(args.points)
    unit = args.unit or bundled_unit or "percent-strain"
    points = parse_points(text, args.points)
    model = fit_linear(points, unit)
    symbol = MEASURAND_UNITS[model.measurand_unit]
    print(f"b = {model.slope / 1e6:.6g} MHz/{symbol}")
    print(f"a = {model.intercept / 1e9:.6g} GHz")
    print(f"r_squared = {model.r_squared:.6g}")
    print(f"residual_sd = {model.residual_sd / 1e6:.6g} MHz")
    if args.out is not None:
        Path(args.out).write_text(model.to_json() + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_invert(args) -> int:
    model = CalibrationModel.from_json(read_text(args.model))
    inv = invert(model, args.f0)
    print(json.dumps({
        "measurand_value": inv.value,
        "measurand_unit": model.measurand_unit,
        "extrapolated": inv.extrapolated,
    }))
    return 0


def _cmd_calibrate_baseline(args) -> int:
    if args.config is not None:
        device = device_from_dict(
            parse_json(read_text(args.config), "device"))
    else:
        device = DeviceGeometry()
    cal = calibrate_baseline(device, args.f0, args.depth_db)
    if args.out is not None:
        Path(args.out).write_text(cal.to_json() + "\n")
        print(f"wrote {args.out}")
    circuit = lumped_from_geometry(device, Rest(), cal)
    print(cal.to_json())
    print(f"rest_f0_hz = {circuit.f0!r}")
    return 0


def _frames_for_args(args) -> list[bytes]:
    if args.frames is not None and (args.config is not None or args.mode is not None):
        raise DomainError(
            "--frames and --config/--mode are mutually exclusive; pass "
            "either a recorded dump or an experiment to synthesize")
    if args.frames is not None:
        return telemetry.split_dump(Path(args.frames).read_bytes())
    config = _load_experiment_config(args)
    result = run_experiment(config)
    return telemetry.frames_from_result(result, device_id=args.device_id)


def _cmd_serve(args) -> int:
    frames = _frames_for_args(args)
    server, thread = telemetry.start_server(frames, args.host, args.port,
                                            args.interval_ms / 1000.0)
    port = server.server_address[1]  # the bound one, also for --port 0
    with server:
        print(f"serving {len(frames)} frames on {args.host}:{port}",
              flush=True)
        thread.join()
    return 0


def _cmd_gateway(args) -> int:
    model = CalibrationModel.from_json(read_text(args.model))
    stats = telemetry.gateway(
        args.host, args.port, model, args.log,
        max_frames=args.max_frames,
        reconnect=not args.no_reconnect,
        max_connect_attempts=args.max_connect_attempts,
    )
    print(json.dumps(asdict(stats)))
    return 0


def _cmd_replay(args) -> int:
    wants_dump = args.out is not None
    wants_log = args.log is not None
    if wants_dump == wants_log:
        raise DomainError(
            "pass exactly one of --out (record a frame dump) or "
            "--log (process a dump offline)")
    if wants_dump:
        frames = _frames_for_args(args)
        Path(args.out).write_bytes(b"".join(frames))
        print(f"wrote {len(frames)} frames to {args.out}")
        return 0
    if args.frames is None:
        raise DomainError("--log requires --frames with a recorded dump")
    if args.model is None:
        raise DomainError("--log requires --model for inversion")
    frames = _frames_for_args(args)
    model = CalibrationModel.from_json(read_text(args.model))
    counts = telemetry.process_frames(frames, model, args.log)
    print(json.dumps(counts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maicas",
        description="Digital twin of a passive LC cardiovascular sensor: "
                    "simulate sweeps, extract resonances, fit and invert "
                    "calibrations, stream telemetry.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate",
                       help="run a virtual campaign and write its summary")
    p.add_argument("--config", metavar="PATH",
                   help="experiment config JSON")
    p.add_argument("--mode", choices=MODES,
                   help="run the default campaign for a mode instead of --config")
    p.add_argument("--out", metavar="DIR", required=True,
                   help="output directory for summary.csv, model.json, config.json")
    p.add_argument("--seed", type=int, metavar="U64",
                   help="override the config seed")
    p.add_argument("--sigma-db", type=float, metavar="F64",
                   help="override the config noise level")
    p.add_argument("--export-sweeps", action="store_true",
                   help="also write per-repeat Touchstone files")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("extract", help="locate the dip in one sweep file")
    p.add_argument("sweep", metavar="SWEEP",
                   help="sweep file (.s1p or .csv)")
    p.add_argument("--model", metavar="JSON",
                   help="calibration model for measurand conversion")
    p.add_argument("--min-depth-db", type=float, default=MIN_DEPTH_DB,
                   metavar="F64",
                   help="detection threshold (default 3 dB)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("fit", help="least-squares line through x,y_hz points")
    p.add_argument("--points", metavar="CSV", required=True,
                   help="points file; bundled table names (strain.csv, "
                        "pressure.csv, displacement.csv, bend.csv) also resolve")
    p.add_argument("--unit", choices=MEASURAND_UNITS,
                   help="measurand unit (defaults to the bundled table's unit, "
                        "else percent-strain)")
    p.add_argument("--out", metavar="JSON", help="write the fitted model here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("invert", help="map a resonance back to the measurand")
    p.add_argument("--model", metavar="JSON", required=True,
                   help="calibration model JSON")
    p.add_argument("--f0", type=float, metavar="HZ", required=True,
                   help="resonance frequency to invert")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("calibrate-baseline",
                       help="fit the one-time device baseline")
    p.add_argument("--config", metavar="PATH",
                   help="device geometry JSON (defaults to the stock device)")
    p.add_argument("--f0", type=float, default=TARGET_F0_HZ, metavar="HZ",
                   help="target rest resonance (default 1.71e9)")
    p.add_argument("--depth-db", type=float, default=TARGET_DEPTH_DB,
                   metavar="F64",
                   help="target dip depth (default -14)")
    p.add_argument("--out", metavar="JSON", help="write the calibration here")
    p.set_defaults(func=_cmd_calibrate_baseline)

    p = sub.add_parser("serve", help="stream frames to TCP clients")
    p.add_argument("--config", metavar="PATH", help="experiment config JSON")
    p.add_argument("--mode", choices=MODES,
                   help="synthesize the default campaign for a mode")
    p.add_argument("--frames", metavar="BIN", help="recorded frame dump")
    p.add_argument("--seed", type=int, metavar="U64")
    p.add_argument("--sigma-db", type=float, metavar="F64")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, metavar="U16",
                   help=f"default {telemetry.DEFAULT_PORT} or "
                        f"${telemetry.PORT_ENV_VAR}")
    p.add_argument("--interval-ms", type=float, default=0.0, metavar="F64",
                   help="pause between frames")
    p.add_argument("--device-id", type=int, default=1, metavar="U64")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("gateway",
                       help="consume frames from a server into an NDJSON log")
    p.add_argument("--model", metavar="JSON", required=True,
                   help="calibration model for inversion")
    p.add_argument("--log", metavar="PATH", required=True,
                   help="append-only NDJSON log")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, metavar="U16")
    p.add_argument("--max-frames", type=int, metavar="N",
                   help="stop after this many records")
    p.add_argument("--max-connect-attempts", type=int, metavar="N",
                   help="give up after this many failed connects")
    p.add_argument("--no-reconnect", action="store_true",
                   help="stop at the first clean end of stream")
    p.set_defaults(func=_cmd_gateway)

    p = sub.add_parser("replay",
                       help="record a frame dump, or process one offline")
    p.add_argument("--config", metavar="PATH", help="experiment config JSON")
    p.add_argument("--mode", choices=MODES,
                   help="synthesize the default campaign for a mode")
    p.add_argument("--frames", metavar="BIN", help="existing frame dump")
    p.add_argument("--seed", type=int, metavar="U64")
    p.add_argument("--sigma-db", type=float, metavar="F64")
    p.add_argument("--out", metavar="BIN", help="write a frame dump here")
    p.add_argument("--model", metavar="JSON",
                   help="calibration model (offline processing)")
    p.add_argument("--log", metavar="PATH",
                   help="NDJSON log to append (offline processing)")
    p.add_argument("--device-id", type=int, default=1, metavar="U64")
    p.set_defaults(func=_cmd_replay)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process; parsing leaves it
    unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MaicasError, OSError) as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 1


def entrypoint() -> None:
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)


if __name__ == "__main__":  # python -m maicas.cli
    entrypoint()
