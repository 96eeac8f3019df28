"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import importlib
import json
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import maicas
import run
import spans
import workloads
from maicas import scenarios

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    wl = workloads.Replay(workloads.DEFAULT_SEED, tmp_path_factory.mktemp("replay"))
    for i in range(wl.cycle):
        wl.absorb(i, wl.run_pass(i))
    yield wl
    wl.close()


def test_inputs_are_deterministic_per_seed(tmp_path):
    a = workloads.Gateway(3, tmp_path / "a")
    b = workloads.Gateway(3, tmp_path / "b")
    c = workloads.Gateway(4, tmp_path / "c")
    try:
        assert a.frames == b.frames and a.kinds == b.kinds
        assert a.frames != c.frames
        assert a.kinds.count("bitflip") == 4 and a.kinds.count("nan") == 1
    finally:
        for wl in (a, b, c):
            wl.close()
    assert workloads.Campaign(3, tmp_path / "d").pass_seed(7) == \
        workloads.Campaign(3, tmp_path / "e").pass_seed(7)


def test_hostile_frames_decode_as_intended(replay):
    from maicas import errors, telemetry
    for raw, kind in zip(replay.frames, replay.kinds):
        if kind == "bitflip":
            with pytest.raises(errors.ChecksumMismatch):
                telemetry.decode_frame(raw)
        elif kind == "flat":
            with pytest.raises(errors.NoResonance):
                maicas.extract_resonance(telemetry.decode_frame(raw).sweep)


def test_metric_names_and_spec_match_the_code():
    names = ([m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + [name for name, _ in [*run.STAGES.values(), *run.REPORTED]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.GATE
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in run.PER_LAYER]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: kind.why for name, kind in workloads.WORKLOADS.items()}
    spanned = {key for _, _, key, kind in run.PER_LAYER
               if kind != "tally_per_pass" and key is not None}
    assert spanned <= set(spans.WRAPPED)


def test_wrapper_list_covers_every_binding():
    for info in pkgutil.iter_modules(maicas.__path__):
        importlib.import_module(f"maicas.{info.name}")
    for name, bindings in spans.WRAPPED.items():
        function = spans.resolve(bindings[0])
        assert sorted(spans.scan_bindings(function)) == sorted(bindings), name


def test_tracer_records_nested_spans_and_restores_bindings():
    original = scenarios.run_experiment
    tracer = spans.Tracer()
    tracer.install()
    try:
        scenarios.run_experiment(scenarios.default_config("graft_pressure", repeats=1))
    finally:
        tracer.uninstall()
    assert scenarios.run_experiment is original
    stats = tracer.stats()
    assert stats["scenarios.run_experiment"]["calls"] == 1
    assert stats["dsp.extract_resonance"]["calls"] == 4
    root = stats["scenarios.run_experiment"]
    assert 0 < root["self_s"] < root["total_s"]
    assert all(parent < index for index, (*_, parent, _) in enumerate(tracer.spans))


def test_replay_passes_check_clean_at_the_default_seed(replay):
    replay.verify()
    assert replay.problems == []
    assert replay.attempted == 1000
    records = [r for k in range(replay.cycle)
               for r in workloads.parse_log(replay.first_log[k])]
    failed_kinds = {kind for r, kind in zip(records, replay.kinds)
                    if workloads.record_failed(r, kind)}
    assert failed_kinds <= {"nan"}  # NaN frames still read as measurements
    assert replay.failed == sum(workloads.record_failed(r, k)
                                for r, k in zip(records, replay.kinds))


def test_a_flipped_quality_fails_the_checks(replay):
    records = workloads.parse_log(replay.first_log[0])
    kinds = replay.kinds[:len(records)]
    valid = kinds.index("valid")
    before = workloads.classify(records, kinds)["records_failed"]
    records[valid]["quality"] = "no_resonance"
    assert workloads.classify(records, kinds)["records_failed"] == before + 1

    planted = replay.first_log[0].replace(b'"quality": "ok"', b'"quality": "no_resonance"', 1)
    assert planted != replay.first_log[0]
    replay.log_path.write_bytes(planted)
    replay.absorb(replay.cycle, workloads.parse_log(planted))
    assert any("differs from the first pass" in p for p in replay.problems)

    replay.problems.clear()
    replay.first_log[0] = planted
    replay.verify()
    assert any("digest" in p for p in replay.problems)


def test_a_changed_campaign_output_fails_the_checks(tmp_path):
    wl = workloads.Campaign(workloads.DEFAULT_SEED, tmp_path)
    wl.absorb(0, wl.run_pass(0))
    summary, model = wl.outputs[0][1]
    wl.outputs[0][1] = (summary[:-2] + "4\n", model)
    wl.verify()
    assert any("differs on rerun" in p for p in wl.problems)
    assert any("graft_pressure digests" in p for p in wl.problems)


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(trace):
    out = _run(["--workload", "gateway", "--seed", "5", "--seconds", "1",
                "--trace", trace], BENCH.parent)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    specs = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in specs}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".runs", ".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = _run(["--workload", "campaign", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
