"""The gain verdict of tools/bench_pairs.py, on synthetic paired runs.

A performance claim stands or falls on compare(): a change shows a gain
when it wins at least nine pairs in ten and its median beats the parent's
by more than the parent's interquartile range. The record of uncommitted
code is checked with git and the runs stubbed. The script is loaded by its
path, since tools/ is not a package.
"""

import importlib.util
import io
import json
import tarfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# parent runs 100..109: median 104.5, quartiles 102.25 and 106.75, IQR 4.5
PARENT = [100.0 + i for i in range(10)]
HIGHER = {"m": {"name": "m", "better": "higher", "bound": 0.24}}
LOWER = {"m": {"name": "m", "better": "lower", "bound": 0.24}}


def runs(values):
    return [{"metrics": {"m": {"value": v, "unit": "1/s"}}} for v in values]


def verdict(parent, change, specs=HIGHER):
    return bench_pairs.compare(runs(parent), runs(change), specs)["m"]


def test_parent_quartiles():
    entry = verdict(PARENT, PARENT)
    assert (entry["parent"]["median"], entry["parent"]["q1"],
            entry["parent"]["q3"]) == (104.5, 102.25, 106.75)


def test_nine_pairs_in_ten_above_the_iqr_show_a_gain():
    change = [p + 10.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    entry = verdict(PARENT, change)
    assert entry["pairs_won"] == 9 and entry["pairs"] == 10
    assert entry["gain_shown"]


def test_eight_pairs_in_ten_do_not():
    change = [p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    entry = verdict(PARENT, change)
    assert entry["pairs_won"] == 8
    assert not entry["gain_shown"]


@pytest.mark.parametrize("gain, shown", [(0.5, False), (4.5, False),
                                         (4.75, True)])
def test_the_median_gain_must_exceed_the_parents_iqr(gain, shown):
    """Every pair won; a median gain at or below the IQR of 4.5 is no
    gain."""
    entry = verdict(PARENT, [p + gain for p in PARENT])
    assert entry["pairs_won"] == 10
    assert entry["gain_shown"] is shown


def test_ties_count_for_neither_side():
    change = PARENT[:5] + [p + 10.0 for p in PARENT[5:]]
    assert verdict(PARENT, change)["pairs_won"] == 5
    assert verdict(change, PARENT)["pairs_won"] == 0
    assert verdict(PARENT, PARENT)["pairs_won"] == 0


def test_lower_is_better_turns_the_sign():
    faster = [p - 10.0 for p in PARENT]
    slower = [p + 10.0 for p in PARENT]
    assert verdict(PARENT, faster, LOWER)["pairs_won"] == 10
    assert verdict(PARENT, faster, LOWER)["gain_shown"]
    assert verdict(PARENT, slower, LOWER)["pairs_won"] == 0
    assert not verdict(PARENT, slower, LOWER)["gain_shown"]


@pytest.mark.parametrize("specs, inside, past", [(HIGHER, 76.1, 75.9),
                                                 (LOWER, 123.9, 124.1)])
def test_within_bound_turns_false_just_past_the_bound(specs, inside, past):
    """A bound of 0.24 lets the median move 24% the wrong way, no more."""
    parent = [100.0] * 10
    assert verdict(parent, [inside] * 10, specs)["within_bound"]
    assert not verdict(parent, [past] * 10, specs)["within_bound"]
    assert verdict(parent, [inside] * 10, specs)["bound"] == 0.24


@pytest.mark.parametrize("parent, resolved", [
    (PARENT, True),                                   # IQR 4.5 of 104.5
    ([100.0] * 5 + [150.0] * 5, False),               # IQR 50 of 125
    ([76.0, 76.0, 100.0, 100.0, 100.0], True),        # IQR 24 of 100
    ([75.9, 75.9, 100.0, 100.0, 100.0], False),       # IQR 24.1 of 100
], ids=["narrow", "wide", "at-the-bound", "past-the-bound"])
def test_resolved_when_the_parents_iqr_fits_in_the_bound(parent, resolved):
    """A bound of 0.24 is resolved while the parent's IQR is at most 24% of
    its median, for either direction of better."""
    for specs in (HIGHER, LOWER):
        assert verdict(parent, parent, specs)["resolved"] is resolved
    assert "resolved" not in verdict(parent, parent, {})


def empty_tar() -> bytes:
    out = io.BytesIO()
    tarfile.open(fileobj=out, mode="w").close()
    return out.getvalue()


@pytest.mark.parametrize("before, after, uncommitted", [
    (b"", b"", False),
    (b" M src/maicas/dsp.py\n", b"", True),
    (b"", b" M tools/bench_pairs.py\n", True),
], ids=["clean", "changed-before", "changed-after"])
def test_uncommitted_checks_the_measured_trees_before_and_after(
        monkeypatch, tmp_path, before, after, uncommitted):
    """main asks git about src/, bench/ and tools/ only, before the first
    run and after the last; a change found either time is recorded."""
    status = iter([before, after])
    statuses, events = [], []

    def git(*args):
        if args[0] == "status":
            statuses.append(args)
            events.append("status")
            return next(status)
        return empty_tar() if args[0] == "archive" else b"abc\n"

    def run_bench(tree, workload, seed, seconds, trace):
        events.append("run")
        return {"metrics": {"m": {"value": 1.0, "unit": "1/s"}},
                "correct": True, "attempted": 1, "failed": 0, "context": {}}

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--workloads", "campaign",
                             "--pairs", "2", "--out", str(out)]) == 0
    assert events == ["status"] + ["run"] * 4 + ["status"]
    assert all(args[-4:] == ("--", "src", "bench", "tools")
               for args in statuses)
    assert json.loads(out.read_text())["change"]["uncommitted"] is uncommitted


def test_attempted_and_failed_are_kept_per_side_and_trace(monkeypatch,
                                                          tmp_path):
    """Each run's correct, attempted and failed land in the document, in
    run order, under the side and trace setting that produced them."""
    calls = {}

    def git(*args):
        if args[0] == "status":
            return b""
        return empty_tar() if args[0] == "archive" else b"abc\n"

    def run_bench(tree, workload, seed, seconds, trace):
        side = "change" if tree == bench_pairs.ROOT else "parent"
        n = calls[side, trace] = calls.get((side, trace), 0) + 1
        attempted = 200 * n + (side == "change") + 10 * trace
        return {"metrics": {"m": {"value": 1.0, "unit": "1/s"}},
                "correct": n != 2, "attempted": attempted, "failed": n,
                "context": {}}

    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", "HEAD~1", "--workloads", "gateway",
                             "--pairs", "3", "--traced-pairs", "1",
                             "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["gateway"]
    assert entry["attempted"] == {
        "parent_trace0": [200, 400, 600], "change_trace0": [201, 401, 601],
        "parent_trace1": [210], "change_trace1": [211]}
    assert entry["failed"] == {
        "parent_trace0": [1, 2, 3], "change_trace0": [1, 2, 3],
        "parent_trace1": [1], "change_trace1": [1]}
    assert entry["correct"] == {
        "parent_trace0": [True, False, True],
        "change_trace0": [True, False, True],
        "parent_trace1": [True], "change_trace1": [True]}
