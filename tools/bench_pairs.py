"""Paired runs of bench/run.py on a parent commit and a change, as JSON.

    python3 tools/bench_pairs.py --parent HEAD~1 --workloads sweep_files \
        --pairs 10 --out BENCH_n.json

The parent is a `git archive` of --parent in a temporary directory; the
change is the working tree of this checkout. Each pair
runs `bench/run.py --workload W --seed S --seconds T --trace 0` once in
each tree, the parent first in even pairs and the change first in odd ones.
With --traced-pairs K, K more pairs run with --trace 1 for the per-layer
metrics.

For every metric the output holds each side's runs, median and quartiles,
the pairs the change won (ties count for neither), the ratio of the
medians (change over parent), whether the change stays inside the bound
BENCHMARK.json sets for it, whether that bound is resolved (the parent's
interquartile range is at most bound times its median's size), and
whether a gain is shown: the change won at
least nine pairs in ten and its median is better by more than the parent's
interquartile range. Each run's correct, attempted and failed are kept per
side and per trace setting, so the failed share can be compared. The
change's "uncommitted" is true when a tracked file under src/, bench/ or
tools/ differs from HEAD before the first run or after the last. Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEASURED = ("src", "bench", "tools")  # the trees a run executes


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def uncommitted() -> bool:
    """Whether a tracked file under MEASURED differs from HEAD."""
    return bool(git("status", "--porcelain", "--untracked-files=no", "--",
                    *MEASURED))


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The result line and the report's context of one bench/run.py run."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    report, result = (json.loads(line) for line in out.splitlines()[-2:])
    return {**result, "context": report["report"].get("context")}


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def compare(parent: list[dict], change: list[dict], specs: dict) -> dict:
    """Per metric, the two sides' summaries and the paired verdicts."""
    metrics = {}
    for name in parent[0]["metrics"]:
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        spec = specs.get(name, {})
        sign = 1 if spec.get("better", "lower") == "higher" else -1
        won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        ps, cs = summary(p), summary(c)
        entry = {"unit": parent[0]["metrics"][name]["unit"],
                 "better": spec.get("better"), "parent": ps, "change": cs,
                 "pairs_won": won, "pairs": len(p),
                 "ratio": cs["median"] / ps["median"] if ps["median"] else None,
                 "gain_shown": (won >= 0.9 * len(p) and sign * (
                     cs["median"] - ps["median"]) > ps["q3"] - ps["q1"])}
        if "bound" in spec:
            entry["bound"] = spec["bound"]
            entry["within_bound"] = (
                sign * (cs["median"] - ps["median"])
                >= -spec["bound"] * abs(ps["median"]))
            # a parent spread wider than the bound cannot resolve a move
            # of the bound's size
            entry["resolved"] = (ps["q3"] - ps["q1"]
                                 <= spec["bound"] * abs(ps["median"]))
        metrics[name] = entry
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced-pairs", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    parent_sha = git("rev-parse", args.parent).decode().strip()
    doc = {"parent": parent_sha,
           "change": {"head": git("rev-parse", "HEAD").decode().strip(),
                      "uncommitted": uncommitted()},
           "command": ("bench/run.py --workload W --seed {seed} --seconds "
                       "{seconds} --trace T").format(**vars(args)),
           "pairs": args.pairs, "traced_pairs": args.traced_pairs,
           "order": "parent first in even pairs, change first in odd pairs",
           "workloads": {}}
    with tempfile.TemporaryDirectory() as work:
        parent_tree = Path(work)
        with tarfile.open(fileobj=io.BytesIO(git("archive", parent_sha))) as tar:
            tar.extractall(parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in args.workloads:
            entry = doc["workloads"][workload] = {}
            for trace, pairs in ((0, args.pairs), (1, args.traced_pairs)):
                runs = {"parent": [], "change": []}
                for i in range(pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        runs[side].append(run_bench(trees[side], workload,
                                                    args.seed, args.seconds, trace))
                    print(workload, f"trace {trace} pair {i + 1}/{pairs}",
                          file=sys.stderr)
                if not pairs:
                    continue
                key = "end_to_end" if trace == 0 else "per_layer"
                entry[key] = compare(runs["parent"], runs["change"], specs)
                for field in ("correct", "attempted", "failed"):
                    entry.setdefault(field, {}).update({
                        f"{side}_trace{trace}": [r[field] for r in runs[side]]
                        for side in runs})
                entry.setdefault("context", {side: runs[side][0]["context"]
                                             for side in runs})
    doc["change"]["uncommitted"] |= uncommitted()  # an edit during the runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
