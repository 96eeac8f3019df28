"""The relational mutants of src/maicas that tier-1 does not kill.

    python3 tools/mutants.py [module ...]

A mutant swaps one relational operator of one comparison: `<` and `<=`,
`>` and `>=`, `==` and `!=`. Each is written, one at a time, into a
temporary copy of the whole checkout (the CLI, start-up and workflow tests
run subprocesses against the copy's own `src`), never into the checkout,
and only the operator's characters change, so every other line keeps its
number. Before any mutant the unmutated copy must pass tier-1.

A mutant first runs `tests/test_<module>.py`, when that file exists, and
`tests/test_acceptance.py`, under `pytest -x -W error::RuntimeWarning`.
Only a mutant that survives them and is not on ALLOWLIST runs all of
tier-1. Each mutant is printed as `module:line: comparison  [index:
swap]`, with the test that killed it or with `survives`. The modules are
the package's, or those named on the command line.

Exits 1 when the unmutated copy fails or a mutant off ALLOWLIST survives,
0 otherwise. An allowlist entry is keyed by module, scope (the innermost
function or class, named as tools/line_reach.py names it), the
comparison's source text with its whitespace runs collapsed to one space,
its occurrence (0 for the first comparison of that scope with that text
in source order, 1 for the second, and so on), the operator's index in
that comparison and the swap. An allowlisted mutant runs only the first
stage. One that the first stage kills, and an entry that matches no
mutant, is printed for pruning; it does not fail the run. Standard
library only; pytest runs in subprocesses. A run over all modules takes
about 16 minutes on a 2-core host, Python 3.11."""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maicas"

_spec = importlib.util.spec_from_file_location(
    "line_reach", Path(__file__).with_name("line_reach.py"))
line_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_reach)

_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!="}
_SWAP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
_OPERATOR = re.compile(rb"[<>!=]=|[<>]")

_PORT = "a comparison of _brentq's bit-for-bit port of scipy's brentq, "
_FIT = "a tolerance of calibrate_baseline's fit: "
_READER = "a tolerance of fit_reader's construction: "

# (module, scope, comparison, occurrence, operator index, swap): why the
# mutant may survive tier-1
ALLOWLIST: dict[tuple[str, str, str, int, int, str], str] = {
    ("circuit", "_ellpk", "x > _MACHEP", 0, 0, "> -> >="):
        "equivalent: at x = 2**-53 the rational form and the asymptote give "
        "the same bits, scipy's ellipkm1's",
    ("circuit", "ide_capacitance", "0.0 < c_ext < math.inf", 0, 0,
     "< -> <="):
        "equivalent: the exterior modulus is the larger unless the interior "
        "one rounds to 1, so a c_ext of 0 comes with a c_int of 0, inf or "
        "NaN, which the c_int test refuses",
    ("circuit", "calibrate_baseline", "abs(rest.f0 - target_f0) <= 1e6",
     0, 0, "<= -> <"):
        _FIT + "an uncalibrated f0 exactly 1 MHz off the target",
    ("circuit", "calibrate_baseline.solve_stage_a",
     "FINGER_LENGTH_MIN_UM <= length <= FINGER_LENGTH_MAX_UM", 0, 0,
     "<= -> <"):
        _FIT + "a finger length exactly on the search box's 200 μm end",
    ("circuit", "calibrate_baseline.solve_stage_a",
     "FINGER_LENGTH_MIN_UM <= length <= FINGER_LENGTH_MAX_UM", 0, 1,
     "<= -> <"):
        _FIT + "a finger length exactly on the search box's 8000 μm end",
    ("circuit", "calibrate_baseline.solve_stage_a", "badness < best[0]", 0, 0,
     "< -> <="): _FIT + "two finger counts whose lengths are bit-equally "
                        "far from the pivot",
    ("circuit", "calibrate_baseline", "f_resid <= 0.6e6", 0, 0, "<= -> <"):
        _FIT + "a dip exactly 0.6 MHz off the target",
    ("circuit", "calibrate_baseline", "d_resid <= 0.5", 0, 0, "<= -> <"):
        _FIT + "a dip exactly 0.5 dB off the target depth",
    ("circuit", "calibrate_baseline", "abs(circuit.f0 - target_f0) > 1e6",
     0, 0, "> -> >="): _FIT + "a tank f0 exactly 1 MHz off the target",
    ("dsp", "_extract", "abs(delta) <= 1.0", 0, 0, "<= -> <"):
        "a parabola vertex exactly one grid step from the lowest sample",
    ("readout", "dip_of", "0 < i < len(f) - 1", 0, 1, "< -> <="):
        "the fine grid spans 3 coarse steps each side of the coarse "
        "minimum, so a dip inside f0 × (1 ± DIP_SPAN) never sits on its "
        "last point",
    ("readout", "fit_reader", "disc <= 0", 0, 0, "<= -> <"):
        _READER + "a discriminant of exactly 0",
    ("readout", "fit_reader", "r_in <= resistance_r", 0, 0, "<= -> <"):
        _READER + "an input resistance of exactly the reader's 1 ohm loss",
    ("readout", "fit_reader", "0.0 < k2 < 0.9", 0, 1, "< -> <="):
        _READER + "a coupling of exactly k² = 0.9",
    ("readout", "fit_reader", "abs(e_b) < 5e-3", 0, 0, "< -> <="):
        _READER + "a secant step exactly 5e-3 dB off the target depth",
    ("readout", "fit_reader", "abs(e_b) > 5e-2", 0, 0, "> -> >="):
        _READER + "a final depth exactly 5e-2 dB off the target",
    ("scenarios", "_brentq.signbit", "math.copysign(1.0, v) < 0", 0, 0,
     "< -> <="): "equivalent: copysign(1.0, v) is 1.0 or -1.0, never 0",
    ("scenarios", "_brentq", "abs(spre) > delta", 0, 0, "> -> >="):
        _PORT + "at a previous step exactly the tolerance",
    ("scenarios", "_brentq", "abs(fcur) < abs(fpre)", 0, 0, "< -> <="):
        _PORT + "at bit-equal |f| on the last two iterates",
    ("scenarios", "_brentq",
     "2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit)", 0, 0,
     "< -> <="): _PORT + "at a step exactly its acceptance limit",
    ("scenarios", "_brentq", "abs(spre) < limit", 0, 0, "< -> <="):
        "equivalent: when abs(spre) == limit both arms give the same value",
    ("scenarios", "_brentq", "abs(scur) > delta", 0, 0, "> -> >="):
        _PORT + "at a step exactly the tolerance",
    ("scenarios", "_brentq", "sbis > 0", 0, 0, "> -> >="):
        "equivalent: sbis is 0 only when xblk == xcur, and then the loop "
        "has returned on abs(sbis) < delta, delta > 0",
    ("scenarios", "fit_scenario_coupling", "r_hi < 0", 0, 0, "< -> <="):
        "a target the strain window's edge reaches exactly",
    ("scenarios", "fit_scenario_coupling", "residual(p_min) > 0", 0, 0,
     "> -> >="): "a target exactly the model floor's sensitivity",
    ("scenarios", "fit_scenario_coupling",
     "abs(achieved - target_sensitivity) > 0.02 * abs(target_sensitivity)",
     0, 0, "> -> >="): "a root solved to 1e-14 relative misses by exactly 2%",
    ("scenarios", "resolve_coupling",
     "abs(_noiseless_slope( 1.0, config, cal, config.measurand_grid) "
     "- spec.target) <= spec.band", 0, 0, "<= -> <"):
        "a natural sensitivity exactly the mode's band from its target",
    ("sweepio", "_sweep_from_columns",
     "np.max(np.abs(freqs - grid)) > _GRID_RTOL * abs(step) + 1e-12", 0, 0,
     "> -> >="): "a frequency column exactly at the grid tolerance",
}


class Mutant(NamedTuple):
    module: str
    line: int
    scope: str
    text: str
    occurrence: int
    index: int
    swap: str
    start: int  # byte offsets of the operator in the module's source
    end: int

    @property
    def key(self) -> tuple[str, str, str, int, int, str]:
        return (self.module, self.scope, self.text, self.occurrence,
                self.index, self.swap)

    def __str__(self) -> str:
        return f"{self.module}:{self.line}: {self.text}  [{self.index}: " \
               f"{self.swap}]"


def mutants(module: str, source: bytes) -> list[Mutant]:
    """One mutant per relational operator of source, in source order."""
    scopes = line_reach.scoped_lines(compile(source, module, "exec"))
    text = source.decode("utf-8")
    starts = [0]  # ast's columns are byte offsets into their line
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    compares = sorted((node for node in ast.walk(ast.parse(source))
                       if isinstance(node, ast.Compare)),
                      key=lambda node: (node.lineno, node.col_offset))
    places = [(scopes[node.lineno],
               " ".join(ast.get_source_segment(text, node).split()))
              for node in compares]
    out = []
    for node, (scope, segment), occurrence in zip(
            compares, places, line_reach.occurrences(places)):
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            symbol = _SYMBOL.get(type(op))
            if symbol is None:
                continue
            before, after = operands[index], operands[index + 1]
            gap_start = starts[before.end_lineno - 1] + before.end_col_offset
            gap = source[gap_start:starts[after.lineno - 1] + after.col_offset]
            gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m[0]), gap)
            match = _OPERATOR.search(gap)
            out.append(Mutant(module, node.lineno, scope, segment,
                              occurrence, index,
                              f"{symbol} -> {_SWAP[symbol]}",
                              gap_start + match.start(),
                              gap_start + match.end()))
    return sorted(out, key=lambda mutant: mutant.start)


def pytest(copy: Path, env: dict, args: list[str],
           timeout: float | None = None) -> tuple[bool, str]:
    """Whether pytest passes args in copy, and the first test it failed
    (`timeout` when it ran out of time, its exit code and last line when
    no test failed). The run's process group is killed at the end, so no
    server a test started outlives it."""
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "-W", "error::RuntimeWarning", *args],
            cwd=copy, env=env, stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        out.seek(0)
        report = out.read().decode("utf-8", "replace")
    if code is None:
        return False, "timeout"
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", report,
                       re.MULTILINE)
    return code == 0, (failed[1] if failed else f"pytest exit {code}: "
                       + (report.strip().splitlines() or [""])[-1])


def main(names=None, root: Path = ROOT, package: Path = PACKAGE,
         allowlist: dict | None = None) -> int:
    allowlist = ALLOWLIST if allowlist is None else allowlist
    files = line_reach.modules(package)
    names = list(names) if names else list(files)
    unknown = [name for name in names if name not in files]
    if unknown:
        print(f"no such module: {', '.join(unknown)}")
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / root.name
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        # no bytecode cache: a mutant and the original can share a size and
        # an mtime second
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=(
            os.pathsep.join(filter(None, [
                str(copy / package.parent.relative_to(root)),
                os.environ.get("PYTHONPATH")]))))
        began = time.monotonic()
        passed, failure = pytest(copy, env, ["tests"])
        if not passed:
            print(f"the unmutated copy fails tier-1: {failure}")
            return 1
        timeout = max(60.0, 4 * (time.monotonic() - began))
        seen, count, survivors, failed = set(), 0, 0, 0
        for name in names:
            path = copy / files[name].relative_to(root)
            source = path.read_bytes()
            stage = [test for test in (f"tests/test_{name}.py",
                                       "tests/test_acceptance.py")
                     if (copy / test).is_file()] or ["tests"]
            for mutant in mutants(name, source):
                seen.add(mutant.key)
                count += 1
                reason = allowlist.get(mutant.key)
                path.write_bytes(source[:mutant.start]
                                 + mutant.swap.split()[-1].encode()
                                 + source[mutant.end:])
                try:
                    passed, failure = pytest(copy, env, stage, timeout)
                    if passed and reason is None and stage != ["tests"]:
                        passed, failure = pytest(copy, env, ["tests"],
                                                 timeout)
                finally:
                    path.write_bytes(source)
                if not passed:
                    print(("killed, allowlisted: " if reason else "")
                          + f"{mutant}  killed by {failure}", flush=True)
                    continue
                survivors += 1
                failed += reason is None
                print(f"{mutant}  survives"
                      + (f"  [allowlisted: {reason}]" if reason else ""),
                      flush=True)
        for key in sorted(allowlist.keys() - seen):
            if key[0] in names:
                print("no such mutant, allowlisted: {}:{}: {}  [occurrence "
                      "{}, {}: {}]".format(*key))
        print(f"{count} mutants, {survivors} survive, {failed} not "
              "allowlisted")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
