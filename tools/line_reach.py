"""The lines of src/maicas that tier-1 never runs, as `module:line: text`.

    python3 tools/line_reach.py [pytest arguments]

Runs pytest in this process (tier-1, `tests/`, when no arguments are
given) under a sys.settrace and threading.settrace tracer that records
only frames whose code comes from the package's files. The executable
lines of each module are the line numbers of its code objects
(`co_lines()`, recursively through `co_consts`). Every executable line
that no traced frame ran is printed as `module:line: text`, the text
stripped, with its reason when ALLOWLIST holds it.

Exits 1 when pytest fails or when an unreached line is not on ALLOWLIST,
0 otherwise. An allowlist entry is keyed by module, scope (the innermost
function or class holding the line), stripped line text and occurrence
(0 for the first executable line of that scope with that text, 1 for the
second, and so on), not by line number, so it survives edits elsewhere in
the file. An entry whose line ran is printed as reached, for pruning; it
does not fail the run, since tests drawn by hypothesis can reach a line
in one run and not the next.

Lines run only in a subprocess (the CLI entry point, `serve`) are not seen:
the tracer does not follow a child process. Tracing about doubles tier-1's
time (52 s against 33 s on a 2-core host, Python 3.11). Standard library
and pytest only."""

from __future__ import annotations

import collections
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maicas"

_SERVE = ("a started server runs only in the subprocesses of test_workflow "
          "and test_cli")
_ENTRY = "the console-script entry point runs only in subprocesses"
_PORT = "a line of _brentq's bit-for-bit port of scipy's brentq"

# (module, scope, stripped line text, occurrence): why the line may stay
# unreached
ALLOWLIST = {
    **{("cli", "_cmd_serve", text, 0): _SERVE for text in (
        "port = server.server_address[1]  # the bound one, also for --port 0",
        "with server:",
        'print(f"serving {len(frames)} frames on {args.host}:{port}",',
        "flush=True)",
        "thread.join()",
        "return 0")},
    **{("cli", "entrypoint", text, 0): _ENTRY for text in (
        "try:", "sys.exit(main())", "except KeyboardInterrupt:",
        "sys.exit(130)")},
    ("cli", "<module>", "entrypoint()", 0): _ENTRY,
    ("telemetry", "<module>", "import socketserver", 0):
        "imported under TYPE_CHECKING, for start_server's annotation only",
    ("scenarios", "_brentq", "return xcur", 0):
        _PORT + ": an exact root at the bracket's second end",
    ("scenarios", "_brentq", "except ZeroDivisionError:", 0):
        _PORT + ": where C divides to an inf or a NaN",
    ("scenarios", "_brentq", "pass", 0):
        _PORT + ": where C divides to an inf or a NaN",
}


def occurrences(items) -> list[int]:
    """For each item, how many equal items come before it."""
    seen = collections.Counter()
    out = []
    for item in items:
        out.append(seen[item])
        seen[item] += 1
    return out


def scoped_lines(code: types.CodeType,
                 scope: str = "<module>") -> dict[int, str]:
    """Each executable line of code and of the code objects nested in it,
    mapped to the dotted name of the innermost one holding it: `<module>`
    for the module's own code, then names such as `_brentq` or
    `ExperimentResult.export_sweeps`."""
    lines = dict.fromkeys((line for _, _, line in code.co_lines() if line),
                          scope)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            inner = (const.co_name if scope == "<module>"
                     else f"{scope}.{const.co_name}")
            lines.update(scoped_lines(const, inner))
    return lines


def modules(package: Path) -> dict[str, Path]:
    """Module name (dotted, relative to package) -> file, for every .py."""
    return {".".join(path.relative_to(package).with_suffix("").parts): path
            for path in sorted(package.rglob("*.py"))}


def reached_lines(package: Path, run) -> tuple[object, dict[str, set[int]]]:
    """run()'s return value, and per module of package the lines run while
    it ran, in this thread or in a thread started meanwhile."""
    names = {os.path.realpath(path): name
             for name, path in modules(package).items()}
    seen: dict[str, set[int]] = {name: set() for name in names.values()}
    local_of: dict[str, object] = {}  # co_filename -> local tracer or None

    def local_for(filename: str):
        name = names.get(os.path.realpath(filename))
        if name is None:
            return None
        lines = seen[name]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return local_of[filename]
        except KeyError:
            local = local_of[filename] = local_for(filename)
            return local

    outer, outer_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(outer)
        threading.settrace(outer_threads)
    return result, seen


def unreached(package: Path, seen: dict[str, set[int]]
              ) -> list[tuple[int, tuple[str, str, str, int]]]:
    """The line number and allowlist key (module, scope, stripped text,
    occurrence) of each executable line not seen."""
    out = []
    for name, path in modules(package).items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines = scoped_lines(compile(source, str(path), "exec"))
        numbers = sorted(lines)
        places = [(lines[line], text[line - 1].strip()) for line in numbers]
        out += [(line, (name, scope, stripped, occurrence))
                for line, (scope, stripped), occurrence
                in zip(numbers, places, occurrences(places))
                if line not in seen[name]]
    return out


def main(pytest_args=None, package: Path = PACKAGE,
         allowlist: dict | None = None) -> int:
    allowlist = ALLOWLIST if allowlist is None else allowlist
    args = list(pytest_args) if pytest_args else ["-q", str(ROOT / "tests")]
    code, seen = reached_lines(package, lambda: pytest.main(args))
    missed = unreached(package, seen)
    failed = 0
    for line, key in missed:
        reason = allowlist.get(key)
        failed += reason is None
        print(f"{key[0]}:{line}: {key[2]}"
              + (f"  [allowlisted: {reason}]" if reason else ""))
    for key in sorted(allowlist.keys() - {key for _, key in missed}):
        print("reached, allowlisted: {}:{}: {}  [occurrence {}]".format(*key))
    print(f"{len(missed)} unreached lines, {failed} not allowlisted; "
          f"pytest exit {int(code)}")
    return 1 if failed or code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
