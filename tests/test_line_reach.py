"""The gate of tools/line_reach.py, on a stub package.

The stub module has one line its stub test never runs. Off the allowlist,
the tool names it and exits 1; allowlisted by module, scope, text and
occurrence, it exits 0. A second stub module holds one line twice in a
scope, where the test runs the first and not the second. The tool runs
the stub's tests in this process, as it runs tier-1. The script is loaded
by its path, since tools/ is not a package.
"""

import importlib.util
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "line_reach.py"
_spec = importlib.util.spec_from_file_location("line_reach", SCRIPT)
line_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_reach)

MODULE = '''\
def sign(x):
    if x > 0:
        return "positive"
    return "other"
'''

TWICE = '''\
def sign(x):
    if x > 0:
        word = "positive"
        return word
    word = "other"
    return word
'''

TEST = '''\
from {package}.mod import sign


def test_positive():
    assert sign(1) == "positive"
'''

UNREACHED = 'return "other"'


def run_stub(tmp_path, monkeypatch, allowlist, module=MODULE):
    """The tool's exit code and output on a fresh stub package: a package
    and a test module named after tmp_path, since the nested run's imports
    stay in sys.modules."""
    package = "stub_" + re.sub(r"\W", "_", tmp_path.name)
    (tmp_path / package).mkdir()
    (tmp_path / package / "__init__.py").write_text("")
    (tmp_path / package / "mod.py").write_text(module)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / f"test_{package}.py").write_text(TEST.format(package=package))
    monkeypatch.syspath_prepend(str(tmp_path))
    return line_reach.main(
        ["-q", "-p", "no:cacheprovider", "--rootdir", str(tmp_path),
         str(tests)], package=tmp_path / package, allowlist=allowlist)


def test_an_unreached_line_off_the_allowlist_fails_and_is_named(
        tmp_path, monkeypatch, capsys):
    assert run_stub(tmp_path, monkeypatch, {}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"mod:4: {UNREACHED}" in lines
    assert "1 unreached lines, 1 not allowlisted; pytest exit 0" in lines


def test_an_allowlisted_line_passes_with_its_reason(tmp_path, monkeypatch,
                                                    capsys):
    allowlist = {("mod", "sign", UNREACHED, 0): "the stub's test skips it"}
    assert run_stub(tmp_path, monkeypatch, allowlist) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (f"mod:4: {UNREACHED}  [allowlisted: the stub's test skips it]"
            in lines)
    assert "1 unreached lines, 0 not allowlisted; pytest exit 0" in lines


@pytest.mark.parametrize("key", [("mod", "<module>", UNREACHED, 0),
                                 ("__init__", "sign", UNREACHED, 0),
                                 ("mod", "sign", "return 'other'", 0),
                                 ("mod", "sign", UNREACHED, 1)],
                         ids=["other-scope", "other-module", "other-text",
                              "other-occurrence"])
def test_an_entry_covers_only_its_module_scope_and_text(
        tmp_path, monkeypatch, capsys, key):
    assert run_stub(tmp_path, monkeypatch, {key: "a near miss"}) == 1
    out = capsys.readouterr().out
    assert "reached, allowlisted: {}:{}: {}  [occurrence {}]".format(
        *key) in out


@pytest.mark.parametrize("occurrence", [0, 1])
def test_an_entry_covers_only_its_occurrence_of_a_line(
        tmp_path, monkeypatch, capsys, occurrence):
    """sign(1) runs the first `return word` and not the second: only the
    entry for the second covers it."""
    allowlist = {("mod", "sign", 'word = "other"', 0): "the other sign",
                 ("mod", "sign", "return word", occurrence): "the other sign"}
    code = run_stub(tmp_path, monkeypatch, allowlist, module=TWICE)
    lines = capsys.readouterr().out.splitlines()
    assert code == occurrence ^ 1
    reason = "  [allowlisted: the other sign]" if occurrence else ""
    assert f"mod:6: return word{reason}" in lines
    assert ("reached, allowlisted: mod:sign: return word  [occurrence 0]"
            in lines) is (occurrence == 0)


def test_scopes_name_the_innermost_code_object():
    source = ("class A:\n"
              "    def f(self):\n"
              "        return [x for x in ()]\n"
              "y = 1\n")
    scopes = line_reach.scoped_lines(compile(source, "s.py", "exec"))
    assert scopes[1] == "A"
    assert scopes[2] == "A.f"
    assert scopes[4] == "<module>"
    assert scopes[3] in ("A.f", "A.f.<listcomp>")  # inlined from 3.12
