"""The gate of tools/line_reach.py, on a stub package.

The stub module has one line its stub test never runs. Off the allowlist,
the tool names it and exits 1; allowlisted by module, scope and text, it
exits 0. The tool runs the stub's tests in this process, as it runs
tier-1. The script is loaded by its path, since tools/ is not a package.
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

TEST = '''\
from {package}.mod import sign


def test_positive():
    assert sign(1) == "positive"
'''

UNREACHED = 'return "other"'


def run_stub(tmp_path, monkeypatch, allowlist):
    """The tool's exit code and output on a fresh stub package: a package
    and a test module named after tmp_path, since the nested run's imports
    stay in sys.modules."""
    package = "stub_" + re.sub(r"\W", "_", tmp_path.name)
    (tmp_path / package).mkdir()
    (tmp_path / package / "__init__.py").write_text("")
    (tmp_path / package / "mod.py").write_text(MODULE)
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
    allowlist = {("mod", "sign", UNREACHED): "the stub's test skips it"}
    assert run_stub(tmp_path, monkeypatch, allowlist) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (f"mod:4: {UNREACHED}  [allowlisted: the stub's test skips it]"
            in lines)
    assert "1 unreached lines, 0 not allowlisted; pytest exit 0" in lines


@pytest.mark.parametrize("key", [("mod", "<module>", UNREACHED),
                                 ("__init__", "sign", UNREACHED),
                                 ("mod", "sign", "return 'other'")],
                         ids=["other-scope", "other-module", "other-text"])
def test_an_entry_covers_only_its_module_scope_and_text(
        tmp_path, monkeypatch, capsys, key):
    assert run_stub(tmp_path, monkeypatch, {key: "a near miss"}) == 1
    out = capsys.readouterr().out
    assert "reached, allowlisted: {}:{}: {}".format(*key) in out


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
