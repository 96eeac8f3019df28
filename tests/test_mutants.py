"""The gate of tools/mutants.py, on a stub package.

The stub module has one comparison, `x > 0`, and so one mutant, `x >= 0`.
Its stub test checks sign(1) only, so the mutant survives; a test of
sign(0) kills it. A second stub module holds `x > 0` twice in one scope,
told apart by the occurrence index in the allowlist key. The tool copies
the stub's root and runs pytest on the copy in subprocesses, with plugin
autoloading off so that each run starts in a fraction of a second. The
script is loaded by its path, since tools/ is not a package.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

MODULE = '''\
def sign(x):
    if x > 0:
        return "positive"
    return "other"
'''

TWICE = '''\
def sign(x):
    if x > 0:
        return "positive"
    return "positive" if x > 0 else "other"
'''

TEST = '''\
from stub.mod import sign


def test_positive():
    assert sign(1) == {expected!r}
'''

EDGE = '''

def test_zero():
    assert sign(0) == "other"
'''

KEY = ("mod", "sign", "x > 0", 0, 0, "> -> >=")
MUTANT = "mod:2: x > 0  [0: > -> >=]"


def run_stub(tmp_path, monkeypatch, allowlist, edge=False,
             expected="positive", module=MODULE):
    """The tool's exit code on a stub root holding the package `stub` and
    its tests; the mutant is written into a copy of that root."""
    root = tmp_path / "root"
    (root / "stub").mkdir(parents=True)
    (root / "stub" / "__init__.py").write_text("")
    (root / "stub" / "mod.py").write_text(module)
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(
        TEST.format(expected=expected) + (EDGE if edge else ""))
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    code = mutants.main(root=root, package=root / "stub",
                        allowlist=allowlist)
    assert (root / "stub" / "mod.py").read_text() == module
    return code


def test_a_survivor_off_the_allowlist_fails_and_is_named(
        tmp_path, monkeypatch, capsys):
    assert run_stub(tmp_path, monkeypatch, {}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"{MUTANT}  survives" in lines
    assert "1 mutants, 1 survive, 1 not allowlisted" in lines


def test_an_allowlisted_survivor_passes_with_its_reason(
        tmp_path, monkeypatch, capsys):
    allowlist = {KEY: "no test asks about 0"}
    assert run_stub(tmp_path, monkeypatch, allowlist) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"{MUTANT}  survives  [allowlisted: no test asks about 0]" in lines
    assert "1 mutants, 1 survive, 0 not allowlisted" in lines


def test_an_edge_test_kills_the_mutant(tmp_path, monkeypatch, capsys):
    assert run_stub(tmp_path, monkeypatch, {}, edge=True) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"{MUTANT}  killed by tests/test_mod.py::test_zero" in lines
    assert "1 mutants, 0 survive, 0 not allowlisted" in lines


def test_a_killed_allowlisted_mutant_is_printed_for_pruning(
        tmp_path, monkeypatch, capsys):
    stale = ("mod", "sign", "x < 0", 0, 0, "< -> <=")
    allowlist = {KEY: "no test asks about 0", stale: "an edited comparison"}
    assert run_stub(tmp_path, monkeypatch, allowlist, edge=True) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (f"killed, allowlisted: {MUTANT}  killed by "
            "tests/test_mod.py::test_zero") in lines
    assert ("no such mutant, allowlisted: mod:sign: x < 0  "
            "[occurrence 0, 0: < -> <=]") in lines


@pytest.mark.parametrize("occurrence", [0, 1])
def test_an_entry_covers_only_its_occurrence_of_a_comparison(
        tmp_path, monkeypatch, capsys, occurrence):
    """Both `x > 0` of the stub survive; an entry for one of them leaves
    the other failing the run."""
    key = ("mod", "sign", "x > 0", occurrence, 0, "> -> >=")
    assert run_stub(tmp_path, monkeypatch, {key: "one of two"},
                    module=TWICE) == 1
    lines = capsys.readouterr().out.splitlines()
    allowlisted, failing = (2, 4) if occurrence == 0 else (4, 2)
    assert (f"mod:{allowlisted}: x > 0  [0: > -> >=]  survives  "
            "[allowlisted: one of two]") in lines
    assert f"mod:{failing}: x > 0  [0: > -> >=]  survives" in lines
    assert "2 mutants, 2 survive, 1 not allowlisted" in lines


def test_a_stub_failing_unmutated_fails_before_any_mutant(
        tmp_path, monkeypatch, capsys):
    assert run_stub(tmp_path, monkeypatch, {}, expected="other") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["the unmutated copy fails tier-1: "
                     "tests/test_mod.py::test_positive"]


@pytest.mark.parametrize("source, found", [
    ("a <= b\n", [("a <= b", 0, 0, "<= -> <")]),
    ("0 < x <= 1 != y\n", [("0 < x <= 1 != y", 0, 0, "< -> <="),
                           ("0 < x <= 1 != y", 0, 1, "<= -> <"),
                           ("0 < x <= 1 != y", 0, 2, "!= -> ==")]),
    ("(a  # <\n ) >= (\n b)\n", [("(a # < ) >= ( b)", 0, 0, ">= -> >")]),
    ("'μ' == s in t\n", [("'μ' == s in t", 0, 0, "== -> !=")]),
    ("a is b or c in d\n", []),
    ("f(a == b, a  ==  b)\nc = a == b\n", [("a == b", 0, 0, "== -> !="),
                                           ("a == b", 1, 0, "== -> !="),
                                           ("a == b", 2, 0, "== -> !=")]),
    ("(a < b) < (a < b)\n", [("a < b", 0, 0, "< -> <="),
                             ("(a < b) < (a < b)", 0, 0, "< -> <="),
                             ("a < b", 1, 0, "< -> <=")])],
    ids=["one", "chained", "commented", "non-ascii", "identity", "repeated",
         "nested"])
def test_each_relational_operator_is_one_mutant(source, found):
    """Each mutant's byte offsets hold the operator it swaps; equal
    comparisons in one scope count their occurrences in source order."""
    source = source.encode()
    got = mutants.mutants("m", source)
    assert [(m.text, m.occurrence, m.index, m.swap) for m in got] == found
    assert [source[m.start:m.end].decode() for m in got] == [
        swap.split()[0] for *_, swap in found]
