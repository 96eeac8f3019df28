"""The package runs on numpy alone: importing it loads no scipy module, and
every simulate mode writes the same bytes with scipy blocked."""

import json
import os
import subprocess
import sys
from pathlib import Path

from maicas.cli import main
from maicas.scenarios import MODES

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, *argv) -> subprocess.CompletedProcess:
    """A fresh interpreter running code, with the checkout's src first on
    its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env)


def test_import_loads_no_scipy():
    proc = run_python(
        "import json, sys\n"
        "import maicas, maicas.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy')))\n")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_simulate_without_scipy_writes_the_same_summaries(tmp_path):
    blocked = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now fails\n"
        "from maicas.cli import main\n"
        "out, modes = sys.argv[1], sys.argv[2:]\n"
        "sys.exit(max(main(['simulate', '--mode', mode, '--seed', '0',\n"
        "                   '--out', f'{out}/{mode}']) for mode in modes))\n",
        str(tmp_path / "blocked"), *MODES)
    assert blocked.returncode == 0, blocked.stderr
    for mode in MODES:
        assert main(["simulate", "--mode", mode, "--seed", "0",
                     "--out", str(tmp_path / "plain" / mode)]) == 0
        assert ((tmp_path / "blocked" / mode / "summary.csv").read_bytes()
                == (tmp_path / "plain" / mode / "summary.csv").read_bytes())
