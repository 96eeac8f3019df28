"""The package runs on numpy alone: importing it loads no scipy module, and
every simulate mode writes the same bytes with scipy blocked. Importing it
loads none of the modules that only one command needs either.

Run as a module (PYTHONPATH=src:tests python3 -m test_startup), it makes
the import check without pytest: exit 1 and the loaded names on stderr."""

import json
import os
import site
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


# loaded on first use: a campaign's noise, the frame server and gateway,
# bundled points tables; scipy never
DEFERRED = ("numpy.random", "socket", "socketserver", "importlib.resources",
            "scipy")


def deferred_on_import() -> list[str]:
    """The DEFERRED modules that `import maicas, maicas.cli` loads in a
    fresh `python -S` interpreter. -S keeps site's .pth hooks, which may
    import any module, out of the count; src and the site-packages go on
    sys.path by hand instead. A failed import raises, its traceback on
    stderr."""
    paths = [str(SRC), *site.getsitepackages(), site.getusersitepackages()]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import json, sys\n"
         "sys.path[:0] = json.loads(sys.argv[1])\n"
         "import maicas, maicas.cli\n"
         "print(json.dumps([m for m in sys.argv[2:] if m in sys.modules]))\n",
         json.dumps(paths), *DEFERRED],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_deferred_module():
    assert deferred_on_import() == []


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


if __name__ == "__main__":
    loaded = deferred_on_import()
    if loaded:
        sys.exit(f"import maicas.cli loaded {', '.join(loaded)}")
    print(f"import maicas.cli loaded none of {', '.join(DEFERRED)}")
