"""The CI workflow's numpy-only job, run step by step.

Each `run: |` block of that job runs under `bash -e -o pipefail` in one
temporary directory, in order, with the package's `src` on PYTHONPATH and a
`sitecustomize.py` that blocks scipy from import. The install step is left
out: numpy is already here. Serve and gateway meet on a free port through
MAICAS_PORT instead of the fixed default. The workflow is parsed with the
standard library, so the test needs no YAML package.
"""

import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
JOB = "numpy-only"
STEP_TIMEOUT_S = 120


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def job_steps(text: str, job: str) -> list[dict]:
    """The steps of one job as {"name", "env", "run"} dicts, in order. Only
    the shapes this workflow uses are read: `key: value` pairs, one `env:`
    mapping and `run: |` blocks."""
    lines = text.splitlines()
    start = lines.index(f"  {job}:") + 1
    end = next((i for i in range(start, len(lines))
                if lines[i].strip() and _indent(lines[i]) <= 2), len(lines))
    steps, i = [], start
    while i < end:
        line = lines[i]
        if line.lstrip().startswith("- ") and _indent(line) == 6:
            steps.append({"name": None, "env": {}, "run": None})
            line = line.replace("- ", "  ", 1)
        match = re.match(r"( +)([\w-]+):\s*(.*)$", line)
        i += 1
        if not (steps and match and _indent(line) == 8):
            continue
        key, value = match.group(2), match.group(3)
        block = []
        while i < end and (not lines[i].strip() or _indent(lines[i]) > 8):
            block.append(lines[i])
            i += 1
        if key == "name":
            steps[-1]["name"] = value
        elif key == "env":
            for entry in filter(str.strip, block):
                k, _, v = entry.strip().partition(":")
                steps[-1]["env"][k] = v.strip()
        elif key == "run":
            if value == "|":
                width = min(_indent(b) for b in block if b.strip())
                steps[-1]["run"] = "\n".join(b[width:] for b in block) + "\n"
            else:
                steps[-1]["run"] = value + "\n"
    return steps


STEPS = [s for s in job_steps(WORKFLOW.read_text(), JOB)
         if s["run"] is not None
         and not s["run"].startswith("python -m pip install")]


def test_the_job_has_steps_to_run():
    assert len(STEPS) >= 4
    assert all(step["name"] for step in STEPS)


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One directory the steps share, plus the environment they run in."""
    work = tmp_path_factory.mktemp("numpy-only")
    blocker = tmp_path_factory.mktemp("no-scipy")
    (blocker / "sitecustomize.py").write_text(
        "import sys\nsys.modules['scipy'] = None\n")
    bin_dir = tmp_path_factory.mktemp("bin")
    for name in ("python", "python3"):
        (bin_dir / name).symlink_to(sys.executable)
    env = {**os.environ,
           "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
           "PYTHONPATH": str(blocker),
           "MAICAS_PORT": str(free_port())}
    return work, blocker, env, []


def test_scipy_is_blocked(workdir):
    work, _, env, _ = workdir
    proc = subprocess.run(["python3", "-c", "import scipy"], cwd=work,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "ModuleNotFoundError" in proc.stderr


@pytest.mark.parametrize("step", STEPS, ids=[s["name"] for s in STEPS])
def test_step(workdir, step):
    work, blocker, base_env, failed = workdir
    if failed:
        pytest.skip(f"an earlier step failed: {failed[0]}")
    env = dict(base_env)
    for key, value in step["env"].items():
        if key == "PYTHONPATH":
            value = os.pathsep.join(
                [str(ROOT / p) for p in value.split(os.pathsep)]
                + [str(blocker)])
        env[key] = value
    # a file, not a pipe: a server left in the background would hold a pipe
    # open after the step ends
    log = work / "step.log"
    with log.open("wb") as out:
        proc = subprocess.Popen(
            ["bash", "-e", "-o", "pipefail", "-c", step["run"]], cwd=work,
            env=env, stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True)
    try:
        proc.wait(timeout=STEP_TIMEOUT_S)
    finally:
        # whatever the step left running goes with its process group
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        failed.append(step["name"])
    assert proc.returncode == 0, log.read_text(errors="replace")
