"""Every supported CPython gives the reference run the same report.

``pyproject.toml`` declares ``requires-python >= 3.10``.  For each of
CPython 3.10 to 3.13 that is installed, the reference scenario runs in a
subprocess of that interpreter, which needs only the standard library,
and the sha256 of its report must equal the ``reference`` digest that
``bench/golden.json`` records.  An interpreter is looked up on ``PATH``
and then among pyenv's installed versions; one that is not installed, or
whose launcher cannot start it, is skipped.
"""

import glob
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIO = ROOT / "tests" / "data" / "reference_scenario.json"
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))

VERSIONS = ["3.10", "3.11", "3.12", "3.13"]

REFERENCE_RUN = """
import hashlib, os, sys
sys.path.insert(0, sys.argv[1])
import atmsim
assert os.path.dirname(atmsim.__file__) == os.path.join(sys.argv[1], "atmsim"), atmsim.__file__
report = atmsim.run(sys.argv[2])
print(hashlib.sha256(report.to_json().encode()).hexdigest(), report.events_processed)
"""


def _version_of(executable: str) -> str:
    try:
        probe = subprocess.run(
            [executable, "-I", "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True,
            text=True,
            timeout=60,
        )
    except OSError:
        return ""
    return probe.stdout.strip() if probe.returncode == 0 else ""


def _interpreter(version: str) -> str:
    """A working ``python<version>``, or "" when none is installed."""
    name = f"python{version}"
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    candidates = [shutil.which(name)]
    candidates += sorted(glob.glob(os.path.join(pyenv, "versions", f"{version}.*", "bin", name)))
    for executable in candidates:
        if executable and _version_of(executable) == version:
            return executable
    return ""


@pytest.mark.parametrize("version", VERSIONS)
def test_reference_run_matches_golden_digest(version):
    executable = _interpreter(version)
    if not executable:
        pytest.skip(f"python{version} is not installed")
    # -I: no PYTHONPATH, no user site-packages, no current directory
    done = subprocess.run(
        [executable, "-I", "-c", REFERENCE_RUN, str(SRC), str(SCENARIO)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    digest, events = done.stdout.split()
    assert digest == GOLDEN["reference"], f"{executable} gives {events} events"
