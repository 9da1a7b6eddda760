"""Every supported CPython gives the reference run and the c11 ABR
bottleneck the same reports, and ``atmsim conformance`` the same output.

``pyproject.toml`` declares ``requires-python >= 3.10``.  For each of
CPython 3.10 to 3.13 that is installed, the reference scenario runs in a
subprocess of that interpreter, which needs only the standard library,
and the sha256 of its report must equal the ``reference`` digest that
``bench/golden.json`` records.  The c11 run's must equal its
``abr_bottleneck`` seed 11 digest, and that run must load none of
``atmsim.aal5``, ``atmsim.lane``, ``atmsim.rng`` and the cell codec
``atmsim.cell``.  In another
subprocess the same interpreter runs ``atmsim conformance`` on the seeded golden trace, whose
exit codes and stdout must equal ``tests/data/conformance_golden.json``
byte for byte.  An interpreter is looked up on ``PATH`` and then among
pyenv's installed versions; one that is not installed, or whose launcher
cannot start it, is skipped.
"""

import glob
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest
from conftest import GOLDEN_CONTRACT, GOLDEN_RUNS, c11_scenario, write_seeded_trace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIO = ROOT / "tests" / "data" / "reference_scenario.json"
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
CONFORMANCE_GOLDEN = ROOT / "tests" / "data" / "conformance_golden.json"

VERSIONS = ["3.10", "3.11", "3.12", "3.13"]

REFERENCE_RUN = """
import hashlib, os, sys
sys.path.insert(0, sys.argv[1])
import atmsim
assert os.path.dirname(atmsim.__file__) == os.path.join(sys.argv[1], "atmsim"), atmsim.__file__
report = atmsim.run(sys.argv[2])
print(hashlib.sha256(report.to_json().encode()).hexdigest(), report.events_processed)
"""

# argv: src, then the c11 scenario as JSON text
C11_RUN = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import atmsim
report = atmsim.run(json.loads(sys.argv[2]))
unused = sorted({"atmsim.aal5", "atmsim.cell", "atmsim.lane", "atmsim.rng"} & set(sys.modules))
print(hashlib.sha256(report.to_json().encode()).hexdigest(), json.dumps(unused))
"""

# argv: src, then a JSON object of run name -> CLI arguments
CONFORMANCE_RUNS = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import atmsim.cli
assert os.path.dirname(atmsim.cli.__file__) == os.path.join(sys.argv[1], "atmsim")
runs = {}
for name, argv in json.loads(sys.argv[2]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = atmsim.cli.main(argv)
    runs[name] = {"exit": code, "stdout": out.getvalue()}
print(json.dumps(runs))
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


@pytest.mark.parametrize("version", VERSIONS)
def test_c11_run_matches_golden_digest_and_loads_no_unused_layer(version):
    executable = _interpreter(version)
    if not executable:
        pytest.skip(f"python{version} is not installed")
    done = subprocess.run(
        [executable, "-I", "-c", C11_RUN, str(SRC), json.dumps(c11_scenario())],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    digest, unused = done.stdout.split(maxsplit=1)
    assert digest == GOLDEN["abr_bottleneck"]["11"], executable
    assert json.loads(unused) == [], executable


@pytest.mark.parametrize("version", VERSIONS)
def test_conformance_matches_golden_output(version, tmp_path):
    executable = _interpreter(version)
    if not executable:
        pytest.skip(f"python{version} is not installed")
    trace = str(tmp_path / "trace.txt")
    write_seeded_trace(trace)
    runs = {name: ["conformance", trace, *GOLDEN_CONTRACT, *args] for name, args in GOLDEN_RUNS.items()}
    done = subprocess.run(
        [executable, "-I", "-c", CONFORMANCE_RUNS, str(SRC), json.dumps(runs)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    golden = json.loads(CONFORMANCE_GOLDEN.read_text(encoding="utf-8"))
    assert json.loads(done.stdout) == golden, f"{executable} differs from the golden output"
