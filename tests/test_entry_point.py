"""``tests/check_entry_point.py``, the check CI runs on the installed
``atmsim`` console script, run here on ``python -m atmsim.cli`` in a
separate process: it must pass, and it must fail on a broken command."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


@pytest.mark.parametrize("extra, passes", [((), True), (("--bogus",), False)], ids=["cli", "bogus"])
def test_check_runs_the_cli_as_a_process(extra, passes):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "atmsim.cli", *extra]
    done = subprocess.run(
        [sys.executable, str(TESTS / "check_entry_point.py"), *command],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert (done.returncode == 0) == passes, done.stderr
    if not passes:
        assert "--bogus" in done.stderr
