"""Check an atmsim command line end to end against the goldens.

Usage: python tests/check_entry_point.py COMMAND...

COMMAND starts atmsim: ``atmsim`` for the installed console script, or
``python -m atmsim.cli``.  For the reference and congested scenarios the
check runs ``validate`` and ``run``, whose report.json must equal the
golden byte for byte.  ``hec`` must compute and then accept the all-zero
header.  ``conformance`` polices the seeded golden trace with each golden
run's arguments, and its exit codes and stdout must equal
``tests/data/conformance_golden.json``; hec and conformance take the path
that never loads the simulator.  The check exits 1 at the first
difference, naming the command.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from conftest import GOLDEN_CONTRACT, GOLDEN_RUNS, write_seeded_trace

DATA = Path(__file__).resolve().parent / "data"


def expect(command: List[str], *args: str, stdout: Optional[str] = None) -> None:
    """Run ``command args``; exit unless it succeeds, with ``stdout`` if given."""
    argv = [*command, *args]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode != 0 or stdout not in (None, done.stdout):
        sys.exit(
            f"{' '.join(argv)} exited {done.returncode}, expected 0"
            + ("" if stdout is None else f" and stdout {stdout!r}")
            + f"\nstdout: {done.stdout!r}\nstderr: {done.stderr}"
        )


def main(command: List[str]) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("reference", "congested"):
            scenario = str(DATA / f"{name}_scenario.json")
            out = Path(tmp) / name
            expect(command, "validate", scenario)
            expect(command, "run", scenario, "--out", str(out))
            if (out / "report.json").read_bytes() != (DATA / f"{name}_report.json").read_bytes():
                sys.exit(f"{name}: report.json differs from tests/data/{name}_report.json")
        expect(command, "hec", "00000000", stdout="0000000055\n")
        expect(command, "hec", "0000000055", stdout="valid\n")
        trace = str(Path(tmp) / "golden_trace.txt")
        write_seeded_trace(trace)
        runs = {}
        for name, args in GOLDEN_RUNS.items():
            argv = [*command, "conformance", trace, *GOLDEN_CONTRACT, *args]
            done = subprocess.run(argv, capture_output=True, text=True)
            runs[name] = {"exit": done.returncode, "stdout": done.stdout}
    golden = json.loads((DATA / "conformance_golden.json").read_text(encoding="utf-8"))
    if runs != golden:
        sys.exit(f"conformance differs from tests/data/conformance_golden.json: {runs}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
