"""The benchmark's simulation workloads still produce the reports whose
sha256 digests ``bench/golden.json`` records, so a change that moves any
event (a tie broken the other way, one event more or less) fails here and
not only in a benchmark run.

``lane_fabric`` runs on every recorded seed, since it is the workload
where many events fall on the same instant; ``abr_bottleneck`` draws no
random numbers, so one seed covers it.  ``conformance`` runs through
``bench/child.py`` as the benchmark does: it writes the seeded 40,000-cell
two-port trace, with corrected and uncorrectable headers, then polices it
with ``atmsim conformance``, shapes it and polices it again.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from atmsim.engine import build

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
try:
    import workloads
finally:
    sys.path.remove(str(BENCH))

GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))

CASES = [("lane_fabric", int(seed)) for seed in sorted(GOLDEN["lane_fabric"], key=int)]
CASES.append(("abr_bottleneck", 11))


@pytest.mark.parametrize("workload, seed", CASES, ids=[f"{w}-{s}" for w, s in CASES])
def test_report_matches_recorded_digest(workload, seed):
    report = build(workloads.SCENARIOS[workload](seed)).run()
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == GOLDEN[workload][str(seed)]


def run_child(job: dict) -> dict:
    """One ``bench/child.py`` job in an isolated interpreter; its result."""
    done = subprocess.run(
        [sys.executable, "-I", str(BENCH / "child.py"), json.dumps({"src": str(SRC), **job})],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("seed", [1, 0])
def test_conformance_matches_recorded_digest(tmp_path, seed):
    trace_file = str(tmp_path / "trace.txt")
    prepared = run_child({"mode": "prepare", "seed": seed, "trace_file": trace_file})
    result = run_child(
        {
            "mode": "run", "workload": "conformance", "seed": seed, "traced": False,
            "trace_file": trace_file, "injected": prepared["injected"],
        }
    )
    assert result["checks"] == []
    assert result["digest"] == GOLDEN["conformance"][str(seed)]
