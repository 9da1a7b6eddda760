"""The benchmark's simulation workloads still produce the reports whose
sha256 digests ``bench/golden.json`` records, so a change that moves any
event (a tie broken the other way, one event more or less) fails here and
not only in a benchmark run.

``lane_fabric`` runs on every recorded seed, since it is the workload
where many events fall on the same instant; ``abr_bottleneck`` draws no
random numbers, so one seed covers it.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from atmsim.engine import build

BENCH = Path(__file__).resolve().parents[1] / "bench"
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
