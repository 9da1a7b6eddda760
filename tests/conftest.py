"""Shared test helpers."""

import json
import os
import random
import signal
import subprocess
import sys
from typing import Any, Callable, Dict, List, Tuple

import pytest

import atmsim
from atmsim.cell import CellHeader, InterfaceKind, encode_header
from atmsim.engine import CELL_BITS, Engine, RunReport, build

RUN_GUARD_S = 5.0


def run_guarded(raw: Dict[str, Any], seconds: float = RUN_GUARD_S) -> Tuple[Engine, RunReport]:
    """Build and run scenario ``raw``, failing with the scenario in the
    message if the run takes more than ``seconds`` of wall time, so that a
    run that never ends fails its test instead of stalling the suite.

    The guard is a real-time interval timer (SIGALRM) on this process.
    """

    def expire(_signum: int, _frame: Any) -> None:
        raise TimeoutError(f"run still going after {seconds} s: {json.dumps(raw)}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        engine = build(raw)
        return engine, engine.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def c11_scenario() -> Dict[str, Any]:
    """Criterion c11: two greedy ABR sources into a 0.5 Mb/s bottleneck
    whose switch marks EFCI above 16 queued cells, for 30 s."""
    pcr = 500_000 / CELL_BITS
    return {
        "duration_s": 30.0,
        "seed": 11,
        "nodes": [
            {"name": "ha", "kind": "host"},
            {"name": "hb", "kind": "host"},
            {"name": "sw", "kind": "switch", "efci_threshold": 16},
            {"name": "hd", "kind": "host"},
        ],
        "links": [
            {"a": "ha", "b": "sw", "bit_rate": 2e6, "propagation_delay": 1e-4},
            {"a": "hb", "b": "sw", "bit_rate": 2e6, "propagation_delay": 1e-4},
            {"a": "sw", "b": "hd", "bit_rate": 5e5, "propagation_delay": 1e-4},
        ],
        "generators": [
            {"id": "ga", "kind": "greedy_abr"},
            {"id": "gb", "kind": "greedy_abr"},
        ],
        "connections": [
            {
                "id": "fa",
                "category": "ABR",
                "route": ["ha", "sw", "hd"],
                "generator": "ga",
                "descriptor": {"pcr": pcr, "mcr": 0.0},
                "abr": {"air": pcr / 32, "rdf": 0.9375},
            },
            {
                "id": "fb",
                "category": "ABR",
                "route": ["hb", "sw", "hd"],
                "generator": "gb",
                "descriptor": {"pcr": pcr, "mcr": 0.0},
                "abr": {"air": pcr / 32, "rdf": 0.9375},
            },
        ],
    }


def modules_loaded_by_importing_atmsim(*packages: str) -> List[str]:
    """The modules of ``packages`` that ``import atmsim, atmsim.cli``
    loads in a fresh isolated interpreter."""
    src = os.path.dirname(os.path.dirname(atmsim.__file__))
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); import atmsim, atmsim.cli; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


@pytest.fixture(scope="session")
def guarded_run() -> Callable[..., Tuple[Engine, RunReport]]:
    """``run_guarded``; session-scoped, so hypothesis tests can take it."""
    return run_guarded


GOLDEN_CONTRACT = ["--pcr", "1000.0", "--cdvt", "0.0005", "--scr", "400.0", "--mbs", "40"]
GOLDEN_RUNS = {
    "tag_port0": ["--action", "tag", "--port", "0"],
    "tag_port1": ["--action", "tag", "--port", "1"],
    "drop_all": ["--action", "drop"],
}


def write_seeded_trace(path, seed=7, cells=2000) -> None:
    """Two ports, one VC each, 2000 cells: on/off bursts at the peak rate of
    GOLDEN_CONTRACT long enough to overrun its SCR bucket, some CLP=1 cells
    on port 1, and about 3% one-bit and 1% two-bit header errors."""
    rng = random.Random(seed)
    period = 1 / 1000.0
    entries = []
    for port in (0, 1):
        t = rng.uniform(0.0, 0.05)
        times = []
        while len(times) < cells // 2:
            for _ in range(rng.randint(10, 80)):
                times.append(t)
                t += period * (1 + rng.uniform(0.0, 0.2))
            t += rng.uniform(0.02, 0.15)
        entries.extend((time_s, port) for time_s in times[: cells // 2])
    entries.sort()
    payload = bytes(range(48))
    lines = []
    for time_s, port in entries:
        clp = 1 if port == 1 and rng.random() < 0.1 else 0
        header = CellHeader(kind=InterfaceKind.UNI, vpi=port + 1, vci=40 + port, clp=clp)
        raw = bytearray(encode_header(header) + payload)
        draw = rng.random()
        if draw < 0.04:
            bits = rng.sample(range(40), 2 if draw < 0.01 else 1)
            for bit in bits:
                raw[bit // 8] ^= 0x80 >> (bit % 8)
        lines.append(f"{time_s!r} {port} {raw.hex()}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
