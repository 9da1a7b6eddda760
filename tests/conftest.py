"""Shared test helpers."""

import contextlib
import json
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, List, Set, Tuple

import pytest

import atmsim
from atmsim.cell import CellHeader, InterfaceKind, encode_header
from atmsim.engine import CELL_BITS, Engine, RunReport, build
from atmsim.lane import Lec, format_mac, is_multicast

RUN_GUARD_S = 5.0


class BucketOracle:
    """Reference leaky bucket, written apart from the implementation, in
    exact rational arithmetic."""

    def __init__(self, increment: Fraction, limit: Fraction):
        self.increment = increment
        self.limit = limit
        self.level = Fraction(0)
        self.last = Fraction(0)

    def offer(self, t: Fraction) -> bool:
        level = max(Fraction(0), self.level - (t - self.last))
        if level > self.limit:
            return False
        self.level = level + self.increment
        self.last = t
        return True


def assert_report_balances(report: RunReport) -> None:
    """Each switch routes every cell its ports queue or drop, and each
    connection's transmitted cells are delivered, lost or in flight, with
    its loss reasons summing to its losses."""
    for name, switch in report.switches.items():
        ports = switch["ports"].values()
        queued = sum(p["accepted"] + p["full_drops"] + p["clp_drops"] for p in ports)
        assert switch["routed"] == queued, name
    for conn_id, conn in report.connections.items():
        assert conn["transmitted"] == conn["delivered"] + conn["lost"] + conn["in_flight"], conn_id
        assert sum(conn["loss_reasons"].values()) == conn["lost"], conn_id


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


@contextlib.contextmanager
def frame_law() -> Iterator[List[Tuple[bytes, bytes, bytes, bool]]]:
    """Check LANE's frame law on every frame a LEC accepts inside the block:
    no LEC accepts the same (source MAC, tag) twice, and for each
    (receiver, source MAC, group) the tags strictly increase, where group
    is the destination's group bit.  The BUS carries group frames only and
    a data-direct VC unicast ones, so group names the path.  The tag is the
    payload's first 8 bytes, which every source on one host draws from one
    counter (engine.LaneTrafficState).

    ``Lec.deliver`` is wrapped on the class, so build the engine inside
    the block.  Yields the accepted frames as (receiver MAC, source MAC,
    tag, group), in arrival order.
    """
    deliver = Lec.deliver
    accepted: List[Tuple[bytes, bytes, bytes, bool]] = []
    seen: Dict[Tuple[bytes, bytes], Set[bytes]] = {}  # (receiver, source) -> tags
    last: Dict[Tuple[bytes, bytes, bool], bytes] = {}  # (receiver, source, group) -> tag

    def checked(lec: Lec, raw_frame: bytes) -> Any:
        result = deliver(lec, raw_frame)
        if result is not None:
            dest, src, payload = result
            tag = payload[:8]
            group = is_multicast(dest)
            where = f"{format_mac(lec.mac)} from {format_mac(src)}, tag {tag.hex()}"
            tags = seen.setdefault((lec.mac, src), set())
            assert tag not in tags, f"frame accepted twice: {where}"
            tags.add(tag)
            path = (lec.mac, src, group)
            assert path not in last or last[path] < tag, (
                f"frame out of order {'via the BUS' if group else 'direct'}: {where} "
                f"after {last[path].hex()}"
            )
            last[path] = tag
            accepted.append((lec.mac, src, tag, group))
        return result

    Lec.deliver = checked  # type: ignore[method-assign]
    try:
        yield accepted
    finally:
        Lec.deliver = deliver  # type: ignore[method-assign]


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


REFERENCE_SCENARIO = os.path.join(os.path.dirname(__file__), "data", "reference_scenario.json")


def modules_loaded_by(code: str, *packages: str) -> List[str]:
    """The modules of ``packages`` loaded in a fresh isolated interpreter
    that imports atmsim from this checkout's sources and runs ``code``."""
    src = os.path.dirname(os.path.dirname(atmsim.__file__))
    code = (
        f"import json, sys; sys.path.insert(0, {src!r})\n{code}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def modules_loaded_by_importing_atmsim(*packages: str, run: bool = True) -> List[str]:
    """The modules of ``packages`` that ``import atmsim, atmsim.cli``, then,
    if ``run``, loading and running the reference scenario, load in a fresh
    isolated interpreter."""
    reference_run = f"atmsim.run(atmsim.load_scenario({REFERENCE_SCENARIO!r}))" if run else ""
    return modules_loaded_by(f"import atmsim, atmsim.cli\n{reference_run}", *packages)


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
