"""The engine's event stream, pinned entry by entry.

A report pins only ``events_processed``: two events that swap at one
instant, or a ``seq`` drawn in a new order, leave every report byte, digest
and golden equal.  This test replaces ``atmsim.engine.heappop``, the module
global that ``Engine.run`` pops with, and writes one line per popped entry:
its time as ``float.hex``, its ``seq``, its handler's kind from ``KINDS``
and its argument, a cell as its flow id and ``seq``, a link as its name, a
flow as its id, a tuple as its parts and bytes as hex.  A handler missing
from ``KINDS`` fails the test, so a renamed method changes the table and
not the digest.  The entry pushed back past the end of the run is popped
too, and counted.

``tests/data/event_digests.json`` holds, for each run, the number of
entries popped, the sha256 of all their lines and a mark after every
``MARK_EVERY`` entries: the first 8 hex digits of the running digest.  On
a mismatch the test runs again with a line log and prints the block of
``MARK_EVERY`` entries in which the stream first departs from the
recording.  A change that means to move events re-records the file, and
says so:

    PYTHONPATH=src python tests/test_event_stream.py --record
"""

import hashlib
import json
import sys
from heapq import heappop
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional
from unittest import mock

import pytest
from conftest import REFERENCE_SCENARIO, c11_scenario

import atmsim.engine
from atmsim.engine import DirectedLink, Engine, FlowState, LaneTrafficState, TransitCell, build
from atmsim.lane import Lec

ROOT = Path(__file__).resolve().parents[1]
RECORDED = ROOT / "tests" / "data" / "event_digests.json"
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
try:
    import workloads
finally:
    sys.path.remove(str(BENCH))

MARK_EVERY = 256

KINDS = {
    Engine._fire: "source_fire",
    Engine._lane_fire: "lane_fire",
    Engine._complete: "completion",
    Engine._arrive: "arrival",
    Engine._send_feedback: "feedback_send",
    Lec._on_arp_timeout: "lec_arp_timeout",
}

RUNS: Dict[str, Callable[[], Any]] = {
    "reference": lambda: REFERENCE_SCENARIO,
    "congested": lambda: str(ROOT / "tests" / "data" / "congested_scenario.json"),
    "c11": c11_scenario,
    "lane_fabric-1": lambda: workloads.SCENARIOS["lane_fabric"](1),
    "lane_fabric-5": lambda: workloads.SCENARIOS["lane_fabric"](5),
}


def describe(arg: Any, traffic: List[LaneTrafficState]) -> str:
    if isinstance(arg, TransitCell):
        return f"{arg.flow.id}#{arg.seq}"
    if isinstance(arg, DirectedLink):
        return arg.name
    if isinstance(arg, FlowState):
        return arg.id
    if isinstance(arg, LaneTrafficState):  # a frame source has no id
        return f"lane_traffic[{traffic.index(arg)}]"
    if isinstance(arg, tuple):
        return "(" + " ".join(describe(part, traffic) for part in arg) + ")"
    if isinstance(arg, bytes):
        return arg.hex()
    if isinstance(arg, bool):
        return str(arg)
    raise AssertionError(f"no description for an event argument of type {type(arg).__name__}")


def fingerprint(name: str, lines: Optional[List[str]] = None) -> Dict[str, Any]:
    """Run ``name`` and fingerprint its stream as the recording does; each
    line is also appended to ``lines`` when given."""
    eng = build(RUNS[name]())
    traffic = eng.lane.traffic if eng.lane is not None else []
    digest = hashlib.sha256()
    marks: List[str] = []
    count = 0

    def pop(heap: list) -> Any:
        nonlocal count
        entry = heappop(heap)
        time, seq, fn, arg = entry
        kind = KINDS.get(getattr(fn, "__func__", None))
        if kind is None:
            raise AssertionError(f"handler {fn!r} is not in the test's KINDS table")
        line = f"{time.hex()} {seq} {kind} {describe(arg, traffic)}\n"
        digest.update(line.encode())
        count += 1
        if count % MARK_EVERY == 0:
            marks.append(digest.copy().hexdigest()[:8])
        if lines is not None:
            lines.append(line)
        return entry

    with mock.patch.object(atmsim.engine, "heappop", pop):
        eng.run()
    return {"events": count, "sha256": digest.hexdigest(), "marks": " ".join(marks)}


def first_departure(name: str, recorded: Dict[str, Any]) -> str:
    """The block of entries in which ``name``'s stream first departs from
    ``recorded``, as this run pops them."""
    lines: List[str] = []
    got = fingerprint(name, lines)
    old, new = recorded["marks"].split(), got["marks"].split()
    block = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
    start = block * MARK_EVERY
    block_lines = lines[start : start + MARK_EVERY]
    shown = "".join(f"{start + i}: {line}" for i, line in enumerate(block_lines))
    return (
        f"{name}: {got['events']} entries popped, {recorded['events']} recorded; the stream "
        f"first departs from the recording among entries {start} to "
        f"{start + MARK_EVERY - 1}, which pop as:\n{shown}"
    )


@pytest.mark.parametrize("name", list(RUNS))
def test_event_stream_matches_recording(name):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))[name]
    if fingerprint(name) != recorded:
        pytest.fail(first_departure(name, recorded), pytrace=False)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_event_stream.py --record")
    recording = {name: fingerprint(name) for name in RUNS}
    RECORDED.write_text(json.dumps(recording, indent=1) + "\n", encoding="utf-8")
    for name, run in recording.items():
        print(f"{name}: {run['events']} entries, {run['sha256']}")
