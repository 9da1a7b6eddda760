"""One measured repetition of a workload, in a fresh interpreter.

Invoked by run.py as ``python -I child.py '<json job>'``; prints one JSON
object on its last stdout line.  Job keys: ``src`` (directory holding the
atmsim package), ``mode`` (``run``, ``reference`` or ``prepare``),
``workload``, ``seed``, ``traced``, ``reference``, and for the
conformance workload ``trace_file`` and ``injected`` (the header errors
written into the trace, by kind).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from speed import SpeedClock  # noqa: E402


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _tracer(job: Dict[str, Any], clock: SpeedClock) -> Any:
    if not job["traced"]:
        return None
    import tracer

    t = tracer.Tracer(clock.now)
    tracer.install(t)
    return t


def _timings(clock: SpeedClock, setup: Dict[str, float], run: Dict[str, float]) -> Dict[str, Any]:
    """Scaled seconds as the metrics; host and CPU seconds beside them."""
    clock.stop()
    return {
        "setup_s": setup["scaled"],
        "wall_s": run["scaled"],
        "host_setup_s": setup["host"],
        "host_wall_s": run["host"],
        "cpu_setup_s": setup["cpu"],
        "cpu_wall_s": run["cpu"],
    }


def simulate(job: Dict[str, Any]) -> Dict[str, Any]:
    raw = workloads.SCENARIOS[job["workload"]](job["seed"])
    clock = SpeedClock()
    clock.start()
    import atmsim

    trace = _tracer(job, clock)
    engine = atmsim.build(atmsim.load_scenario(raw))
    setup = clock.lap()
    report = engine.run()
    text = report.to_json()
    return {
        **_timings(clock, setup, clock.lap()),
        "events": report.events_processed,
        "cells": sum(link["cells"] for link in report.links.values()),
        "digest": _digest(text),
        "checks": [] if report.events_processed > 0 else ["no events processed"],
        "layers": trace.summary() if trace else None,
    }


def _police_port(cli: Any, trace_file: str, port: int) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(
            ["conformance", trace_file, *workloads.contract_args(),
             "--action", "tag", "--port", str(port)]
        )
    counts = {}
    for line in out.getvalue().splitlines():
        key, _, value = line.partition(": ")
        if value.isdigit():
            counts[key] = int(value)
    return code, out.getvalue(), counts


def conformance(job: Dict[str, Any]) -> Dict[str, Any]:
    trace_file = job["trace_file"]
    clock = SpeedClock()
    clock.start()
    import atmsim
    import atmsim.cli

    trace = _tracer(job, clock)
    setup = clock.lap()
    from atmsim.cell import Cell, DecodeStatus, InterfaceKind, decode_cell, parse_trace_line
    from atmsim.traffic import Policer, PolicingAction, TrafficDescriptor, contract_buckets, shape

    descriptor = TrafficDescriptor(
        pcr=workloads.PCR, cdvt=workloads.CDVT, scr=workloads.SCR, mbs=workloads.MBS
    )
    printed: List[str] = []
    checks: List[str] = []
    policed = 0
    totals = {"tagged": 0, "corrected_headers": 0, "uncorrectable_headers": 0}
    for port in range(workloads.PORTS):
        code, text, counts = _police_port(atmsim.cli, trace_file, port)
        printed.append(f"port {port} exit {code}\n{text}")
        if code != (1 if counts.get("nonconforming") else 0):
            checks.append(f"port {port}: exit code {code} disagrees with the printed counts")
        policed += counts.get("cells", 0)
        for key in totals:
            totals[key] += counts.get(key, 0)
    for key, value in totals.items():
        if value == 0:
            checks.append(f"no {key} cells in the trace")
    injected = job["injected"]
    if (totals["corrected_headers"], totals["uncorrectable_headers"]) != (
        injected["single"],
        injected["double"],
    ):
        checks.append(f"header decode counts {totals} disagree with the injected errors {injected}")

    # Shape each port's decodable arrivals to the contract, then police the
    # shaped stream again: it must conform throughout.
    arrivals: Dict[int, List[tuple]] = {port: [] for port in range(workloads.PORTS)}
    trace_cells = 0
    with open(trace_file) as fh:
        for line in fh:
            trace_cells += 1
            time_s, port, raw = parse_trace_line(line)
            outcome, payload = decode_cell(raw, InterfaceKind.UNI)
            if outcome.status is not DecodeStatus.UNCORRECTABLE:
                arrivals[port].append((time_s, Cell(outcome.header, payload)))
    decisions = policed  # GCRA decisions: policed, shaped, re-policed
    for port, cells in arrivals.items():
        releases, overflow = shape([t for t, _ in cells], contract_buckets(descriptor))
        policer = Policer(contract_buckets(descriptor), PolicingAction.TAG_CLP)
        released = 0
        for (_, cell), release in zip(cells, releases):
            if release is not None:
                released += 1
                policer.offer(cell, release)
        decisions += len(cells) + released
        printed.append(
            f"port {port} shaped {released} overflow {overflow} "
            f"reconforming {policer.passed} retagged {policer.tagged}\n"
        )
        if policer.passed != released:
            checks.append(f"port {port}: {released - policer.passed} shaped cells do not conform")
    return {
        **_timings(clock, setup, clock.lap()),
        "events": decisions,
        "cells": trace_cells,
        "digest": _digest("".join(printed)),
        "checks": checks,
        "layers": trace.summary() if trace else None,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    mode = job["mode"]
    if mode == "prepare":
        result: Dict[str, Any] = {"injected": workloads.write_trace(job["trace_file"], job["seed"])}
    elif mode == "reference":
        import atmsim

        result = {"digest": _digest(atmsim.run(job["reference"]).to_json())}
    elif job["workload"] == "conformance":
        result = conformance(job)
    else:
        result = simulate(job)
    import atmsim

    if not os.path.abspath(atmsim.__file__).startswith(os.path.abspath(job["src"])):
        raise SystemExit(f"atmsim imported from {atmsim.__file__}, not from {job['src']}")
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
