"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed: the two simulation
workloads are scenario dicts, the conformance workload is a cell trace
file plus the contract it is policed against.  Only the trace writer
touches atmsim (through ``cell.format_trace_line``); the scenario
functions return plain dicts.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

CELL_BITS = 424

DEFAULT_SEEDS = {"abr_bottleneck": 11, "lane_fabric": 1, "conformance": 1}
SIMULATIONS = ("abr_bottleneck", "lane_fabric")
WORKLOADS = SIMULATIONS + ("conformance",)


def abr_bottleneck(seed: int) -> dict:
    """Criterion c11 of the acceptance tests: two greedy ABR sources into a
    0.5 Mb/s bottleneck marked above 16 queued cells.  The scenario draws
    no random numbers, so the seed only appears in the report."""
    pcr = 500_000 / CELL_BITS
    abr = {"air": pcr / 32, "rdf": 0.9375}
    return {
        "duration_s": 30.0,
        "seed": seed,
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
                "id": conn,
                "category": "ABR",
                "route": [src, "sw", "hd"],
                "generator": gen,
                "descriptor": {"pcr": pcr, "mcr": 0.0},
                "abr": abr,
            }
            for conn, src, gen in (("fa", "ha", "ga"), ("fb", "hb", "gb"))
        ],
    }


SWITCHES = 4
LECS_PER_SWITCH = 4
LANE_DURATION_S = 0.4


def _lec(sw: int, i: int) -> str:
    return f"h{sw}{i}"


def _mac(sw: int, i: int) -> str:
    return f"02:00:00:00:{sw:02x}:{i:02x}"


def lane_fabric(seed: int) -> dict:
    """A chain of four switches with four LAN-emulation clients each and
    one LES/BUS server on the first switch.

    Every client streams unicast frames of 64..1500 bytes to a client one
    to three switches away; two clients also broadcast, and the BUS
    fan-out overruns the server's small output queue.  One low-rate
    connection of each service category crosses every switch.
    """
    switches = [f"s{k}" for k in range(SWITCHES)]
    nodes: List[dict] = [
        {"name": name, "kind": "switch", "queue_capacity": 256} for name in switches
    ]
    links: List[dict] = [
        {"a": a, "b": b, "bit_rate": 3e7, "propagation_delay": 5e-4}
        for a, b in zip(switches, switches[1:])
    ]
    lecs = []
    traffic = []
    for sw in range(SWITCHES):
        for i in range(LECS_PER_SWITCH):
            host = _lec(sw, i)
            nodes.append({"name": host, "kind": "host"})
            links.append(
                {"a": host, "b": switches[sw], "bit_rate": 1e7, "propagation_delay": 1e-5}
            )
            lecs.append({"host": host, "mac": _mac(sw, i)})
            dst_sw = (sw + 1 + i % (SWITCHES - 1)) % SWITCHES
            traffic.append(
                {
                    "src": host,
                    "dst": _mac(dst_sw, (i + 1) % LECS_PER_SWITCH),
                    "rate": 120.0,
                    "frame_bytes": [64, 1500],
                }
            )
    for host in (_lec(1, 0), _lec(3, 2)):
        traffic.append(
            {"src": host, "dst": "broadcast", "rate": 6.0, "frame_bytes": [64, 1500]}
        )
    nodes.append({"name": "server", "kind": "host", "queue_capacity": 48})
    links.append({"a": "server", "b": switches[0], "bit_rate": 1e7, "propagation_delay": 1e-5})

    first, last = _lec(0, 3), _lec(SWITCHES - 1, 3)
    route = [first] + switches + [last]
    back = list(reversed(route))
    generators = [
        {"id": "cbr", "kind": "paced_cbr", "rate": 300.0},
        {"id": "vbr", "kind": "on_off_vbr", "peak_rate": 600.0, "mean_on_s": 0.02, "mean_off_s": 0.04},
        {"id": "ubr", "kind": "greedy_ubr", "cap": 250.0},
        {"id": "abr", "kind": "greedy_abr"},
    ]
    connections = [
        {"id": "cbr", "category": "CBR", "route": route, "generator": "cbr",
         "descriptor": {"pcr": 300.0, "cdvt": 0.001}},
        {"id": "vbr", "category": "VBR_NRT", "route": back, "generator": "vbr",
         "descriptor": {"pcr": 600.0, "cdvt": 0.001, "scr": 200.0, "mbs": 20}},
        {"id": "ubr", "category": "UBR", "route": route, "generator": "ubr",
         "descriptor": {"pcr": 250.0}, "clp": 1},
        {"id": "abr", "category": "ABR", "route": back, "generator": "abr",
         "descriptor": {"pcr": 800.0, "mcr": 20.0}},
    ]
    return {
        "duration_s": LANE_DURATION_S,
        "seed": seed,
        "nodes": nodes,
        "links": links,
        "generators": generators,
        "connections": connections,
        "lane": {"les": "server", "bus": "server", "lecs": lecs, "traffic": traffic},
    }


SCENARIOS = {"abr_bottleneck": abr_bottleneck, "lane_fabric": lane_fabric}

# -- conformance -------------------------------------------------------------

TRACE_CELLS = 40_000
PORTS = 2
SINGLE_BIT_ERROR = 0.01
DOUBLE_BIT_ERROR = 0.002
# Contract policed and shaped on each port: on/off bursts run at the peak
# rate for longer than mbs cells, so the sustainable-rate bucket runs dry.
PCR = 1000.0
CDVT = 0.0005
SCR = 400.0
MBS = 40


def contract_args() -> List[str]:
    return ["--pcr", repr(PCR), "--cdvt", repr(CDVT), "--scr", repr(SCR), "--mbs", str(MBS)]


def _port_times(rng: random.Random, cells: int) -> List[float]:
    """On/off arrivals: bursts of 10..80 cells at the peak spacing with a
    small jitter, separated by silences of 20..150 ms."""
    times: List[float] = []
    t = rng.uniform(0.0, 0.05)
    period = 1.0 / PCR
    while len(times) < cells:
        for _ in range(rng.randint(10, 80)):
            times.append(t)
            t += period + rng.uniform(0.0, 0.2 * period)
        t += rng.uniform(0.02, 0.15)
    return times[:cells]


def _flip(raw: bytearray, bit: int) -> None:
    raw[bit // 8] ^= 0x80 >> (bit % 8)


def write_trace(path: str, seed: int) -> Dict[str, int]:
    """Write the seeded two-port trace to ``path``; returns the number of
    header errors injected, by kind, for the run's sanity checks."""
    from atmsim.cell import Cell, CellHeader, InterfaceKind, format_trace_line

    rng = random.Random(seed)
    entries: List[Tuple[float, int]] = []
    for port in range(PORTS):
        entries.extend((t, port) for t in _port_times(rng, TRACE_CELLS // PORTS))
    entries.sort()
    cells = [
        Cell(CellHeader(kind=InterfaceKind.UNI, vpi=port + 1, vci=40 + port),
             bytes(rng.getrandbits(8) for _ in range(48)))
        for port in range(PORTS)
    ]
    injected = {"single": 0, "double": 0}
    with open(path, "w") as fh:
        for t, port in entries:
            line = format_trace_line(t, port, cells[port])
            draw = rng.random()
            if draw < SINGLE_BIT_ERROR + DOUBLE_BIT_ERROR:
                time_s, port_s, hexrun = line.split()
                raw = bytearray.fromhex(hexrun)
                first = rng.randrange(40)
                _flip(raw, first)
                if draw < DOUBLE_BIT_ERROR:
                    _flip(raw, rng.choice([b for b in range(40) if b != first]))
                    injected["double"] += 1
                else:
                    injected["single"] += 1
                line = f"{time_s} {port_s} {raw.hex()}"
            fh.write(line + "\n")
    return injected
