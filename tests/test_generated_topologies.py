"""Generated topologies: one to five switches and two to eight hosts,
links of random rate and delay, random queue thresholds, connections of
every service category on random simple paths and, sometimes, LAN
emulation.  Each scenario is rejected up front with readable messages, or
runs to a report that passes the audit, balances its counters and comes
out the same twice, with every LANE frame accepted at most once and in
order."""

import contextlib
import os
from collections import Counter
from types import SimpleNamespace

import pytest
from conftest import assert_report_balances, c11_scenario, frame_law
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from atmsim import engine as engine_module
from atmsim.engine import Engine, FeedbackFlow, FlowState, LaneVc, build, preflight

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

CATEGORIES = ["CBR", "VBR_RT", "VBR_NRT", "ABR", "UBR"]


def simple_path(draw, adjacency, node, goal, seen):
    """A random simple path of switches from ``node`` to ``goal``, or None."""
    if node == goal:
        return [node]
    for nxt in draw(st.permutations(sorted(adjacency[node] - seen))):
        rest = simple_path(draw, adjacency, nxt, goal, seen | {nxt})
        if rest is not None:
            return [node] + rest
    return None


def queue_thresholds(draw) -> dict:
    """Capacity and, maybe, the CLP and EFCI thresholds of a node's queues."""
    if draw(st.booleans()):
        return {}
    capacity = draw(st.integers(1, 64))
    fields = {"queue_capacity": capacity}
    for name in ("clp_threshold", "efci_threshold"):
        if draw(st.booleans()):
            fields[name] = draw(st.integers(0, capacity))
    return fields


def connection(draw, i: int, route: list) -> tuple:
    """Connection ``c<i>`` on ``route`` with its generator ``g<i>``."""
    category = draw(st.sampled_from(CATEGORIES))
    pcr = draw(st.sampled_from([2000.0, 500.0, 100.0, 20.0])) * draw(st.floats(0.5, 1.0))
    share = st.floats(0.5, 1.0)
    conn = {"id": f"c{i}", "category": category, "route": route, "generator": f"g{i}"}
    gen = {"id": f"g{i}"}
    if category == "CBR":
        conn["descriptor"] = {"pcr": pcr, "cdvt": draw(st.floats(0.0, 0.01))}
        gen.update(kind="paced_cbr", rate=pcr * draw(share))
    elif category.startswith("VBR"):
        conn["descriptor"] = {
            "pcr": pcr,
            "cdvt": draw(st.floats(0.0, 0.01)),
            "scr": pcr * draw(share),
            "mbs": draw(st.integers(1, 50)),
        }
        peak = pcr * draw(share)
        gen.update(
            kind="on_off_vbr",
            peak_rate=peak,
            mean_on_s=draw(st.floats(1.0, 20.0)) / peak,
            mean_off_s=draw(st.floats(0.0, 0.1)),
        )
    elif category == "ABR":
        conn["descriptor"] = {"pcr": pcr, "mcr": pcr * draw(st.sampled_from([0.0, 0.1, 0.5]))}
        if draw(st.booleans()):
            conn["abr"] = {"rdf": draw(st.floats(0.1, 0.99)), "nrm": draw(st.integers(2, 32))}
        gen["kind"] = "greedy_abr"
    else:
        conn["descriptor"] = {"pcr": pcr}
        conn["clp"] = draw(st.integers(0, 1))
        gen.update(kind="greedy_ubr", cap=pcr * draw(share))
    return conn, gen


def lane(draw, hosts: list) -> dict:
    """LANE in the shape of test_generated_lane.lane_scenarios."""
    les = draw(st.sampled_from(hosts))
    bus = draw(st.sampled_from(hosts))
    candidates = [h for h in hosts if h not in (les, bus)]
    lec_hosts = candidates[: draw(st.integers(0, len(candidates)))]
    macs = {host: f"02:00:00:00:00:{i + 1:02x}" for i, host in enumerate(lec_hosts)}
    traffic = []
    for _ in range(draw(st.integers(1, 3)) if len(lec_hosts) > 1 else 0):
        src = draw(st.sampled_from(lec_hosts))
        dsts = [mac for host, mac in macs.items() if host != src] + ["broadcast"]
        traffic.append(
            {
                "src": src,
                "dst": draw(st.sampled_from(dsts)),
                "rate": draw(st.sampled_from([20.0, 100.0])),
                "frame_bytes": [64, draw(st.sampled_from([64, 600]))],
                "count": draw(st.integers(1, 4)),
            }
        )
    return {
        "les": les,
        "bus": bus,
        "lecs": [{"host": h, "mac": mac} for h, mac in macs.items()],
        "traffic": traffic,
    }


@st.composite
def scenarios(draw) -> dict:
    switches = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    hosts = [f"h{i}" for i in range(draw(st.integers(2, 8)))]
    # a random tree over the switches, a few chords, each host on a switch
    pairs = [(s, draw(st.sampled_from(switches[:i]))) for i, s in enumerate(switches) if i]
    pairs += draw(st.lists(st.tuples(*[st.sampled_from(switches)] * 2), max_size=3))
    pairs += [(h, draw(st.sampled_from(switches))) for h in hosts]
    pairs = list({frozenset(p): p for p in pairs if p[0] != p[1]}.values())
    adjacency = {s: set() for s in switches}
    for a, b in pairs:
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    home = {h: s for a, b in pairs for h, s in ((a, b), (b, a)) if h in hosts}
    connections, generators = [], []
    for i in range(draw(st.integers(1, 5))):
        src, dst = draw(st.permutations(hosts))[:2]
        path = simple_path(draw, adjacency, home[src], home[dst], {home[src]})
        conn, gen = connection(draw, i, [src] + path + [dst])
        connections.append(conn)
        generators.append(gen)
    raw = {
        "duration_s": draw(st.sampled_from([0.05, 0.1, 0.2])),
        "seed": draw(st.integers(0, 3)),
        "nodes": [{"name": n, "kind": "host", **queue_thresholds(draw)} for n in hosts]
        + [{"name": n, "kind": "switch", **queue_thresholds(draw)} for n in switches],
        "links": [
            {
                "a": a,
                "b": b,
                "bit_rate": draw(st.sampled_from([1e6, 3e5])) * draw(st.floats(0.5, 2.0)),
                "propagation_delay": draw(st.floats(0.0, 0.01)),
            }
            for a, b in pairs
        ],
        "generators": generators,
        "connections": connections,
    }
    if draw(st.booleans()):
        raw["lane"] = lane(draw, hosts)
    return raw


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_rejected_up_front_or_runs_to_the_same_balanced_report_twice(guarded_run, raw):
    violations = preflight(raw)
    if violations:
        assert all(isinstance(v, str) and v for v in violations)
        return
    # run() ends with the conservation audit, which raises on a fault,
    # and each frame a LEC accepts is checked against the frame law
    with frame_law():
        _engine, report = guarded_run(raw, seconds=2.0)
    _engine, again = guarded_run(raw, seconds=2.0)
    assert report.to_json() == again.to_json()
    assert_report_balances(report)


@contextlib.contextmanager
def counted_cells():
    """Count, test-side, the cells behind the report counters the engine
    derives: each switch's ``routed``, each link's ``cells`` and each
    flow's cells emitted and lost by CLP.

    ``Engine._arrive`` and ``FlowState.on_lost`` are wrapped on their
    classes and ``TransitCell`` replaced in the engine's module, so build
    the engine inside the block.  Yields ``routed`` (switch name ->
    arrivals at it), ``crossed`` (link -> arrivals dispatched over it),
    ``emitted`` ((flow, clp) -> cells made) and ``lost`` ((flow, clp) ->
    cells lost, by the CLP each carried when lost).
    """
    arrive = Engine._arrive
    on_lost = FlowState.on_lost
    transit_cell = engine_module.TransitCell
    counts = SimpleNamespace(routed=Counter(), crossed=Counter(), emitted=Counter(), lost=Counter())

    def counting_arrive(engine, tc):
        link = tc.link
        counts.crossed[link] += 1
        if link.to_switch:
            counts.routed[link.dst] += 1
        return arrive(engine, tc)

    def counting_on_lost(flow, tc, reason):
        counts.lost[flow, tc.clp] += 1
        return on_lost(flow, tc, reason)

    class CountedCell(transit_cell):
        __slots__ = ()

        def __init__(self, flow, *args, **kwargs):
            super().__init__(flow, *args, **kwargs)
            counts.emitted[flow, self.clp] += 1

    Engine._arrive = counting_arrive  # type: ignore[method-assign]
    FlowState.on_lost = counting_on_lost  # type: ignore[method-assign]
    engine_module.TransitCell = CountedCell  # type: ignore[misc]
    try:
        yield counts
    finally:
        Engine._arrive = arrive  # type: ignore[method-assign]
        FlowState.on_lost = on_lost  # type: ignore[method-assign]
        engine_module.TransitCell = transit_cell  # type: ignore[misc]


def flow_ends(flow) -> tuple:
    """The hosts a flow's path joins, as its own record names them: a
    connection's route, its feedback's route reversed, a LANE VC's ends.
    A sink takes any cell of its flow, so only a walk of the tables shows
    a VC opened between the wrong hosts."""
    if isinstance(flow, LaneVc):
        return flow.src, flow.dst
    route = flow.conn.spec.route[::-1] if isinstance(flow, FeedbackFlow) else flow.spec.route
    return route[0], route[-1]


def assert_vcs_installed(engine) -> None:
    """Each flow's label tables lead, hop by hop, from a link out of its
    source host to the sink of its destination host, and hold nothing
    else: no (link, VCI) pair serves two flows, and no entry lies off
    every flow's path."""
    owner = {}
    for flow in engine.flows:
        src, dst = flow_ends(flow)
        link, vci = flow.tx, flow.vci
        assert link.src == src, f"{flow.id}: starts on {link.name}, not out of {src}"
        for _hop in range(len(engine.links)):
            claimed = owner.setdefault((link, vci), flow)
            assert claimed is flow, f"{flow.id} and {claimed.id} share VCI {vci} on {link.name}"
            assert vci in link.vcs, f"{flow.id}: VCI {vci} not installed on {link.name}"
            entry = link.vcs[vci]
            if not link.to_switch:
                assert callable(entry), f"{flow.id}: no sink at {link.dst}"
                assert link.dst == dst, f"{flow.id}: ends on {link.name}, not into {dst}"
                break
            nxt, vci = entry
            assert nxt.src == link.dst, f"{flow.id}: {link.name} is followed by {nxt.name}"
            link = nxt
        else:
            raise AssertionError(f"{flow.id}: no sink within {len(engine.links)} hops")
    orphans = [
        (link.name, vci) for link in engine.links for vci in link.vcs if (link, vci) not in owner
    ]
    assert orphans == [], orphans


def assert_counters_match(engine, report, counts) -> None:
    assert_vcs_installed(engine)
    for name, switch in report.switches.items():
        assert switch["routed"] == counts.routed[name], name
    # a cell on the wire is held, propagating (its arrival on the heap)
    # or has arrived
    arrive = engine._on_arrive
    propagating = Counter(arg.link for _time, _seq, fn, arg in engine._heap if fn == arrive)
    for link in engine.links:
        on_wire = counts.crossed[link] + propagating[link] + (link.holding is not None)
        assert report.links[link.name]["cells"] == on_wire, link.name
    # the report splits a flow's counts by its clp: no cell of a flow may
    # be emitted or lost with the other CLP
    for flow in engine.flows:
        other = 1 - flow.clp
        assert (counts.emitted[flow, other], counts.lost[flow, other]) == (0, 0), flow.id
        assert counts.emitted[flow, flow.clp] == flow.sent, flow.id
    for flow in engine.connections:
        conn = report.connections[flow.id]
        for clp in (0, 1):
            assert conn[f"transmitted_clp{clp}"] == counts.emitted[flow, clp], flow.id
            assert conn[f"lost_clp{clp}"] == counts.lost[flow, clp], flow.id
        abr = conn.get("abr")
        if abr is not None:
            # the ABR law: one feedback cell per nrm delivered data cells,
            # one rate change per feedback cell delivered, each in [mcr, pcr]
            series = report.abr_series[flow.id]
            assert abr["feedback_sent"] == conn["delivered"] // flow.spec.abr.nrm, flow.id
            assert abr["adjustments"] == abr["feedback_delivered"] == len(series), flow.id
            assert all(abr["mcr"] <= acr <= abr["pcr"] for _time, acr, _bit in series), flow.id


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_derived_counters_match_an_independent_count(guarded_run, raw):
    if preflight(raw):
        return
    with counted_cells() as counts:
        engine, report = guarded_run(raw, seconds=2.0)
    assert_counters_match(engine, report, counts)


@pytest.mark.parametrize("name", ["reference", "congested", "c11"])
def test_golden_scenarios_derived_counters_match_an_independent_count(name):
    source = c11_scenario() if name == "c11" else os.path.join(DATA_DIR, f"{name}_scenario.json")
    with counted_cells() as counts:
        engine = build(source)
        report = engine.run()
    assert sum(counts.routed.values()) > 0
    assert_counters_match(engine, report, counts)
