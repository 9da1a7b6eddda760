"""Generated LAN-emulation scenarios: each is rejected up front or runs
with every cell reaching a node that knows its VC, and every frame
accepted at most once and in order."""

from conftest import frame_law
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from atmsim.engine import build, preflight


@st.composite
def lane_scenarios(draw) -> dict:
    hosts = [f"h{i}" for i in range(draw(st.integers(3, 6)))]
    switches = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    names = hosts + switches
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    # Mostly a switch fabric with hosts on it, plus a few arbitrary links
    # (host to host among them); the draw order is the link order, which
    # breaks route ties.  Simpler draws leave a link in, so shrinking
    # keeps scenarios that run.
    links = [(a, b) for a, b in zip(switches, switches[1:]) if draw(st.integers(0, 4)) < 4]
    for h in hosts:
        if draw(st.integers(0, 4)) < 4:
            links.append((h, draw(st.sampled_from(switches))))
    links += draw(st.lists(st.sampled_from(pairs), max_size=3))
    links = list({frozenset(pair): pair for pair in links}.values())
    les = draw(st.sampled_from(hosts))
    bus = draw(st.sampled_from(hosts))
    candidates = [h for h in hosts if h not in (les, bus)]
    lec_hosts = candidates[: draw(st.integers(min(2, len(candidates)), len(candidates)))]
    macs = {host: f"02:00:00:00:00:{i + 1:02x}" for i, host in enumerate(lec_hosts)}
    traffic = []
    for _ in range(draw(st.integers(1, 3)) if lec_hosts else 0):
        src = draw(st.sampled_from(lec_hosts))
        dsts = [mac for host, mac in macs.items() if host != src] + ["broadcast"]
        if draw(st.integers(0, 9)) == 9:
            dsts = [macs[src]]  # a frame to itself
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
        "duration_s": 0.2,
        "seed": draw(st.integers(0, 3)),
        "nodes": [{"name": n, "kind": "host"} for n in hosts]
        + [{"name": n, "kind": "switch"} for n in switches],
        "links": [
            {"a": a, "b": b, "bit_rate": 1e7, "propagation_delay": 1e-5} for a, b in links
        ],
        "lane": {
            "les": les,
            "bus": bus,
            "lecs": [{"host": h, "mac": mac} for h, mac in macs.items()],
            "traffic": traffic,
        },
    }


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(lane_scenarios())
def test_rejected_up_front_or_runs_without_unknown_vcs(raw):
    violations = preflight(raw)
    if violations:
        assert all(isinstance(v, str) and v for v in violations)
        return
    with frame_law():
        engine = build(raw)
        engine.run()
    assert [name for name, node in engine.nodes.items() if node.unknown_vc] == []
