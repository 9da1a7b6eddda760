"""Generated scenario documents: each is refused at load, refused by
preflight, or runs to a report, the same twice and with its counters
balanced.

Every document is one fixed scenario, which has every generator kind,
all five service categories, qos, abr and LANE traffic in both
frame_bytes forms, with one to three keys dropped or set to a JSON value
from a fixed list.
"""

import copy

from conftest import assert_report_balances
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from atmsim.engine import preflight
from atmsim.scenario import ScenarioError


def document() -> dict:
    def vbr(conn_id, route):
        descriptor = {"pcr": 100.0, "cdvt": 0.001, "scr": 50.0, "mbs": 10}
        return {"id": conn_id, "category": "VBR_RT", "route": route,
                "generator": "bursty", "descriptor": descriptor}

    nrt = vbr("v2", ["b", "s", "a"])
    nrt["category"] = "VBR_NRT"
    return {
        "duration_s": 0.2,
        "seed": 3,
        "nodes": [
            {"name": "a", "kind": "host"},
            {"name": "s", "kind": "switch", "queue_capacity": 64,
             "clp_threshold": 40, "efci_threshold": 8},
            {"name": "b", "kind": "host"},
            {"name": "hs", "kind": "host"},
        ],
        "links": [
            {"a": "a", "b": "s", "bit_rate": 1e6, "propagation_delay": 0.001},
            {"a": "s", "b": "b", "bit_rate": 1e6, "propagation_delay": 0.001,
             "booking_factor": 1.0},
            {"a": "hs", "b": "s", "bit_rate": 1e6, "propagation_delay": 0.0001},
        ],
        "generators": [
            {"id": "steady", "kind": "paced_cbr", "rate": 100.0},
            {"id": "bursty", "kind": "on_off_vbr", "peak_rate": 100.0,
             "mean_on_s": 0.05, "mean_off_s": 0.05},
            {"id": "elastic", "kind": "greedy_abr"},
            {"id": "filler", "kind": "greedy_ubr", "cap": 100.0},
        ],
        "connections": [
            {"id": "c", "category": "CBR", "route": ["a", "s", "b"], "generator": "steady",
             "descriptor": {"pcr": 100.0, "cdvt": 0.001},
             "qos": {"clr_clp0": 0.01, "clr_clp1": 0.1, "max_ctd": 0.1, "max_cdv": 0.01}},
            vbr("v1", ["a", "s", "b"]),
            nrt,
            {"id": "e", "category": "ABR", "route": ["b", "s", "a"], "generator": "elastic",
             "descriptor": {"pcr": 200.0, "mcr": 10.0},
             "abr": {"air": 5.0, "rdf": 0.5, "nrm": 8, "initial_acr": 50.0}},
            {"id": "u", "category": "UBR", "route": ["a", "s", "b"], "generator": "filler",
             "descriptor": {"pcr": 100.0}, "clp": 1},
        ],
        "lane": {
            "les": "hs",
            "bus": "hs",
            "lecs": [{"host": "a", "mac": "02:00:00:00:00:01"},
                     {"host": "b", "mac": "02:00:00:00:00:02"}],
            "traffic": [
                {"src": "a", "dst": "02:00:00:00:00:02", "rate": 20.0,
                 "frame_bytes": 100, "count": 3},
                {"src": "b", "dst": "broadcast", "rate": 20.0,
                 "frame_bytes": [64, 600], "start": 0.05},
            ],
        },
    }


def key_paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


PATHS = list(key_paths(document()))
DROP = "<drop>"
VALUES = [DROP, None, True, False, 0, -1, 1e20, 1e-300, 5e-324, 10**400, "", "broadcast",
          "CBR", "02:00:00:00:00:09", [], [64, 600], ["a", "s"], {}, {"pcr": 1.0}]


def mutated(mutations) -> dict:
    raw = document()
    for path, value in mutations:
        target = raw
        try:
            for key in path[:-1]:
                target = target[key]
            if value == DROP:
                del target[path[-1]]
            else:
                target[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced the container
    return raw


EDITS = st.lists(
    st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES)), min_size=1, max_size=3
)


def test_document_runs_as_it_is(guarded_run):
    assert preflight(document()) == []
    _engine, report = guarded_run(document())
    assert all(entry["delivered"] for entry in report.connections.values())


# A document is a few edits of one scenario, so shrinking has little to
# gain, and on a run that never ends each shrink step would cost the
# guard's seconds.
@settings(
    max_examples=600,
    derandomize=True,
    database=None,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
@given(EDITS)
# OFF periods near 1e20 s: t + an ON draw rounds back to t
@example([(("generators", 1, "mean_off_s"), 1e20)])
def test_refused_or_runs_to_the_same_report_twice(guarded_run, mutations):
    raw = mutated(mutations)
    try:
        violations = preflight(raw)
    except ScenarioError as exc:
        assert str(exc)
        return
    if violations:
        assert all(isinstance(v, str) and v for v in violations)
        return
    _engine, report = guarded_run(raw, seconds=2.0)
    _engine, again = guarded_run(raw, seconds=2.0)
    assert report.to_json() == again.to_json()
    assert_report_balances(report)
