"""Metamorphic relations: edits to a scenario that must leave its report
byte for byte the same.

The engine looks nodes and generators up by name and id, and the report
sorts its keys, so reversing either list changes nothing.  Reversing
``links`` only renumbers each switch's ports, which the report keys by
index in link order, so the report is the same once those ports are
keyed by the neighbour they lead ``toward``.  The orders that do show
(connections, LANE clients and LANE traffic) are not free; ROADMAP item
16 covers them.

Time scales too.  Multiplying every time in a scenario by s = 2**-j and
dividing every rate by s is exact in binary floating point, barring
subnormals and overflow, and so is every operation the engine applies to
those numbers.  So the scaled run's report equals the original once its
time fields are multiplied by s and its rate fields divided by s, and
every count and ratio is unchanged.  LAN emulation stays out: its LE-ARP
timers are constants, so they do not scale with the scenario.
"""

import copy
import functools
import json
import math
import os
import sys
from operator import mul, truediv

import pytest
from conftest import c11_scenario
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_generated_topologies import scenarios as generated_scenarios

from atmsim import preflight, run
from atmsim.scenario import _SCHEMA, _number

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
sys.path.insert(0, BENCH_DIR)
try:
    import workloads
finally:
    sys.path.remove(BENCH_DIR)


def scenario(name):
    if name == "c11":
        return c11_scenario()
    with open(os.path.join(DATA_DIR, f"{name}_scenario.json")) as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def golden_run(name):
    return run(scenario(name))


def report(name):
    return golden_run(name).to_json()


@pytest.mark.parametrize("key", ["nodes", "generators"])
@pytest.mark.parametrize("name", ["reference", "congested", "c11"])
def test_reversing_a_list_leaves_the_report_unchanged(name, key):
    raw = scenario(name)
    assert len(raw[key]) > 1
    raw[key] = raw[key][::-1]
    assert run(raw).to_json() == report(name)


def ports_by_neighbour(report_json):
    """The report as a dict, each switch's ports keyed by ``toward``."""
    report = json.loads(report_json)
    for switch in report["switches"].values():
        ports = {port["toward"]: port for port in switch["ports"].values()}
        assert len(ports) == len(switch["ports"])
        switch["ports"] = ports
    return report


@pytest.mark.parametrize(
    "raw",
    [pytest.param(scenario(name), id=name) for name in ["reference", "congested", "c11"]]
    + [pytest.param(workloads.lane_fabric(seed), id=f"lane_fabric-{seed}") for seed in range(16)],
)
def test_reversing_links_only_renumbers_ports(raw):
    plain = run(raw).to_json()
    reversed_links = dict(raw, links=raw["links"][::-1])
    turned = run(reversed_links).to_json()
    assert turned != plain  # some switch has two ports, so their indices swap
    assert ports_by_neighbour(turned) == ports_by_neighbour(plain)


TIME, RATE = mul, truediv  # how a value of each class scales by s

# Every key that scenario._SCHEMA reads as a number, by record: a time
# (seconds), a rate (per second) or neither (None).
NUMBER_CLASSES = {
    "Scenario": {"duration_s": TIME},
    "LinkSpec": {"bit_rate": RATE, "propagation_delay": TIME, "booking_factor": None},
    "GeneratorSpec": {
        "rate": RATE,
        "peak_rate": RATE,
        "mean_on_s": TIME,
        "mean_off_s": TIME,
        "cap": RATE,
    },
    "AbrOverrides": {"air": RATE, "rdf": None, "initial_acr": RATE},
    "TrafficDescriptor": {"pcr": RATE, "cdvt": TIME, "scr": RATE, "mcr": RATE},
    "QosRequirement": {"clr_clp0": None, "clr_clp1": None, "max_ctd": TIME, "max_cdv": TIME},
    "LaneTrafficSpec": {"rate": RATE, "start": TIME},
}

REPORT_CLASSES = dict.fromkeys(
    ("duration_s", "mean_ctd", "max_ctd", "cdv_peak_to_peak", "cdv_stddev", "busy_s"), TIME
) | dict.fromkeys(("final_acr", "mcr", "pcr"), RATE)

SCALES = [-3, -1, 1, 4]  # j, for s = 2**-j


def test_every_numeric_scenario_field_has_a_class():
    numeric = {
        cls.__name__: sorted(key for key, read in keys.items() if read is _number)
        for cls, keys in _SCHEMA.items()
    }
    assert {name: sorted(keys) for name, keys in NUMBER_CLASSES.items()} == {
        name: keys for name, keys in numeric.items() if keys
    }


def scaled_scenario(raw, s):
    """A copy of ``raw``, which has no LANE, with each time multiplied by
    s and each rate divided by it."""
    assert "lane" not in raw
    raw = copy.deepcopy(raw)

    def scale(obj, record):
        for key, how in NUMBER_CLASSES[record].items():
            if how is not None and obj.get(key) is not None:
                obj[key] = how(obj[key], s)

    scale(raw, "Scenario")
    for key, record in (("links", "LinkSpec"), ("generators", "GeneratorSpec")):
        for obj in raw[key]:
            scale(obj, record)
    for conn in raw["connections"]:
        for key, record in (
            ("descriptor", "TrafficDescriptor"),
            ("qos", "QosRequirement"),
            ("abr", "AbrOverrides"),
        ):
            if key in conn:
                scale(conn[key], record)
    return raw


def scaled_report(doc, s):
    """A report document with each time field multiplied by s and each rate divided by it."""
    if not isinstance(doc, dict):
        return doc
    return {
        key: REPORT_CLASSES[key](value, s) if key in REPORT_CLASSES else scaled_report(value, s)
        for key, value in doc.items()
    }


def assert_time_scales(raw, original, j):
    s = math.ldexp(1.0, -j)
    scaled = run(scaled_scenario(raw, s))
    expected = scaled_report(original.as_dict(), s)
    assert json.dumps(scaled.as_dict(), sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert scaled.abr_series == {
        conn_id: [(time_s * s, acr / s, congested) for time_s, acr, congested in series]
        for conn_id, series in original.abr_series.items()
    }


@pytest.mark.parametrize("j", SCALES)
@pytest.mark.parametrize("name", ["congested", "c11"])
def test_scaling_time_scales_the_report(name, j):
    assert_time_scales(scenario(name), golden_run(name), j)


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(generated_scenarios(), st.sampled_from([-3, -2, -1, 1, 2, 5]))
def test_scaling_time_scales_generated_reports(raw, j):
    raw.pop("lane", None)
    violations = preflight(raw)
    assert len(preflight(scaled_scenario(raw, math.ldexp(1.0, -j)))) == len(violations)
    if not violations:
        assert_time_scales(raw, run(raw), j)
