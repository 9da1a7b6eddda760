"""Metamorphic relations: edits to a scenario that must leave its report
byte for byte the same.

The engine looks nodes and generators up by name and id, and the report
sorts its keys, so reversing either list changes nothing.  Reversing
``links`` only renumbers each switch's ports, which the report keys by
index in link order, so the report is the same once those ports are
keyed by the neighbour they lead ``toward``.  The orders that do show
(connections, LANE clients and LANE traffic) are not free; ROADMAP item
16 covers them.
"""

import functools
import json
import os
import sys

import pytest
from conftest import c11_scenario

from atmsim import run

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
def report(name):
    return run(scenario(name)).to_json()


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
