"""Metamorphic relations: edits to a scenario that must leave its report
byte for byte the same.

The engine looks nodes and generators up by name and id, and the report
sorts its keys, so reversing either list changes nothing.  The orders
that do show (connections, LANE clients and LANE traffic) are not free;
ROADMAP item 16 covers them.
"""

import functools
import json
import os

import pytest
from conftest import c11_scenario

from atmsim import run

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


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
