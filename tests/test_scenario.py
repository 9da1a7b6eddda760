"""Scenario loading: schema strictness and semantic validation."""

import json
import re
from pathlib import Path

import pytest

from atmsim.engine import preflight
from atmsim.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    validate_scenario,
)
from atmsim.traffic import ServiceCategory


def base_scenario() -> dict:
    return {
        "duration_s": 1.0,
        "seed": 1,
        "nodes": [
            {"name": "a", "kind": "host"},
            {"name": "s", "kind": "switch"},
            {"name": "b", "kind": "host"},
        ],
        "links": [
            {"a": "a", "b": "s", "bit_rate": 1e6, "propagation_delay": 0.001},
            {"a": "s", "b": "b", "bit_rate": 1e6, "propagation_delay": 0.001},
        ],
        "generators": [{"id": "g", "kind": "paced_cbr", "rate": 100.0}],
        "connections": [
            {
                "id": "c1",
                "category": "CBR",
                "route": ["a", "s", "b"],
                "generator": "g",
                "descriptor": {"pcr": 100.0, "cdvt": 0.001},
            }
        ],
    }


def violations_of(raw: dict):
    return validate_scenario(load_scenario(raw))


class TestLoading:
    def test_minimal_scenario_loads(self):
        sc = load_scenario(base_scenario())
        assert isinstance(sc, Scenario)
        assert sc.connections[0].category is ServiceCategory.CBR
        assert sc.connections[0].route == ("a", "s", "b")
        assert validate_scenario(sc) == []

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_scenario()))
        assert validate_scenario(load_scenario(str(path))) == []

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))

    def test_unknown_top_level_key_rejected(self):
        raw = base_scenario()
        raw["unexpected"] = 1
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(raw)

    def test_unknown_nested_keys_rejected(self):
        for path_keys, extra in (
            (("nodes", 0), {"colour": "red"}),
            (("links", 0), {"metric": 10}),
            (("generators", 0), {"burst": 2}),
            (("connections", 0), {"priority": 1}),
        ):
            raw = base_scenario()
            section, index = path_keys
            raw[section][index] = {**raw[section][index], **extra}
            with pytest.raises(ScenarioError, match="unknown keys"):
                load_scenario(raw)

    def test_missing_required_key_rejected(self):
        raw = base_scenario()
        del raw["duration_s"]
        with pytest.raises(ScenarioError, match="duration_s"):
            load_scenario(raw)

    def test_wrong_types_rejected(self):
        raw = base_scenario()
        raw["seed"] = "seven"
        with pytest.raises(ScenarioError, match="expected an integer"):
            load_scenario(raw)
        raw = base_scenario()
        raw["links"][0]["bit_rate"] = "fast"
        with pytest.raises(ScenarioError, match="expected a number"):
            load_scenario(raw)
        raw = base_scenario()
        raw["seed"] = True  # bools are ints in name only here
        with pytest.raises(ScenarioError):
            load_scenario(raw)

    def test_unknown_category_rejected(self):
        raw = base_scenario()
        raw["connections"][0]["category"] = "TURBO"
        with pytest.raises(ScenarioError, match="unknown service category"):
            load_scenario(raw)

    def test_integer_accepted_where_float_expected(self):
        raw = base_scenario()
        raw["duration_s"] = 2
        sc = load_scenario(raw)
        assert sc.duration_s == 2.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "path, where",
        [
            (("duration_s",), "scenario"),
            (("links", 0, "bit_rate"), "links[0]"),
            (("links", 0, "propagation_delay"), "links[0]"),
            (("links", 0, "booking_factor"), "links[0]"),
            (("generators", 0, "rate"), "generators[0]"),
            (("connections", 0, "qos", "max_ctd"), "connections[0].qos"),
            (("connections", 1, "abr", "rdf"), "connections[1].abr"),
            (("lane", "traffic", 0, "rate"), "lane.traffic[0]"),
            (("lane", "traffic", 0, "start"), "lane.traffic[0]"),
        ],
    )
    def test_non_finite_number_rejected(self, path, where, value):
        # Only loads: a NaN duration or delay, or an infinite duration or
        # LANE rate, would otherwise reach the report or never terminate.
        raw = base_scenario()
        raw["connections"][0]["qos"] = {}
        raw["generators"].append({"id": "e", "kind": "greedy_abr"})
        raw["connections"].append(
            {
                "id": "c2",
                "category": "ABR",
                "route": ["b", "s", "a"],
                "generator": "e",
                "descriptor": {"pcr": 100.0, "mcr": 0.0},
                "abr": {},
            }
        )
        raw["lane"] = {
            "les": "a",
            "bus": "a",
            "lecs": [{"host": "b", "mac": "02:00:00:00:00:02"}],
            "traffic": [{"src": "b", "dst": "broadcast", "rate": 10.0, "frame_bytes": 100}],
        }
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioError) as info:
            load_scenario(raw)
        assert str(info.value) == f"{where}: {path[-1]} must be finite, got {value}"


class TestTopologyValidation:
    def test_unknown_link_endpoint(self):
        raw = base_scenario()
        raw["links"][0]["a"] = "ghost"
        assert any("unknown node ghost" in v for v in violations_of(raw))

    def test_self_loop(self):
        raw = base_scenario()
        raw["links"][0]["b"] = "a"
        assert any("endpoints must differ" in v for v in violations_of(raw))

    def test_duplicate_link(self):
        raw = base_scenario()
        raw["links"].append({"a": "s", "b": "a", "bit_rate": 1e6, "propagation_delay": 0.0})
        assert any("duplicate link" in v for v in violations_of(raw))

    def test_duplicate_node_name(self):
        raw = base_scenario()
        raw["nodes"].append({"name": "a", "kind": "host"})
        assert any("duplicate name" in v for v in violations_of(raw))

    def test_nonpositive_duration(self):
        raw = base_scenario()
        raw["duration_s"] = 0.0
        assert any("duration_s" in v for v in violations_of(raw))


class TestConnectionValidation:
    def test_route_endpoints_must_be_hosts(self):
        raw = base_scenario()
        raw["connections"][0]["route"] = ["s", "b"]
        assert any("must be a host" in v for v in violations_of(raw))

    def test_route_middle_must_be_switch(self):
        raw = base_scenario()
        raw["nodes"].append({"name": "c", "kind": "host"})
        raw["links"].append({"a": "b", "b": "c", "bit_rate": 1e6, "propagation_delay": 0.0})
        raw["connections"][0]["route"] = ["a", "s", "b", "c"]
        assert any("must be a switch" in v for v in violations_of(raw))

    def test_route_needs_existing_links(self):
        raw = base_scenario()
        raw["nodes"].append({"name": "c", "kind": "host"})
        raw["connections"][0]["route"] = ["a", "s", "c"]
        assert any("no link between s and c" in v for v in violations_of(raw))

    def test_generator_category_match(self):
        raw = base_scenario()
        raw["connections"][0]["category"] = "UBR"
        raw["connections"][0]["descriptor"] = {"pcr": 100.0}
        assert any("needs a greedy_ubr generator" in v for v in violations_of(raw))

    def test_generator_rate_within_pcr(self):
        raw = base_scenario()
        raw["generators"][0]["rate"] = 200.0
        assert any("exceeds the declared pcr" in v for v in violations_of(raw))

    def test_contract_violations_prefixed(self):
        raw = base_scenario()
        raw["connections"][0]["descriptor"] = {"pcr": 100.0, "cdvt": 0.001, "scr": 50.0, "mbs": 3}
        assert any(v.startswith("connection c1: SCR not applicable") for v in violations_of(raw))

    @pytest.mark.parametrize("field", ["pcr", "cdvt"])
    def test_non_finite_descriptor_rejected(self, tmp_path, field):
        raw = base_scenario()
        raw["connections"][0]["descriptor"][field] = float("nan")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        assert "NaN" in path.read_text()  # json writes and reads it back
        with pytest.raises(ScenarioError, match=rf"connections\[0\]\.descriptor: {field} must be finite"):
            load_scenario(str(path))

    def test_abr_parameters_on_non_abr_connection_rejected(self):
        raw = base_scenario()
        raw["connections"][0]["abr"] = {"rdf": 5.0, "nrm": 0}
        with pytest.raises(ScenarioError, match=r"^connections\[0\]\.abr: only ABR connections"):
            load_scenario(raw)

    def test_clp_range(self):
        raw = base_scenario()
        raw["connections"][0]["clp"] = 2
        assert any("clp must be 0 or 1" in v for v in violations_of(raw))

    def test_direct_host_to_host_route_allowed(self):
        raw = base_scenario()
        raw["nodes"] = [
            {"name": "a", "kind": "host"},
            {"name": "b", "kind": "host"},
        ]
        raw["links"] = [{"a": "a", "b": "b", "bit_rate": 1e6, "propagation_delay": 0.001}]
        raw["connections"][0]["route"] = ["a", "b"]
        assert violations_of(raw) == []


class TestGeneratorValidation:
    @pytest.mark.parametrize(
        "kind, field, extra",
        [
            ("paced_cbr", "rate", {}),
            ("on_off_vbr", "peak_rate", {"mean_on_s": 0.1, "mean_off_s": 0.1}),
            ("greedy_ubr", "cap", {}),
        ],
    )
    @pytest.mark.parametrize("value", [None, 0.0, -5.0])
    def test_rate_must_be_positive(self, kind, field, extra, value):
        raw = base_scenario()
        raw["connections"] = []
        gen = {"id": "g", "kind": kind, **extra}
        if value is not None:
            gen[field] = value
        raw["generators"] = [gen]
        assert violations_of(raw) == [f"generator g: {kind} needs a positive {field}"]

    def test_on_period_at_least_one_cell_spacing(self):
        raw = base_scenario()
        raw["connections"] = []
        gen = {"id": "g", "kind": "on_off_vbr", "peak_rate": 100.0, "mean_off_s": 0.1}
        raw["generators"] = [{**gen, "mean_on_s": 0.01}]
        assert violations_of(raw) == []
        raw["generators"] = [{**gen, "mean_on_s": 0.0099}]
        assert violations_of(raw) == ["generator g: on_off_vbr needs mean_on_s >= 1/peak_rate"]


class TestLaneValidation:
    def _with_lane(self) -> dict:
        raw = base_scenario()
        raw["nodes"].append({"name": "hs", "kind": "host"})
        raw["links"].append(
            {"a": "hs", "b": "s", "bit_rate": 1e6, "propagation_delay": 0.0001}
        )
        raw["connections"] = []
        raw["generators"] = []
        raw["lane"] = {
            "les": "hs",
            "bus": "hs",
            "lecs": [
                {"host": "a", "mac": "02:00:00:00:00:01"},
                {"host": "b", "mac": "02:00:00:00:00:02"},
            ],
            "traffic": [
                {"src": "a", "dst": "02:00:00:00:00:02", "rate": 10.0, "frame_bytes": 100}
            ],
        }
        return raw

    def test_valid_lane_accepted(self):
        assert violations_of(self._with_lane()) == []

    def test_les_must_be_host(self):
        raw = self._with_lane()
        raw["lane"]["les"] = "s"
        assert any("lane.les" in v and "must be a host" in v for v in violations_of(raw))

    def test_lec_host_cannot_run_les(self):
        raw = self._with_lane()
        raw["lane"]["lecs"].append({"host": "hs", "mac": "02:00:00:00:00:03"})
        assert any("cannot also run" in v for v in violations_of(raw))

    def test_duplicate_mac(self):
        raw = self._with_lane()
        raw["lane"]["lecs"][1]["mac"] = "02:00:00:00:00:01"
        assert any("duplicate MAC" in v for v in violations_of(raw))

    def test_multicast_mac_rejected(self):
        raw = self._with_lane()
        raw["lane"]["lecs"][0]["mac"] = "01:00:00:00:00:01"
        assert any("individual address" in v for v in violations_of(raw))

    def test_traffic_to_nonmember(self):
        raw = self._with_lane()
        raw["lane"]["traffic"][0]["dst"] = "02:00:00:00:00:99"
        assert any("not a member LEC" in v for v in violations_of(raw))

    def test_traffic_src_needs_lec(self):
        raw = self._with_lane()
        raw["lane"]["traffic"][0]["src"] = "hs"
        assert any("has no LEC" in v for v in violations_of(raw))

    def test_broadcast_destination_accepted(self):
        raw = self._with_lane()
        raw["lane"]["traffic"][0]["dst"] = "broadcast"
        assert violations_of(raw) == []

    def test_frame_bytes_range(self):
        raw = self._with_lane()
        raw["lane"]["traffic"][0]["frame_bytes"] = [4, 100]
        assert any("frame_bytes" in v for v in violations_of(raw))
        raw["lane"]["traffic"][0]["frame_bytes"] = [200, 100]
        assert any("frame_bytes" in v for v in violations_of(raw))

    def test_frame_bytes_fixed_and_range_forms(self):
        raw = self._with_lane()
        raw["lane"]["traffic"][0]["frame_bytes"] = [64, 1500]
        sc = load_scenario(raw)
        assert sc.lane is not None
        assert sc.lane.traffic[0].frame_bytes == (64, 1500)


class TestReadmeExample:
    def test_scenario_format_example_passes_preflight(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Scenario format", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S)
        assert block is not None
        assert preflight(json.loads(block.group(1))) == []
