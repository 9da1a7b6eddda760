"""Scenario loading: schema strictness and semantic validation."""

import json
import re
from pathlib import Path

import pytest
from conftest import REFERENCE_SCENARIO

from atmsim.engine import preflight
from atmsim.scenario import (
    AbrOverrides,
    ConnectionSpec,
    GeneratorSpec,
    LaneSpec,
    LaneTrafficSpec,
    LecSpec,
    LinkSpec,
    NodeSpec,
    Scenario,
    ScenarioError,
    _SCHEMA,
    load_scenario,
    validate_scenario,
)
from atmsim.traffic import QosRequirement, ServiceCategory, TrafficDescriptor

README = Path(__file__).resolve().parent.parent / "README.md"


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


def every_record_scenario() -> dict:
    """base_scenario with one record of every type: qos, an ABR
    connection with abr overrides, and a LANE with a LEC and traffic."""
    raw = base_scenario()
    raw["connections"][0]["qos"] = {"clr_clp0": 0.01, "max_ctd": 0.1}
    raw["generators"].append({"id": "e", "kind": "greedy_abr"})
    raw["connections"].append(
        {
            "id": "c2",
            "category": "ABR",
            "route": ["b", "s", "a"],
            "generator": "e",
            "descriptor": {"pcr": 100.0, "mcr": 0.0},
            "abr": {"rdf": 0.5},
        }
    )
    raw["lane"] = {
        "les": "a",
        "bus": "a",
        "lecs": [{"host": "b", "mac": "02:00:00:00:00:02"}],
        "traffic": [{"src": "b", "dst": "broadcast", "rate": 10.0, "frame_bytes": 100}],
    }
    return raw


DROP = object()  # a mutation that removes the key

C0, C1, T0 = ("connections", 0), ("connections", 1), ("lane", "traffic", 0)

# (path, value, the exact ScenarioError): for each record type a missing
# required key, a wrong type, an unknown key, null and, for numbers, a
# non-finite value.
EXACT_MESSAGES = [
    (("duration_s",), DROP, "scenario: missing required key 'duration_s'"),
    (("seed",), "7", "scenario.seed: expected an integer, got str"),
    (("colour",), 1, "scenario: unknown keys ['colour']"),
    (("seed",), None, "scenario.seed: expected an integer, got NoneType"),
    (("nodes",), None, "nodes: expected list, got NoneType"),
    (("duration_s",), float("inf"), "scenario: duration_s must be finite, got inf"),
    (("nodes", 0, "kind"), DROP, "nodes[0]: missing required key 'kind'"),
    (("nodes", 0, "queue_capacity"), 1.5,
     "nodes[0].queue_capacity: expected an integer, got float"),
    (("nodes", 0, "colour"), "red", "nodes[0]: unknown keys ['colour']"),
    (("nodes", 0, "efci_threshold"), None,
     "nodes[0].efci_threshold: expected an integer, got NoneType"),
    (("nodes", 0), None, "nodes[0]: expected dict, got NoneType"),
    (("links", 0, "bit_rate"), DROP, "links[0]: missing required key 'bit_rate'"),
    (("links", 0, "a"), 3, "links[0].a: expected str, got int"),
    (("links", 0, "metric"), 10, "links[0]: unknown keys ['metric']"),
    (("links", 0, "booking_factor"), None,
     "links[0].booking_factor: expected a number, got NoneType"),
    (("links", 0, "propagation_delay"), float("nan"),
     "links[0]: propagation_delay must be finite, got nan"),
    (("generators", 0, "kind"), DROP, "generators[0]: missing required key 'kind'"),
    (("generators", 0, "rate"), "fast", "generators[0].rate: expected a number, got str"),
    (("generators", 0, "burst"), 2, "generators[0]: unknown keys ['burst']"),
    (("generators", 0, "rate"), None, "generators[0].rate: expected a number, got NoneType"),
    (("generators", 0, "rate"), float("-inf"), "generators[0]: rate must be finite, got -inf"),
    (C0 + ("generator",), DROP, "connections[0]: missing required key 'generator'"),
    (C0 + ("category",), 5, "connections[0].category: expected str, got int"),
    (C0 + ("route",), ["a", 1], "connections[0].route[1]: expected str, got int"),
    (C0 + ("clp",), True, "connections[0].clp: expected an integer, got bool"),
    (C0 + ("priority",), 1, "connections[0]: unknown keys ['priority']"),
    (C0 + ("route",), None, "connections[0].route: expected list, got NoneType"),
    (C0 + ("category",), "TURBO", "connections[0].category: unknown service category 'TURBO'"),
    (C0 + ("abr",), None, "connections[0].abr: only ABR connections take abr parameters, not CBR"),
    (C0 + ("descriptor", "pcr"), DROP, "connections[0].descriptor: missing required key 'pcr'"),
    (C0 + ("descriptor", "mbs"), 2.5,
     "connections[0].descriptor.mbs: expected an integer, got float"),
    (C0 + ("descriptor", "bt"), 1, "connections[0].descriptor: unknown keys ['bt']"),
    (C0 + ("descriptor", "cdvt"), None,
     "connections[0].descriptor.cdvt: expected a number, got NoneType"),
    (C0 + ("descriptor",), None, "connections[0].descriptor: expected dict, got NoneType"),
    (C0 + ("descriptor", "pcr"), float("inf"),
     "connections[0].descriptor: pcr must be finite, got inf"),
    (C0 + ("descriptor", "pcr"), -1, "connections[0].descriptor: pcr must be positive"),
    (C0 + ("qos", "max_ctd"), "1", "connections[0].qos.max_ctd: expected a number, got str"),
    (C0 + ("qos", "clr"), 0.1, "connections[0].qos: unknown keys ['clr']"),
    (C0 + ("qos", "max_cdv"), None, "connections[0].qos.max_cdv: expected a number, got NoneType"),
    (C0 + ("qos",), None, "connections[0].qos: expected dict, got NoneType"),
    (C0 + ("qos", "clr_clp0"), float("nan"),
     "connections[0].qos: clr_clp0 must be finite, got nan"),
    (C0 + ("qos", "clr_clp0"), 2, "connections[0].qos: clr_clp0 must be a ratio in [0, 1]"),
    (C1 + ("abr", "nrm"), 1.5, "connections[1].abr.nrm: expected an integer, got float"),
    (C1 + ("abr", "icr"), 1.0, "connections[1].abr: unknown keys ['icr']"),
    (C1 + ("abr", "rdf"), None, "connections[1].abr.rdf: expected a number, got NoneType"),
    (C1 + ("abr",), None, "connections[1].abr: expected dict, got NoneType"),
    (C1 + ("abr", "air"), float("inf"), "connections[1].abr: air must be finite, got inf"),
    (("lane", "les"), DROP, "lane: missing required key 'les'"),
    (("lane", "parallel_bus"), True, "lane: unknown keys ['parallel_bus']"),
    (("lane", "elan"), "x", "lane: unknown keys ['elan']"),
    (("lane", "bus"), None, "lane.bus: expected str, got NoneType"),
    (("lane", "lecs"), None, "lane.lecs: expected list, got NoneType"),
    (("lane", "lecs", 0, "mac"), DROP, "lane.lecs[0]: missing required key 'mac'"),
    (("lane", "lecs", 0, "host"), 1, "lane.lecs[0].host: expected str, got int"),
    (("lane", "lecs", 0, "vlan"), 1, "lane.lecs[0]: unknown keys ['vlan']"),
    (("lane", "lecs", 0, "mac"), None, "lane.lecs[0].mac: expected str, got NoneType"),
    (("lane", "lecs", 0, "mac"), "broadcast",
     "lane.lecs[0].mac: MAC address needs 6 octets: 'broadcast'"),
    (T0 + ("rate",), DROP, "lane.traffic[0]: missing required key 'rate'"),
    (T0 + ("dst",), DROP, "lane.traffic[0]: missing required key 'dst'"),
    (T0 + ("count",), 1.5, "lane.traffic[0].count: expected an integer, got float"),
    (T0 + ("frame_bytes",), [64], "lane.traffic[0].frame_bytes: a range needs exactly [lo, hi]"),
    (T0 + ("frame_bytes",), [64, "x"],
     "lane.traffic[0].frame_bytes[1]: expected an integer, got str"),
    (T0 + ("frame_bytes",), "64", "lane.traffic[0].frame_bytes: expected an integer, got str"),
    (T0 + ("dst",), "02:00", "lane.traffic[0].dst: MAC address needs 6 octets: '02:00'"),
    (T0 + ("vlan",), 1, "lane.traffic[0]: unknown keys ['vlan']"),
    (T0 + ("start",), None, "lane.traffic[0].start: expected a number, got NoneType"),
    (T0 + ("count",), None, "lane.traffic[0].count: expected an integer, got NoneType"),
    (T0 + ("rate",), float("inf"), "lane.traffic[0]: rate must be finite, got inf"),
    pytest.param(("duration_s",), 10**400, "scenario.duration_s: integer beyond the float range",
                 id="duration_s-10**400"),
    pytest.param(("nodes", 0, "queue_capacity"), 10**400,
                 "nodes[0].queue_capacity: integer beyond the float range",
                 id="queue_capacity-10**400"),
    (("lane", "lecs", 0, "mac"), "02:a0:00:00:00:+1",
     "lane.lecs[0].mac: MAC address octet '+1' is not two hex digits: '02:a0:00:00:00:+1'"),
]


# The four fields that _SCHEMA reads with a reader of their own, where
# EXACT_MESSAGES leaves a case out: the JSON key is the one the table
# names, and each field is required.
ANNOTATED_FIELD_MESSAGES = [
    (C0 + ("category",), DROP, "connections[0]: missing required key 'category'"),
    (T0 + ("dst",), 2, "lane.traffic[0].dst: expected str, got int"),
    (T0 + ("dst_mac",), "02:00:00:00:00:02", "lane.traffic[0]: unknown keys ['dst_mac']"),
    (T0 + ("frame_bytes",), DROP, "lane.traffic[0]: missing required key 'frame_bytes'"),
]


class TestAnnotatedFields:
    @pytest.mark.parametrize("path, value, message", ANNOTATED_FIELD_MESSAGES)
    def test_exact_message(self, path, value, message):
        raw = every_record_scenario()
        target = raw
        for key in path[:-1]:
            target = target[key]
        if value is DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        with pytest.raises(ScenarioError) as info:
            load_scenario(raw)
        assert str(info.value) == message


class TestSchema:
    def test_each_record_names_every_field_once_in_field_order(self):
        for cls, keys in _SCHEMA.items():
            fields = ["dst_mac" if key == "dst" else key for key in keys]
            assert tuple(fields) == cls._fields, cls.__name__

    def test_every_record_a_scenario_holds_has_keys(self):
        records = set(README_RECORDS.values()) | {LecSpec}
        assert set(_SCHEMA) == records


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

    def test_every_record_scenario_is_valid(self):
        assert violations_of(every_record_scenario()) == []

    @pytest.mark.parametrize("path, value, message", EXACT_MESSAGES)
    def test_exact_message(self, path, value, message):
        raw = every_record_scenario()
        target = raw
        for key in path[:-1]:
            target = target[key]
        if value is DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        with pytest.raises(ScenarioError) as info:
            load_scenario(raw)
        assert str(info.value) == message

    def test_integer_of_too_many_digits_rejected(self, tmp_path):
        # json refuses it where Python limits int digits, _expect elsewhere
        path = tmp_path / "scenario.json"
        path.write_text('{"duration_s": 1' + "0" * 5000 + "}")
        with pytest.raises(ScenarioError):
            load_scenario(str(path))

    def test_document_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("[]")
        with pytest.raises(ScenarioError) as info:
            load_scenario(str(path))
        assert str(info.value) == "scenario: expected dict, got list"

    def test_null_lane_reads_as_absent(self):
        raw = base_scenario()
        raw["lane"] = None
        assert load_scenario(raw) == load_scenario(base_scenario())

    def test_optional_keys_take_their_defaults(self):
        raw = every_record_scenario()
        del raw["seed"], raw["nodes"], raw["links"], raw["lane"]["lecs"]
        sc = load_scenario(raw)
        assert (sc.seed, sc.nodes, sc.links, sc.lane.lecs) == (0, (), (), ())

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

    def test_negative_seed(self):
        raw = base_scenario()
        raw["seed"] = -1
        assert violations_of(raw) == ["seed must be >= 0"]

    def test_queue_capacity_at_least_one(self):
        raw = base_scenario()
        raw["nodes"][0]["queue_capacity"] = 0
        assert violations_of(raw) == ["node a: queue_capacity must be >= 1"]

    def test_booking_factor_positive(self):
        raw = base_scenario()
        raw["links"][0]["booking_factor"] = 0
        assert violations_of(raw) == ["link a--s: booking_factor must be positive"]

    def test_propagation_delay_not_negative(self):
        raw = base_scenario()
        raw["links"][0]["propagation_delay"] = -0.001
        assert violations_of(raw) == ["link a--s: propagation_delay must be >= 0"]

    def test_bit_rate_positive(self):
        raw = base_scenario()
        raw["links"][0]["bit_rate"] = 0
        assert violations_of(raw) == [
            "link a--s: bit_rate must be positive",
            "connection c1: sends up to 100 cells/s, above the 0 cells/s of link a--s",
        ]


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

    @pytest.mark.parametrize(
        "cid, message",
        [
            ("x/y", "connection 'x/y': id must not contain '/' or NUL"),
            ("x\0y", "connection 'x\\x00y': id must not contain '/' or NUL"),
            pytest.param(
                "x" * 248,
                f"connection {'x' * 248!r}: id must be at most 247 bytes in UTF-8",
                id="248-bytes",
            ),
            pytest.param(
                "é" * 124,
                f"connection {'é' * 124!r}: id must be at most 247 bytes in UTF-8",
                id="248-bytes-of-124-chars",
            ),
            pytest.param(
                "fa\ud800",
                "connections[0].id: string contains a lone surrogate",
                id="lone-surrogate",
            ),
        ],
    )
    def test_id_that_cannot_name_a_file_rejected(self, cid, message):
        raw = base_scenario()
        raw["connections"][0]["id"] = cid
        try:
            found = violations_of(raw)
        except ScenarioError as exc:  # a string no file name can hold
            found = [str(exc)]
        assert found == [message]

    def test_id_of_247_bytes_accepted(self):
        raw = base_scenario()
        raw["connections"][0]["id"] = "x" * 247
        assert violations_of(raw) == []

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

    def test_duplicate_connection_id(self):
        raw = base_scenario()
        raw["connections"].append(dict(raw["connections"][0]))
        assert violations_of(raw) == ["connection c1: duplicate id"]

    def test_route_needs_two_nodes(self):
        raw = base_scenario()
        raw["connections"][0]["route"] = ["a"]
        assert violations_of(raw) == ["connection c1: route needs at least two nodes"]

    def test_route_visits_a_node_twice(self):
        raw = base_scenario()
        raw["nodes"].append({"name": "s2", "kind": "switch"})
        raw["links"].append({"a": "s", "b": "s2", "bit_rate": 1e6, "propagation_delay": 0.001})
        raw["connections"][0]["route"] = ["a", "s", "s2", "s", "b"]
        assert violations_of(raw) == ["connection c1: route visits a node twice"]


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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mean_on_s", 0.0, "needs a positive mean_on_s"),
            ("mean_off_s", -0.1, "needs mean_off_s >= 0"),
        ],
    )
    def test_on_off_periods_in_range(self, field, value, message):
        raw = base_scenario()
        raw["connections"] = []
        gen = dict(id="g", kind="on_off_vbr", peak_rate=100.0, mean_on_s=0.1, mean_off_s=0.1)
        raw["generators"] = [{**gen, field: value}]
        assert violations_of(raw) == [f"generator g: on_off_vbr {message}"]

    def test_duplicate_generator_id(self):
        raw = base_scenario()
        raw["generators"].append({"id": "g", "kind": "paced_cbr", "rate": 100.0})
        assert violations_of(raw) == ["generator g: duplicate id"]

    def test_unknown_kind(self):
        raw = base_scenario()
        raw["generators"].append({"id": "p", "kind": "poisson", "rate": 100.0})
        assert violations_of(raw) == ["generator p: unknown kind 'poisson'"]

    @pytest.mark.parametrize(
        "gen_id, stray",
        [
            ("steady", {"peak_rate": 800.0, "mean_off_s": 0.03}),
            ("bursty", {"rate": 500.0}),
            ("elastic", {"cap": 300.0}),
            ("filler", {"rate": 300.0, "mean_on_s": 0.02}),
        ],
    )
    def test_field_its_kind_never_reads_refused(self, gen_id, stray):
        """A value the generator would silently ignore is one violation
        per field, named in field order."""
        raw = json.loads(Path(REFERENCE_SCENARIO).read_text(encoding="utf-8"))
        assert preflight(raw) == []
        (gen,) = (g for g in raw["generators"] if g["id"] == gen_id)
        gen.update(stray)
        assert preflight(raw) == [
            f"generator {gen_id}: {gen['kind']} does not take {field}" for field in stray
        ]


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

    def test_one_lec_per_host(self):
        raw = self._with_lane()
        raw["lane"]["lecs"].append({"host": "a", "mac": "02:00:00:00:00:03"})
        assert violations_of(raw) == ["lane lec a: one LEC per host"]

    def test_traffic_rate_start_and_count_ranges(self):
        raw = self._with_lane()
        raw["lane"]["traffic"][0].update(rate=0, start=-1, count=0)
        assert violations_of(raw) == [
            "lane.traffic[0]: rate must be positive",
            "lane.traffic[0]: start must be >= 0",
            "lane.traffic[0]: count must be >= 1",
        ]


# The record each row of the README's "Optional key: default" table names.
README_RECORDS = {
    "top level": Scenario,
    "node": NodeSpec,
    "link": LinkSpec,
    "generator": GeneratorSpec,
    "connection": ConnectionSpec,
    "`descriptor`": TrafficDescriptor,
    "`qos`": QosRequirement,
    "`abr`": AbrOverrides,
    "`lane`": LaneSpec,
    "`lane.traffic` entry": LaneTrafficSpec,
}


class TestReadmeExample:
    def test_scenario_format_example_passes_preflight(self):
        section = README.read_text().split("## Scenario format", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S)
        assert block is not None
        assert preflight(json.loads(block.group(1))) == []

    def test_optional_key_table_names_each_records_optional_keys(self):
        # each row lists "`key`, `key`: default" entries split by ";"
        table = README.read_text().split("| Record | Optional key: default |\n", 1)[1]
        rows = {}
        for line in table.split("\n\n", 1)[0].splitlines()[1:]:  # below the |---| rule
            record, defaults = (cell.strip() for cell in line.strip("|").split("|"))
            rows[record] = {
                key
                for entry in defaults.split(";")
                for key in re.findall(r"`([^`]+)`", entry.split(":", 1)[0])
            }
        assert rows.keys() == README_RECORDS.keys()
        for record, cls in README_RECORDS.items():
            keys = zip(_SCHEMA[cls], cls._fields)
            optional = {key for key, field in keys if field in cls._field_defaults}
            assert rows[record] == optional, record
