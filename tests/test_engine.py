"""End-to-end runs of the event-driven simulator."""

import heapq
import math

import pytest

from atmsim.cell import VCI_MAX
from atmsim.engine import (
    CELL_BITS,
    Engine,
    EventQueue,
    OrderingError,
    ScenarioInvalid,
    build,
    load_scenario,
    preflight,
    rng_stream,
    run,
)


def cbr_scenario(rate=100.0, duration=1.0, bit_rate=1e6, prop=0.001) -> dict:
    return {
        "duration_s": duration,
        "seed": 7,
        "nodes": [
            {"name": "a", "kind": "host"},
            {"name": "s", "kind": "switch"},
            {"name": "b", "kind": "host"},
        ],
        "links": [
            {"a": "a", "b": "s", "bit_rate": bit_rate, "propagation_delay": prop},
            {"a": "s", "b": "b", "bit_rate": bit_rate, "propagation_delay": prop},
        ],
        "generators": [{"id": "g", "kind": "paced_cbr", "rate": rate}],
        "connections": [
            {
                "id": "c1",
                "category": "CBR",
                "route": ["a", "s", "b"],
                "generator": "g",
                "descriptor": {"pcr": rate, "cdvt": 0.001},
            }
        ],
    }


class TestEventQueue:
    def test_orders_by_time_then_insertion(self):
        q = EventQueue()
        seen = []
        q.schedule(2.0, seen.append, "late")
        q.schedule(1.0, seen.append, "first")
        q.schedule(1.0, seen.append, "second")
        for _ in range(3):
            _time, _seq, fn, arg = q.pop()
            fn(arg)
        assert seen == ["first", "second", "late"]

    def test_schedule_into_past_raises(self):
        q = EventQueue()
        q.schedule(1.0, print)
        q.pop()
        with pytest.raises(OrderingError):
            q.schedule(0.5, print)

    def test_schedule_at_now_allowed(self):
        q = EventQueue()
        q.schedule(1.0, print)
        q.pop()
        q.schedule(1.0, print)
        assert q.pop()[0] == 1.0


class TestAudit:
    def test_lost_arrival_breaks_conservation(self):
        # Cells leave every millisecond and take 1.4 ms per hop, so the
        # run ends with cells still propagating toward s and b.
        eng = build(cbr_scenario(rate=1000.0, duration=0.0055))
        eng.run()
        heap = eng.events._heap
        arrivals = [entry for entry in heap if entry[2] == eng._arrive]
        assert arrivals
        eng._audit()
        heap.remove(arrivals[0])
        heapq.heapify(heap)
        with pytest.raises(AssertionError, match="conservation broken on c1"):
            eng._audit()


class TestRngStreams:
    def test_same_seed_same_label_reproduces(self):
        a = rng_stream(42, "alpha").random(8)
        b = rng_stream(42, "alpha").random(8)
        assert list(a) == list(b)

    def test_labels_are_independent(self):
        a = rng_stream(42, "alpha").random(8)
        b = rng_stream(42, "beta").random(8)
        assert list(a) != list(b)

    def test_seed_changes_stream(self):
        a = rng_stream(1, "alpha").random(8)
        b = rng_stream(2, "alpha").random(8)
        assert list(a) != list(b)


class TestCbrPath:
    def test_single_hop_analytic_delay(self):
        report = run(cbr_scenario())
        conn = report.connections["c1"]
        expected = 2 * (CELL_BITS / 1e6 + 0.001)
        assert conn["delay"]["mean_ctd"] == pytest.approx(expected, rel=0, abs=1e-12)
        assert conn["delay"]["max_ctd"] == pytest.approx(expected, rel=0, abs=1e-12)
        assert conn["delay"]["cdv_peak_to_peak"] <= 1e-12
        assert conn["clr"] == 0.0
        assert conn["lost"] == 0

    def test_all_emitted_accounted_for(self):
        report = run(cbr_scenario())
        conn = report.connections["c1"]
        assert conn["transmitted"] == conn["delivered"] + conn["lost"] + conn["in_flight"]
        # First cell at t=0, one per period after; rounding decides whether
        # the one falling on the end instant still fires.
        assert conn["transmitted"] in (100, 101)

    def test_two_switch_route_crosses_trunk(self):
        raw = cbr_scenario()
        raw["nodes"].insert(2, {"name": "s2", "kind": "switch"})
        raw["links"] = [
            {"a": "a", "b": "s", "bit_rate": 1e6, "propagation_delay": 0.001},
            {"a": "s", "b": "s2", "bit_rate": 1e6, "propagation_delay": 0.001},
            {"a": "s2", "b": "b", "bit_rate": 1e6, "propagation_delay": 0.001},
        ]
        raw["connections"][0]["route"] = ["a", "s", "s2", "b"]
        report = run(raw)
        conn = report.connections["c1"]
        expected = 3 * (CELL_BITS / 1e6 + 0.001)
        assert conn["delay"]["mean_ctd"] == pytest.approx(expected, rel=0, abs=1e-12)
        assert report.switches["s"]["routed"] > 0
        assert report.switches["s2"]["routed"] > 0

    def test_link_utilization_matches_load(self):
        report = run(cbr_scenario(rate=1000.0))
        # 1000 cells/s of 424-bit cells on a 1 Mb/s link.
        expected = 1000 * CELL_BITS / 1e6
        assert report.links["a->s"]["utilization"] == pytest.approx(expected, rel=0.02)


class TestDeterminism:
    def vbr_scenario(self, seed: int) -> dict:
        raw = cbr_scenario(duration=2.0)
        raw["seed"] = seed
        raw["generators"] = [
            {
                "id": "g",
                "kind": "on_off_vbr",
                "peak_rate": 500.0,
                "mean_on_s": 0.05,
                "mean_off_s": 0.05,
            }
        ]
        raw["connections"][0]["category"] = "VBR_NRT"
        raw["connections"][0]["descriptor"] = {
            "pcr": 500.0,
            "cdvt": 0.001,
            "scr": 300.0,
            "mbs": 50,
        }
        return raw

    def test_same_seed_byte_identical(self):
        first = run(self.vbr_scenario(3)).to_json()
        second = run(self.vbr_scenario(3)).to_json()
        assert first == second

    def test_different_seed_differs(self):
        first = run(self.vbr_scenario(3)).to_json()
        second = run(self.vbr_scenario(4)).to_json()
        assert first != second

    def test_on_off_with_zero_off_time_is_steady(self):
        raw = self.vbr_scenario(5)
        raw["generators"][0]["mean_on_s"] = 1.0
        raw["generators"][0]["mean_off_s"] = 0.0
        raw["connections"][0]["descriptor"]["scr"] = 500.0
        raw["connections"][0]["descriptor"]["mbs"] = 1
        report = run(raw)
        # Always-on source approximates a paced one at peak_rate; each
        # zero-length off interval can slip in one boundary emission.
        assert report.connections["c1"]["transmitted"] == pytest.approx(1001, abs=10)


class TestLossAccounting:
    def overload_scenario(self) -> dict:
        return {
            "duration_s": 1.0,
            "seed": 9,
            "nodes": [
                {"name": "a", "kind": "host"},
                {"name": "b", "kind": "host"},
                {"name": "s", "kind": "switch", "queue_capacity": 32},
                {"name": "c", "kind": "host"},
            ],
            "links": [
                {"a": "a", "b": "s", "bit_rate": 1e7, "propagation_delay": 1e-4},
                {"a": "b", "b": "s", "bit_rate": 1e7, "propagation_delay": 1e-4},
                {
                    "a": "s",
                    "b": "c",
                    "bit_rate": 1e6,
                    "propagation_delay": 1e-4,
                    "booking_factor": 2.0,
                },
            ],
            "generators": [
                {"id": "g1", "kind": "paced_cbr", "rate": 2000.0},
                {"id": "g2", "kind": "paced_cbr", "rate": 2000.0},
            ],
            "connections": [
                {
                    "id": "c1",
                    "category": "CBR",
                    "route": ["a", "s", "c"],
                    "generator": "g1",
                    "descriptor": {"pcr": 2000.0, "cdvt": 0.001},
                },
                {
                    "id": "c2",
                    "category": "CBR",
                    "route": ["b", "s", "c"],
                    "generator": "g2",
                    "descriptor": {"pcr": 2000.0, "cdvt": 0.001},
                    "clp": 1,
                },
            ],
        }

    def test_overload_drops_and_conserves(self):
        report = run(self.overload_scenario())
        total_lost = 0
        for conn in report.connections.values():
            assert conn["transmitted"] == conn["delivered"] + conn["lost"] + conn["in_flight"]
            total_lost += conn["lost"]
        assert total_lost > 0
        sw = report.switches["s"]
        assert sw["full_drops"] + sw["clp_drops"] == total_lost

    def test_loss_reasons_match_counters(self):
        report = run(self.overload_scenario())
        reasons_full = sum(
            conn["loss_reasons"].get("full", 0) for conn in report.connections.values()
        )
        reasons_clp = sum(
            conn["loss_reasons"].get("clp_threshold", 0)
            for conn in report.connections.values()
        )
        sw = report.switches["s"]
        assert reasons_full == sw["full_drops"]
        assert reasons_clp == sw["clp_drops"]

    def test_tagged_cells_hit_threshold_first(self):
        report = run(self.overload_scenario())
        c2 = report.connections["c2"]
        assert c2["loss_reasons"].get("clp_threshold", 0) > 0
        assert c2["lost_clp1"] == c2["lost"]


class TestAdmission:
    def test_oversubscribed_cbr_rejected(self):
        raw = cbr_scenario(rate=1500.0)
        raw["generators"].append({"id": "g2", "kind": "paced_cbr", "rate": 1500.0})
        raw["connections"].append(
            {
                "id": "c2",
                "category": "CBR",
                "route": ["a", "s", "b"],
                "generator": "g2",
                "descriptor": {"pcr": 1500.0, "cdvt": 0.001},
            }
        )
        # 2 * 1500 cells/s > 1 Mb/s / 424 bits, second setup must fail.
        problems = preflight(raw)
        assert any("rejected by admission control" in p for p in problems)
        with pytest.raises(ScenarioInvalid):
            build(raw)

    def test_preflight_clean_scenario(self):
        assert preflight(cbr_scenario()) == []

    def test_preflight_reports_validation_problems(self):
        raw = cbr_scenario()
        raw["duration_s"] = -1.0
        assert any("duration_s" in p for p in preflight(raw))


class _LastLabelEngine(Engine):
    """Every link hands out VCI_MAX first: the first path across a link
    takes the last label and the next one finds none."""

    def _build_topology(self):
        super()._build_topology()
        for link in self.links:
            link.next_vci = VCI_MAX


class _NoLabelsLeftEngine(Engine):
    """No link has a label left once the scenario's own paths are built."""

    def _build_lane(self):
        violations = super()._build_lane()
        for link in self.links:
            link.next_vci = VCI_MAX + 1
        return violations


class TestLabelRange:
    def test_highest_vci_carries_cells(self):
        eng = _LastLabelEngine(load_scenario(cbr_scenario()))
        assert eng.connections[0].vci == VCI_MAX
        assert eng.run().connections["c1"]["delivered"] > 0

    def test_path_past_the_last_vci_is_invalid(self):
        raw = cbr_scenario(rate=100.0)
        raw["connections"].append(dict(raw["connections"][0], id="c2"))
        with pytest.raises(ScenarioInvalid) as info:
            _LastLabelEngine(load_scenario(raw))
        assert info.value.violations == [
            f"c2: no VCI left on link a->s (all up to {VCI_MAX} in use)",
            f"c2: no VCI left on link s->b (all up to {VCI_MAX} in use)",
        ]

    def test_data_direct_vc_without_labels_is_a_setup_drop(self):
        report = _NoLabelsLeftEngine(load_scenario(TestLaneRuns().lane_scenario())).run()
        sender = report.lane["lecs"]["h1"]
        assert report.lane["data_direct_vcs"] == 0
        assert sender["per_destination"]["02:00:00:00:00:02"]["dropped_setup"] == 20
        assert report.lane["lecs"]["h2"]["received_direct"] == 0


class TestAbrLoop:
    def abr_scenario(self) -> dict:
        # The contract peak is twice the bottleneck, so a greedy source
        # ramping toward it must overdrive the queue and get marked.
        pcr = 2e6 / CELL_BITS
        return {
            "duration_s": 4.0,
            "seed": 11,
            "nodes": [
                {"name": "a", "kind": "host"},
                {"name": "s", "kind": "switch", "efci_threshold": 16},
                {"name": "b", "kind": "host"},
            ],
            "links": [
                {"a": "a", "b": "s", "bit_rate": 4e6, "propagation_delay": 1e-4},
                {"a": "s", "b": "b", "bit_rate": 1e6, "propagation_delay": 1e-4},
            ],
            "generators": [{"id": "g", "kind": "greedy_abr"}],
            "connections": [
                {
                    "id": "flow",
                    "category": "ABR",
                    "route": ["a", "s", "b"],
                    "generator": "g",
                    "descriptor": {"pcr": pcr, "mcr": 0.0},
                }
            ],
        }

    def test_rate_adjusts_within_contract_bounds(self):
        report = run(self.abr_scenario())
        abr = report.connections["flow"]["abr"]
        assert abr["adjustments"] > 10
        assert abr["mcr"] <= abr["final_acr"] <= abr["pcr"]
        for _, acr, _ in report.abr_series["flow"]:
            assert abr["mcr"] <= acr <= abr["pcr"]

    def test_feedback_cells_flow_backward(self):
        report = run(self.abr_scenario())
        abr = report.connections["flow"]["abr"]
        assert abr["feedback_sent"] > 0
        assert abr["feedback_delivered"] > 0

    def test_congestion_is_signalled(self):
        report = run(self.abr_scenario())
        congested = [c for _, _, c in report.abr_series["flow"] if c]
        clear = [c for _, _, c in report.abr_series["flow"] if not c]
        # A greedy source over a 4:1 bottleneck must see both states.
        assert congested and clear

    def test_csv_series_matches_report(self):
        report = run(self.abr_scenario())
        lines = report.abr_csv("flow").splitlines()
        assert lines[0] == "time_s,acr,congested"
        assert len(lines) - 1 == report.connections["flow"]["abr"]["adjustments"]


class TestLaneRuns:
    def lane_scenario(self, n_frames=20) -> dict:
        return {
            "duration_s": 2.0,
            "seed": 13,
            "nodes": [
                {"name": "h1", "kind": "host"},
                {"name": "h2", "kind": "host"},
                {"name": "hs", "kind": "host"},
                {"name": "s", "kind": "switch"},
            ],
            "links": [
                {"a": "h1", "b": "s", "bit_rate": 1e7, "propagation_delay": 1e-5},
                {"a": "h2", "b": "s", "bit_rate": 1e7, "propagation_delay": 1e-5},
                {"a": "hs", "b": "s", "bit_rate": 1e7, "propagation_delay": 1e-5},
            ],
            "lane": {
                "les": "hs",
                "bus": "hs",
                "lecs": [
                    {"host": "h1", "mac": "02:00:00:00:00:01"},
                    {"host": "h2", "mac": "02:00:00:00:00:02"},
                ],
                "traffic": [
                    {
                        "src": "h1",
                        "dst": "02:00:00:00:00:02",
                        "rate": 50.0,
                        "frame_bytes": 200,
                        "count": n_frames,
                    }
                ],
            },
        }

    def test_unicast_resolves_then_goes_direct(self):
        report = run(self.lane_scenario())
        lane = report.lane
        sender = lane["lecs"]["h1"]
        receiver = lane["lecs"]["h2"]
        assert sender["frames_sent"] == 20
        assert sender["arp_requests"] == 1
        assert lane["data_direct_vcs"] == 1
        assert receiver["received_direct"] + receiver["received_bus"] == 20
        assert receiver["received_direct"] >= 19
        assert lane["reassembly_errors"] == 0

    def test_broadcast_reaches_everyone_once(self):
        raw = self.lane_scenario()
        raw["lane"]["lecs"].append({"host": "hs2", "mac": "02:00:00:00:00:03"})
        raw["nodes"].append({"name": "hs2", "kind": "host"})
        raw["links"].append(
            {"a": "hs2", "b": "s", "bit_rate": 1e7, "propagation_delay": 1e-5}
        )
        raw["lane"]["traffic"] = [
            {
                "src": "h1",
                "dst": "broadcast",
                "rate": 50.0,
                "frame_bytes": 100,
                "count": 10,
            }
        ]
        report = run(raw)
        lane = report.lane
        assert lane["lecs"]["h1"]["broadcast_sent"] == 10
        for host in ("h2", "hs2"):
            assert lane["lecs"][host]["received_broadcast"] == 10
        assert lane["lecs"]["h1"]["received_broadcast"] == 0
        assert lane["bus"]["frames_in"] == 10
        assert lane["bus"]["copies_out"] == 20

    def test_lane_runs_are_deterministic(self):
        first = run(self.lane_scenario()).to_json()
        second = run(self.lane_scenario()).to_json()
        assert first == second


class TestReportShape:
    def test_json_round_trips(self):
        import json

        report = run(cbr_scenario())
        text = report.to_json()
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["seed"] == 7
        assert parsed["connections"]["c1"]["category"] == "CBR"
        assert parsed["lane"] is None

    def test_engine_refuses_to_run_twice(self):
        eng = build(cbr_scenario())
        eng.run()
        with pytest.raises(RuntimeError):
            eng.run()

    def test_build_from_file(self, tmp_path):
        import json

        path = tmp_path / "sc.json"
        path.write_text(json.dumps(cbr_scenario()))
        report = run(str(path))
        assert report.connections["c1"]["delivered"] > 0
