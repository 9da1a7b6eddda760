"""End-to-end runs of the event-driven simulator."""

import heapq
import json
import math
import os
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from conftest import c11_scenario

from atmsim.abr import EfciObserver, source_adjust
from atmsim.cell import VCI_MAX
from atmsim.cli import main
from atmsim.engine import (
    CELL_BITS,
    Engine,
    EventQueue,
    FlowState,
    OrderingError,
    ScenarioInvalid,
    TransitCell,
    build,
    load_scenario,
    preflight,
    run,
)
from atmsim.rng import rng_stream
from atmsim.switch import OutputQueue

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


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
        heap = eng._heap
        arrivals = [entry for entry in heap if entry[2] == eng._arrive]
        assert arrivals
        eng._audit()
        heap.remove(arrivals[0])
        heapq.heapify(heap)
        with pytest.raises(AssertionError, match="conservation broken on c1"):
            eng._audit()

    def test_flows_that_share_an_id_are_audited_apart(self):
        # "bulk:feedback" is also the id of ABR bulk's feedback flow
        with open(os.path.join(DATA_DIR, "reference_scenario.json"), encoding="utf-8") as handle:
            raw = json.load(handle)
        voice = next(conn for conn in raw["connections"] if conn["id"] == "voice")
        voice["id"] = "bulk:feedback"
        eng = build(raw)
        eng.run()
        assert [flow.id for flow in eng.flows].count("bulk:feedback") == 2

    def test_late_arp_replies_reuse_the_open_vc(self):
        # each LE-ARP round trip (4 hops of 0.6 s) outlasts the 1 s
        # pending timeout, so replies keep arriving after the first one
        # opened the h1->h2 VC; they refresh the cache and open no other
        raw = lane_only_scenario(
            {"h1": "host", "h2": "host", "hs": "host", "s": "switch"},
            [("h1", "s"), ("h2", "s"), ("hs", "s")],
            {"h1": "02:00:00:00:00:01", "h2": "02:00:00:00:00:02"},
            [{"src": "h1", "dst": "02:00:00:00:00:02", "rate": 0.5, "frame_bytes": 8}],
        )
        for link in raw["links"]:
            link.update(bit_rate=848, propagation_delay=0.6)
        raw["duration_s"] = 22.1
        eng = build(raw)
        report = eng.run()
        ids = [flow.id for flow in eng.flows]
        assert ids.count("lane:data:h1->h2") == 1
        assert report.lane["data_direct_vcs"] == 1


class TestOrderingGuards:
    """The handlers push onto the heap themselves; the past-time guard at
    each push and the dispatch-order check in run both still hold."""

    def test_gate_moving_an_emission_into_the_past_raises(self):
        eng = build(cbr_scenario())
        eng.connections[0].gate = SimpleNamespace(admit=lambda t: t - 1.0)
        with pytest.raises(OrderingError):
            eng.run()

    def test_entry_dated_before_now_is_dispatched_out_of_order(self):
        eng = build(cbr_scenario())

        def backdate(_arg):
            heapq.heappush(eng._heap, (eng.now - 0.25, next(eng._seq), print, None))

        eng.schedule(0.5, backdate)
        with pytest.raises(AssertionError, match="event dispatched out of order"):
            eng.run()

    @pytest.mark.parametrize(
        "fault, vc",
        [
            pytest.param("duplicate", "data", id="duplicate"),
            pytest.param("reordered", "data", id="reordered"),
            pytest.param("duplicate", "feedback", id="feedback-duplicate"),
            pytest.param("reordered", "feedback", id="feedback-reordered"),
        ],
    )
    def test_cell_out_of_order_at_its_endpoint_breaks_per_vc_fifo(self, fault, vc):
        # The first cell of the VC reaches the real arrival handler at its
        # endpoint twice, or only after the VC's next cell has been
        # delivered: c1's data cells bound for host b, or fa's feedback
        # cells bound back for host ha.
        if vc == "data":
            eng = build(cbr_scenario())
            target = eng.connections[0]
        else:
            eng = build(c11_scenario())
            target = eng.connections[0].feedback
        arrive = eng._on_arrive
        held = []

        def faulty(tc):
            if tc.link.to_switch or tc.flow is not target or tc.seq > 1:
                arrive(tc)
            elif tc.seq == 0:
                if fault == "duplicate":
                    arrive(tc)
                    arrive(tc)
                else:
                    held.append(tc)
            else:
                arrive(tc)
                while held:
                    arrive(held.pop())

        eng._on_arrive = faulty
        with pytest.raises(AssertionError, match=f"per-VC FIFO violated on {target.id}$"):
            eng.run()
        # the check fires before the sink: only the one in-order delivery
        # counted, and for feedback, adjusted the source's rate
        assert target.delivered == 1
        if vc == "feedback":
            assert len(target.acr_log) == 1


class TestOneSequence:
    """Entries from EventQueue.schedule and entries the engine pushes
    itself draw their seq from one counter."""

    M1, M2 = "02:00:00:00:00:01", "02:00:00:00:00:02"

    def test_lec_timers_and_cell_events_never_share_a_seq(self):
        raw = lane_only_scenario(
            {"h1": "host", "h2": "host", "hs": "host", "s": "switch"},
            [("h1", "s"), ("h2", "s"), ("hs", "s")],
            {"h1": self.M1, "h2": self.M2},
            [{"src": "h1", "dst": self.M2, "rate": 1000.0, "frame_bytes": 500}],
        )
        # the run ends while the frame sent at 0.5 s is on the wire and the
        # ARP timeout, set 1 s after the request, is still pending
        raw["duration_s"] = 0.5002
        eng = build(raw)
        eng.run()
        heap = list(eng._heap)
        handlers = [fn for _time, _seq, fn, _arg in heap]
        assert eng.lane.lecs["h1"]._on_arp_timeout in handlers
        assert any(fn == eng._complete or fn == eng._arrive for fn in handlers)
        seqs = [seq for _time, seq, _fn, _arg in heap]
        assert len(set(seqs)) == len(seqs)
        # every entry ever pushed was either dispatched or is still here
        assert next(eng._seq) == eng.processed + len(heap)
        keys = [heapq.heappop(heap)[:2] for _ in range(len(seqs))]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize("order", [("scheduled", "pushed"), ("pushed", "scheduled")])
    def test_entries_at_now_pop_in_insertion_order(self, order):
        eng = build(cbr_scenario())
        seen = []
        # at an infinite rate, _pace pushes the next emission at now
        source = SimpleNamespace(rate=math.inf, gate=None)
        insert = {
            "scheduled": lambda: eng.schedule(eng.now, seen.append, "scheduled"),
            "pushed": lambda: eng._pace(source, lambda _source: seen.append("pushed")),
        }

        def both(_arg):
            for name in order:
                insert[name]()

        eng.schedule(0.5, both)
        eng.run()
        assert seen == list(order)

    @pytest.mark.parametrize("scheduled, occupancy", [("before_run", 1), ("by_handler", 0)])
    def test_send_at_a_cells_finish_sees_the_queue_by_seq(self, scheduled, occupancy):
        # Two cells sent at 0.5 s: the first goes on the wire, the second
        # waits.  A third sent exactly when the first finishes runs before
        # or after that finish by seq alone: before it when scheduled
        # before the run, after it (the waiting cell has left the queue)
        # when the 0.5 s handler scheduled it.
        eng = build(cbr_scenario(rate=1.0))
        link = next(link for link in eng.links if link.name == "a->s")
        stray = FlowState("stray")
        eng._open_vc(stray, ("a", "s", "b"), lambda _tc: None)
        seen = []
        enqueue = link.enqueue

        def record(item):
            if item.flow is stray:
                seen.append(len(link.waiting))
            return enqueue(item)

        link.enqueue = record

        def send(_arg):
            eng._send(link, TransitCell(stray, eng.now, stray.sent, stray.vci))
            stray.sent += 1

        def send_two(_arg):
            send(None)
            send(None)
            if scheduled == "by_handler":
                eng.schedule(eng.now + link.tx_time, send)

        eng.schedule(0.5, send_two)
        if scheduled == "before_run":
            eng.schedule(0.5 + link.tx_time, send)
        eng.run()
        assert seen == [0, 0, occupancy]
        assert (stray.sent, stray.delivered) == (3, 3)


class TestHopPath:
    """The engine serves each port straight from its FIFO, and run reads
    the heap once per event."""

    def test_engine_never_calls_dequeue(self, monkeypatch):
        calls = []
        dequeue = OutputQueue.dequeue

        def counting(queue):
            calls.append(queue)
            return dequeue(queue)

        monkeypatch.setattr(OutputQueue, "dequeue", counting)
        eng = build(c11_scenario())
        eng.run()
        assert calls == []
        # cells went on the wire, and some of them waited first (EFCI
        # marks a cell only when others wait ahead of it)
        assert sum(link.cells for link in eng.links) > 0
        assert sum(link.efci_marks for link in eng.links) > 0

    def test_each_link_is_its_own_queue(self):
        eng = build(c11_scenario())
        assert eng.links
        for link in eng.links:
            assert isinstance(link, OutputQueue)
            assert type(link).enqueue is OutputQueue.enqueue
            assert "queue" not in vars(link)

    def test_engine_is_its_own_event_list(self):
        eng = build(c11_scenario())
        assert isinstance(eng, EventQueue)
        for name in ("schedule", "pop"):
            assert getattr(Engine, name) is getattr(EventQueue, name)
        assert not hasattr(eng, "events")
        assert not hasattr(Engine, "set_timer")
        assert (eng.now, eng.processed) == (0.0, 0)
        eng.run()
        assert eng.now <= eng.duration and eng.processed > 0

    def test_entry_past_the_end_stays_on_the_heap(self):
        plain = build(cbr_scenario())
        plain.run()
        eng = build(cbr_scenario())
        fired = []
        eng.schedule(eng.duration + 1.0, fired.append, "late")
        eng.run()
        assert fired == []
        assert [entry for entry in eng._heap if entry[2] == fired.append] == [
            (eng.duration + 1.0, 0, fired.append, "late")
        ]
        assert eng.processed == plain.processed > 0


class TestHopCallBudget:
    """The Python calls of a cell hop, counted per dispatched event on the
    c11 bottleneck: the discard rule once per hop, the pacing rule once
    per emission, the sink and the EFCI observer once per delivery, and
    ``_start`` only for a cell sent to an idle link.  ``_fire``,
    ``_arrive`` and ``_complete`` do ``_send``'s and ``_start``'s work
    themselves, so they never enter ``_send``, and nothing counts an
    emission per cell.  The heap holds them as the engine's bound
    ``_on_fire``, ``_on_arrive`` and ``_on_complete``, whose code objects
    are the methods' own, and each push draws its ``seq`` with the C call
    ``next(self._seq)``, so no Python call is made per push."""

    def test_calls_per_event(self):
        # 10 of c11's 30 s: the queue at the bottleneck builds and marks
        eng = build(dict(c11_scenario(), duration_s=10.0))
        package = os.path.dirname(sys.modules[Engine.__module__].__file__) + os.sep
        complete = Engine._complete.__code__
        calls: Counter = Counter()  # (caller, callee) -> calls
        ended_busy = 0  # _complete events that leave their link idle

        def profile(frame, event, _arg):
            nonlocal ended_busy
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(package):
                calls[frame.f_back.f_code, code] += 1
                if code is complete and not frame.f_locals["link"].waiting:
                    ended_busy += 1

        sys.setprofile(profile)
        try:
            eng.run()
        finally:
            sys.setprofile(None)

        def n(callee, caller=None):
            return sum(
                count
                for (frm, to), count in calls.items()
                if to is callee.__code__ and (caller is None or frm is caller.__code__)
            )

        fired, arrived = n(Engine._fire, Engine.run), n(Engine._arrive, Engine.run)
        data = n(Engine._data_sink, Engine._arrive)
        feedback = n(Engine._feedback_sink, Engine._arrive)
        fed_back = n(Engine._send_feedback, Engine.run)
        assert fired and data and feedback and fed_back
        assert n(Engine._complete, Engine.run) > ended_busy > 0
        # a hop is an emission, a switch forwarding or a feedback cell;
        # c11 installs every VCI its cells carry, so each arrival at a
        # host is a delivery and each other arrival a forwarding
        assert n(OutputQueue.enqueue, Engine._fire) == fired
        assert n(OutputQueue.enqueue, Engine._arrive) == arrived - data - feedback
        assert n(OutputQueue.enqueue, Engine._send) == n(Engine._send) == fed_back
        assert n(OutputQueue.enqueue) == fired + arrived - data - feedback + fed_back
        assert n(Engine._pace, Engine._fire) == n(Engine._pace) == fired
        assert n(EfciObserver.observe, Engine._data_sink) == n(EfciObserver.observe) == data
        # one rate change per delivered feedback cell, and no other
        assert n(source_adjust, Engine._feedback_sink) == n(source_adjust) == feedback
        # a busy period starts with a send to an idle link and ends with a
        # finish that leaves the queue empty, or with the run
        still_busy = sum(link.holding is not None for link in eng.links)
        assert n(Engine._start) == ended_busy + still_busy
        assert n(Engine._start, Engine._complete) == 0
        for handler in (Engine._fire, Engine._arrive, Engine._complete):
            assert n(Engine._send, handler) == 0, handler.__name__
        assert not any(to.co_name == "on_emitted" for _frm, to in calls)


def eight_draws(seed, label):
    stream = rng_stream(seed, label)
    return [stream.next_double() for _ in range(8)]


class TestRngStreams:
    def test_same_seed_same_label_reproduces(self):
        a = eight_draws(42, "alpha")
        b = eight_draws(42, "alpha")
        assert list(a) == list(b)

    def test_labels_are_independent(self):
        a = eight_draws(42, "alpha")
        b = eight_draws(42, "beta")
        assert list(a) != list(b)

    def test_seed_changes_stream(self):
        a = eight_draws(1, "alpha")
        b = eight_draws(2, "alpha")
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


class TestBusySplit:
    """A link's busy time splits at duration/2 (and stops at duration)
    exactly as the four-min rule splits each cell's span on the wire."""

    def test_cells_straddling_half_and_end(self):
        r, duration, bit_rate = 10.0, 1.02, 1e4
        eng = build(cbr_scenario(rate=r, duration=duration, bit_rate=bit_rate))
        eng.run()
        link = eng.links[0]
        assert link.name == "a->s"
        tx = CELL_BITS / bit_rate
        half = duration / 2.0
        first = second = 0.0
        straddled = set()
        t = 0.0
        while t <= duration:
            # a cell every 1/r leaves a wire that is idle again after tx
            start, finish = t, t + tx
            straddled |= {edge for edge in (half, duration) if start < edge < finish}
            in_first = min(finish, half) - min(start, half)
            in_second = min(finish, duration) - max(min(start, duration), half)
            if in_first > 0:
                first += in_first
            if in_second > 0:
                second += in_second
            t += 1.0 / r
        assert straddled == {half, duration}
        assert link.busy_first_half == first
        assert link.busy_second_half == second


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

    def test_undecodable_control_message_is_counted(self):
        # a one-byte frame of unknown opcode on h1's control-direct VC
        eng = build(self.lane_scenario())
        eng.send_on_vc(eng.lane.lecs["h1"].to_les, b"\x09")
        report = eng.run()  # ends with the conservation audit
        assert report.lane["control_decode_errors"] == 1
        assert report.lane["les"]["arp_requests"] == 1


def lane_only_scenario(nodes, links, lecs, traffic=()) -> dict:
    """LANE with its LES and BUS on host ``hs``; ``nodes`` maps names to
    kinds, ``lecs`` hosts to MACs."""
    return {
        "duration_s": 1.0,
        "seed": 3,
        "nodes": [{"name": name, "kind": kind} for name, kind in nodes.items()],
        "links": [
            {"a": a, "b": b, "bit_rate": 1e7, "propagation_delay": 1e-5} for a, b in links
        ],
        "lane": {
            "les": "hs",
            "bus": "hs",
            "lecs": [{"host": host, "mac": mac} for host, mac in lecs.items()],
            "traffic": list(traffic),
        },
    }


def assert_invalid(tmp_path, raw, expected):
    """preflight names exactly ``expected`` and ``atmsim validate`` exits 1."""
    assert preflight(raw) == expected
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 1


class TestLaneRoutes:
    """A LANE VC crosses switches only, and preflight checks every one."""

    M1, M2, M3 = "02:00:00:00:00:01", "02:00:00:00:00:02", "02:00:00:00:00:03"

    def test_host_never_forwards_a_data_direct_vc(self, tmp_path):
        # h1 reaches the LES and BUS on hs directly, but its frames to h2
        # would have to be forwarded by hs.
        raw = lane_only_scenario(
            {"h1": "host", "hs": "host", "h2": "host"},
            [("h1", "hs"), ("hs", "h2")],
            {"h1": self.M1, "h2": self.M2},
            [{"src": "h1", "dst": self.M2, "rate": 20.0, "frame_bytes": 500, "count": 5}],
        )
        assert_invalid(
            tmp_path, raw, ["lane.traffic[0]: no route from h1 to h2 through switches only"]
        )

    def test_switch_between_the_hosts_carries_the_vc(self):
        raw = lane_only_scenario(
            {"h1": "host", "hs": "host", "h2": "host", "s": "switch"},
            [("h1", "hs"), ("hs", "h2"), ("h1", "s"), ("s", "h2")],
            {"h1": self.M1, "h2": self.M2},
            [{"src": "h1", "dst": self.M2, "rate": 20.0, "frame_bytes": 500, "count": 5}],
        )
        eng = build(raw)
        report = eng.run()
        assert report.lane["lecs"]["h2"]["received_direct"] == 5
        assert report.switches["s"]["routed"] > 0

    def test_traffic_to_own_mac_is_invalid(self, tmp_path):
        raw = lane_only_scenario(
            {"h1": "host", "hs": "host", "s": "switch"},
            [("h1", "s"), ("hs", "s")],
            {"h1": self.M1},
            [{"src": "h1", "dst": self.M1, "rate": 20.0, "frame_bytes": 100, "count": 5}],
        )
        assert_invalid(
            tmp_path, raw, ["lane.traffic[0]: dst MAC is the MAC of its own src h1"]
        )

    def test_every_unlinked_lec_is_named(self, tmp_path):
        raw = lane_only_scenario(
            {"h1": "host", "hs": "host", "s": "switch", "h2": "host", "h3": "host"},
            [("h1", "s"), ("hs", "s")],
            {"h1": self.M1, "h2": self.M2, "h3": self.M3},
        )
        assert_invalid(
            tmp_path,
            raw,
            [
                "lane lec h2: no route to hs through switches only",
                "lane lec h3: no route to hs through switches only",
            ],
        )


class TestPacing:
    """Every source emits its next cell 1/rate after the last one."""

    RATE = 1000.0 / 3.0
    # 300 periods of 1/RATE summed in floats pass 0.9, so the recurrence
    # gives 300 cells where k/RATE <= 0.9 would give 301
    DURATION = 0.9

    @pytest.mark.parametrize("kind", ["paced_cbr", "greedy_ubr", "greedy_abr"])
    def test_cells_follow_the_float_recurrence(self, kind):
        r = self.RATE
        raw = cbr_scenario(rate=r, duration=self.DURATION)
        conn = raw["connections"][0]
        if kind == "greedy_ubr":
            raw["generators"] = [{"id": "g", "kind": "greedy_ubr", "cap": r}]
            conn.update(category="UBR", descriptor={"pcr": r})
        elif kind == "greedy_abr":
            # mcr == pcr pins the allowed cell rate whatever the feedback says
            raw["generators"] = [{"id": "g", "kind": "greedy_abr"}]
            conn.update(category="ABR", descriptor={"pcr": r, "mcr": r})
        expected, t = 0, 0.0
        while t <= self.DURATION:
            expected += 1
            t += 1.0 / r
        assert run(raw).connections["c1"]["transmitted"] == expected == 300


class TestSourcesThatCannotEnd:
    """A source faster than its link, or an on/off source whose ON periods
    are shorter than its cell spacing, is refused before the run."""

    def test_duration_past_the_clock_resolution_of_a_source(self, tmp_path):
        # near 1e20 s, now + 0.01 rounds back to now: the run would stall
        raw = cbr_scenario(duration=1e20)
        raw["lane"] = {
            "les": "b",
            "bus": "b",
            "lecs": [{"host": "a", "mac": "02:00:00:00:00:01"}],
            "traffic": [{"src": "a", "dst": "broadcast", "rate": 20.0, "frame_bytes": 64}],
        }
        assert_invalid(
            tmp_path,
            raw,
            [
                "connection c1: at 100 cells/s the clock stops advancing before "
                "duration_s 1e+20",
                "lane.traffic[0]: at 20 frames/s the clock stops advancing before "
                "duration_s 1e+20",
            ],
        )

    def test_off_period_past_the_end_of_the_run_ends_the_source(self, guarded_run):
        # The first OFF draw lands near 1e20 s, where t + an ON draw rounds
        # back to t; the gate must stop there rather than draw forever.
        raw = cbr_scenario()
        raw["generators"] = [
            {"id": "g", "kind": "on_off_vbr", "peak_rate": 50.0,
             "mean_on_s": 0.1, "mean_off_s": 1e20}
        ]
        raw["connections"][0].update(
            category="VBR_RT",
            descriptor={"pcr": 50.0, "cdvt": 0.001, "scr": 25.0, "mbs": 10},
        )
        assert preflight(raw) == []
        _engine, report = guarded_run(raw, seconds=2.0)
        assert report.connections["c1"]["transmitted"] >= 1

    @pytest.mark.parametrize("rate, shown", [(1e9, "1e+09"), (1e300, "1e+300")])
    def test_lec_faster_than_its_links(self, tmp_path, rate, shown):
        raw = lane_only_scenario(
            {"h1": "host", "hs": "host", "s": "switch"},
            [("h1", "s"), ("hs", "s")],
            {"h1": "02:00:00:00:00:01"},
            [{"src": "h1", "dst": "broadcast", "rate": rate, "frame_bytes": 64}],
        )
        assert_invalid(
            tmp_path,
            raw,
            [
                f"lane.traffic[0]: sends {shown} frames/s, above the 23584.9 cells/s "
                "of the fastest link of h1"
            ],
        )

    def test_lec_as_fast_as_its_link_runs(self):
        rate = 1e7 / CELL_BITS
        raw = lane_only_scenario(
            {"h1": "host", "hs": "host", "s": "switch"},
            [("h1", "s"), ("hs", "s")],
            {"h1": "02:00:00:00:00:01"},
            [{"src": "h1", "dst": "broadcast", "rate": rate, "frame_bytes": 8, "count": 3}],
        )
        assert run(raw).lane["bus"]["frames_in"] == 3

    def test_ubr_cap_above_its_first_link(self, tmp_path):
        raw = cbr_scenario()
        raw["generators"] = [{"id": "g", "kind": "greedy_ubr", "cap": 3000.0}]
        raw["connections"][0].update(category="UBR", descriptor={"pcr": 3000.0})
        assert_invalid(
            tmp_path,
            raw,
            ["connection c1: sends up to 3000 cells/s, above the 2358.49 cells/s of link a--s"],
        )

    def test_abr_pcr_above_its_first_link(self, tmp_path):
        raw = cbr_scenario()
        raw["generators"] = [{"id": "g", "kind": "greedy_abr"}]
        raw["connections"][0].update(category="ABR", descriptor={"pcr": 3000.0, "mcr": 0.0})
        assert_invalid(
            tmp_path,
            raw,
            ["connection c1: sends up to 3000 cells/s, above the 2358.49 cells/s of link a--s"],
        )

    @pytest.mark.parametrize("mean_on_s", [1e-30, 1e-6])
    def test_on_periods_shorter_than_the_peak_spacing(self, tmp_path, mean_on_s):
        raw = cbr_scenario(duration=5.0)
        raw["generators"] = [
            {"id": "g", "kind": "on_off_vbr", "peak_rate": 100.0,
             "mean_on_s": mean_on_s, "mean_off_s": 0.01}
        ]
        raw["connections"][0].update(
            category="VBR_RT",
            descriptor={"pcr": 100.0, "cdvt": 0.001, "scr": 50.0, "mbs": 10},
        )
        assert_invalid(
            tmp_path, raw, ["generator g: on_off_vbr needs mean_on_s >= 1/peak_rate"]
        )


class TestReportShape:
    def test_json_round_trips(self):
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
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(cbr_scenario()))
        report = run(str(path))
        assert report.connections["c1"]["delivered"] > 0
