"""LAN emulation: address resolution, data-direct VCs, flooding."""

import inspect
import json
from collections import deque
from pathlib import Path

import pytest
from conftest import c11_scenario, frame_law

import atmsim.engine
from atmsim import lane
from atmsim.engine import Engine, EventQueue, LaneVc, build
from atmsim.lane import (
    BROADCAST_MAC,
    CACHE_AGING_S,
    PENDING_DEPTH,
    PENDING_TIMEOUT_S,
    Bus,
    Lec,
    Les,
    RegistrationConflict,
    atm_address,
    decode_control,
    decode_frame,
    encode_arp_reply,
    encode_arp_request,
    encode_frame,
    format_mac,
    is_multicast,
    parse_mac,
)

MAC_A = parse_mac("02:00:00:00:00:0a")
MAC_B = parse_mac("02:00:00:00:00:0b")
MAC_C = parse_mac("02:00:00:00:00:0c")
ATM_A = atm_address("a")
ATM_B = atm_address("b")
TO_LES, TO_BUS = "vc-to-les", "vc-to-bus"  # the LEC's control-direct and multicast-send VCs


class FakePort(EventQueue):
    """Records every interaction; VC objects are plain string labels.
    Timers go on the EventQueue's own heap, which ``advance`` serves."""

    def __init__(self, vc_available: bool = True):
        super().__init__()
        self.vc_available = vc_available
        self.sent = []  # (vc, frame), on every VC
        self.opened = []

    @property
    def arp_requests(self):
        return [frame for vc, frame in self.sent if vc == TO_LES]

    @property
    def bus_frames(self):
        return [frame for vc, frame in self.sent if vc == TO_BUS]

    @property
    def vc_frames(self):
        """(vc, frame) sent on data-direct VCs."""
        return [(vc, frame) for vc, frame in self.sent if vc not in (TO_LES, TO_BUS)]

    def send_on_vc(self, vc, frame: bytes) -> None:
        self.sent.append((vc, frame))

    def open_data_vc(self, src_atm: bytes, dest_atm: bytes):
        if not self.vc_available:
            return None
        self.opened.append(dest_atm)
        return f"vc-to-{dest_atm.rstrip(bytes(1)).decode()}"

    def advance(self, dt: float) -> None:
        """Move the clock ``dt`` on, firing every entry due by then in
        (time, seq) order."""
        until = self.now + dt
        while self._heap and self._heap[0][0] <= until:
            _time, _seq, fn, arg = self.pop()
            fn(arg)
        self.now = until


def make_lec(**kwargs) -> Lec:
    port = FakePort(vc_available=kwargs.pop("vc_available", True))
    lec = Lec(mac=MAC_A, atm=ATM_A, port=port, to_les=TO_LES, to_bus=TO_BUS, **kwargs)
    return lec


# The LecPort, as ``atmsim.lane`` documents it: a float clock ``now``, then
# each method with its parameter names.
LEC_PORT = {
    "now": float,
    "schedule": ["self", "time", "fn", "arg"],
    "send_on_vc": ["self", "vc", "frame"],
    "open_data_vc": ["self", "src_atm", "dest_atm"],
}


class TestLecPort:
    """The engine and FakePort each have every LecPort member: ``now``
    as a float, and each method, found through the class's MRO, with the
    parameter names of LEC_PORT, so the fake cannot drift from the port."""

    def test_four_members(self):
        assert list(LEC_PORT) == ["now", "schedule", "send_on_vc", "open_data_vc"]
        for name in LEC_PORT:  # each documented where the LecPort is described
            assert f"``{name}" in lane.__doc__, name

    @pytest.mark.parametrize("impl", [Engine, FakePort])
    def test_implementations_match_the_port(self, impl):
        port = build(c11_scenario()) if impl is Engine else impl()
        assert type(port.now) is LEC_PORT["now"]
        for name, parameters in list(LEC_PORT.items())[1:]:
            found = getattr(impl, name, None)
            assert callable(found), f"{impl.__name__} does not define {name}"
            assert list(inspect.signature(found).parameters) == parameters


class TestAddressing:
    def test_mac_parse_format_round_trip(self):
        assert format_mac(MAC_A) == "02:00:00:00:00:0a"
        assert parse_mac(format_mac(MAC_B)) == MAC_B

    def test_bad_mac_rejected(self):
        with pytest.raises(ValueError):
            parse_mac("02:00:00:00:00")
        with pytest.raises(ValueError):
            parse_mac("02:00:00:00:00:zz")
        # int(octet, 16) reads each of these as 0x01 or 0x10
        for octet in ("0x1", "1_0", "+1", " 1", "001", "1", "\u0663"):
            text = f"02:00:00:00:00:{octet}"
            with pytest.raises(ValueError) as info:
                parse_mac(text)
            assert str(info.value) == f"MAC address octet {octet!r} is not two hex digits: {text!r}"

    def test_multicast_is_group_bit(self):
        assert is_multicast(BROADCAST_MAC)
        assert is_multicast(parse_mac("01:00:5e:00:00:01"))
        assert not is_multicast(MAC_A)

    def test_atm_addresses_are_20_bytes_and_distinct(self):
        assert len(ATM_A) == 20
        assert ATM_A != ATM_B


class TestFrameCodec:
    def test_round_trip(self):
        frame = encode_frame(MAC_B, MAC_A, b"hello")
        assert decode_frame(frame) == (MAC_B, MAC_A, b"hello")

    def test_length_field_checked(self):
        frame = encode_frame(MAC_B, MAC_A, b"hello")
        with pytest.raises(ValueError):
            decode_frame(frame + b"x")
        with pytest.raises(ValueError):
            decode_frame(frame[:-1])

    def test_control_codec(self):
        request = encode_arp_request(MAC_A, MAC_B)
        op, (requester, target) = decode_control(request)
        assert op == 1 and requester == MAC_A and target == MAC_B
        reply = encode_arp_reply(MAC_B, ATM_B)
        op, (mac, atm) = decode_control(reply)
        assert op == 2 and mac == MAC_B and atm == ATM_B
        miss = encode_arp_reply(MAC_C, None)
        op, (mac, atm) = decode_control(miss)
        assert op == 2 and mac == MAC_C and atm is None

    def test_encode_frame_checks_its_inputs(self):
        with pytest.raises(ValueError, match="MAC addresses are 6 bytes"):
            encode_frame(MAC_B[:5], MAC_A, b"")
        with pytest.raises(ValueError, match="payload too long for the length field"):
            encode_frame(MAC_B, MAC_A, bytes(0x10000))

    def test_frame_shorter_than_its_header_rejected(self):
        with pytest.raises(ValueError, match="frame shorter than its 14-byte header"):
            decode_frame(bytes(13))

    def test_arp_reply_needs_a_20_byte_address(self):
        with pytest.raises(ValueError, match="ATM addresses are 20 bytes"):
            encode_arp_reply(MAC_B, ATM_B[:19])


class TestLes:
    def test_register_and_resolve(self):
        les = Les(FakePort())
        les.register(MAC_A, ATM_A, "vc-to-a")
        assert les.resolve(MAC_A) == ATM_A
        assert les.resolve(MAC_B) is None
        assert (les.arp_requests, les.arp_hits, les.arp_misses) == (2, 1, 1)

    def test_reregistration_same_is_idempotent(self):
        les = Les(FakePort())
        les.register(MAC_A, ATM_A, "vc-to-a")
        les.register(MAC_A, ATM_A, "vc-to-a")
        assert les.directory == {MAC_A: ATM_A}

    def test_conflicting_registration_rejected(self):
        les = Les(FakePort())
        les.register(MAC_A, ATM_A, "vc-to-a")
        with pytest.raises(RegistrationConflict):
            les.register(MAC_A, ATM_B, "vc-to-a")


class TestBus:
    @staticmethod
    def bus() -> Bus:
        """A BUS whose members A, B and C, attached in that order, take
        their copies on vc-to-a, vc-to-b and vc-to-c."""
        bus = Bus(FakePort())
        for mac, name in ((MAC_A, "a"), (MAC_B, "b"), (MAC_C, "c")):
            bus.attach(mac, f"vc-to-{name}")
        return bus

    def test_floods_all_but_origin(self):
        bus = self.bus()
        frame = encode_frame(BROADCAST_MAC, MAC_A, b"x")
        assert bus.forward(frame) is None
        assert bus.port.sent == [("vc-to-b", frame), ("vc-to-c", frame)]
        assert (bus.frames_in, bus.copies_out) == (1, 2)

    @pytest.mark.parametrize(
        "source, members",
        [(MAC_B, "ac"), (MAC_C, "ab"), (parse_mac("02:00:00:00:00:0d"), "abc")],
        ids=["b", "c", "not-a-member"],
    )
    def test_no_copy_to_the_source_mac(self, source, members):
        bus = self.bus()
        frame = encode_frame(BROADCAST_MAC, source, b"x")
        bus.forward(frame)
        assert bus.port.sent == [(f"vc-to-{name}", frame) for name in members]
        assert (bus.frames_in, bus.copies_out) == (1, len(members))

    def test_duplicate_attach_rejected(self):
        bus = Bus(FakePort())
        bus.attach(MAC_A, "vc-to-a")
        with pytest.raises(ValueError):
            bus.attach(MAC_A, "vc-to-b")


class TestLecSending:
    def test_multicast_goes_to_bus(self):
        lec = make_lec()
        lec.send(BROADCAST_MAC, b"hello all")
        port = lec.port
        assert len(port.bus_frames) == 1
        assert port.arp_requests == []
        assert lec.counters.broadcast_sent == 1

    def test_unknown_unicast_triggers_arp_and_queues(self):
        lec = make_lec()
        lec.send(MAC_B, b"one")
        lec.send(MAC_B, b"two")
        port = lec.port
        assert len(port.arp_requests) == 1  # one outstanding request only
        assert port.vc_frames == []
        assert lec.per_destination[MAC_B].queued == 2
        assert lec.counters.arp_requests == 1

    def test_reply_opens_vc_and_flushes_in_order(self):
        lec = make_lec()
        lec.send(MAC_B, b"one")
        lec.send(MAC_B, b"two")
        lec.on_arp_reply(MAC_B, ATM_B)
        port = lec.port
        assert port.opened == [ATM_B]
        payloads = [decode_frame(f)[2] for _, f in port.vc_frames]
        assert payloads == [b"one", b"two"]
        assert lec.per_destination[MAC_B].sent_direct == 2

    def test_cached_destination_sends_direct(self):
        lec = make_lec()
        lec.send(MAC_B, b"one")
        lec.on_arp_reply(MAC_B, ATM_B)
        lec.send(MAC_B, b"two")
        port = lec.port
        assert len(port.vc_frames) == 2
        assert len(port.arp_requests) == 1  # no second resolution
        assert lec.cache[MAC_B].atm == ATM_B

    def test_late_reply_keeps_the_open_vc(self):
        # the first request times out, a second goes out, and both
        # replies arrive: the second only refreshes the cache entry
        lec = make_lec()
        lec.send(MAC_B, b"one")
        lec.port.advance(1.5 * PENDING_TIMEOUT_S)
        lec.send(MAC_B, b"two")
        lec.on_arp_reply(MAC_B, ATM_B)
        vc = lec.cache[MAC_B].vc
        lec.port.advance(0.5)
        lec.on_arp_reply(MAC_B, ATM_B)
        lec.send(MAC_B, b"three")
        port = lec.port
        assert port.opened == [ATM_B]
        assert lec.cache[MAC_B].vc == vc
        assert lec.cache[MAC_B].learned_at == port.now
        assert [(v, decode_frame(f)[2]) for v, f in port.vc_frames] == [
            (vc, b"two"),
            (vc, b"three"),
        ]

    def test_pending_overflow_drops(self):
        lec = make_lec()
        for i in range(PENDING_DEPTH + 2):
            lec.send(MAC_B, bytes((i,)))
        stats = lec.per_destination[MAC_B]
        assert stats.queued == PENDING_DEPTH
        assert stats.dropped_overflow == 2
        assert lec.counters.pending_dropped == 2

    def test_timeout_drops_queue(self):
        lec = make_lec()
        lec.send(MAC_B, b"one")
        lec.port.advance(1.5 * PENDING_TIMEOUT_S)
        stats = lec.per_destination[MAC_B]
        assert stats.dropped_timeout == 1
        # a later send starts a fresh resolution
        lec.send(MAC_B, b"two")
        assert len(lec.port.arp_requests) == 2

    def test_stale_timeout_ignored_after_reply(self):
        lec = make_lec()
        lec.send(MAC_B, b"one")
        lec.on_arp_reply(MAC_B, ATM_B)
        lec.port.advance(2.0 * PENDING_TIMEOUT_S)  # timer fires but the request was satisfied
        assert lec.per_destination[MAC_B].dropped_timeout == 0

    def test_negative_reply_keeps_waiting(self):
        lec = make_lec()
        lec.send(MAC_B, b"one")
        lec.on_arp_reply(MAC_B, None)
        assert lec.per_destination[MAC_B].queued == 1
        lec.port.advance(1.5 * PENDING_TIMEOUT_S)
        assert lec.per_destination[MAC_B].dropped_timeout == 1

    def test_vc_setup_failure_counted(self):
        lec = make_lec(vc_available=False)
        lec.send(MAC_B, b"one")
        lec.on_arp_reply(MAC_B, ATM_B)
        assert lec.per_destination[MAC_B].dropped_setup == 1
        # a refused destination stays refused while its entry is cached,
        # even where the port could now open a VC
        lec.port.vc_available = True
        lec.send(MAC_B, b"two")
        assert lec.per_destination[MAC_B].dropped_setup == 2
        assert lec.per_destination[MAC_B].sent_direct == 0
        # and a late reply for the cached address only refreshes the entry
        lec.port.advance(0.5)
        lec.on_arp_reply(MAC_B, ATM_B)
        entry = lec.cache[MAC_B]
        assert (entry.vc, entry.learned_at) == (None, lec.port.now)
        assert lec.port.opened == []

    def test_entry_exactly_cache_aging_old_is_resolved_again(self):
        lec = make_lec()
        lec.send(MAC_B, b"one")
        lec.port.advance(0.5)
        lec.on_arp_reply(MAC_B, ATM_B)
        lec.port.advance(CACHE_AGING_S)
        assert lec.port.now - lec.cache[MAC_B].learned_at == CACHE_AGING_S
        lec.send(MAC_B, b"two")
        assert len(lec.port.arp_requests) == 2
        assert MAC_B not in lec.cache
        assert len(lec.port.vc_frames) == 1  # only "one", flushed by the reply

    def test_cache_aging_forces_new_resolution(self):
        lec = make_lec()
        lec.send(MAC_B, b"one")
        lec.on_arp_reply(MAC_B, ATM_B)
        lec.port.advance(CACHE_AGING_S + 1.0)
        lec.send(MAC_B, b"two")
        assert len(lec.port.arp_requests) == 2
        assert MAC_B not in lec.cache or lec.cache[MAC_B].learned_at > 0.0


class TestLecReceiving:
    def test_unicast_accepted_and_counted(self):
        lec = make_lec()
        frame = encode_frame(MAC_A, MAC_B, b"hi")
        assert lec.deliver(frame) == (MAC_A, MAC_B, b"hi")
        assert lec.counters.received_direct == 1

    def test_foreign_unicast_filtered(self):
        lec = make_lec()
        frame = encode_frame(MAC_C, MAC_B, b"hi")
        assert lec.deliver(frame) is None
        assert lec.counters.filtered == 1

    def test_broadcast_accepted(self):
        lec = make_lec()
        frame = encode_frame(BROADCAST_MAC, MAC_B, b"hi")
        assert lec.deliver(frame) is not None
        assert lec.counters.received_broadcast == 1


# Control messages that do not decode: empty, an unknown opcode, and a
# request and a reply one byte short.
MALFORMED_CONTROL = [
    pytest.param(b"", id="empty"),
    pytest.param(bytes((9,)), id="unknown-opcode"),
    pytest.param(encode_arp_request(MAC_A, MAC_B)[:-1], id="short-request"),
    pytest.param(encode_arp_reply(MAC_B, ATM_B)[:-1], id="short-reply"),
]


class TestControlMessages:
    """The LES answers LE-ARP requests and each LEC decodes its replies;
    every other control message counts one decode error and does nothing."""

    def les(self) -> Les:
        """A LES with A and B registered; its replies go out on vc-to-a and
        vc-to-b."""
        les = Les(FakePort())
        les.register(MAC_A, ATM_A, "vc-to-a")
        les.register(MAC_B, ATM_B, "vc-to-b")
        return les

    @pytest.mark.parametrize(
        "message",
        MALFORMED_CONTROL + [pytest.param(encode_arp_reply(MAC_B, ATM_B), id="reply")],
    )
    def test_les_counts_a_message_that_is_not_a_request(self, message):
        les = self.les()
        les.serve(message)
        assert les.decode_errors == 1
        assert les.port.sent == []
        assert les.arp_requests == 0

    def test_les_counts_a_request_from_an_unregistered_mac(self):
        les = self.les()
        les.serve(encode_arp_request(MAC_C, MAC_B))
        assert les.decode_errors == 1
        assert les.port.sent == []
        assert les.arp_requests == 0

    @pytest.mark.parametrize(
        "message",
        MALFORMED_CONTROL + [pytest.param(encode_arp_request(MAC_A, MAC_B), id="request")],
    )
    def test_lec_counts_a_message_that_is_not_a_reply(self, message):
        lec = make_lec()
        lec.send(MAC_B, b"waiting")
        lec.on_control(message)
        assert lec.decode_errors == 1
        assert lec.counters.arp_replies == 0
        assert lec.cache == {}
        assert lec.port.vc_frames == []

    @pytest.mark.parametrize("target, atm", [(MAC_B, ATM_B), (MAC_C, None)], ids=["hit", "miss"])
    def test_les_answers_a_request_once(self, target, atm):
        les = self.les()
        les.serve(encode_arp_request(MAC_A, target))
        assert les.port.sent == [("vc-to-a", encode_arp_reply(target, atm))]
        assert (les.arp_requests, les.decode_errors) == (1, 0)

    def test_lec_takes_a_reply(self):
        lec = make_lec()
        lec.send(MAC_B, b"waiting")
        lec.on_control(encode_arp_reply(MAC_B, ATM_B))
        assert (lec.decode_errors, lec.counters.arp_replies) == (0, 1)
        assert lec.cache[MAC_B].atm == ATM_B
        assert [frame for _, frame in lec.port.vc_frames] == [
            encode_frame(MAC_B, MAC_A, b"waiting")
        ]


class TestClientState:
    """A LEC sends each frame on one path and keeps no state per frame:
    what it holds is per destination, and a run's frames obey the law
    that ``conftest.frame_law`` checks."""

    REFERENCE = Path(__file__).resolve().parent / "data" / "reference_scenario.json"

    def test_reference_scenario_keeps_the_frame_law(self):
        with frame_law() as accepted:
            build(json.loads(self.REFERENCE.read_text())).run()
        # direct unicast frames and BUS broadcasts were both checked
        assert {group for *_, group in accepted} == {False, True}

    @pytest.mark.parametrize("duration_s", [0.5, 5.0])
    def test_containers_hold_at_most_one_entry_per_other_member(self, duration_s):
        raw = json.loads(self.REFERENCE.read_text())
        raw["duration_s"] = duration_s
        engine = build(raw)
        engine.run()
        lecs = engine.lane.lecs.values()
        for lec in lecs:
            for name, value in vars(lec).items():
                if isinstance(value, (dict, list, set, deque)):
                    assert len(value) <= len(lecs) - 1, (format_mac(lec.mac), name, len(value))


class TestHandlers:
    """One handler pattern: every LANE VC is built with the bound method of
    the endpoint it leads to, so no closure or partial stands between a VC
    and its LES, BUS or LEC."""

    # a VC's kind, the second field of its flow id -> its handler's name
    HANDLER = {
        "to_les": "serve",
        "to_bus": "forward",
        "from_les": "on_control",
        "from_bus": "deliver",
        "data": "deliver",
    }

    def test_every_lane_vc_hands_its_frames_to_an_endpoint_method(self):
        engine = build(json.loads(TestClientState.REFERENCE.read_text()))
        engine.run()
        runtime = engine.lane
        vcs = [flow for flow in engine.flows if isinstance(flow, LaneVc)]
        assert runtime.direct_vcs  # the run opened data-direct VCs
        assert len(vcs) == 4 * len(runtime.lecs) + len(runtime.direct_vcs)
        for vc in vcs:
            _, kind, route = vc.id.split(":")
            servers = {"to_les": runtime.les, "to_bus": runtime.bus}
            endpoint = servers[kind] if kind in servers else runtime.lecs[route.split("->")[1]]
            assert inspect.ismethod(vc.on_frame), vc.id
            assert vc.on_frame.__self__ is endpoint, vc.id
            assert vc.on_frame.__name__ == self.HANDLER[kind], vc.id


class TestRouteSearches:
    """A build searches the switch-only route of each distinct (src, dst)
    pair of LANE VCs once: the LES and the BUS of the reference scenario
    run on one host, so each LEC's VCs to and from them share a pair."""

    def test_each_distinct_pair_is_searched_once_per_build(self, monkeypatch):
        raw = json.loads(TestClientState.REFERENCE.read_text())
        spec = raw["lane"]
        assert spec["les"] == spec["bus"]
        searched = []
        search = atmsim.engine.switch_route

        def counted(adjacency, switches, src, dst):
            searched.append((src, dst))
            return search(adjacency, switches, src, dst)

        monkeypatch.setattr(atmsim.engine, "switch_route", counted)
        build(raw)
        pairs = {
            pair
            for lec in spec["lecs"]
            for server in (spec["les"], spec["bus"])
            for pair in ((lec["host"], server), (server, lec["host"]))
        }
        assert len(pairs) == 2 * len(spec["lecs"])
        assert sorted(searched) == sorted(pairs)
