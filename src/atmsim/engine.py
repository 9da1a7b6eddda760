"""Deterministic discrete-event simulation of scenario files.

Events are dispatched in (time, insertion sequence) order, so identical
(scenario, seed) pairs replay the exact same event stream and produce
byte-identical reports.  An event is a ``(time, seq, fn, arg)`` entry on
the one heap of an EventQueue; dispatch calls ``fn(arg)``, and the
handler identifies the kind of event.  Every entry draws its ``seq`` as
``next(self._seq)`` from the queue's one counter, so no two entries tie
and the heap never compares handlers.

The Engine is that EventQueue: every handler reads the clock as
``self.now``.  ``schedule`` serves the few events off the cell path
(source start-up, LANE timers, ABR feedback).  The per-hop handlers
push onto ``self._heap`` directly, with ``_send``'s and ``_start``'s work
written out on purpose where it runs once per hop: ``_fire`` (an
emission) and ``_arrive`` (a switch forwarding) enqueue a cell, and
``_start`` puts one sent to an idle link on its wire and pushes its
finish (``_complete``); ``_complete`` pushes the cell's arrival at the
far end (``_arrive``), then starts the next waiting cell itself;
``_pace`` pushes a source's next emission.  An arrival entry carries the
cell itself, whose ``link`` names the link it crossed.  The handlers
pushed are bound once, in ``Engine.__init__``, under names no method
has (``_on_fire``, ``_on_complete``, ``_on_arrive``), as an attribute
that shadows a method never specialises (PEP 659).  ``Engine.run`` pops
the heap directly, one read per event: it pops an entry, then tests it
against the end of the run, and pushes the first entry past the end back
for the audit to find; its loop closes with ``while True:`` so that
CPython 3.11 warms it.  Each invariant is checked at one named
place: no entry is dated before ``now`` (``OrderingError`` at every push,
in ``schedule`` and in each handler that pushes), entries dispatch in
strictly increasing (time, seq) order (an assertion in ``run``), every
VCI a cell carries is installed on the link it crosses (``_open_vc``
installs it before the VC's first cell, and a miss in ``_arrive`` raises
``KeyError``), the cells of one VC reach its endpoint in emission order,
gaps being losses (per-VC FIFO, an assertion in ``_arrive``), and cells
are conserved (``_audit``, after the run).

Inside the simulator a cell is a TransitCell: the header bits the model
acts on (VCI, CLP, EFCI, payload type) as plain attributes, beside the
owning flow, entry time and a per-flow sequence number.  Switches rewrite
the VCI in place and queues set the EFCI bit in place.  The UNI and NNI
header layouts differ only in fields the model leaves at zero (GFC and the
upper VPI bits), so the engine does not track them.  Cell and CellHeader,
with their range checks and HEC, exist only at codec boundaries (the trace
format and the conformance command), so label ranges are checked when a
path is installed, against ``atmsim.wire``'s VCI_MAX.  The simulator
reads the cell's size and label range from that leaf module and never
loads the codec, ``atmsim.cell``.

An output port and the link direction it feeds are one record, the
DirectedLink: it is the port's bounded OutputQueue, with a single-cell
transmitter (424 bits serialized at the link rate, then the propagation
delay) and the link's transmit stats.  Queue occupancy therefore counts
waiting cells, with the cell on the wire "in service".  A link is idle
only while its queue is empty.

Each DirectedLink also holds the VC table of its far end, keyed by the
VCI a cell carries on the link, so an arrival is one lookup: at a switch
the entry names the next link and VCI, at a host the sink of the VC that
ends there.  The links are the whole topology: ``Engine.ports`` maps
each node to its neighbours and the link to each one.  The label tables
of ``atmsim.switch`` serve codec-level Cell values only.

Every flow counts its cells once, on its own record: emitted in
``sent``, delivered in ``delivered`` and lost by cause in
``loss_reasons``.  A cell always carries its flow's CLP, so the report
derives every per-CLP count and ratio from these.  Cell conservation,
the audit run at the end, compares them with the cells still in the
network.

An ABR connection's loop is one record, the FeedbackFlow on its
``feedback``: the backward feedback cells, the destination's EFCI window,
the source's rate state and the log of its rate changes.  The connection
keeps only ``rate``, the copy of the ACR that pacing reads.

A build loads only the layers its scenario uses, and never the codec.
``atmsim.lane`` and ``atmsim.aal5`` are imported by
``Engine._build_lane``, once per build and only when the scenario has a
``lane`` section; the functions the frame paths call while running
(``segment``, ``Reassembler`` for each data-direct VC, ``format_mac``
for the report) are bound on the build's ``LaneRuntime``.
``atmsim.rng``, and SHA-256 with it, is imported only where a build keys
a random stream: by ``ContractFlow`` for an on/off source, and by
``_build_lane`` beside those two.  So a build with neither, such as an
ABR bottleneck, loads none of the three, and no step of ``Engine.run``
imports anything.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from heapq import heappop, heappush
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .abr import EfciObserver, source_adjust
from .errors import OrderingError
from .record import Record, new_tuple
from .scenario import (
    ConnectionSpec,
    GeneratorSpec,
    LaneTrafficSpec,
    NodeSpec,
    Scenario,
    abr_source,
    emission_rate,
    link_booking,
    load_scenario,
    queue_settings,
    switch_route,
    validate_scenario,
)
from .switch import ACCEPTED, LinkBooking, OutputQueue, cac_admit
from .traffic import DELAY_CHUNK, DelayMoments, ServiceCategory, delay_stats
from .wire import CELL_BITS, VCI_MAX, ZERO_PAYLOAD

if TYPE_CHECKING:  # loaded by the builds that use them: _build_lane, ContractFlow
    from .aal5 import Reassembler
    from .lane import Bus, Lec, Les
    from .rng import Stream

FIRST_VCI = 32  # low label values left alone, control-plane style


class ScenarioInvalid(ValueError):
    """Preflight failed; .violations lists every problem found."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def _into_past(time: float, now: float) -> OrderingError:
    return OrderingError(f"cannot schedule at {time} before now {now}")


class EventQueue:
    """Future event list of (time, seq, fn, arg) entries, and its clock.

    Entries pop in (time, insertion sequence) order; the run loop calls
    ``fn(arg)`` for each.  Whoever pushes onto ``_heap`` draws ``seq`` as
    ``next(self._seq)`` and refuses a time before ``now``, as ``schedule``
    does; whoever pops sets ``now`` and counts ``processed``, as ``pop``
    does.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.processed = 0

    def schedule(self, time: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        if time < self.now:
            raise _into_past(time, self.now)
        heappush(self._heap, (time, next(self._seq), fn, arg))

    def pop(self) -> Tuple[float, int, Callable[[Any], None], Any]:
        entry = heappop(self._heap)
        self.now = entry[0]
        self.processed += 1
        return entry


# ---------------------------------------------------------------------------
# pacing


class OnOffGate:
    """Exponential ON/OFF bursts of a source paced at its peak rate.

    admit() moves an emission time that falls in an OFF period to the
    start of the next ON period.  The first ON period starts at 0 and is
    drawn here; mean_off_s == 0 degenerates to always-on.  Draws come from
    the connection's own stream, so schedules are reproducible per seed.
    A time past ``end``, the end of the run, is returned as it is: nothing
    is sent then, and far enough out ``t + on`` rounds back to ``t``.
    """

    def __init__(self, mean_on_s: float, mean_off_s: float, rng: Stream, end: float):
        self.mean_on = mean_on_s
        self.mean_off = mean_off_s
        self.rng = rng
        self.end = end
        self.on_end = rng.exponential(mean_on_s)

    def admit(self, t: float) -> float:
        while self.on_end <= t <= self.end:
            off = self.rng.exponential(self.mean_off) if self.mean_off else 0.0
            t = self.on_end + off
            self.on_end = t + self.rng.exponential(self.mean_on)
        return t


# ---------------------------------------------------------------------------
# flows


class TransitCell:
    """A cell inside the simulator: the header bits the model acts on as
    plain attributes, plus bookkeeping that never touches the wire image.

    The VPI is always 0 on the paths the engine installs.  ``link`` is
    the link the cell last left, read by the arrival at its far end.
    ``payload`` is what the cell carries: 48 bytes of an AAL5 frame on a
    LANE VC, zeros on a data connection, and the window's congested bit
    itself on an ABR feedback cell, since no codec ever sees a cell
    inside the engine.  The engine builds every one positionally, as a
    keyword call costs about twice as much.
    """

    __slots__ = (
        "flow",
        "link",
        "entry_time",
        "seq",
        "vci",
        "clp",
        "is_management",
        "aal5_last",
        "payload",
        "efci",
    )

    def __init__(
        self,
        flow: "FlowState",
        entry_time: float,
        seq: int,
        vci: int,
        clp: int = 0,
        is_management: bool = False,
        aal5_last: bool = False,
        payload: Union[bytes, bool] = ZERO_PAYLOAD,
    ):
        self.flow = flow
        self.link: Optional[DirectedLink] = None
        self.entry_time = entry_time
        self.seq = seq
        self.vci = vci
        self.clp = clp
        self.is_management = is_management
        self.aal5_last = aal5_last
        self.payload = payload
        self.efci = False


class FlowState:
    """One unidirectional cell stream of any traffic class, and the one
    record of its cell counts.

    ``sent`` counts its emitted cells and is the next cell's ``seq``;
    ``delivered`` counts those that reached the far end and
    ``loss_reasons`` those lost, by cause.  Every cell leaves with the
    flow's ``clp``, so the report splits these counts by CLP from it, and
    the audit checks them against the cells still in the network.  ``tx``
    and ``vci`` are the first hop of the flow's path: the link its cells
    enter and the label they carry on it.
    """

    def __init__(self, flow_id: str):
        self.id = flow_id
        self.clp = 0  # a ContractFlow's is its connection's
        self.sent = 0
        self.delivered = 0
        self.loss_reasons: Dict[str, int] = {}
        self.last_delivered_seq = -1  # per-VC FIFO, checked by Engine._arrive
        self.tx: Optional[DirectedLink] = None
        self.vci = 0

    def on_lost(self, tc: TransitCell, reason: str) -> None:
        """Count a loss by its cause; ``tc``, the cell lost, is there for
        a wrapper to read."""
        self.loss_reasons[reason] = self.loss_reasons.get(reason, 0) + 1


class ContractFlow(FlowState):
    """One scenario connection: its pacing and delays, and its ABR loop.

    ``delays`` holds the transfer delays its data sink records; no other
    flow measures them.  ``rate`` (cells/s) paces emission: the
    generator's rate, or the ACR of an ABR source, which feedback
    rewrites.  An on/off source also has a ``gate``, drawing from the
    connection's own stream.  An ABR connection's ``feedback`` is its
    whole feedback loop; every other connection's is None.
    """

    def __init__(self, spec: ConnectionSpec, gen: GeneratorSpec, seed: int, end: float):
        super().__init__(spec.id)
        self.spec = spec
        self.clp = spec.clp  # read per emission, as FlowState.vci is
        self.delays = DelayMoments()
        abr = spec.category is ServiceCategory.ABR
        self.feedback: Optional[FeedbackFlow] = FeedbackFlow(self) if abr else None
        rate = emission_rate(gen) if self.feedback is None else self.feedback.source.acr
        assert rate is not None, "validate_scenario checks every generator's rate"
        self.rate = rate
        self.gate: Optional[OnOffGate] = None
        if gen.kind == "on_off_vbr":
            from .rng import rng_stream

            rng = rng_stream(seed, f"conn:{spec.id}")
            self.gate = OnOffGate(gen.mean_on_s, gen.mean_off_s, rng, end)  # type: ignore[arg-type]


class FeedbackFlow(FlowState):
    """The feedback loop of ABR connection ``conn``: as a flow, the cells
    carrying back the congested bit of each window of ``observer``, the
    destination's; ``source`` is the source's rate state, and ``acr_log``
    its (time, acr, congested) changes, in order."""

    def __init__(self, conn: ContractFlow):
        super().__init__(f"{conn.id}:feedback")
        self.conn = conn
        self.observer = EfciObserver(conn.spec.abr.nrm)
        self.source = abr_source(conn.spec)
        self.acr_log: List[Tuple[float, float, bool]] = []


class LaneVc(FlowState):
    """One unidirectional LAN-emulation VC carrying AAL5 frames from host
    ``src`` to host ``dst``; its id is ``lane:<role>:<src>-><dst>``."""

    def __init__(
        self,
        role: str,
        src: str,
        dst: str,
        on_frame: Callable[[bytes], Any],
        reassembler: Reassembler,
    ):
        super().__init__(f"lane:{role}:{src}->{dst}")
        self.src = src
        self.dst = dst
        self.reassembler = reassembler
        self.on_frame = on_frame  # the LES's, the BUS's or a LEC's handler
        self.reassembly_errors = 0


class LaneTrafficState:
    """One frame source feeding a LEC, paced at its frame rate.

    Each frame's payload opens with an 8-byte tag that every source on
    one host draws from the same ``frame_seq``, so no two frames of one
    source MAC are alike: a reassembly that joins the head of one to the
    tail of another fails its CRC, and the tests' frame law reads
    (source MAC, tag) as a frame's identity.
    """

    gate = None

    def __init__(self, spec: LaneTrafficSpec, rng: Stream, lec: Lec, frame_seq: Iterator[int]):
        self.spec = spec
        self.rate = spec.rate
        self.rng = rng
        self.lec = lec
        self.frame_seq = frame_seq
        self.sent = 0

    def draw_size(self) -> int:
        lo, hi = self.spec.frame_bytes
        if lo == hi:
            return lo
        return self.rng.integers(lo, hi + 1)


# ---------------------------------------------------------------------------
# topology runtime


class DirectedLink(OutputQueue):
    """One direction of a physical link, which is also an output port of
    node ``src``: the port's bounded queue itself, set up from the
    node's spec, plus the wire and the transmit stats.

    ``holding`` is the cell being serialized; the wire is busy exactly
    while it is set.  A cell leaves the head of ``waiting`` only to go on
    the wire, so the report's ``cells`` is ``accepted`` less the cells
    still waiting.  ``vcs`` is the VC table of node ``dst`` for cells
    arriving over this link, keyed by the VCI they carry on it: at a
    switch (``to_switch``) an entry is (next link, next VCI), at a host
    the VC's sink.
    """

    def __init__(
        self,
        node: NodeSpec,
        far: NodeSpec,
        bit_rate: float,
        prop: float,
        booking: LinkBooking,
    ):
        super().__init__(*queue_settings(node))
        self.src = node.name
        self.dst = far.name
        self.to_switch = far.kind == "switch"
        self.vcs: Dict[int, Union[Tuple[DirectedLink, int], Callable[[TransitCell], None]]] = {}
        self.prop = prop
        self.booking = booking
        self.holding: Optional[TransitCell] = None
        self.tx_time = CELL_BITS / bit_rate
        self.busy_first_half = 0.0
        self.busy_second_half = 0.0
        self.next_vci = FIRST_VCI

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    @property
    def cells(self) -> int:
        return self.accepted - len(self.waiting)


class LaneRuntime:
    """The LAN-emulation side of one build: its servers and clients, and
    the AAL5 and LANE names that its frame paths call during the run.
    ``Engine._build_lane`` imports those layers and binds the names here,
    so no step of a run imports anything."""

    def __init__(
        self,
        les: Les,
        bus: Bus,
        segment: Callable[[bytes], List[Tuple[bytes, bool]]],
        new_reassembler: Callable[[], Reassembler],
        format_mac: Callable[[bytes], str],
    ) -> None:
        self.les = les
        self.bus = bus
        self.segment = segment  # aal5.segment, per frame sent
        self.new_reassembler = new_reassembler  # aal5.Reassembler, per data-direct VC
        self.format_mac = format_mac  # lane.format_mac, for the report
        self.lecs: Dict[str, Lec] = {}  # host name -> client
        self.host_by_atm: Dict[bytes, str] = {}
        self.direct_vcs: List[LaneVc] = []
        self.traffic: List[LaneTrafficState] = []


class Engine(EventQueue):
    """Builds a runnable network from a scenario and runs it once.

    It is its own event list, and the LecPort of every LANE client:
    ``now``, ``schedule``, ``send_on_vc`` and ``open_data_vc``.
    """

    def __init__(self, sc: Scenario):
        violations = validate_scenario(sc)
        if violations:
            raise ScenarioInvalid(violations)
        super().__init__()
        self.sc = sc
        self.duration = sc.duration_s
        self._half = sc.duration_s / 2.0
        # the per-hop handlers push these very objects, so no push builds
        # a bound method; a name no method has lets their loads specialise
        self._on_complete = self._complete
        self._on_arrive = self._arrive
        self._on_fire = self._fire
        # node -> neighbour -> link to it, in link order
        self.ports: Dict[str, Dict[str, DirectedLink]] = {}
        self.links: List[DirectedLink] = []
        self.flows: List[FlowState] = []
        self.connections: List[ContractFlow] = []
        self.lane: Optional[LaneRuntime] = None
        self._ran = False
        self._build_topology()
        violations = self._build_connections() + self._build_lane()
        if violations:
            raise ScenarioInvalid(violations)

    # -- construction ------------------------------------------------------

    def _build_topology(self) -> None:
        node_spec = {spec.name: spec for spec in self.sc.nodes}
        self.ports = {name: {} for name in node_spec}
        for spec in self.sc.links:
            for src, dst in ((spec.a, spec.b), (spec.b, spec.a)):
                link = DirectedLink(
                    node_spec[src],
                    node_spec[dst],
                    spec.bit_rate,
                    spec.propagation_delay,
                    link_booking(spec),
                )
                self.ports[src][dst] = link
                self.links.append(link)
        # LANE VCs follow the route rule validate_scenario checks
        self._switches = {spec.name for spec in self.sc.nodes if spec.kind == "switch"}
        self._lane_routes: Dict[Tuple[str, str], List[str]] = {}  # (src, dst) -> route

    def _chain(self, route: Sequence[str]) -> List[DirectedLink]:
        ports = self.ports
        return [ports[a][b] for a, b in zip(route, route[1:])]

    def _open_vc(
        self, flow: FlowState, route: Sequence[str], sink: Callable[[TransitCell], None]
    ) -> List[str]:
        """Set ``flow`` up along ``route``: allocate one VCI per hop, fill
        the VC table of each link with the next hop (at a switch) or the
        sink (at the last host) and point the flow at its first hop.

        Refuses, before allocating anything, a path across a link whose
        VCIs are used up, so every label a cell carries fits its header;
        returns one violation per such link (none when the VC is open).
        """
        chain = self._chain(route)
        exhausted = [
            f"{flow.id}: no VCI left on link {link.name} (all up to {VCI_MAX} in use)"
            for link in chain
            if link.next_vci > VCI_MAX
        ]
        if exhausted:
            return exhausted
        vcis = [link.next_vci for link in chain]  # a route crosses each link once
        entries: List[Any] = list(zip(chain[1:], vcis[1:])) + [sink]
        for link, vci, entry in zip(chain, vcis, entries):
            if vci in link.vcs:
                raise ValueError(f"{flow.id}: VCI {vci} already installed on link {link.name}")
            link.vcs[vci] = entry
            link.next_vci = vci + 1
        flow.tx = chain[0]
        flow.vci = vcis[0]
        self.flows.append(flow)
        return []

    def _open_lane_vc(self, vc: LaneVc) -> List[str]:
        """Open ``vc`` from ``vc.src`` to ``vc.dst``, as ``_open_vc`` does.
        Its route is searched once per (src, dst) pair: each LEC's VCs to
        the LES and to the BUS share theirs when one host runs both."""
        ends = (vc.src, vc.dst)
        route = self._lane_routes.get(ends)
        if route is None:
            route = switch_route(self.ports, self._switches, *ends)
            assert route is not None, "validate_scenario checks every LANE route"
            self._lane_routes[ends] = route
        return self._open_vc(vc, route, self._lane_sink)

    def _build_connections(self) -> List[str]:
        violations: List[str] = []
        generators = {g.id: g for g in self.sc.generators}
        for spec in self.sc.connections:
            bookings = [link.booking for link in self._chain(spec.route)]
            if not cac_admit(bookings, spec.category, spec.descriptor):
                violations.append(f"connection {spec.id}: rejected by admission control")
                continue
            flow = ContractFlow(spec, generators[spec.generator], self.sc.seed, self.duration)
            violations += self._open_vc(flow, spec.route, self._data_sink)
            if flow.feedback is not None:
                violations += self._open_vc(flow.feedback, spec.route[::-1], self._feedback_sink)
            self.connections.append(flow)
        return violations

    def _build_lane(self) -> List[str]:
        spec = self.sc.lane
        if spec is None:
            return []
        # the one place a build loads LAN emulation and AAL5
        from .aal5 import Reassembler, segment
        from .lane import Bus, Lec, Les, atm_address, format_mac
        from .rng import rng_stream

        lane = self.lane = LaneRuntime(Les(self), Bus(self), segment, Reassembler, format_mac)
        violations: List[str] = []
        for lec_spec in spec.lecs:
            host, mac = lec_spec.host, lec_spec.mac
            atm = atm_address(host)
            to_les = LaneVc("to_les", host, spec.les, lane.les.serve, Reassembler())
            to_bus = LaneVc("to_bus", host, spec.bus, lane.bus.forward, Reassembler())
            lec = Lec(mac, atm, self, to_les, to_bus)
            from_les = LaneVc("from_les", spec.les, host, lec.on_control, Reassembler())
            from_bus = LaneVc("from_bus", spec.bus, host, lec.deliver, Reassembler())
            lane.les.register(mac, atm, from_les)
            lane.lecs[host] = lec
            lane.host_by_atm[atm] = host
            for vc in (to_les, from_les, to_bus, from_bus):  # VCIs follow this order
                violations += self._open_lane_vc(vc)
            lane.bus.attach(mac, from_bus)
        frame_seqs: Dict[str, Iterator[int]] = {}
        for i, traffic in enumerate(spec.traffic):
            rng = rng_stream(self.sc.seed, f"lane:{i}:{traffic.src}")
            frame_seq = frame_seqs.setdefault(traffic.src, itertools.count())
            lane.traffic.append(LaneTrafficState(traffic, rng, lane.lecs[traffic.src], frame_seq))
        return violations

    # -- per-flow sinks ------------------------------------------------------

    def _data_sink(self, tc: TransitCell) -> None:
        flow = tc.flow
        now = self.now
        delays = flow.delays
        pending = delays.pending
        pending.append(now - tc.entry_time)
        if len(pending) == DELAY_CHUNK:
            delays.fold()
        feedback = flow.feedback
        if feedback is not None:
            congested = feedback.observer.observe(tc.efci)
            if congested is not None:
                self.schedule(now, self._send_feedback, (flow, congested))

    def _feedback_sink(self, tc: TransitCell) -> None:
        loop = tc.flow
        congested = tc.payload
        loop.conn.rate = rate = source_adjust(loop.source, congested)
        loop.acr_log.append((self.now, rate, congested))

    def _send_feedback(self, arg: Tuple[ContractFlow, bool]) -> None:
        flow, congested = arg
        feedback = flow.feedback
        assert feedback is not None
        tc = TransitCell(feedback, self.now, feedback.sent, feedback.vci, 0, True, False, congested)
        feedback.sent += 1
        self._send(feedback.tx, tc)

    def _lane_sink(self, tc: TransitCell) -> None:
        vc = tc.flow
        result = vc.reassembler.push(tc.payload, tc.aal5_last)
        if result is None:
            return
        if isinstance(result, bytes):
            vc.on_frame(result)
        else:  # a ReassemblyError
            vc.reassembly_errors += 1

    # -- LecPort ---------------------------------------------------------------

    def send_on_vc(self, vc: LaneVc, frame: bytes) -> None:
        """Segment ``frame`` with AAL5 and send its cells on ``vc``."""
        assert self.lane is not None
        now = self.now
        for payload, last in self.lane.segment(frame):
            tc = TransitCell(vc, now, vc.sent, vc.vci, 0, False, last, payload)
            vc.sent += 1
            self._send(vc.tx, tc)

    def open_data_vc(self, src_atm: bytes, dest_atm: bytes) -> Optional[LaneVc]:
        """A data-direct VC, or None when a link on the way has no VCI
        left.  LANE VCs are UBR and book no bandwidth, so admission never
        refuses one."""
        lane = self.lane
        assert lane is not None
        src_host = lane.host_by_atm[src_atm]
        dst_host = lane.host_by_atm[dest_atm]
        vc = LaneVc("data", src_host, dst_host, lane.lecs[dst_host].deliver, lane.new_reassembler())
        if self._open_lane_vc(vc):
            return None
        lane.direct_vcs.append(vc)
        return vc

    # -- cell movement -------------------------------------------------------

    def _send(self, link: DirectedLink, tc: TransitCell) -> None:
        outcome = link.enqueue(tc)
        if outcome is not ACCEPTED:
            tc.flow.on_lost(tc, outcome.value)
        elif link.holding is None:  # an idle link's queue was empty, so tc is its head
            self._start(link, self.now)

    def _start(self, link: DirectedLink, now: float) -> None:
        """Put the head of a non-empty queue on its idle link's wire at
        ``now``."""
        link.holding = link.waiting.popleft()
        finish = now + link.tx_time
        # add finish - now, as _accrue_busy does: (now + tx_time) - now
        # may differ from tx_time in the last bit
        if finish <= self._half:
            link.busy_first_half += finish - now
        elif now >= self._half and finish <= self.duration:
            link.busy_second_half += finish - now
        else:
            self._accrue_busy(link, now, finish)
        if finish < now:
            raise _into_past(finish, now)
        heappush(self._heap, (finish, next(self._seq), self._on_complete, link))

    def _accrue_busy(self, link: DirectedLink, start: float, finish: float) -> None:
        """Split a span that straddles duration/2 or duration."""
        half = self._half
        first = min(finish, half) - min(start, half)
        second = min(finish, self.duration) - max(min(start, self.duration), half)
        if first > 0:
            link.busy_first_half += first
        if second > 0:
            link.busy_second_half += second

    def _complete(self, link: DirectedLink) -> None:
        """The cell on ``link``'s wire is out: it arrives ``prop`` later,
        and the queue's head, if any, starts now."""
        tc = link.holding
        assert tc is not None
        now = self.now
        arrival = now + link.prop
        if arrival < now:
            raise _into_past(arrival, now)
        tc.link = link
        heappush(self._heap, (arrival, next(self._seq), self._on_arrive, tc))
        if not link.waiting:
            link.holding = None
            return
        # _start written out, as this runs once per hop
        link.holding = link.waiting.popleft()
        finish = now + link.tx_time
        if finish <= self._half:
            link.busy_first_half += finish - now
        elif now >= self._half and finish <= self.duration:
            link.busy_second_half += finish - now
        else:
            self._accrue_busy(link, now, finish)
        if finish < now:
            raise _into_past(finish, now)
        heappush(self._heap, (finish, next(self._seq), self._on_complete, link))

    def _arrive(self, tc: TransitCell) -> None:
        link = tc.link  # set by _complete
        entry = link.vcs[tc.vci]
        if link.to_switch:
            out, tc.vci = entry
            # _send written out, as this runs once per hop
            outcome = out.enqueue(tc)
            if outcome is not ACCEPTED:
                tc.flow.on_lost(tc, outcome.value)
            elif out.holding is None:
                self._start(out, self.now)
        else:
            flow = tc.flow
            if tc.seq <= flow.last_delivered_seq:
                raise AssertionError(f"per-VC FIFO violated on {flow.id}")
            flow.last_delivered_seq = tc.seq
            flow.delivered += 1
            entry(tc)

    # -- traffic sources -------------------------------------------------------

    def _schedule_sources(self) -> None:
        for flow in self.connections:
            self.schedule(0.0, self._on_fire, flow)
        if self.lane is not None:
            for state in self.lane.traffic:
                if state.spec.start <= self.duration:
                    self.schedule(state.spec.start, self._lane_fire, state)

    def _fire(self, flow: ContractFlow) -> None:
        now = self.now
        tc = TransitCell(flow, now, flow.sent, flow.vci, flow.clp)
        flow.sent += 1
        # _send written out, as this runs once per hop
        link = flow.tx
        outcome = link.enqueue(tc)
        if outcome is not ACCEPTED:
            flow.on_lost(tc, outcome.value)
        elif link.holding is None:
            self._start(link, now)
        self._pace(flow, self._on_fire)

    def _lane_fire(self, state: LaneTrafficState) -> None:
        size = state.draw_size()
        payload = next(state.frame_seq).to_bytes(8, "big") + bytes(size - 8)
        state.sent += 1
        state.lec.send(state.spec.dst_mac, payload)
        if state.spec.count is None or state.sent < state.spec.count:
            self._pace(state, self._lane_fire)

    def _pace(self, source: Any, fire: Callable[[Any], None]) -> None:
        """The one pacing rule: a source emits again 1/rate after now,
        moved out of an OFF period by its gate, if it has one."""
        now = self.now
        nxt = now + 1.0 / source.rate
        if source.gate is not None:
            nxt = source.gate.admit(nxt)
        if nxt <= self.duration:
            if nxt < now:
                raise _into_past(nxt, now)
            heappush(self._heap, (nxt, next(self._seq), fire, source))

    # -- run -------------------------------------------------------------------

    def run(self) -> "RunReport":
        if self._ran:
            raise RuntimeError("an Engine runs exactly once")
        self._ran = True
        self._schedule_sources()
        heap = self._heap
        duration = self.duration
        processed = self.processed
        last_time, last_seq = -math.inf, -1
        # run is entered once, and CPython 3.11 warms code only on entry
        # and at an unconditional backward jump, which ``while heap:`` lacks
        while True:
            if not heap:
                break
            time, seq, fn, arg = entry = heappop(heap)
            if not time <= duration:  # the test heap[0][0] <= duration, NaN included
                heappush(heap, entry)
                break
            if time < last_time or (time == last_time and seq <= last_seq):
                raise AssertionError("event dispatched out of order")
            last_time, last_seq = time, seq
            self.now = time
            processed += 1
            fn(arg)
        self.processed = processed
        self._audit()
        return self._report()

    def _audit(self) -> None:
        """Cell conservation: each flow's cells in flight (emitted -
        delivered - lost) equal the cells of it found in the network."""
        links, arrive = self.links, self._on_arrive
        in_network = Counter(link.holding.flow for link in links if link.holding is not None)
        in_network.update(tc.flow for link in links for tc in link.waiting)
        in_network.update(arg.flow for _time, _seq, fn, arg in self._heap if fn == arrive)
        for flow in self.flows:
            lost = sum(flow.loss_reasons.values())
            actual = in_network[flow]
            if flow.sent - flow.delivered - lost != actual:
                raise AssertionError(
                    f"conservation broken on {flow.id}: "
                    f"{flow.sent} emitted, {flow.delivered} delivered, "
                    f"{lost} lost, {actual} still in the network"
                )

    # -- reporting ---------------------------------------------------------------

    def _report(self) -> "RunReport":
        connections = {}
        abr_series = {}
        for flow in self.connections:
            stats = delay_stats(flow.delays)
            sent, delivered = flow.sent, flow.delivered
            lost = sum(flow.loss_reasons.values())
            clr = lost / sent if sent else 0.0
            clp1 = flow.clp == 1  # every cell of the flow carries its clp
            entry: Dict[str, Any] = {
                "category": flow.spec.category.name,
                "transmitted": sent,
                "transmitted_clp0": 0 if clp1 else sent,
                "transmitted_clp1": sent if clp1 else 0,
                "delivered": delivered,
                "lost": lost,
                "lost_clp0": 0 if clp1 else lost,
                "lost_clp1": lost if clp1 else 0,
                "in_flight": sent - delivered - lost,
                "loss_reasons": dict(sorted(flow.loss_reasons.items())),
                "clr": clr,
                "clr_clp0": 0.0 if clp1 else clr,
                "clr_clp1": clr if clp1 else 0.0,
                "delay": None if stats is None else stats._asdict(),
            }
            feedback = flow.feedback
            if feedback is not None:
                source = feedback.source
                entry["abr"] = {
                    "final_acr": source.acr,
                    "mcr": source.mcr,
                    "pcr": source.pcr,
                    "adjustments": len(feedback.acr_log),
                    "feedback_sent": feedback.sent,
                    "feedback_delivered": feedback.delivered,
                    "feedback_lost": sum(feedback.loss_reasons.values()),
                }
                abr_series[flow.id] = list(feedback.acr_log)
            connections[flow.id] = entry

        # route ends and LANE servers are hosts, so a switch's ``routed`` is
        # the sum of its ports' enqueue counters
        switches = {}
        for name, node_ports in self.ports.items():
            if name not in self._switches:
                continue
            out = node_ports.values()
            ports = {}
            for index, link in enumerate(out):
                ports[str(index)] = {
                    "toward": link.dst,
                    "accepted": link.accepted,
                    "full_drops": link.full_drops,
                    "clp_drops": link.clp_drops,
                    "efci_marks": link.efci_marks,
                }
            switches[name] = {
                "routed": sum(link.accepted + link.full_drops + link.clp_drops for link in out),
                # always 0, as every VCI is installed; the goldens pin this
                # slot until a golden rewrite drops it
                "unknown_vc_drops": 0,
                "full_drops": sum(link.full_drops for link in out),
                "clp_drops": sum(link.clp_drops for link in out),
                "efci_marks": sum(link.efci_marks for link in out),
                "ports": ports,
            }

        links = {}
        for link in self.links:
            busy = link.busy_first_half + link.busy_second_half
            links[link.name] = {
                "cells": link.cells,
                "busy_s": busy,
                "utilization": busy / self.duration,
                "second_half_utilization": 2.0 * link.busy_second_half / self.duration,
            }

        lane_report = None
        if self.lane is not None:
            lane_report = self._lane_report(self.lane)

        return RunReport(
            duration_s=self.duration,
            seed=self.sc.seed,
            events_processed=self.processed,
            connections=connections,
            switches=switches,
            links=links,
            abr_series=abr_series,
            lane=lane_report,
        )

    def _lane_report(self, lane: LaneRuntime) -> Dict[str, Any]:
        format_mac = lane.format_mac
        lecs = {}
        for host, lec in lane.lecs.items():
            lecs[host] = {
                "mac": format_mac(lec.mac),
                **_slot_dict(lec.counters),
                "per_destination": {
                    format_mac(mac): _slot_dict(stats) for mac, stats in lec.per_destination.items()
                },
            }
        vc_errors = sum(
            flow.reassembly_errors for flow in self.flows if isinstance(flow, LaneVc)
        )
        return {
            "les": {
                "registered": len(lane.les.directory),
                "arp_requests": lane.les.arp_requests,
                "arp_hits": lane.les.arp_hits,
                "arp_misses": lane.les.arp_misses,
            },
            "bus": {"frames_in": lane.bus.frames_in, "copies_out": lane.bus.copies_out},
            "data_direct_vcs": len(lane.direct_vcs),
            "reassembly_errors": vc_errors,
            "control_decode_errors": lane.les.decode_errors
            + sum(lec.decode_errors for lec in lane.lecs.values()),
            "lecs": lecs,
        }


def _slot_dict(record: Any) -> Dict[str, Any]:
    """A slotted counter record as a dict, in slot order."""
    return {name: getattr(record, name) for name in record.__slots__}


class RunReport(Record):
    """Run results, serializable to a stable JSON document + CSV series."""

    __slots__ = ()

    # abr_series: connection id -> (time_s, acr, congested) samples; the rest are JSON values
    def __new__(
        cls, duration_s, seed, events_processed, connections, switches, links, abr_series, lane
    ):
        fields = duration_s, seed, events_processed, connections, switches, links, abr_series, lane
        return new_tuple(cls, fields)

    def as_dict(self) -> Dict[str, Any]:
        """Every field but ``abr_series``, which ``abr_csv`` writes out."""
        doc = self._asdict()
        del doc["abr_series"]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def abr_csv(self, conn_id: str) -> str:
        rows = ["time_s,acr,congested"]
        for time_s, acr, congested in self.abr_series[conn_id]:
            rows.append(f"{time_s!r},{acr!r},{1 if congested else 0}")
        return "\n".join(rows) + "\n"


def build(source: Any) -> Engine:
    """Engine from a Scenario, a dict, or a JSON file path."""
    sc = source if isinstance(source, Scenario) else load_scenario(source)
    return Engine(sc)


def run(source: Any) -> RunReport:
    return build(source).run()


def preflight(source: Any) -> List[str]:
    """Every validation and admission problem, without running anything."""
    try:
        build(source)
    except ScenarioInvalid as exc:
        return exc.violations
    return []
