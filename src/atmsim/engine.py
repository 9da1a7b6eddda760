"""Deterministic discrete-event simulation of scenario files.

Events are dispatched in (time, insertion sequence) order, so identical
(scenario, seed) pairs replay the exact same event stream and produce
byte-identical reports.  An event is a ``(time, seq, fn, arg)`` heap
entry; dispatch calls ``fn(arg)``, and the handler identifies the kind of
event.

Inside the simulator a cell is a TransitCell: the header bits the model
acts on (VCI, CLP, EFCI, payload type) as plain attributes, beside the
owning flow, entry time and a per-flow sequence number.  Switches rewrite
the VCI in place and queues set the EFCI bit in place.  The UNI and NNI
header layouts differ only in fields the model leaves at zero (GFC and the
upper VPI bits), so the engine does not track them.  Cell and CellHeader,
with their range checks and HEC, exist only at codec boundaries (the trace
format and the conformance command), so label ranges are checked when a
path is installed.

An output port and the link direction it feeds are one record, the
DirectedLink: a bounded OutputQueue, a single-cell transmitter (424 bits
serialized at the link rate, then the propagation delay) and the link's
transmit stats.  Queue occupancy therefore counts waiting cells, with the
cell on the wire "in service".

Every flow counts its cells once, in its ConnectionMetrics: emitted and
lost by loss priority, and delivered.  Cell conservation, the audit run
at the end, compares those counters with the cells still in the network.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .aal5 import Reassembler, ReassemblyError, segment
from .abr import (
    AbrSourceState,
    EfciObserver,
    FeedbackIndication,
    next_emission,
    source_adjust,
)
from .cell import VCI_MAX, ZERO_PAYLOAD
from .errors import OrderingError
from .lane import (
    OP_ARP_REPLY,
    OP_ARP_REQUEST,
    Bus,
    Lec,
    LecPort,
    Les,
    atm_address,
    decode_control,
    encode_arp_reply,
    format_mac,
)
from .scenario import (
    ConnectionSpec,
    GeneratorSpec,
    LaneTrafficSpec,
    Scenario,
    abr_observer,
    abr_source,
    load_scenario,
    output_queue,
    switch_route,
    validate_scenario,
)
from .switch import (
    EnqueueOutcome,
    LinkBooking,
    OutputQueue,
    VcRoute,
    VcTable,
    cac_admit,
)
from .traffic import (
    ConnectionMetrics,
    ServiceCategory,
    compute_clr,
    delay_stats,
)

CELL_BITS = 424
FIRST_VCI = 32  # low label values left alone, control-plane style


class ScenarioInvalid(ValueError):
    """Preflight failed; .violations lists every problem found."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class EventQueue:
    """Future event list of (time, seq, fn, arg) entries.

    Entries pop in (time, insertion sequence) order; the run loop calls
    ``fn(arg)`` for each.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self.now = 0.0
        self.processed = 0

    def schedule(self, time: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        if time < self.now:
            raise OrderingError(f"cannot schedule at {time} before now {self.now}")
        heapq.heappush(self._heap, (time, self._seq, fn, arg))
        self._seq += 1

    def pop(self) -> Tuple[float, int, Callable[[Any], None], Any]:
        entry = heapq.heappop(self._heap)
        self.now = entry[0]
        self.processed += 1
        return entry


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Independent 64-bit Philox stream keyed by (seed, label).

    Keys are derived by hashing, so streams are stable per label: adding
    a connection to a scenario does not perturb the draws of the others.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# emission schedules


class PacedEmitter:
    """Constant spacing 1/rate, first cell at the start instant."""

    def __init__(self, rate: float):
        self.period = 1.0 / rate

    def first(self, start: float) -> float:
        return start

    def next(self, now: float) -> float:
        return now + self.period


class OnOffEmitter:
    """Exponential ON/OFF bursts, paced at the peak rate while ON.

    mean_off_s == 0 degenerates to always-on.  Draws come from the
    connection's own stream, so schedules are reproducible per seed.
    """

    def __init__(self, peak_rate: float, mean_on_s: float, mean_off_s: float, rng: np.random.Generator):
        self.period = 1.0 / peak_rate
        self.mean_on = mean_on_s
        self.mean_off = mean_off_s
        self.rng = rng
        self._on_end = 0.0

    def _draw_on(self) -> float:
        return float(self.rng.exponential(self.mean_on))

    def _draw_off(self) -> float:
        if self.mean_off == 0:
            return 0.0
        return float(self.rng.exponential(self.mean_off))

    def first(self, start: float) -> float:
        self._on_end = start + self._draw_on()
        return start

    def next(self, now: float) -> float:
        candidate = now + self.period
        while candidate >= self._on_end:
            start = self._on_end + self._draw_off()
            self._on_end = start + self._draw_on()
            candidate = start
        return candidate


class AbrEmitter:
    """Greedy source paced at the current allowed cell rate."""

    def __init__(self, source: AbrSourceState):
        self.source = source

    def first(self, start: float) -> float:
        return start

    def next(self, now: float) -> float:
        return next_emission(now, self.source.acr)


# ---------------------------------------------------------------------------
# flows


class TransitCell:
    """A cell inside the simulator: the header bits the model acts on as
    plain attributes, plus bookkeeping that never touches the wire image.

    The VPI is always 0 on the paths the engine installs.
    """

    __slots__ = (
        "flow",
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
        payload: bytes = ZERO_PAYLOAD,
    ):
        self.flow = flow
        self.entry_time = entry_time
        self.seq = seq
        self.vci = vci
        self.clp = clp
        self.is_management = is_management
        self.aal5_last = aal5_last
        self.payload = payload
        self.efci = False


class FlowState:
    """One unidirectional cell stream of any traffic class.

    ``metrics`` holds its only cell counters (emitted and lost by loss
    priority, delivered), which the conservation audit checks.  ``tx``
    and ``vci`` are the first hop of the flow's path: the link its cells
    enter and the label they carry on it.
    """

    def __init__(self, flow_id: str):
        self.id = flow_id
        self.metrics = ConnectionMetrics()
        self.loss_reasons: Dict[str, int] = {}
        self.next_seq = 0
        self.last_delivered_seq = -1
        self.tx: Optional[DirectedLink] = None
        self.vci = 0

    def take_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def on_emitted(self, clp: int) -> None:
        if clp == 1:
            self.metrics.transmitted_clp1 += 1
        else:
            self.metrics.transmitted_clp0 += 1

    def on_lost(self, tc: TransitCell, reason: str) -> None:
        self.loss_reasons[reason] = self.loss_reasons.get(reason, 0) + 1
        if tc.clp == 1:
            self.metrics.lost_clp1 += 1
        else:
            self.metrics.lost_clp0 += 1

    def check_fifo(self, tc: TransitCell) -> None:
        # Cells of one VC must come out in emission order (gaps = losses).
        if tc.seq <= self.last_delivered_seq:
            raise AssertionError(f"per-VC FIFO violated on {self.id}")
        self.last_delivered_seq = tc.seq


class ContractFlow(FlowState):
    """One scenario connection: generator state, delays, ABR machinery."""

    def __init__(self, spec: ConnectionSpec):
        super().__init__(spec.id)
        self.spec = spec
        self.emitter: Any = None
        self.abr_source: Optional[AbrSourceState] = None
        self.observer: Optional[EfciObserver] = None
        self.feedback: Optional[FeedbackFlow] = None
        self.acr_log: List[Tuple[float, float, bool]] = []


class FeedbackFlow(FlowState):
    """Backward management cells of one ABR connection."""

    def __init__(self, conn: ContractFlow):
        super().__init__(f"{conn.id}:feedback")
        self.conn = conn


class LaneVc(FlowState):
    """One unidirectional LAN-emulation VC carrying AAL5 frames."""

    def __init__(self, flow_id: str):
        super().__init__(flow_id)
        self.reassembler = Reassembler()
        self.on_frame: Callable[[bytes], Any] = lambda frame: None
        self.reassembly_errors = 0


class LaneTrafficState:
    """One frame source feeding a LEC."""

    def __init__(self, spec: LaneTrafficSpec, rng: np.random.Generator, lec: Lec):
        self.spec = spec
        self.rng = rng
        self.lec = lec
        self.sent = 0

    def draw_size(self) -> int:
        lo, hi = self.spec.frame_bytes
        if lo == hi:
            return lo
        return int(self.rng.integers(lo, hi + 1))


# ---------------------------------------------------------------------------
# topology runtime


class DirectedLink:
    """One direction of a physical link, which is also the output port
    ``src_port`` of node ``src``: the bounded queue, the wire and the
    transmit stats.

    ``holding`` is the cell being serialized; the wire is busy exactly
    while it is set.
    """

    def __init__(
        self,
        src: str,
        src_port: int,
        dst: str,
        dst_port: int,
        bit_rate: float,
        prop: float,
        booking: LinkBooking,
        queue: OutputQueue,
    ):
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.prop = prop
        self.booking = booking
        self.queue = queue
        self.holding: Optional[TransitCell] = None
        self.tx_time = CELL_BITS / bit_rate
        self.cells = 0
        self.busy_first_half = 0.0
        self.busy_second_half = 0.0
        self.next_vci = FIRST_VCI

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    def alloc_vci(self) -> int:
        vci = self.next_vci
        self.next_vci += 1
        return vci


class NodeRuntime:
    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.ports: Dict[int, DirectedLink] = {}
        self.neighbor_port: Dict[str, int] = {}
        self.vc_table = VcTable()
        self.routed = 0
        self.unknown_vc = 0
        self.endpoints: Dict[Tuple[int, int, int], Callable[[TransitCell], None]] = {}


class LaneRuntime:
    def __init__(self) -> None:
        self.les = Les()
        self.bus = Bus()
        self.lecs: Dict[str, Lec] = {}  # host name -> client
        self.host_by_atm: Dict[bytes, str] = {}
        self.direct_vcs: List[LaneVc] = []
        self.traffic: List[LaneTrafficState] = []
        self.control_decode_errors = 0


class _EnginePort(LecPort):
    """Fabric adapter handed to each LEC: its VCs to the LES and the BUS
    and the frame counter of its traffic sources."""

    def __init__(self, engine: "Engine", host: str, to_les: LaneVc, to_bus: LaneVc):
        self._engine = engine
        self._host = host
        self.to_les = to_les
        self.to_bus = to_bus
        # receivers identify frames by (source MAC, sequence), so every
        # traffic entry of one source must draw from the same counter
        self.next_seq = 0

    def now(self) -> float:
        return self._engine.events.now

    def send_arp_request(self, message: bytes) -> None:
        self._engine._send_frame(self.to_les, message)

    def send_to_bus(self, frame: bytes) -> None:
        self._engine._send_frame(self.to_bus, frame)

    def send_on_vc(self, vc: Any, frame: bytes) -> None:
        self._engine._send_frame(vc, frame)

    def open_data_vc(self, dest_atm: bytes) -> Optional["LaneVc"]:
        return self._engine._open_data_vc(self._host, dest_atm)

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        events = self._engine.events
        events.schedule(events.now + delay, _expire_timer, fn)


def _expire_timer(timer: Callable[[], None]) -> None:
    timer()


class Engine:
    """Builds a runnable network from a scenario and runs it once."""

    def __init__(self, sc: Scenario):
        violations = validate_scenario(sc)
        if violations:
            raise ScenarioInvalid(violations)
        self.sc = sc
        self.duration = sc.duration_s
        self.events = EventQueue()
        self.nodes: Dict[str, NodeRuntime] = {}
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
        node_spec = {}
        for spec in self.sc.nodes:
            self.nodes[spec.name] = NodeRuntime(spec.name, spec.kind)
            node_spec[spec.name] = spec
        for spec in self.sc.links:
            for src, dst in ((spec.a, spec.b), (spec.b, spec.a)):
                src_node = self.nodes[src]
                dst_node = self.nodes[dst]
                src_port = len(src_node.ports)
                dst_port = dst_node.neighbor_port.get(src, len(dst_node.ports))
                link = DirectedLink(
                    src,
                    src_port,
                    dst,
                    dst_port,
                    spec.bit_rate,
                    spec.propagation_delay,
                    LinkBooking(spec.bit_rate / CELL_BITS, spec.booking_factor),
                    output_queue(node_spec[src]),
                )
                src_node.ports[src_port] = link
                src_node.neighbor_port[dst] = src_port
                self.links.append(link)
        # LANE VCs follow the route rule validate_scenario checks
        self._adjacency = {name: node.neighbor_port for name, node in self.nodes.items()}
        self._switches = {name for name, node in self.nodes.items() if node.kind == "switch"}

    def _chain(self, route: Sequence[str]) -> List[DirectedLink]:
        nodes = self.nodes
        return [nodes[a].ports[nodes[a].neighbor_port[b]] for a, b in zip(route, route[1:])]

    def _open_vc(
        self, flow: FlowState, route: Sequence[str], sink: Callable[[TransitCell], None]
    ) -> List[str]:
        """Set ``flow`` up along ``route``: allocate one VCI per hop, fill
        switch tables, bind the sink and point the flow at its first hop.

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
        vcis = [link.alloc_vci() for link in chain]
        for i in range(len(chain) - 1):
            sw = self.nodes[chain[i].dst]
            sw.vc_table.install(
                chain[i].dst_port,
                0,
                vcis[i],
                VcRoute(chain[i + 1].src_port, 0, vcis[i + 1]),
            )
        last = chain[-1]
        self.nodes[last.dst].endpoints[(last.dst_port, 0, vcis[-1])] = sink
        flow.tx = chain[0]
        flow.vci = vcis[0]
        self.flows.append(flow)
        return []

    def _lane_route(self, src: str, dst: str) -> List[str]:
        route = switch_route(self._adjacency, self._switches, src, dst)
        assert route is not None, "validate_scenario checks every LANE route"
        return route

    def _build_connections(self) -> List[str]:
        violations: List[str] = []
        generators = {g.id: g for g in self.sc.generators}
        for spec in self.sc.connections:
            bookings = [link.booking for link in self._chain(spec.route)]
            if not cac_admit(bookings, spec.category, spec.descriptor):
                violations.append(f"connection {spec.id}: rejected by admission control")
                continue
            flow = ContractFlow(spec)
            violations += self._open_vc(flow, spec.route, self._data_sink)
            if spec.category is ServiceCategory.ABR:
                flow.abr_source = abr_source(spec)
                flow.observer = abr_observer(spec)
                flow.feedback = FeedbackFlow(flow)
                violations += self._open_vc(flow.feedback, spec.route[::-1], self._feedback_sink)
            flow.emitter = self._make_emitter(flow, generators[spec.generator])
            self.connections.append(flow)
        return violations

    def _make_emitter(self, flow: ContractFlow, gen: GeneratorSpec) -> Any:
        if gen.kind == "paced_cbr":
            return PacedEmitter(gen.rate)  # type: ignore[arg-type]
        if gen.kind == "greedy_ubr":
            return PacedEmitter(gen.cap)  # type: ignore[arg-type]
        if gen.kind == "on_off_vbr":
            rng = rng_stream(self.sc.seed, f"conn:{flow.id}")
            return OnOffEmitter(gen.peak_rate, gen.mean_on_s, gen.mean_off_s, rng)  # type: ignore[arg-type]
        assert gen.kind == "greedy_abr"
        assert flow.abr_source is not None
        return AbrEmitter(flow.abr_source)

    def _build_lane(self) -> List[str]:
        spec = self.sc.lane
        if spec is None:
            return []
        lane = LaneRuntime()
        self.lane = lane
        violations: List[str] = []
        for lec_spec in spec.lecs:
            host = lec_spec.host
            atm = atm_address(host)
            lane.les.register(lec_spec.mac, atm)
            to_les = LaneVc(f"lane:to_les:{host}->{spec.les}")
            from_les = LaneVc(f"lane:from_les:{spec.les}->{host}")
            to_bus = LaneVc(f"lane:to_bus:{host}->{spec.bus}")
            from_bus = LaneVc(f"lane:from_bus:{spec.bus}->{host}")
            lec = Lec(
                mac=lec_spec.mac,
                atm=atm,
                port=_EnginePort(self, host, to_les, to_bus),
                parallel_bus=spec.parallel_bus,
            )
            lane.lecs[host] = lec
            lane.host_by_atm[atm] = host
            to_les.on_frame = partial(self._les_request, from_les)
            from_les.on_frame = partial(self._lec_reply, lec)
            to_bus.on_frame = partial(lane.bus.forward, origin_atm=atm)
            from_bus.on_frame = partial(lec.deliver, via_bus=True)
            for vc, src, dst in (
                (to_les, host, spec.les),
                (from_les, spec.les, host),
                (to_bus, host, spec.bus),
                (from_bus, spec.bus, host),
            ):
                violations += self._open_vc(vc, self._lane_route(src, dst), self._lane_sink)
            lane.bus.attach(atm, partial(self._send_frame, from_bus))
        for i, traffic in enumerate(spec.traffic):
            rng = rng_stream(self.sc.seed, f"lane:{i}:{traffic.src}")
            lane.traffic.append(LaneTrafficState(traffic, rng, lane.lecs[traffic.src]))
        return violations

    # -- per-flow sinks ------------------------------------------------------

    def _data_sink(self, tc: TransitCell) -> None:
        flow = tc.flow
        now = self.events.now
        flow.check_fifo(tc)
        flow.metrics.delivered += 1
        flow.metrics.delay_samples.append(now - tc.entry_time)
        if flow.observer is not None:
            indication = flow.observer.observe(tc.efci)
            if indication is not None:
                self.events.schedule(now, self._send_feedback, (flow, indication))

    def _feedback_sink(self, tc: TransitCell) -> None:
        feedback = tc.flow
        flow = feedback.conn
        assert flow.abr_source is not None
        feedback.check_fifo(tc)
        feedback.metrics.delivered += 1
        payload = tc.payload
        indication = FeedbackIndication(
            congested=payload[0] == 1, epoch=int.from_bytes(payload[1:9], "big")
        )
        acr = source_adjust(flow.abr_source, indication)
        flow.acr_log.append((self.events.now, acr, indication.congested))

    def _send_feedback(self, arg: Tuple[ContractFlow, FeedbackIndication]) -> None:
        flow, indication = arg
        feedback = flow.feedback
        assert feedback is not None
        payload = (
            bytes((1 if indication.congested else 0,))
            + indication.epoch.to_bytes(8, "big")
            + bytes(39)
        )
        tc = TransitCell(
            feedback,
            self.events.now,
            feedback.take_seq(),
            feedback.vci,
            is_management=True,
            payload=payload,
        )
        feedback.on_emitted(0)
        self._send(feedback.tx, tc)

    def _lane_sink(self, tc: TransitCell) -> None:
        vc = tc.flow
        vc.check_fifo(tc)
        vc.metrics.delivered += 1
        result = vc.reassembler.push(tc.payload, tc.aal5_last)
        if result is None:
            return
        if isinstance(result, ReassemblyError):
            vc.reassembly_errors += 1
            return
        vc.on_frame(result)

    def _control_body(self, message: bytes, expected_op: int) -> Any:
        """Body of a LANE control message, or None (counted) when it does
        not decode or carries another operation."""
        lane = self.lane
        assert lane is not None
        try:
            op, body = decode_control(message)
        except ValueError:
            op = None
        if op != expected_op:
            lane.control_decode_errors += 1
            return None
        return body

    def _les_request(self, reply_vc: LaneVc, message: bytes) -> None:
        body = self._control_body(message, OP_ARP_REQUEST)
        if body is None:
            return
        _requester_mac, target_mac = body
        lane = self.lane
        assert lane is not None
        atm = lane.les.resolve(target_mac)
        self._send_frame(reply_vc, encode_arp_reply(target_mac, atm))

    def _lec_reply(self, lec: Lec, message: bytes) -> None:
        body = self._control_body(message, OP_ARP_REPLY)
        if body is not None:
            mac, atm = body
            lec.on_arp_reply(mac, atm)

    def _open_data_vc(self, src_host: str, dest_atm: bytes) -> Optional[LaneVc]:
        """A data-direct VC, or None when a link on the way has no VCI
        left.  LANE VCs are UBR and book no bandwidth, so admission never
        refuses one."""
        lane = self.lane
        assert lane is not None
        dst_host = lane.host_by_atm[dest_atm]
        vc = LaneVc(f"lane:data:{src_host}->{dst_host}")
        if self._open_vc(vc, self._lane_route(src_host, dst_host), self._lane_sink):
            return None
        vc.on_frame = partial(lane.lecs[dst_host].deliver, via_bus=False)
        lane.direct_vcs.append(vc)
        return vc

    # -- cell movement -------------------------------------------------------

    def _send(self, link: DirectedLink, tc: TransitCell) -> None:
        outcome = link.queue.enqueue(tc, self.events.now)
        if outcome is EnqueueOutcome.ACCEPTED:
            if link.holding is None:
                self._start(link)
        else:
            tc.flow.on_lost(tc, outcome.value)

    def _start(self, link: DirectedLink) -> None:
        """Put the head of an idle link's queue on the wire."""
        tc = link.queue.dequeue()
        if tc is None:
            return
        link.holding = tc
        start = self.events.now
        finish = start + link.tx_time
        link.cells += 1
        self._accrue_busy(link, start, finish)
        self.events.schedule(finish, self._complete, link)

    def _accrue_busy(self, link: DirectedLink, start: float, finish: float) -> None:
        half = self.duration / 2.0
        first = min(finish, half) - min(start, half)
        second = min(finish, self.duration) - max(min(start, self.duration), half)
        if first > 0:
            link.busy_first_half += first
        if second > 0:
            link.busy_second_half += second

    def _complete(self, link: DirectedLink) -> None:
        tc = link.holding
        assert tc is not None
        link.holding = None
        self.events.schedule(self.events.now + link.prop, self._arrive, (link, tc))
        self._start(link)

    def _arrive(self, arg: Tuple[DirectedLink, TransitCell]) -> None:
        link, tc = arg
        node = self.nodes[link.dst]
        if node.kind == "switch":
            route = node.vc_table.lookup(link.dst_port, 0, tc.vci)
            if route is not None:
                node.routed += 1
                tc.vci = route.out_vci
                self._send(node.ports[route.out_port], tc)
                return
        else:
            sink = node.endpoints.get((link.dst_port, 0, tc.vci))
            if sink is not None:
                sink(tc)
                return
        node.unknown_vc += 1
        tc.flow.on_lost(tc, "unknown_vc")

    # -- traffic sources -------------------------------------------------------

    def _schedule_sources(self) -> None:
        for flow in self.connections:
            first = flow.emitter.first(0.0)
            if first <= self.duration:
                self.events.schedule(first, self._fire, flow)
        if self.lane is not None:
            for state in self.lane.traffic:
                if state.spec.start <= self.duration:
                    self.events.schedule(state.spec.start, self._lane_fire, state)

    def _fire(self, flow: ContractFlow) -> None:
        now = self.events.now
        clp = flow.spec.clp
        tc = TransitCell(flow, now, flow.take_seq(), flow.vci, clp)
        flow.on_emitted(clp)
        self._send(flow.tx, tc)
        nxt = flow.emitter.next(now)
        if nxt <= self.duration:
            self.events.schedule(nxt, self._fire, flow)

    def _lane_fire(self, state: LaneTrafficState) -> None:
        spec = state.spec
        size = state.draw_size()
        port = state.lec.port
        assert isinstance(port, _EnginePort)
        seq = port.next_seq
        port.next_seq += 1
        payload = seq.to_bytes(8, "big") + bytes(size - 8)
        state.sent += 1
        state.lec.send(spec.dst_mac, payload)
        if spec.count is not None and state.sent >= spec.count:
            return
        nxt = self.events.now + 1.0 / spec.rate
        if nxt <= self.duration:
            self.events.schedule(nxt, self._lane_fire, state)

    def _send_frame(self, vc: LaneVc, frame: bytes) -> None:
        now = self.events.now
        for payload, last in segment(frame):
            tc = TransitCell(vc, now, vc.take_seq(), vc.vci, aal5_last=last, payload=payload)
            vc.on_emitted(0)
            self._send(vc.tx, tc)

    # -- run -------------------------------------------------------------------

    def run(self) -> "RunReport":
        if self._ran:
            raise RuntimeError("an Engine runs exactly once")
        self._ran = True
        self._schedule_sources()
        events = self.events
        heap = events._heap
        pop = events.pop
        duration = self.duration
        last_time, last_seq = -math.inf, -1
        while heap and heap[0][0] <= duration:
            time, seq, fn, arg = pop()
            if time < last_time or (time == last_time and seq <= last_seq):
                raise AssertionError("event dispatched out of order")
            last_time, last_seq = time, seq
            fn(arg)
        self._audit()
        return self._report()

    def _audit(self) -> None:
        """Cell conservation: each flow's in_flight counter (emitted -
        delivered - lost) equals the cells of it found in the network."""
        in_network: Dict[str, int] = {}

        def count(flow: FlowState) -> None:
            in_network[flow.id] = in_network.get(flow.id, 0) + 1

        for link in self.links:
            if link.holding is not None:
                count(link.holding.flow)
            for tc in link.queue.pending():
                count(tc.flow)
        arrive = self._arrive
        for _time, _seq, fn, arg in self.events._heap:
            if fn == arrive:
                count(arg[1].flow)
        for flow in self.flows:
            metrics = flow.metrics
            actual = in_network.get(flow.id, 0)
            if metrics.in_flight != actual:
                raise AssertionError(
                    f"conservation broken on {flow.id}: "
                    f"{metrics.transmitted} emitted, {metrics.delivered} delivered, "
                    f"{metrics.lost} lost, {actual} still in the network"
                )

    # -- reporting ---------------------------------------------------------------

    def _report(self) -> "RunReport":
        connections = {}
        abr_series = {}
        for flow in self.connections:
            stats = delay_stats(flow.metrics.delay_samples)
            entry: Dict[str, Any] = {
                "category": flow.spec.category.name,
                "transmitted": flow.metrics.transmitted,
                "transmitted_clp0": flow.metrics.transmitted_clp0,
                "transmitted_clp1": flow.metrics.transmitted_clp1,
                "delivered": flow.metrics.delivered,
                "lost": flow.metrics.lost,
                "lost_clp0": flow.metrics.lost_clp0,
                "lost_clp1": flow.metrics.lost_clp1,
                "in_flight": flow.metrics.in_flight,
                "loss_reasons": dict(sorted(flow.loss_reasons.items())),
                "clr": compute_clr(flow.metrics),
                "clr_clp0": compute_clr(flow.metrics, 0),
                "clr_clp1": compute_clr(flow.metrics, 1),
                "delay": None if stats is None else asdict(stats),
            }
            if flow.abr_source is not None:
                feedback = flow.feedback
                assert feedback is not None
                entry["abr"] = {
                    "final_acr": flow.abr_source.acr,
                    "mcr": flow.abr_source.mcr,
                    "pcr": flow.abr_source.pcr,
                    "adjustments": len(flow.acr_log),
                    "feedback_sent": feedback.metrics.transmitted,
                    "feedback_delivered": feedback.metrics.delivered,
                    "feedback_lost": feedback.metrics.lost,
                }
                abr_series[flow.id] = list(flow.acr_log)
            connections[flow.id] = entry

        switches = {}
        for node in self.nodes.values():
            if node.kind != "switch":
                continue
            ports = {}
            for index, link in sorted(node.ports.items()):
                queue = link.queue
                ports[str(index)] = {
                    "toward": link.dst,
                    "accepted": queue.accepted,
                    "full_drops": queue.full_drops,
                    "clp_drops": queue.clp_drops,
                    "efci_marks": queue.efci_marks,
                }
            switches[node.name] = {
                "routed": node.routed,
                "unknown_vc_drops": node.unknown_vc,
                "full_drops": sum(link.queue.full_drops for link in node.ports.values()),
                "clp_drops": sum(link.queue.clp_drops for link in node.ports.values()),
                "efci_marks": sum(link.queue.efci_marks for link in node.ports.values()),
                "ports": ports,
            }

        links = {}
        for link in self.links:
            busy = link.busy_first_half + link.busy_second_half
            links[link.name] = {
                "cells": link.cells,
                "busy_s": busy,
                "utilization": busy / self.duration,
                "second_half_utilization": link.busy_second_half / (self.duration / 2.0),
            }

        lane_report = None
        if self.lane is not None:
            lane_report = self._lane_report(self.lane)

        return RunReport(
            duration_s=self.duration,
            seed=self.sc.seed,
            events_processed=self.events.processed,
            connections=connections,
            switches=switches,
            links=links,
            abr_series=abr_series,
            lane=lane_report,
        )

    def _lane_report(self, lane: LaneRuntime) -> Dict[str, Any]:
        lecs = {}
        for host, lec in lane.lecs.items():
            lecs[host] = {
                "mac": format_mac(lec.mac),
                **asdict(lec.counters),
                "per_destination": {
                    format_mac(mac): asdict(stats) for mac, stats in lec.per_destination.items()
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
            "control_decode_errors": lane.control_decode_errors,
            "lecs": lecs,
        }


@dataclass
class RunReport:
    """Run results, serializable to a stable JSON document + CSV series."""

    duration_s: float
    seed: int
    events_processed: int
    connections: Dict[str, Dict[str, Any]]
    switches: Dict[str, Dict[str, Any]]
    links: Dict[str, Dict[str, Any]]
    abr_series: Dict[str, List[Tuple[float, float, bool]]]
    lane: Optional[Dict[str, Any]]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "duration_s": self.duration_s,
            "seed": self.seed,
            "events_processed": self.events_processed,
            "connections": self.connections,
            "switches": self.switches,
            "links": self.links,
            "lane": self.lane,
        }

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
