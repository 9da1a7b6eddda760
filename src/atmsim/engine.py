"""Deterministic discrete-event simulation of scenario files.

Events are dispatched in (time, insertion sequence) order, so identical
(scenario, seed) pairs replay the exact same event stream and produce
byte-identical reports.  An event is a ``(time, seq, fn, arg)`` heap
entry; dispatch calls ``fn(arg)``, and the handler identifies the kind of
event.

Inside the simulator a cell is a TransitCell: the header bits the model
acts on (VCI, CLP, EFCI, payload type) as plain attributes, beside the
owning flow, entry time and a per-flow sequence number.  Switches rewrite
the VCI in place and queues set the EFCI bit in place; the UNI/NNI header
format is a property of the link.  Cell and CellHeader, with their range
checks and HEC, exist only at codec boundaries (the trace format and the
conformance command), so label ranges are checked when a path is
installed.

Node output ports share one mechanism: a bounded OutputQueue feeding a
single-cell transmitter per link direction (424 bits serialized at the
link rate, then the propagation delay).  Queue occupancy therefore
counts waiting cells, with the cell on the wire "in service".
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .aal5 import Reassembler, ReassemblyError, segment
from .abr import (
    DEFAULT_NRM,
    AbrSourceState,
    EfciObserver,
    FeedbackIndication,
    default_source,
    next_emission,
    source_adjust,
)
from .cell import VCI_MAX, ZERO_PAYLOAD, InterfaceKind
from .errors import OrderingError
from .lane import (
    OP_ARP_REPLY,
    OP_ARP_REQUEST,
    Bus,
    Lec,
    LecPort,
    Les,
    RegistrationConflict,
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
    load_scenario,
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
    TrafficDescriptor,
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

    def __len__(self) -> int:
        return len(self._heap)

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

    The VPI is always 0 on the paths the engine installs, and the header
    format (UNI/NNI) belongs to the link the cell is crossing.
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
    """Cell conservation bookkeeping shared by every traffic class.

    ``tx`` and ``vci`` are the first hop of the flow's path: the output
    port its cells enter and the label they carry on the first link.
    """

    def __init__(self, flow_id: str):
        self.id = flow_id
        self.emitted = 0
        self.delivered = 0
        self.lost = 0
        self.loss_reasons: Dict[str, int] = {}
        self.next_seq = 0
        self.last_delivered_seq = -1
        self.tx: Optional[PortTx] = None
        self.vci = 0

    def take_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def on_lost(self, tc: TransitCell, reason: str, now: float) -> None:
        self.lost += 1
        self.loss_reasons[reason] = self.loss_reasons.get(reason, 0) + 1

    def check_fifo(self, tc: TransitCell) -> None:
        # Cells of one VC must come out in emission order (gaps = losses).
        if tc.seq <= self.last_delivered_seq:
            raise AssertionError(f"per-VC FIFO violated on {self.id}")
        self.last_delivered_seq = tc.seq


class ContractFlow(FlowState):
    """One scenario connection: metrics, generator state, ABR machinery."""

    def __init__(self, spec: ConnectionSpec):
        super().__init__(spec.id)
        self.spec = spec
        self.metrics = ConnectionMetrics()
        self.emitter: Any = None
        self.abr_source: Optional[AbrSourceState] = None
        self.observer: Optional[EfciObserver] = None
        self.feedback: Optional[FeedbackFlow] = None
        self.acr_log: List[Tuple[float, float, bool]] = []

    def on_emitted(self, clp: int) -> None:
        self.emitted += 1
        if clp == 1:
            self.metrics.transmitted_clp1 += 1
        else:
            self.metrics.transmitted_clp0 += 1

    def on_lost(self, tc: TransitCell, reason: str, now: float) -> None:
        super().on_lost(tc, reason, now)
        if tc.clp == 1:
            self.metrics.lost_clp1 += 1
        else:
            self.metrics.lost_clp0 += 1


class FeedbackFlow(FlowState):
    """Backward management cells of one ABR connection."""

    def __init__(self, conn: ContractFlow):
        super().__init__(f"{conn.id}:feedback")
        self.conn = conn


class LaneVcKind(enum.Enum):
    TO_LES = "to_les"
    FROM_LES = "from_les"
    TO_BUS = "to_bus"
    FROM_BUS = "from_bus"
    DATA_DIRECT = "data_direct"


class LaneVc(FlowState):
    """One unidirectional LAN-emulation VC carrying AAL5 frames."""

    def __init__(self, flow_id: str, kind: LaneVcKind):
        super().__init__(flow_id)
        self.kind = kind
        self.reassembler = Reassembler()
        self.on_frame: Callable[[bytes], Any] = lambda frame: None
        self.frames_in = 0
        self.reassembly_errors = 0


class LaneTrafficState:
    """One frame source feeding a LEC."""

    def __init__(self, spec: LaneTrafficSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self.sent = 0

    def draw_size(self) -> int:
        lo, hi = self.spec.frame_bytes
        if lo == hi:
            return lo
        return int(self.rng.integers(lo, hi + 1))


# ---------------------------------------------------------------------------
# topology runtime


class DirectedLink:
    """One direction of a physical link, with its transmit stats."""

    def __init__(
        self,
        src: str,
        src_port: int,
        dst: str,
        dst_port: int,
        bit_rate: float,
        prop: float,
        kind: InterfaceKind,
        booking: LinkBooking,
    ):
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.bit_rate = bit_rate
        self.prop = prop
        self.kind = kind
        self.booking = booking
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


class PortTx:
    """Transmitter for one outgoing link direction: queue + wire.

    ``holding`` is the cell being serialized; the wire is busy exactly
    while it is set.
    """

    def __init__(self, queue: OutputQueue, link: DirectedLink):
        self.queue = queue
        self.link = link
        self.holding: Optional[TransitCell] = None


class NodeRuntime:
    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.ports: Dict[int, PortTx] = {}
        self.neighbor_port: Dict[str, int] = {}
        self.vc_table = VcTable()
        self.routed = 0
        self.unknown_vc = 0
        self.endpoints: Dict[Tuple[int, int, int], Callable[[TransitCell], None]] = {}
        # LAN-emulation roles, when this host has any
        self.lec: Optional[Lec] = None


class LaneRuntime:
    def __init__(self) -> None:
        self.les = Les()
        self.bus = Bus()
        self.lecs: Dict[str, Lec] = {}  # host name -> client
        self.host_by_atm: Dict[bytes, str] = {}
        self.host_by_mac: Dict[bytes, str] = {}
        self.to_les: Dict[str, LaneVc] = {}
        self.from_les: Dict[str, LaneVc] = {}
        self.to_bus: Dict[str, LaneVc] = {}
        self.from_bus: Dict[str, LaneVc] = {}
        self.direct_vcs: List[LaneVc] = []
        self.traffic: List[LaneTrafficState] = []
        # receivers identify frames by (source MAC, sequence), so every
        # traffic entry of one source must draw from the same counter
        self.next_seq: Dict[str, int] = {}
        self.control_decode_errors = 0


class _EnginePort(LecPort):
    """Fabric adapter handed to each LEC."""

    def __init__(self, engine: "Engine", host: str):
        self._engine = engine
        self._host = host

    def now(self) -> float:
        return self._engine.events.now

    def send_arp_request(self, message: bytes) -> None:
        lane = self._engine.lane
        assert lane is not None
        self._engine._send_frame(lane.to_les[self._host], message)

    def send_to_bus(self, frame: bytes) -> None:
        lane = self._engine.lane
        assert lane is not None
        self._engine._send_frame(lane.to_bus[self._host], frame)

    def send_on_vc(self, vc: Any, frame: bytes) -> None:
        self._engine._send_frame(vc, frame)

    def open_data_vc(self, dest_atm: bytes) -> Optional["LaneVc"]:
        return self._engine._open_data_vc(self._host, dest_atm)

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        events = self._engine.events
        events.schedule(events.now + delay, _expire_timer, fn)


def _expire_timer(timer: Callable[[], None]) -> None:
    timer()


# A nominal descriptor for best-effort LAN-emulation VCs: admission books
# nothing for UBR, the peak value is never used for pacing.
_LANE_VC_DESCRIPTOR = TrafficDescriptor(pcr=1.0)


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
        self.directed: Dict[Tuple[str, int], DirectedLink] = {}
        self.links: List[DirectedLink] = []
        self.adjacency: Dict[str, List[str]] = {}
        self.flows: List[FlowState] = []
        self.connections: List[ContractFlow] = []
        self.lane: Optional[LaneRuntime] = None
        self._ran = False
        self._build_topology()
        admission_violations = self._build_connections()
        if admission_violations:
            raise ScenarioInvalid(admission_violations)
        lane_violations = self._build_lane()
        if lane_violations:
            raise ScenarioInvalid(lane_violations)

    # -- construction ------------------------------------------------------

    def _build_topology(self) -> None:
        node_spec = {}
        for spec in self.sc.nodes:
            self.nodes[spec.name] = NodeRuntime(spec.name, spec.kind)
            node_spec[spec.name] = spec
        for spec in self.sc.links:
            kind = (
                InterfaceKind.UNI
                if "host" in (node_spec[spec.a].kind, node_spec[spec.b].kind)
                else InterfaceKind.NNI
            )
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
                    kind,
                    LinkBooking(spec.bit_rate / CELL_BITS, spec.booking_factor),
                )
                ns = node_spec[src]
                queue = OutputQueue(
                    capacity=ns.queue_capacity if ns.queue_capacity is not None else 128,
                    clp_threshold=ns.clp_threshold,
                    efci_threshold=ns.efci_threshold,
                )
                src_node.ports[src_port] = PortTx(queue, link)
                src_node.neighbor_port[dst] = src_port
                self.directed[(src, src_port)] = link
                self.links.append(link)
            self.adjacency.setdefault(spec.a, []).append(spec.b)
            self.adjacency.setdefault(spec.b, []).append(spec.a)

    def _chain(self, route: Sequence[str]) -> List[DirectedLink]:
        chain = []
        for a, b in zip(route, route[1:]):
            port = self.nodes[a].neighbor_port[b]
            chain.append(self.directed[(a, port)])
        return chain

    def _install_path(
        self, flow: FlowState, chain: Sequence[DirectedLink], sink: Callable[[TransitCell], None]
    ) -> None:
        """Allocate one VCI per hop, fill switch tables, bind the sink and
        point the flow at its first hop.

        Refuses, before allocating anything, a path across a link whose
        VCIs are used up, so every label a cell carries fits its header.
        """
        exhausted = [link.name for link in chain if link.next_vci > VCI_MAX]
        if exhausted:
            raise ScenarioInvalid(
                [f"{flow.id}: no VCI left on link {name} (all up to {VCI_MAX} in use)" for name in exhausted]
            )
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
        first = chain[0]
        flow.tx = self.nodes[first.src].ports[first.src_port]
        flow.vci = vcis[0]

    def _build_connections(self) -> List[str]:
        violations: List[str] = []
        generators = {g.id: g for g in self.sc.generators}
        for spec in self.sc.connections:
            flow = ContractFlow(spec)
            chain = self._chain(spec.route)
            if not cac_admit([l.booking for l in chain], spec.category, spec.descriptor):
                violations.append(f"connection {spec.id}: rejected by admission control")
                continue
            self._install_path(flow, chain, self._data_sink)
            if spec.category is ServiceCategory.ABR:
                self._setup_abr(flow)
            flow.emitter = self._make_emitter(flow, generators[spec.generator])
            self.flows.append(flow)
            self.connections.append(flow)
            if flow.feedback is not None:
                self.flows.append(flow.feedback)
        return violations

    def _setup_abr(self, flow: ContractFlow) -> None:
        spec = flow.spec
        over = spec.abr
        kwargs: Dict[str, Any] = {}
        if over is not None:
            if over.air is not None:
                kwargs["air"] = over.air
            if over.rdf is not None:
                kwargs["rdf"] = over.rdf
            if over.initial_acr is not None:
                kwargs["initial_acr"] = over.initial_acr
        mcr = spec.descriptor.mcr if spec.descriptor.mcr is not None else 0.0
        flow.abr_source = default_source(spec.descriptor.pcr, mcr, **kwargs)
        nrm = over.nrm if over is not None and over.nrm is not None else DEFAULT_NRM
        flow.observer = EfciObserver(nrm=nrm)
        flow.feedback = FeedbackFlow(flow)
        back = self._chain(tuple(reversed(spec.route)))
        self._install_path(flow.feedback, back, self._feedback_sink)

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
            try:
                lane.les.register(lec_spec.mac, atm)
            except RegistrationConflict as exc:
                violations.append(f"lane lec {host}: {exc}")
                continue
            lec = Lec(
                mac=lec_spec.mac,
                atm=atm,
                port=_EnginePort(self, host),
                parallel_bus=spec.parallel_bus,
            )
            lane.lecs[host] = lec
            lane.host_by_atm[atm] = host
            lane.host_by_mac[lec_spec.mac] = host
            self.nodes[host].lec = lec

            to_les = self._lane_path(host, spec.les, LaneVcKind.TO_LES)
            to_les.on_frame = partial(self._les_request, host)
            lane.to_les[host] = to_les

            from_les = self._lane_path(spec.les, host, LaneVcKind.FROM_LES)
            from_les.on_frame = partial(self._lec_reply, lec)
            lane.from_les[host] = from_les

            to_bus = self._lane_path(host, spec.bus, LaneVcKind.TO_BUS)
            to_bus.on_frame = partial(lane.bus.forward, origin_atm=atm)
            lane.to_bus[host] = to_bus

            from_bus = self._lane_path(spec.bus, host, LaneVcKind.FROM_BUS)
            from_bus.on_frame = partial(lec.deliver, via_bus=True)
            lane.from_bus[host] = from_bus

            lane.bus.attach(atm, partial(self._send_frame, from_bus))
        for i, traffic in enumerate(spec.traffic):
            rng = rng_stream(self.sc.seed, f"lane:{i}:{traffic.src}")
            lane.traffic.append(LaneTrafficState(traffic, rng))
        return violations

    def _lane_path(self, src: str, dst: str, kind: LaneVcKind) -> LaneVc:
        route = self._bfs_route(src, dst)
        chain = self._chain(route)
        vc = LaneVc(f"lane:{kind.value}:{src}->{dst}", kind)
        cac_admit([l.booking for l in chain], ServiceCategory.UBR, _LANE_VC_DESCRIPTOR)
        self._install_path(vc, chain, self._lane_sink)
        self.flows.append(vc)
        return vc

    def _bfs_route(self, src: str, dst: str) -> List[str]:
        if src == dst:
            raise ScenarioInvalid([f"no route needed from {src} to itself"])
        parent: Dict[str, str] = {src: src}
        frontier = [src]
        while frontier:
            nxt: List[str] = []
            for name in frontier:
                for neighbor in self.adjacency.get(name, ()):
                    if neighbor not in parent:
                        parent[neighbor] = name
                        nxt.append(neighbor)
            frontier = nxt
        if dst not in parent:
            raise ScenarioInvalid([f"no path between {src} and {dst}"])
        route = [dst]
        while route[-1] != src:
            route.append(parent[route[-1]])
        route.reverse()
        return route

    # -- per-flow sinks ------------------------------------------------------

    def _data_sink(self, tc: TransitCell) -> None:
        flow = tc.flow
        now = self.events.now
        flow.check_fifo(tc)
        flow.delivered += 1
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
        feedback.delivered += 1
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
        feedback.emitted += 1
        self._send(feedback.tx, tc)

    def _lane_sink(self, tc: TransitCell) -> None:
        vc = tc.flow
        vc.check_fifo(tc)
        vc.delivered += 1
        result = vc.reassembler.push(tc.payload, tc.aal5_last)
        if result is None:
            return
        if isinstance(result, ReassemblyError):
            vc.reassembly_errors += 1
            return
        vc.frames_in += 1
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

    def _les_request(self, origin_host: str, message: bytes) -> None:
        body = self._control_body(message, OP_ARP_REQUEST)
        if body is None:
            return
        _requester_mac, target_mac = body
        lane = self.lane
        assert lane is not None
        atm = lane.les.resolve(target_mac)
        self._send_frame(lane.from_les[origin_host], encode_arp_reply(target_mac, atm))

    def _lec_reply(self, lec: Lec, message: bytes) -> None:
        body = self._control_body(message, OP_ARP_REPLY)
        if body is not None:
            mac, atm = body
            lec.on_arp_reply(mac, atm)

    def _open_data_vc(self, src_host: str, dest_atm: bytes) -> Optional[LaneVc]:
        """A data-direct VC, or None when admission refuses it or a link
        on the way has no VCI left."""
        lane = self.lane
        assert lane is not None
        dst_host = lane.host_by_atm.get(dest_atm)
        if dst_host is None:
            return None
        route = self._bfs_route(src_host, dst_host)
        chain = self._chain(route)
        bookings = [l.booking for l in chain]
        if not cac_admit(bookings, ServiceCategory.UBR, _LANE_VC_DESCRIPTOR):
            return None
        vc = LaneVc(f"lane:data:{src_host}->{dst_host}", LaneVcKind.DATA_DIRECT)
        try:
            self._install_path(vc, chain, self._lane_sink)
        except ScenarioInvalid:
            for booking in bookings:
                booking.release(ServiceCategory.UBR, _LANE_VC_DESCRIPTOR)
            return None
        vc.on_frame = partial(lane.lecs[dst_host].deliver, via_bus=False)
        self.flows.append(vc)
        lane.direct_vcs.append(vc)
        return vc

    # -- cell movement -------------------------------------------------------

    def _send(self, tx: PortTx, tc: TransitCell) -> None:
        outcome = tx.queue.enqueue(tc, self.events.now)
        if outcome is EnqueueOutcome.ACCEPTED:
            if tx.holding is None:
                self._start(tx)
        else:
            tc.flow.on_lost(tc, outcome.value, self.events.now)

    def _start(self, tx: PortTx) -> None:
        """Put the head of an idle port's queue on the wire."""
        tc = tx.queue.dequeue()
        if tc is None:
            return
        tx.holding = tc
        link = tx.link
        start = self.events.now
        finish = start + link.tx_time
        link.cells += 1
        self._accrue_busy(link, start, finish)
        self.events.schedule(finish, self._complete, tx)

    def _accrue_busy(self, link: DirectedLink, start: float, finish: float) -> None:
        half = self.duration / 2.0
        first = min(finish, half) - min(start, half)
        second = min(finish, self.duration) - max(min(start, self.duration), half)
        if first > 0:
            link.busy_first_half += first
        if second > 0:
            link.busy_second_half += second

    def _complete(self, tx: PortTx) -> None:
        tc = tx.holding
        assert tc is not None
        tx.holding = None
        link = tx.link
        self.events.schedule(self.events.now + link.prop, self._arrive, (link, tc))
        self._start(tx)

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
        tc.flow.on_lost(tc, "unknown_vc", self.events.now)

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
        lane = self.lane
        assert lane is not None
        spec = state.spec
        size = state.draw_size()
        seq = lane.next_seq.get(spec.src, 0)
        lane.next_seq[spec.src] = seq + 1
        payload = seq.to_bytes(8, "big") + bytes(size - 8)
        state.sent += 1
        lane.lecs[spec.src].send(spec.dst_mac, payload)
        if spec.count is not None and state.sent >= spec.count:
            return
        nxt = self.events.now + 1.0 / spec.rate
        if nxt <= self.duration:
            self.events.schedule(nxt, self._lane_fire, state)

    def _send_frame(self, vc: LaneVc, frame: bytes) -> None:
        now = self.events.now
        for payload, last in segment(frame):
            tc = TransitCell(vc, now, vc.take_seq(), vc.vci, aal5_last=last, payload=payload)
            vc.emitted += 1
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
        """Cell conservation: emitted == delivered + lost + in-network."""
        in_network: Dict[str, int] = {}

        def count(flow: FlowState) -> None:
            in_network[flow.id] = in_network.get(flow.id, 0) + 1

        for node in self.nodes.values():
            for tx in node.ports.values():
                if tx.holding is not None:
                    count(tx.holding.flow)
                for tc in tx.queue.pending():
                    count(tc.flow)
        arrive = self._arrive
        for _time, _seq, fn, arg in self.events._heap:
            if fn == arrive:
                count(arg[1].flow)
        for flow in self.flows:
            expected = flow.emitted - flow.delivered - flow.lost
            actual = in_network.get(flow.id, 0)
            if expected != actual:
                raise AssertionError(
                    f"conservation broken on {flow.id}: "
                    f"{flow.emitted} emitted, {flow.delivered} delivered, "
                    f"{flow.lost} lost, {actual} still in the network"
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
                "delay": None
                if stats is None
                else {
                    "count": stats.count,
                    "mean_ctd": stats.mean_ctd,
                    "max_ctd": stats.max_ctd,
                    "cdv_peak_to_peak": stats.cdv_peak_to_peak,
                    "cdv_stddev": stats.cdv_stddev,
                },
            }
            if flow.abr_source is not None:
                feedback = flow.feedback
                assert feedback is not None
                entry["abr"] = {
                    "final_acr": flow.abr_source.acr,
                    "mcr": flow.abr_source.mcr,
                    "pcr": flow.abr_source.pcr,
                    "adjustments": len(flow.acr_log),
                    "feedback_sent": feedback.emitted,
                    "feedback_delivered": feedback.delivered,
                    "feedback_lost": feedback.lost,
                }
                abr_series[flow.id] = list(flow.acr_log)
            connections[flow.id] = entry

        switches = {}
        for node in self.nodes.values():
            if node.kind != "switch":
                continue
            ports = {}
            for index, tx in sorted(node.ports.items()):
                queue = tx.queue
                ports[str(index)] = {
                    "toward": tx.link.dst,
                    "accepted": queue.accepted,
                    "full_drops": queue.full_drops,
                    "clp_drops": queue.clp_drops,
                    "efci_marks": queue.efci_marks,
                }
            switches[node.name] = {
                "routed": node.routed,
                "unknown_vc_drops": node.unknown_vc,
                "full_drops": sum(tx.queue.full_drops for tx in node.ports.values()),
                "clp_drops": sum(tx.queue.clp_drops for tx in node.ports.values()),
                "efci_marks": sum(tx.queue.efci_marks for tx in node.ports.values()),
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
            counters = lec.counters
            lecs[host] = {
                "mac": format_mac(lec.mac),
                "frames_sent": counters.frames_sent,
                "broadcast_sent": counters.broadcast_sent,
                "arp_requests": counters.arp_requests,
                "arp_replies": counters.arp_replies,
                "received_direct": counters.received_direct,
                "received_bus": counters.received_bus,
                "received_broadcast": counters.received_broadcast,
                "filtered": counters.filtered,
                "duplicates": counters.duplicates,
                "pending_dropped": counters.pending_dropped,
                "per_destination": {
                    format_mac(mac): {
                        "sent_direct": stats.sent_direct,
                        "sent_bus": stats.sent_bus,
                        "queued": stats.queued,
                        "dropped_overflow": stats.dropped_overflow,
                        "dropped_timeout": stats.dropped_timeout,
                        "dropped_setup": stats.dropped_setup,
                    }
                    for mac, stats in lec.per_destination.items()
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
