"""Scenario files: the JSON schema, parsing and semantic validation.

A scenario gives the topology (nodes, links), the contracted connections
with their static routes and generators, optional LAN-emulation
membership and traffic, a duration and an RNG seed.  Parsing problems
raise ScenarioError; semantic problems come back from
validate_scenario() as a list of human-readable violations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .abr import DEFAULT_NRM, DEFAULT_RDF, AbrSourceState, EfciObserver, default_source
from .lane import BROADCAST_MAC, atm_address, is_multicast, parse_mac
from .switch import DEFAULT_QUEUE_CAPACITY, OutputQueue
from .traffic import (
    QosRequirement,
    ServiceCategory,
    TrafficDescriptor,
    validate_contract,
)

GENERATOR_KINDS = ("paced_cbr", "on_off_vbr", "greedy_abr", "greedy_ubr")

# Which generator drives which service category.
GENERATOR_FOR_CATEGORY = {
    ServiceCategory.CBR: "paced_cbr",
    ServiceCategory.VBR_RT: "on_off_vbr",
    ServiceCategory.VBR_NRT: "on_off_vbr",
    ServiceCategory.ABR: "greedy_abr",
    ServiceCategory.UBR: "greedy_ubr",
}

MIN_LANE_FRAME_BYTES = 8  # room for the per-source sequence tag
MAX_LANE_FRAME_BYTES = 65000


class ScenarioError(ValueError):
    """A scenario document that cannot be parsed."""


@dataclass(frozen=True)
class NodeSpec:
    name: str
    kind: str  # "host" | "switch"
    queue_capacity: Optional[int] = None
    clp_threshold: Optional[int] = None
    efci_threshold: Optional[int] = None


@dataclass(frozen=True)
class LinkSpec:
    a: str
    b: str
    bit_rate: float
    propagation_delay: float
    booking_factor: float = 1.0


@dataclass(frozen=True)
class GeneratorSpec:
    id: str
    kind: str
    rate: Optional[float] = None  # paced_cbr
    peak_rate: Optional[float] = None  # on_off_vbr
    mean_on_s: Optional[float] = None
    mean_off_s: Optional[float] = None
    cap: Optional[float] = None  # greedy_ubr


@dataclass(frozen=True)
class AbrOverrides:
    """ABR parameters; air and initial_acr left None take default_source's
    values derived from the contract."""

    air: Optional[float] = None
    rdf: float = DEFAULT_RDF
    nrm: int = DEFAULT_NRM
    initial_acr: Optional[float] = None


@dataclass(frozen=True)
class ConnectionSpec:
    id: str
    category: ServiceCategory
    route: Tuple[str, ...]
    generator: str
    descriptor: TrafficDescriptor
    qos: QosRequirement = QosRequirement()
    clp: int = 0
    abr: AbrOverrides = AbrOverrides()


@dataclass(frozen=True)
class LecSpec:
    host: str
    mac: bytes


@dataclass(frozen=True)
class LaneTrafficSpec:
    src: str  # host name of the sending LEC
    dst_mac: bytes  # BROADCAST_MAC for broadcast traffic
    rate: float  # frames per second
    frame_bytes: Tuple[int, int]  # uniform range; lo == hi means fixed
    start: float = 0.0
    count: Optional[int] = None


@dataclass(frozen=True)
class LaneSpec:
    les: str
    bus: str
    lecs: Tuple[LecSpec, ...]
    parallel_bus: bool = False
    traffic: Tuple[LaneTrafficSpec, ...] = ()


@dataclass(frozen=True)
class Scenario:
    duration_s: float
    seed: int
    nodes: Tuple[NodeSpec, ...]
    links: Tuple[LinkSpec, ...]
    connections: Tuple[ConnectionSpec, ...] = ()
    generators: Tuple[GeneratorSpec, ...] = ()
    lane: Optional[LaneSpec] = None


def _expect(obj: Any, kind: type, where: str) -> Any:
    if kind is float:
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            raise ScenarioError(f"{where}: expected a number, got {type(obj).__name__}")
        return float(obj)
    if kind is int:
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise ScenarioError(f"{where}: expected an integer, got {type(obj).__name__}")
        return obj
    if not isinstance(obj, kind):
        raise ScenarioError(f"{where}: expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def _get(mapping: Dict[str, Any], key: str, kind: type, where: str, default: Any = ...) -> Any:
    if key not in mapping:
        if default is ...:
            raise ScenarioError(f"{where}: missing required key {key!r}")
        return default
    value = _expect(mapping[key], kind, f"{where}.{key}")
    if kind is float and not math.isfinite(value):
        raise ScenarioError(f"{where}: {key} must be finite, got {value}")
    return value


def _check_keys(mapping: Dict[str, Any], allowed: Tuple[str, ...], where: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_node(raw: Any, where: str) -> NodeSpec:
    raw = _expect(raw, dict, where)
    _check_keys(raw, ("name", "kind", "queue_capacity", "clp_threshold", "efci_threshold"), where)
    return NodeSpec(
        name=_get(raw, "name", str, where),
        kind=_get(raw, "kind", str, where),
        queue_capacity=_get(raw, "queue_capacity", int, where, None),
        clp_threshold=_get(raw, "clp_threshold", int, where, None),
        efci_threshold=_get(raw, "efci_threshold", int, where, None),
    )


def _parse_link(raw: Any, where: str) -> LinkSpec:
    raw = _expect(raw, dict, where)
    _check_keys(raw, ("a", "b", "bit_rate", "propagation_delay", "booking_factor"), where)
    return LinkSpec(
        a=_get(raw, "a", str, where),
        b=_get(raw, "b", str, where),
        bit_rate=_get(raw, "bit_rate", float, where),
        propagation_delay=_get(raw, "propagation_delay", float, where),
        booking_factor=_get(raw, "booking_factor", float, where, 1.0),
    )


def _parse_generator(raw: Any, where: str) -> GeneratorSpec:
    raw = _expect(raw, dict, where)
    _check_keys(raw, ("id", "kind", "rate", "peak_rate", "mean_on_s", "mean_off_s", "cap"), where)
    return GeneratorSpec(
        id=_get(raw, "id", str, where),
        kind=_get(raw, "kind", str, where),
        rate=_get(raw, "rate", float, where, None),
        peak_rate=_get(raw, "peak_rate", float, where, None),
        mean_on_s=_get(raw, "mean_on_s", float, where, None),
        mean_off_s=_get(raw, "mean_off_s", float, where, None),
        cap=_get(raw, "cap", float, where, None),
    )


def _parse_descriptor(raw: Any, where: str) -> TrafficDescriptor:
    raw = _expect(raw, dict, where)
    _check_keys(raw, ("pcr", "cdvt", "scr", "mbs", "mcr"), where)
    fields = dict(
        pcr=_get(raw, "pcr", float, where),
        cdvt=_get(raw, "cdvt", float, where, None),
        scr=_get(raw, "scr", float, where, None),
        mbs=_get(raw, "mbs", int, where, None),
        mcr=_get(raw, "mcr", float, where, None),
    )
    try:
        return TrafficDescriptor(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_qos(raw: Any, where: str) -> QosRequirement:
    raw = _expect(raw, dict, where)
    keys = ("clr_clp0", "clr_clp1", "max_ctd", "max_cdv")
    _check_keys(raw, keys, where)
    fields = {key: _get(raw, key, float, where, None) for key in keys}
    try:
        return QosRequirement(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_connection(raw: Any, where: str) -> ConnectionSpec:
    raw = _expect(raw, dict, where)
    _check_keys(
        raw, ("id", "category", "route", "generator", "descriptor", "qos", "clp", "abr"), where
    )
    name = _get(raw, "category", str, where)
    try:
        category = ServiceCategory[name.upper()]
    except KeyError:
        raise ScenarioError(f"{where}.category: unknown service category {name!r}") from None
    route_raw = _expect(raw.get("route"), list, f"{where}.route")
    route = tuple(_expect(n, str, f"{where}.route[{i}]") for i, n in enumerate(route_raw))
    if "abr" in raw and category is not ServiceCategory.ABR:
        raise ScenarioError(
            f"{where}.abr: only ABR connections take abr parameters, not {category.name}"
        )
    abr_raw = _expect(raw.get("abr", {}), dict, f"{where}.abr")
    _check_keys(abr_raw, ("air", "rdf", "nrm", "initial_acr"), f"{where}.abr")
    abr = AbrOverrides(
        air=_get(abr_raw, "air", float, f"{where}.abr", None),
        rdf=_get(abr_raw, "rdf", float, f"{where}.abr", DEFAULT_RDF),
        nrm=_get(abr_raw, "nrm", int, f"{where}.abr", DEFAULT_NRM),
        initial_acr=_get(abr_raw, "initial_acr", float, f"{where}.abr", None),
    )
    return ConnectionSpec(
        id=_get(raw, "id", str, where),
        category=category,
        route=route,
        generator=_get(raw, "generator", str, where),
        descriptor=_parse_descriptor(raw.get("descriptor", {}), f"{where}.descriptor"),
        qos=_parse_qos(raw.get("qos", {}), f"{where}.qos"),
        clp=_get(raw, "clp", int, where, 0),
        abr=abr,
    )


def _parse_mac_field(text: str, where: str) -> bytes:
    try:
        return parse_mac(text)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _parse_lane(raw: Any, where: str) -> LaneSpec:
    raw = _expect(raw, dict, where)
    _check_keys(raw, ("les", "bus", "lecs", "parallel_bus", "traffic"), where)
    lecs_raw = _expect(raw.get("lecs", []), list, f"{where}.lecs")
    lecs = []
    for i, entry in enumerate(lecs_raw):
        entry = _expect(entry, dict, f"{where}.lecs[{i}]")
        _check_keys(entry, ("host", "mac"), f"{where}.lecs[{i}]")
        lecs.append(
            LecSpec(
                host=_get(entry, "host", str, f"{where}.lecs[{i}]"),
                mac=_parse_mac_field(
                    _get(entry, "mac", str, f"{where}.lecs[{i}]"), f"{where}.lecs[{i}].mac"
                ),
            )
        )
    traffic_raw = _expect(raw.get("traffic", []), list, f"{where}.traffic")
    traffic = []
    for i, entry in enumerate(traffic_raw):
        w = f"{where}.traffic[{i}]"
        entry = _expect(entry, dict, w)
        _check_keys(entry, ("src", "dst", "rate", "frame_bytes", "start", "count"), w)
        dst_text = _get(entry, "dst", str, w)
        dst_mac = BROADCAST_MAC if dst_text == "broadcast" else _parse_mac_field(dst_text, f"{w}.dst")
        fb = entry.get("frame_bytes")
        if isinstance(fb, list):
            if len(fb) != 2:
                raise ScenarioError(f"{w}.frame_bytes: a range needs exactly [lo, hi]")
            lo = _expect(fb[0], int, f"{w}.frame_bytes[0]")
            hi = _expect(fb[1], int, f"{w}.frame_bytes[1]")
        else:
            lo = hi = _expect(fb, int, f"{w}.frame_bytes")
        traffic.append(
            LaneTrafficSpec(
                src=_get(entry, "src", str, w),
                dst_mac=dst_mac,
                rate=_get(entry, "rate", float, w),
                frame_bytes=(lo, hi),
                start=_get(entry, "start", float, w, 0.0),
                count=_get(entry, "count", int, w, None),
            )
        )
    return LaneSpec(
        les=_get(raw, "les", str, where),
        bus=_get(raw, "bus", str, where),
        lecs=tuple(lecs),
        parallel_bus=_get(raw, "parallel_bus", bool, where, False),
        traffic=tuple(traffic),
    )


def load_scenario(source: Union[str, Path, Dict[str, Any]]) -> Scenario:
    """Load a scenario from a JSON file path or an already-parsed dict."""
    if isinstance(source, dict):
        raw = source
    else:
        text = Path(source).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from None
    raw = _expect(raw, dict, "scenario")
    _check_keys(
        raw,
        ("duration_s", "seed", "nodes", "links", "connections", "generators", "lane"),
        "scenario",
    )
    nodes = tuple(
        _parse_node(n, f"nodes[{i}]")
        for i, n in enumerate(_expect(raw.get("nodes", []), list, "nodes"))
    )
    links = tuple(
        _parse_link(l, f"links[{i}]")
        for i, l in enumerate(_expect(raw.get("links", []), list, "links"))
    )
    generators = tuple(
        _parse_generator(g, f"generators[{i}]")
        for i, g in enumerate(_expect(raw.get("generators", []), list, "generators"))
    )
    connections = tuple(
        _parse_connection(c, f"connections[{i}]")
        for i, c in enumerate(_expect(raw.get("connections", []), list, "connections"))
    )
    lane = _parse_lane(raw["lane"], "lane") if raw.get("lane") is not None else None
    return Scenario(
        duration_s=_get(raw, "duration_s", float, "scenario"),
        seed=_get(raw, "seed", int, "scenario", 0),
        nodes=nodes,
        links=links,
        connections=connections,
        generators=generators,
        lane=lane,
    )


# Components a spec configures.  The engine runs with these, and
# validate_scenario builds them once so that their own range checks come
# back as violations.


def output_queue(node: NodeSpec) -> OutputQueue:
    """The queue behind each output port of ``node``."""
    capacity = node.queue_capacity if node.queue_capacity is not None else DEFAULT_QUEUE_CAPACITY
    return OutputQueue(capacity, node.clp_threshold, node.efci_threshold)


def abr_source(conn: ConnectionSpec) -> AbrSourceState:
    mcr = conn.descriptor.mcr if conn.descriptor.mcr is not None else 0.0
    abr = conn.abr
    return default_source(conn.descriptor.pcr, mcr, abr.air, abr.rdf, abr.initial_acr)


def abr_observer(conn: ConnectionSpec) -> EfciObserver:
    return EfciObserver(nrm=conn.abr.nrm)


def validate_scenario(sc: Scenario) -> List[str]:
    """Semantic preflight; returns all violations found (empty = good)."""
    v: List[str] = []
    if sc.duration_s <= 0:
        v.append("duration_s must be positive")
    if sc.seed < 0:
        v.append("seed must be >= 0")

    nodes: Dict[str, NodeSpec] = {}
    for node in sc.nodes:
        if node.kind not in ("host", "switch"):
            v.append(f"node {node.name}: unknown kind {node.kind!r}")
        if node.name in nodes:
            v.append(f"node {node.name}: duplicate name")
        nodes[node.name] = node
        if node.queue_capacity is not None and node.queue_capacity < 1:
            v.append(f"node {node.name}: queue_capacity must be >= 1")
        else:
            v.extend(_construction_errors(f"node {node.name}", output_queue, node))

    adjacency: Dict[str, List[str]] = {}
    seen_pairs = set()
    for link in sc.links:
        for end in (link.a, link.b):
            if end not in nodes:
                v.append(f"link {link.a}--{link.b}: unknown node {end}")
        if link.a == link.b:
            v.append(f"link {link.a}--{link.b}: endpoints must differ")
        pair = frozenset((link.a, link.b))
        if pair in seen_pairs:
            v.append(f"link {link.a}--{link.b}: duplicate link")
        seen_pairs.add(pair)
        if link.bit_rate <= 0:
            v.append(f"link {link.a}--{link.b}: bit_rate must be positive")
        if link.propagation_delay < 0:
            v.append(f"link {link.a}--{link.b}: propagation_delay must be >= 0")
        if link.booking_factor <= 0:
            v.append(f"link {link.a}--{link.b}: booking_factor must be positive")
        adjacency.setdefault(link.a, []).append(link.b)
        adjacency.setdefault(link.b, []).append(link.a)

    generators: Dict[str, GeneratorSpec] = {}
    for gen in sc.generators:
        if gen.id in generators:
            v.append(f"generator {gen.id}: duplicate id")
        generators[gen.id] = gen
        if gen.kind not in GENERATOR_KINDS:
            v.append(f"generator {gen.id}: unknown kind {gen.kind!r}")
            continue
        if gen.kind == "paced_cbr" and (gen.rate is None or gen.rate <= 0):
            v.append(f"generator {gen.id}: paced_cbr needs a positive rate")
        if gen.kind == "on_off_vbr":
            if gen.peak_rate is None or gen.peak_rate <= 0:
                v.append(f"generator {gen.id}: on_off_vbr needs a positive peak_rate")
            if gen.mean_on_s is None or gen.mean_on_s <= 0:
                v.append(f"generator {gen.id}: on_off_vbr needs a positive mean_on_s")
            if gen.mean_off_s is None or gen.mean_off_s < 0:
                v.append(f"generator {gen.id}: on_off_vbr needs mean_off_s >= 0")
        if gen.kind == "greedy_ubr" and (gen.cap is None or gen.cap <= 0):
            v.append(f"generator {gen.id}: greedy_ubr needs a positive cap")

    conn_ids = set()
    for conn in sc.connections:
        cid = conn.id
        if cid in conn_ids:
            v.append(f"connection {cid}: duplicate id")
        conn_ids.add(cid)
        if conn.clp not in (0, 1):
            v.append(f"connection {cid}: clp must be 0 or 1")
        if len(conn.route) < 2:
            v.append(f"connection {cid}: route needs at least two nodes")
        else:
            for name in conn.route:
                if name not in nodes:
                    v.append(f"connection {cid}: unknown route node {name}")
            if all(name in nodes for name in conn.route):
                for end in (conn.route[0], conn.route[-1]):
                    if nodes[end].kind != "host":
                        v.append(f"connection {cid}: route endpoint {end} must be a host")
                for mid in conn.route[1:-1]:
                    if nodes[mid].kind != "switch":
                        v.append(f"connection {cid}: intermediate node {mid} must be a switch")
                for a, b in zip(conn.route, conn.route[1:]):
                    if b not in adjacency.get(a, ()):
                        v.append(f"connection {cid}: no link between {a} and {b}")
                if len(set(conn.route)) != len(conn.route):
                    v.append(f"connection {cid}: route visits a node twice")
        gen = generators.get(conn.generator)
        if gen is None:
            v.append(f"connection {cid}: unknown generator {conn.generator}")
        elif gen.kind in GENERATOR_KINDS:
            wanted = GENERATOR_FOR_CATEGORY[conn.category]
            if gen.kind != wanted:
                v.append(
                    f"connection {cid}: category {conn.category.name} needs a "
                    f"{wanted} generator, got {gen.kind}"
                )
            peak = {"paced_cbr": gen.rate, "on_off_vbr": gen.peak_rate, "greedy_ubr": gen.cap}.get(
                gen.kind
            )
            if peak is not None and peak > conn.descriptor.pcr:
                v.append(f"connection {cid}: generator exceeds the declared pcr")
        for violation in validate_contract(conn.category, conn.descriptor, conn.qos):
            v.append(f"connection {cid}: {violation}")
        if conn.category is ServiceCategory.ABR:
            for component in (abr_source, abr_observer):
                v.extend(_construction_errors(f"connection {cid}", component, conn))

    if sc.lane is not None:
        v.extend(_validate_lane(sc, nodes, adjacency))
    return v


def _construction_errors(where: str, build: Callable[[Any], Any], spec: Any) -> List[str]:
    """The ValueError a component raises for ``spec``, as a violation."""
    try:
        build(spec)
    except ValueError as exc:
        return [f"{where}: {exc}"]
    return []


def switch_route(
    adjacency: Mapping[str, Iterable[str]], switches: AbstractSet[str], src: str, dst: str
) -> Optional[List[str]]:
    """The route of a LANE VC from host ``src`` to ``dst``: the shortest
    path whose inner nodes are all switches (a host never forwards a VC),
    ties going to the neighbour listed first in link order.  None when
    there is no such path."""
    parent = {src: src}
    frontier = [src]
    while frontier and dst not in parent:
        nxt: List[str] = []
        for name in frontier:
            for neighbor in adjacency.get(name, ()):
                if neighbor not in parent:
                    parent[neighbor] = name
                    if neighbor in switches:
                        nxt.append(neighbor)
        frontier = nxt
    if dst not in parent:
        return None
    route = [dst]
    while route[-1] != src:
        route.append(parent[route[-1]])
    route.reverse()
    return route


def _validate_lane(
    sc: Scenario, nodes: Dict[str, NodeSpec], adjacency: Dict[str, List[str]]
) -> List[str]:
    v: List[str] = []
    lane = sc.lane
    assert lane is not None
    switches = {name for name, node in nodes.items() if node.kind == "switch"}

    def unreachable(src: str, dst: str) -> bool:
        hosts_known = all(n in nodes and nodes[n].kind == "host" for n in (src, dst))
        return hosts_known and switch_route(adjacency, switches, src, dst) is None

    for role, name in (("les", lane.les), ("bus", lane.bus)):
        if name not in nodes:
            v.append(f"lane.{role}: unknown node {name}")
        elif nodes[name].kind != "host":
            v.append(f"lane.{role}: node {name} must be a host")
    host_of: Dict[bytes, str] = {}
    hosts = set()
    for lec in lane.lecs:
        if lec.host not in nodes:
            v.append(f"lane lec {lec.host}: unknown node")
        elif nodes[lec.host].kind != "host":
            v.append(f"lane lec {lec.host}: must be a host")
        if lec.host in hosts:
            v.append(f"lane lec {lec.host}: one LEC per host")
        hosts.add(lec.host)
        if lec.mac in host_of:
            v.append(f"lane lec {lec.host}: duplicate MAC")
        host_of[lec.mac] = lec.host
        if is_multicast(lec.mac):
            v.append(f"lane lec {lec.host}: MAC must be an individual address")
        if lec.host in (lane.les, lane.bus):
            v.append(f"lane lec {lec.host}: LEC host cannot also run the LES/BUS")
        v.extend(_construction_errors(f"lane lec {lec.host}", atm_address, lec.host))
        for server in dict.fromkeys((lane.les, lane.bus)):
            if unreachable(lec.host, server):
                v.append(f"lane lec {lec.host}: no route to {server} through switches only")
    for i, flow in enumerate(lane.traffic):
        w = f"lane.traffic[{i}]"
        if flow.src not in hosts:
            v.append(f"{w}: src {flow.src} has no LEC")
        if flow.dst_mac != BROADCAST_MAC:
            dst = host_of.get(flow.dst_mac)
            if dst is None:
                v.append(f"{w}: dst MAC is not a member LEC")
            elif dst == flow.src:
                v.append(f"{w}: dst MAC is the MAC of its own src {flow.src}")
            elif flow.src in hosts and unreachable(flow.src, dst):
                v.append(f"{w}: no route from {flow.src} to {dst} through switches only")
        if flow.rate <= 0:
            v.append(f"{w}: rate must be positive")
        lo, hi = flow.frame_bytes
        if not MIN_LANE_FRAME_BYTES <= lo <= hi <= MAX_LANE_FRAME_BYTES:
            v.append(
                f"{w}: frame_bytes must satisfy "
                f"{MIN_LANE_FRAME_BYTES} <= lo <= hi <= {MAX_LANE_FRAME_BYTES}"
            )
        if flow.start < 0:
            v.append(f"{w}: start must be >= 0")
        if flow.count is not None and flow.count < 1:
            v.append(f"{w}: count must be >= 1")
    return v
