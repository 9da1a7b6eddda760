"""Scenario files: the JSON schema, parsing and semantic validation.

A scenario gives the topology (nodes, links), the contracted connections
with their static routes and generators, optional LAN-emulation
membership and traffic, a duration and an RNG seed.  The frozen spec
dataclasses below are the schema: each JSON key is one field, read with
that field's type and default by one reader, ``_record``.  Parsing
problems raise ScenarioError; semantic problems come back from
validate_scenario() as a list of human-readable violations.
"""

import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import AbstractSet, Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional
from typing import Tuple, Union, get_args, get_origin, get_type_hints

from .abr import DEFAULT_NRM, DEFAULT_RDF, AbrSourceState, EfciObserver, default_source
from .cell import CELL_BITS
from .lane import BROADCAST_MAC, atm_address, is_multicast, parse_mac
from .switch import DEFAULT_QUEUE_CAPACITY, LinkBooking, OutputQueue
from .traffic import QosRequirement, ServiceCategory, TrafficDescriptor, validate_contract

GENERATOR_KINDS = ("paced_cbr", "on_off_vbr", "greedy_abr", "greedy_ubr")

# The field holding the cells/s a generator kind paces its source at.  A
# greedy_abr source has none: it is paced at its allowed cell rate.
RATE_FIELD = {"paced_cbr": "rate", "on_off_vbr": "peak_rate", "greedy_ubr": "cap"}

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


def _expect(obj: Any, kind: type, where: str) -> Any:
    if kind is float or kind is int:
        noun, types = ("a number", (int, float)) if kind is float else ("an integer", int)
        if not isinstance(obj, types) or isinstance(obj, bool):
            raise ScenarioError(f"{where}: expected {noun}, got {type(obj).__name__}")
        # JSON integers are unbounded; every number here must fit a float
        try:
            as_float = float(obj)
        except OverflowError:
            raise ScenarioError(f"{where}: integer beyond the float range") from None
        return as_float if kind is float else obj
    if not isinstance(obj, kind):
        raise ScenarioError(f"{where}: expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def _category(raw: Any, where: str) -> ServiceCategory:
    name = _expect(raw, str, where)
    try:
        return ServiceCategory[name.upper()]
    except KeyError:
        raise ScenarioError(f"{where}: unknown service category {name!r}") from None


def _mac(raw: Any, where: str) -> bytes:
    text = _expect(raw, str, where)
    try:
        return parse_mac(text)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _dst_mac(raw: Any, where: str) -> bytes:
    return BROADCAST_MAC if raw == "broadcast" else _mac(raw, where)


def _frame_bytes(raw: Any, where: str) -> Tuple[int, int]:
    if not isinstance(raw, list):
        size = _expect(raw, int, where)
        return (size, size)
    if len(raw) != 2:
        raise ScenarioError(f"{where}: a range needs exactly [lo, hi]")
    return (_expect(raw[0], int, f"{where}[0]"), _expect(raw[1], int, f"{where}[1]"))


def _json(read: Callable[[Any, str], Any], key: Optional[str] = None) -> Any:
    """A required field whose JSON value is not of its type, so
    ``read(value, where)`` converts it; from JSON key ``key`` if given."""
    return field(metadata={"read": read, "key": key})


@dataclass(frozen=True, kw_only=True)
class NodeSpec:
    name: str
    kind: str  # "host" | "switch"
    queue_capacity: Optional[int] = None
    clp_threshold: Optional[int] = None
    efci_threshold: Optional[int] = None


@dataclass(frozen=True, kw_only=True)
class LinkSpec:
    a: str
    b: str
    bit_rate: float
    propagation_delay: float
    booking_factor: float = 1.0


@dataclass(frozen=True, kw_only=True)
class GeneratorSpec:
    id: str
    kind: str
    rate: Optional[float] = None  # paced_cbr
    peak_rate: Optional[float] = None  # on_off_vbr
    mean_on_s: Optional[float] = None
    mean_off_s: Optional[float] = None
    cap: Optional[float] = None  # greedy_ubr


@dataclass(frozen=True, kw_only=True)
class AbrOverrides:
    """ABR parameters; air and initial_acr left None take default_source's
    values derived from the contract."""

    air: Optional[float] = None
    rdf: float = DEFAULT_RDF
    nrm: int = DEFAULT_NRM
    initial_acr: Optional[float] = None


@dataclass(frozen=True, kw_only=True)
class ConnectionSpec:
    id: str
    category: ServiceCategory = _json(_category)
    route: Tuple[str, ...]
    generator: str
    descriptor: TrafficDescriptor
    qos: QosRequirement = QosRequirement()
    clp: int = 0
    abr: AbrOverrides = AbrOverrides()  # ABR connections only


@dataclass(frozen=True, kw_only=True)
class LecSpec:
    host: str
    mac: bytes = _json(_mac)


@dataclass(frozen=True, kw_only=True)
class LaneTrafficSpec:
    src: str  # host name of the sending LEC
    dst_mac: bytes = _json(_dst_mac, key="dst")  # BROADCAST_MAC for "broadcast"
    rate: float  # frames per second
    frame_bytes: Tuple[int, int] = _json(_frame_bytes)  # lo == hi means fixed
    start: float = 0.0
    count: Optional[int] = None


@dataclass(frozen=True, kw_only=True)
class LaneSpec:
    les: str
    bus: str
    lecs: Tuple[LecSpec, ...] = ()
    parallel_bus: bool = False
    traffic: Tuple[LaneTrafficSpec, ...] = ()


@dataclass(frozen=True, kw_only=True)
class Scenario:
    duration_s: float
    seed: int = 0
    nodes: Tuple[NodeSpec, ...] = ()
    links: Tuple[LinkSpec, ...] = ()
    connections: Tuple[ConnectionSpec, ...] = ()
    generators: Tuple[GeneratorSpec, ...] = ()
    lane: Optional[LaneSpec] = None  # null reads as absent


class _Key(NamedTuple):
    """How ``_record`` reads one JSON key, taken from a dataclass field."""

    name: str  # the field's name
    read: Callable[[Any, str], Any]  # (value, where) -> field value
    required: bool
    finite: bool  # a number, so NaN and infinities are refused
    null_absent: bool  # an optional record: null means the key is absent
    bare: bool  # a list or record of the top level, named by its key alone


def _reader(kind: Any) -> Callable[[Any, str], Any]:
    if is_dataclass(kind):
        return functools.partial(_record, kind)
    if get_origin(kind) is tuple:  # Tuple[X, ...]
        item = _reader(get_args(kind)[0])
        return lambda raw, where: tuple(
            item(x, f"{where}[{i}]") for i, x in enumerate(_expect(raw, list, where))
        )
    return lambda raw, where: _expect(raw, kind, where)


@functools.cache
def _keys(cls: type) -> Dict[str, _Key]:
    """The JSON keys of spec dataclass ``cls``, in field order."""
    hints = get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        kind = hints[f.name]
        optional = get_origin(kind) is Union
        if optional:
            kind = get_args(kind)[0]  # Optional[X] is Union[X, None]
        keys[f.metadata.get("key") or f.name] = _Key(
            name=f.name,
            read=f.metadata.get("read") or _reader(kind),
            required=f.default is MISSING and f.default_factory is MISSING,
            finite=kind is float,
            null_absent=optional and is_dataclass(kind),
            bare=cls is Scenario and kind not in (str, int, float, bool),
        )
    return keys


def _record(cls: type, raw: Any, where: str) -> Any:
    """Read the JSON object ``raw``, found at ``where``, as a ``cls``."""
    raw = _expect(raw, dict, where)
    keys = _keys(cls)
    unknown = raw.keys() - keys.keys()
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    values: Dict[str, Any] = {}
    for key, spec in keys.items():
        value = raw.get(key)
        if value is None and (spec.null_absent or key not in raw):
            if spec.required:
                raise ScenarioError(f"{where}: missing required key {key!r}")
            continue
        if key == "abr" and values["category"] is not ServiceCategory.ABR:
            # a ConnectionSpec's abr follows its category
            raise ScenarioError(
                f"{where}.abr: only ABR connections take abr parameters, "
                f"not {values['category'].name}"
            )
        value = spec.read(value, key if spec.bare else f"{where}.{key}")
        if spec.finite and not math.isfinite(value):
            raise ScenarioError(f"{where}: {key} must be finite, got {value}")
        values[spec.name] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def load_scenario(source: Union[str, Path, Dict[str, Any]]) -> Scenario:
    """Load a scenario from a JSON file path or an already-parsed dict."""
    if isinstance(source, dict):
        raw = source
    else:
        text = Path(source).read_text()
        try:
            raw = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
            raise ScenarioError(f"not valid JSON: {exc}") from None
    return _record(Scenario, raw, "scenario")


# Components a spec configures.  The engine runs with these, and
# validate_scenario builds them once so that their own range checks come
# back as violations.


def output_queue(node: NodeSpec) -> OutputQueue:
    """The queue behind each output port of ``node``."""
    capacity = node.queue_capacity if node.queue_capacity is not None else DEFAULT_QUEUE_CAPACITY
    return OutputQueue(capacity, node.clp_threshold, node.efci_threshold)


def link_booking(link: LinkSpec) -> LinkBooking:
    """The bandwidth ledger of each direction of ``link``."""
    return LinkBooking(link.bit_rate / CELL_BITS, link.booking_factor)


def emission_rate(gen: GeneratorSpec) -> Optional[float]:
    """The cells/s ``gen`` paces its source at; None for greedy_abr."""
    name = RATE_FIELD.get(gen.kind)
    return None if name is None else getattr(gen, name)


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

    adjacency: Dict[str, Dict[str, float]] = {}  # node -> neighbour -> link cells/s
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
        elif link.bit_rate > 0:
            v.extend(_construction_errors(f"link {link.a}--{link.b}", link_booking, link))
        adjacency.setdefault(link.a, {})[link.b] = link.bit_rate / CELL_BITS
        adjacency.setdefault(link.b, {})[link.a] = link.bit_rate / CELL_BITS

    generators: Dict[str, GeneratorSpec] = {}
    for gen in sc.generators:
        if gen.id in generators:
            v.append(f"generator {gen.id}: duplicate id")
        generators[gen.id] = gen
        if gen.kind not in GENERATOR_KINDS:
            v.append(f"generator {gen.id}: unknown kind {gen.kind!r}")
            continue
        rate = emission_rate(gen)
        if gen.kind in RATE_FIELD and (rate is None or rate <= 0):
            v.append(f"generator {gen.id}: {gen.kind} needs a positive {RATE_FIELD[gen.kind]}")
        if gen.kind == "on_off_vbr":
            if gen.mean_on_s is None or gen.mean_on_s <= 0:
                v.append(f"generator {gen.id}: on_off_vbr needs a positive mean_on_s")
            elif rate is not None and rate > 0 and gen.mean_on_s < 1.0 / rate:
                v.append(f"generator {gen.id}: on_off_vbr needs mean_on_s >= 1/peak_rate")
            if gen.mean_off_s is None or gen.mean_off_s < 0:
                v.append(f"generator {gen.id}: on_off_vbr needs mean_off_s >= 0")

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
            peak = emission_rate(gen)
            if peak is not None and peak > conn.descriptor.pcr:
                v.append(f"connection {cid}: generator exceeds the declared pcr")
            # a source faster than its first link makes a run without end, and
            # so does one whose spacing rounds away (now + 1/rate == now)
            # before the end
            sends = conn.descriptor.pcr if gen.kind == "greedy_abr" else peak
            link = conn.route[:2]
            link_rate = adjacency.get(link[0], {}).get(link[1]) if len(link) == 2 else None
            if sends is not None and link_rate is not None and sends > link_rate:
                v.append(
                    f"connection {cid}: sends up to {sends:g} cells/s, above the "
                    f"{link_rate:g} cells/s of link {link[0]}--{link[1]}"
                )
            elif sends is not None and sends > 0 and sc.duration_s + 1.0 / sends == sc.duration_s:
                v.append(
                    f"connection {cid}: at {sends:g} cells/s the clock stops advancing "
                    f"before duration_s {sc.duration_s:g}"
                )
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
    sc: Scenario, nodes: Dict[str, NodeSpec], adjacency: Dict[str, Dict[str, float]]
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
        # frames come one cell or more each, so none can outrun every link
        fastest = max(adjacency.get(flow.src, {}).values(), default=None)
        if fastest is not None and flow.rate > fastest:
            v.append(
                f"{w}: sends {flow.rate:g} frames/s, above the {fastest:g} cells/s "
                f"of the fastest link of {flow.src}"
            )
        elif flow.rate > 0 and sc.duration_s + 1.0 / flow.rate == sc.duration_s:
            v.append(
                f"{w}: at {flow.rate:g} frames/s the clock stops advancing "
                f"before duration_s {sc.duration_s:g}"
            )
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
