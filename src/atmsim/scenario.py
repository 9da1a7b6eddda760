"""Scenario files: the JSON schema, parsing and semantic validation.

A scenario gives the topology (nodes, links), the contracted connections
with their static routes and generators, optional LAN-emulation
membership and traffic, a duration and an RNG seed.  ``_SCHEMA`` gives
each spec record's JSON keys, one per field in field order, with their
readers, and ``_record`` reads through it: a key is required when its
field has no default, and a number must be finite.  Parsing problems
raise ScenarioError; semantic problems come back from validate_scenario()
as a list of human-readable violations.

``atmsim.lane``, whose MAC and address helpers read and check the
``lane`` section, loads with the first scenario that has one: a
scenario without it loads and validates without LAN emulation.
"""

from __future__ import annotations

import json
import math
from functools import partial
from os import PathLike
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .abr import DEFAULT_NRM, DEFAULT_RDF, AbrSourceState, EfciObserver
from .record import Record, new_tuple
from .switch import DEFAULT_QUEUE_CAPACITY, LinkBooking, OutputQueue
from .traffic import QosRequirement, ServiceCategory, TrafficDescriptor, validate_contract
from .wire import CELL_BITS

# The GeneratorSpec fields each generator kind reads, first the cells/s
# it paces its source at.  A greedy_abr source reads none: it is paced at
# its allowed cell rate.
GENERATOR_FIELDS = {
    "paced_cbr": ("rate",),
    "on_off_vbr": ("peak_rate", "mean_on_s", "mean_off_s"),
    "greedy_abr": (),
    "greedy_ubr": ("cap",),
}

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


class NodeSpec(Record):
    __slots__ = ()

    def __new__(cls, name, kind, queue_capacity=None, clp_threshold=None, efci_threshold=None):
        return new_tuple(cls, (name, kind, queue_capacity, clp_threshold, efci_threshold))


class LinkSpec(Record):
    __slots__ = ()

    def __new__(cls, a, b, bit_rate, propagation_delay, booking_factor=1.0):
        return new_tuple(cls, (a, b, bit_rate, propagation_delay, booking_factor))


class GeneratorSpec(Record):
    __slots__ = ()

    def __new__(
        cls, id, kind, rate=None, peak_rate=None, mean_on_s=None, mean_off_s=None, cap=None
    ):
        return new_tuple(cls, (id, kind, rate, peak_rate, mean_on_s, mean_off_s, cap))


class AbrOverrides(Record):
    """ABR parameters; air and initial_acr left None take AbrSourceState's
    stock values derived from the contract."""

    __slots__ = ()

    def __new__(cls, air=None, rdf=DEFAULT_RDF, nrm=DEFAULT_NRM, initial_acr=None):
        return new_tuple(cls, (air, rdf, nrm, initial_acr))


_NO_QOS, _NO_ABR = QosRequirement(), AbrOverrides()  # ConnectionSpec's defaults


class ConnectionSpec(Record):
    __slots__ = ()

    def __new__(cls, id, category, route, generator, descriptor, qos=_NO_QOS, clp=0, abr=_NO_ABR):
        return new_tuple(cls, (id, category, route, generator, descriptor, qos, clp, abr))


class LecSpec(Record):
    __slots__ = ()

    def __new__(cls, host, mac):
        return new_tuple(cls, (host, mac))


class LaneTrafficSpec(Record):
    __slots__ = ()

    def __new__(cls, src, dst_mac, rate, frame_bytes, start=0.0, count=None):
        return new_tuple(cls, (src, dst_mac, rate, frame_bytes, start, count))


class LaneSpec(Record):
    __slots__ = ()

    def __new__(cls, les, bus, lecs=(), traffic=()):
        return new_tuple(cls, (les, bus, lecs, traffic))


class Scenario(Record):
    __slots__ = ()

    def __new__(
        cls, duration_s, seed=0, nodes=(), links=(), connections=(), generators=(), lane=None
    ):
        return new_tuple(cls, (duration_s, seed, nodes, links, connections, generators, lane))


if TYPE_CHECKING:
    Reader = Callable[[Any, str], Any]  # (JSON value, where it was found) -> field value


def _expect(kind: type, obj: Any, where: str) -> Any:
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
    if kind is str and not obj.isascii():
        try:
            obj.encode("utf-8")
        except UnicodeEncodeError:  # a \ud800-style escape: no file or terminal takes it
            raise ScenarioError(f"{where}: string contains a lone surrogate") from None
    return obj


_str, _int, _number = (partial(_expect, kind) for kind in (str, int, float))


def _category(raw: Any, where: str) -> ServiceCategory:
    name = _str(raw, where)
    try:
        return ServiceCategory[name.upper()]
    except KeyError:
        raise ScenarioError(f"{where}: unknown service category {name!r}") from None


def _mac(raw: Any, where: str) -> bytes:
    from .lane import parse_mac

    text = _str(raw, where)
    try:
        return parse_mac(text)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _dst_mac(raw: Any, where: str) -> bytes:
    from .lane import BROADCAST_MAC

    return BROADCAST_MAC if raw == "broadcast" else _mac(raw, where)


def _frame_bytes(raw: Any, where: str) -> Tuple[int, int]:
    if not isinstance(raw, list):
        return (_int(raw, where),) * 2
    if len(raw) != 2:
        raise ScenarioError(f"{where}: a range needs exactly [lo, hi]")
    return (_int(raw[0], f"{where}[0]"), _int(raw[1], f"{where}[1]"))


def _tuple_of(read: Reader) -> Reader:
    return lambda raw, where: tuple(
        read(x, f"{where}[{i}]") for i, x in enumerate(_expect(list, raw, where))
    )


def _top(read: Reader, nullable: bool = False) -> Reader:
    """``read`` at the top level, named by its key alone; null as None if ``nullable``."""
    return lambda raw, where: None if nullable and raw is None else read(raw, where.split(".")[-1])


def _record(cls: type, raw: Any, where: str) -> Any:
    """Read the JSON object ``raw``, found at ``where``, as a ``cls``."""
    raw = _expect(dict, raw, where)
    keys = _SCHEMA[cls]
    unknown = raw.keys() - keys.keys()
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    values: Dict[str, Any] = {}
    for field, (key, read) in zip(cls._fields, keys.items()):
        if key not in raw:
            if field not in cls._field_defaults:
                raise ScenarioError(f"{where}: missing required key {key!r}")
            continue
        if key == "abr" and values["category"] is not ServiceCategory.ABR:
            # a ConnectionSpec's abr follows its category
            raise ScenarioError(
                f"{where}.abr: only ABR connections take abr parameters, "
                f"not {values['category'].name}"
            )
        value = read(raw[key], f"{where}.{key}")
        if read is _number and not math.isfinite(value):
            raise ScenarioError(f"{where}: {key} must be finite, got {value}")
        values[field] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


_SCHEMA: Dict[type, Dict[str, Reader]] = {
    Scenario: {
        "duration_s": _number,
        "seed": _int,
        "nodes": _top(_tuple_of(partial(_record, NodeSpec))),
        "links": _top(_tuple_of(partial(_record, LinkSpec))),
        "connections": _top(_tuple_of(partial(_record, ConnectionSpec))),
        "generators": _top(_tuple_of(partial(_record, GeneratorSpec))),
        "lane": _top(partial(_record, LaneSpec), nullable=True),
    },
    NodeSpec: dict.fromkeys(("name", "kind"), _str)
    | dict.fromkeys(("queue_capacity", "clp_threshold", "efci_threshold"), _int),
    LinkSpec: dict.fromkeys(("a", "b"), _str)
    | dict.fromkeys(("bit_rate", "propagation_delay", "booking_factor"), _number),
    GeneratorSpec: dict.fromkeys(("id", "kind"), _str)
    | dict.fromkeys(("rate", "peak_rate", "mean_on_s", "mean_off_s", "cap"), _number),
    AbrOverrides: {"air": _number, "rdf": _number, "nrm": _int, "initial_acr": _number},
    ConnectionSpec: {
        "id": _str,
        "category": _category,
        "route": _tuple_of(_str),
        "generator": _str,
        "descriptor": partial(_record, TrafficDescriptor),
        "qos": partial(_record, QosRequirement),
        "clp": _int,
        "abr": partial(_record, AbrOverrides),  # ABR connections only
    },
    TrafficDescriptor: dict.fromkeys(TrafficDescriptor._fields, _number) | {"mbs": _int},
    QosRequirement: dict.fromkeys(QosRequirement._fields, _number),
    LecSpec: {"host": _str, "mac": _mac},
    LaneTrafficSpec: {
        "src": _str,  # the host of the sending LEC
        "dst": _dst_mac,  # field dst_mac, BROADCAST_MAC for "broadcast"
        "rate": _number,  # frames per second
        "frame_bytes": _frame_bytes,  # (lo, hi), lo == hi for a fixed size
        "start": _number,
        "count": _int,
    },
    LaneSpec: {
        "les": _str,
        "bus": _str,
        "lecs": _tuple_of(partial(_record, LecSpec)),
        "traffic": _tuple_of(partial(_record, LaneTrafficSpec)),
    },
}


def load_scenario(source: Union[str, PathLike[str], Dict[str, Any]]) -> Scenario:
    """Load a scenario from a JSON file path or an already-parsed dict."""
    if isinstance(source, dict):
        raw = source
    else:
        with open(source, encoding="utf-8") as handle:  # RFC 8259: JSON text is UTF-8
            try:
                raw = json.loads(handle.read())
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, an integer of too many digits, bytes that are
                # not UTF-8, or arrays or objects nested deeper than the parser goes
                raise ScenarioError(f"not valid JSON: {exc}") from None
    return _record(Scenario, raw, "scenario")


# Components a spec configures, and the settings of an output port's
# queue.  The engine runs with these, and validate_scenario builds each
# component once so that its own range checks come back as violations.


def queue_settings(node: NodeSpec) -> Tuple[int, Optional[int], Optional[int]]:
    """OutputQueue's (capacity, clp_threshold, efci_threshold) for each
    output port of ``node``."""
    capacity = node.queue_capacity if node.queue_capacity is not None else DEFAULT_QUEUE_CAPACITY
    return capacity, node.clp_threshold, node.efci_threshold


def link_booking(link: LinkSpec) -> LinkBooking:
    """The bandwidth ledger of each direction of ``link``."""
    return LinkBooking(link.bit_rate / CELL_BITS, link.booking_factor)


def emission_rate(gen: GeneratorSpec) -> Optional[float]:
    """The cells/s ``gen`` paces its source at; None for greedy_abr."""
    fields = GENERATOR_FIELDS.get(gen.kind)
    return getattr(gen, fields[0]) if fields else None


def abr_source(conn: ConnectionSpec) -> AbrSourceState:
    mcr = conn.descriptor.mcr if conn.descriptor.mcr is not None else 0.0
    abr = conn.abr
    return AbrSourceState(conn.descriptor.pcr, mcr, abr.air, abr.rdf, abr.initial_acr)


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
            v.extend(_construction_errors(f"node {node.name}", OutputQueue, *queue_settings(node)))

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
        fields = GENERATOR_FIELDS.get(gen.kind)
        if fields is None:
            v.append(f"generator {gen.id}: unknown kind {gen.kind!r}")
            continue
        for name in GeneratorSpec._field_defaults:
            if name not in fields and getattr(gen, name) is not None:
                v.append(f"generator {gen.id}: {gen.kind} does not take {name}")
        rate = emission_rate(gen)
        if fields and (rate is None or rate <= 0):
            v.append(f"generator {gen.id}: {gen.kind} needs a positive {fields[0]}")
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
        # run --out names a file abr_<id>.csv, and file names stop at 255 bytes
        if "/" in cid or "\0" in cid:
            v.append(f"connection {cid!r}: id must not contain '/' or NUL")
        elif len(f"abr_{cid}.csv".encode("utf-8", "surrogatepass")) > 255:
            v.append(f"connection {cid!r}: id must be at most 247 bytes in UTF-8")
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
        elif gen.kind in GENERATOR_FIELDS:
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
            v.extend(_construction_errors(f"connection {cid}", abr_source, conn))
            v.extend(_construction_errors(f"connection {cid}", EfciObserver, conn.abr.nrm))

    if sc.lane is not None:
        v.extend(_validate_lane(sc, nodes, adjacency))
    return v


def _construction_errors(where: str, build: Callable[..., Any], *args: Any) -> List[str]:
    """The ValueError ``build(*args)`` raises, as a violation."""
    try:
        build(*args)
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
    from .lane import BROADCAST_MAC, atm_address, is_multicast

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
