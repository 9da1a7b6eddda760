"""LAN emulation over ATM: clients, the address server and the
broadcast-and-unknown server.

A client (LEC) bridges Ethernet-style MAC frames onto VCs.  Unicast
frames go out on a cached data-direct VC when one exists; otherwise the
client asks the LE-ARP server (LES) for the target's ATM address, queues
the frame while waiting, and switches to a fresh data-direct VC once the
reply lands, so each unicast frame takes exactly one path.
The fabric refuses a VC only when a link has no VCI left, and never
frees one, so a refused destination is not retried: its frames are
dropped until the cache entry ages out and a new LE-ARP reply arrives.
Multicast and broadcast frames, and only they, go through the BUS, which
floods every attached client except the sender exactly once.

A LEC holds its control-direct VC to the LES and its multicast-send VC
to the BUS.  The LEC, the LES and the BUS drive one port, the LecPort: a
float clock ``now``, an event list for the LE-ARP timeouts,
``schedule(time, fn, arg=None)`` (``fn(arg)`` at ``time``, not before
``now``), ``send_on_vc(vc, frame)`` and ``open_data_vc(src_atm, dest_atm)``,
None only when a link on the way has no VCI left.  The engine, its own
event list, is that port, and each VC it builds hands its frames to one
handler: ``Les.serve``, ``Bus.forward``, ``Lec.on_control`` or
``Lec.deliver``.  The unit tests use a fake built on an EventQueue.
LE-ARP is coded here alone: the LES answers requests itself and each LEC
decodes its own replies; the fabric carries bytes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from .errors import ContractError

MAC_BYTES = 6
ATM_ADDRESS_BYTES = 20
FRAME_HEADER_BYTES = 2 * MAC_BYTES + 2

BROADCAST_MAC = b"\xff" * MAC_BYTES
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

PENDING_DEPTH = 64  # queued frames per unresolved MAC
# PENDING_TIMEOUT_S < CACHE_AGING_S, so a MAC's LE-ARP timer finds its own queue or none
PENDING_TIMEOUT_S = 1.0
CACHE_AGING_S = 300.0


class RegistrationConflict(ContractError):
    """A MAC registered twice with different ATM addresses."""


def parse_mac(text: str) -> bytes:
    """Six colon-separated octets of exactly two ASCII hex digits each."""
    parts = text.split(":")
    if len(parts) != MAC_BYTES:
        raise ValueError(f"MAC address needs {MAC_BYTES} octets: {text!r}")
    for part in parts:
        if len(part) != 2 or not _HEX_DIGITS.issuperset(part):
            raise ValueError(f"MAC address octet {part!r} is not two hex digits: {text!r}")
    return bytes.fromhex("".join(parts))


def format_mac(mac: bytes) -> str:
    return ":".join(f"{b:02x}" for b in mac)


def is_multicast(mac: bytes) -> bool:
    """Group bit: least significant bit of the first octet."""
    return bool(mac[0] & 0x01)


def atm_address(name: str) -> bytes:
    """Deterministic 20-byte endpoint identifier for a scenario node name."""
    raw = name.encode()
    if len(raw) > ATM_ADDRESS_BYTES:
        raise ValueError(f"node name {name!r} too long for an ATM address")
    return raw.ljust(ATM_ADDRESS_BYTES, b"\x00")


def encode_frame(dest: bytes, src: bytes, payload: bytes) -> bytes:
    """MAC frame: destination, source, 2-byte length, payload."""
    if len(dest) != MAC_BYTES or len(src) != MAC_BYTES:
        raise ValueError("MAC addresses are 6 bytes")
    if len(payload) > 0xFFFF:
        raise ValueError("payload too long for the length field")
    return dest + src + len(payload).to_bytes(2, "big") + payload


def decode_frame(raw: bytes) -> Tuple[bytes, bytes, bytes]:
    if len(raw) < FRAME_HEADER_BYTES:
        raise ValueError(f"frame shorter than its {FRAME_HEADER_BYTES}-byte header")
    length = int.from_bytes(raw[12:14], "big")
    if FRAME_HEADER_BYTES + length != len(raw):
        raise ValueError("frame length field disagrees with frame size")
    return raw[:6], raw[6:12], raw[FRAME_HEADER_BYTES:]


# Control-channel messages (internal encoding; the standardized control
# frame format is out of scope).
OP_ARP_REQUEST = 1
OP_ARP_REPLY = 2


def encode_arp_request(requester: bytes, target_mac: bytes) -> bytes:
    return bytes((OP_ARP_REQUEST,)) + requester + target_mac


def encode_arp_reply(target_mac: bytes, atm: Optional[bytes]) -> bytes:
    if atm is None:
        return bytes((OP_ARP_REPLY, 0)) + target_mac + bytes(ATM_ADDRESS_BYTES)
    if len(atm) != ATM_ADDRESS_BYTES:
        raise ValueError("ATM addresses are 20 bytes")
    return bytes((OP_ARP_REPLY, 1)) + target_mac + atm


def decode_control(raw: bytes) -> Tuple[int, Any]:
    if not raw:
        raise ValueError("empty control message")
    op = raw[0]
    if op == OP_ARP_REQUEST:
        if len(raw) != 1 + 2 * MAC_BYTES:
            raise ValueError("malformed LE-ARP request")
        return op, (raw[1:7], raw[7:13])
    if op == OP_ARP_REPLY:
        if len(raw) != 2 + MAC_BYTES + ATM_ADDRESS_BYTES:
            raise ValueError("malformed LE-ARP reply")
        found = raw[1] == 1
        mac = raw[2:8]
        atm = raw[8:] if found else None
        return op, (mac, atm)
    raise ValueError(f"unknown control opcode {op}")


def _control_body(message: bytes, op: int) -> Any:
    """Body of a control message carrying ``op``; None for any other message."""
    try:
        got, body = decode_control(message)
    except ValueError:
        return None
    return body if got == op else None


class Les:
    """LE-ARP server: the MAC -> ATM address directory of one LAN."""

    def __init__(self, port: Any) -> None:
        self.port = port
        self.directory: Dict[bytes, bytes] = {}
        self._control_vcs: Dict[bytes, Any] = {}  # MAC -> the VC its replies go on
        self.arp_hits = 0
        self.arp_misses = 0
        self.decode_errors = 0

    @property
    def arp_requests(self) -> int:
        return self.arp_hits + self.arp_misses

    def register(self, mac: bytes, atm: bytes, control_vc: Any) -> None:
        """Idempotent for the same pair; a different ATM address for a
        known MAC is a registration conflict."""
        existing = self.directory.get(mac)
        if existing is not None and existing != atm:
            raise RegistrationConflict(
                f"MAC {format_mac(mac)} already registered to a different address"
            )
        self.directory[mac] = atm
        self._control_vcs[mac] = control_vc

    def resolve(self, mac: bytes) -> Optional[bytes]:
        atm = self.directory.get(mac)
        if atm is None:
            self.arp_misses += 1
        else:
            self.arp_hits += 1
        return atm

    def serve(self, request: bytes) -> None:
        """Answer an LE-ARP request on its requester's control VC; a request
        from an unregistered MAC, or any other message, is a decode error."""
        body = _control_body(request, OP_ARP_REQUEST)
        vc = None if body is None else self._control_vcs.get(body[0])
        if vc is None:
            self.decode_errors += 1
        else:
            self.port.send_on_vc(vc, encode_arp_reply(body[1], self.resolve(body[1])))


class Bus:
    """Broadcast-and-unknown server: floods each frame to every attached
    client but the frame's source MAC, one copy each."""

    def __init__(self, port: Any) -> None:
        self.port = port
        self._members: Dict[bytes, Any] = {}  # MAC -> its multicast-forward VC
        self.frames_in = 0
        self.copies_out = 0

    def attach(self, mac: bytes, vc: Any) -> None:
        if mac in self._members:
            raise ValueError("already attached to the BUS")
        self._members[mac] = vc

    def forward(self, frame: bytes) -> None:
        self.frames_in += 1
        source = frame[MAC_BYTES : 2 * MAC_BYTES]
        for mac, vc in self._members.items():
            if mac != source:
                self.port.send_on_vc(vc, frame)
                self.copies_out += 1


class ArpCacheEntry:
    __slots__ = ("atm", "vc", "learned_at")

    def __init__(self, atm: bytes, vc: Any, learned_at: float):
        self.atm = atm
        # the engine's VC handle, or None when the fabric refused the VC;
        # a refused entry stays refused until it ages out of the cache
        self.vc = vc
        self.learned_at = learned_at


class DestinationStats:
    """Per-target unicast accounting for one client.  ``sent_bus`` stays 0,
    as no unicast frame goes through the BUS; the benchmark's golden report
    digests keep its slot until LANE 1.0's unknown-frame path fills it."""

    __slots__ = (
        "sent_direct",
        "sent_bus",
        "queued",
        "dropped_overflow",
        "dropped_timeout",
        "dropped_setup",
    )

    def __init__(self) -> None:
        self.sent_direct = 0
        self.sent_bus = 0
        self.queued = 0
        self.dropped_overflow = 0
        self.dropped_timeout = 0
        self.dropped_setup = 0


class LecCounters:
    """One client's counts.  ``duplicates`` stays 0, as each frame takes one
    path; no code increments ``received_bus``, as the BUS floods group
    frames only, which count as ``received_broadcast``; and ``filtered``
    stays 0, as a data-direct VC carries frames for its resolved MAC only.
    The golden report digests keep these slots until a golden rewrite;
    LANE 1.0's unknown-frame path would give the last two a meaning."""

    __slots__ = (
        "frames_sent",
        "broadcast_sent",
        "arp_requests",
        "arp_replies",
        "received_direct",
        "received_bus",
        "received_broadcast",
        "filtered",
        "duplicates",
        "pending_dropped",
    )

    def __init__(self) -> None:
        self.frames_sent = 0
        self.broadcast_sent = 0
        self.arp_requests = 0
        self.arp_replies = 0
        self.received_direct = 0
        self.received_bus = 0
        self.received_broadcast = 0
        self.filtered = 0
        self.duplicates = 0
        self.pending_dropped = 0


class Lec:
    """One LAN-emulation client; ``port`` is its LecPort (see above)."""

    def __init__(self, mac: bytes, atm: bytes, port: Any, to_les: Any, to_bus: Any):
        self.mac = mac
        self.atm = atm
        self.port = port
        self.to_les = to_les  # control-direct VC
        self.to_bus = to_bus  # multicast-send VC
        self.cache: Dict[bytes, ArpCacheEntry] = {}
        self.counters = LecCounters()
        self.per_destination: Dict[bytes, DestinationStats] = {}
        # frames waiting for a MAC's LE-ARP reply; the queue stands for
        # the request outstanding for that MAC
        self._pending: Dict[bytes, Deque[bytes]] = {}
        self.decode_errors = 0  # control messages that are not LE-ARP replies

    # -- sending ---------------------------------------------------------

    def send(self, dest_mac: bytes, payload: bytes) -> None:
        """Bridge one frame toward dest_mac on exactly one path: a group
        address through the BUS, else the cached data-direct VC, else the
        queue that waits for dest_mac's LE-ARP reply."""
        frame = encode_frame(dest_mac, self.mac, payload)
        self.counters.frames_sent += 1
        if is_multicast(dest_mac):
            self.counters.broadcast_sent += 1
            self.port.send_on_vc(self.to_bus, frame)
            return
        stats = self._dst(dest_mac)
        entry = self._cache_get(dest_mac)
        if entry is not None:
            if entry.vc is None:
                stats.dropped_setup += 1
            else:
                stats.sent_direct += 1
                self.port.send_on_vc(entry.vc, frame)
            return
        queue = self._pending.setdefault(dest_mac, deque())
        if len(queue) >= PENDING_DEPTH:
            stats.dropped_overflow += 1
            self.counters.pending_dropped += 1
            return
        queue.append(frame)
        stats.queued += 1
        if len(queue) == 1:  # a new queue: resolve dest_mac
            self.counters.arp_requests += 1
            self.port.send_on_vc(self.to_les, encode_arp_request(self.mac, dest_mac))
            port = self.port
            port.schedule(port.now + PENDING_TIMEOUT_S, self._on_arp_timeout, dest_mac)

    def on_control(self, message: bytes) -> None:
        """A control message from the LES: an LE-ARP reply, or a decode error."""
        body = _control_body(message, OP_ARP_REPLY)
        if body is None:
            self.decode_errors += 1
        else:
            self.on_arp_reply(*body)

    def on_arp_reply(self, target_mac: bytes, atm: Optional[bytes]) -> None:
        """Reply from the LES: fill the cache, set up the VC and flush the
        queue in order.  Unknown targets stay queued until the timeout.  A
        reply that names the address of a cached entry (a late reply to an
        earlier request) only refreshes the entry: it keeps its VC, or its
        refusal, as a VC the fabric refused once it refuses for good."""
        self.counters.arp_replies += 1
        if atm is None:
            return
        entry = self.cache.get(target_mac)
        if entry is not None and entry.atm == atm:
            entry.learned_at = self.port.now
        else:
            entry = ArpCacheEntry(atm, self.port.open_data_vc(self.atm, atm), self.port.now)
            self.cache[target_mac] = entry
        queue = self._pending.pop(target_mac, None)
        if not queue:
            return
        stats = self._dst(target_mac)
        if entry.vc is None:
            stats.dropped_setup += len(queue)
            self.counters.pending_dropped += len(queue)
            return
        for frame in queue:
            stats.sent_direct += 1
            self.port.send_on_vc(entry.vc, frame)

    def _on_arp_timeout(self, dest_mac: bytes) -> None:
        """Drop dest_mac's queue unless its reply took it first."""
        queue = self._pending.pop(dest_mac, None)
        if queue is None:
            return  # resolved
        stats = self._dst(dest_mac)
        stats.dropped_timeout += len(queue)
        self.counters.pending_dropped += len(queue)

    # -- receiving -------------------------------------------------------

    def deliver(self, raw_frame: bytes) -> Optional[Tuple[bytes, bytes, bytes]]:
        """Accept a frame off a VC.  Frames for other stations are
        filtered; returns (dest, src, payload) on acceptance."""
        dest, src, payload = decode_frame(raw_frame)
        if is_multicast(dest):
            self.counters.received_broadcast += 1
        elif dest == self.mac:
            self.counters.received_direct += 1
        else:
            self.counters.filtered += 1
            return None
        return dest, src, payload

    # -- internals -------------------------------------------------------

    def _dst(self, mac: bytes) -> DestinationStats:
        stats = self.per_destination.get(mac)
        if stats is None:
            stats = self.per_destination[mac] = DestinationStats()
        return stats

    def _cache_get(self, mac: bytes) -> Optional[ArpCacheEntry]:
        entry = self.cache.get(mac)
        if entry is None:
            return None
        if self.port.now - entry.learned_at >= CACHE_AGING_S:
            del self.cache[mac]
            return None
        return entry
