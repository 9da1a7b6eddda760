"""Cell switching: bounded output queues, CAC booking, VC label tables.

Each output port owns a bounded FIFO with two thresholds: above
clp_threshold arriving clp=1 cells are dropped (selective discard), and
cells accepted while the queue sits above efci_threshold are forwarded
with their congestion bit set.  The queue holds the simulator's transit
cells, whose header bits are plain attributes, so marking sets ``efci``
on the item itself.

VcTable and route_cell switch codec-level Cell values by exact-match
lookup on (input port, VPI, VCI), rewriting the labels for the next hop,
as cell.set_efci marks them.  The engine does not use them: it keeps one
VC table per link (see engine.DirectedLink).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from .cell import Cell
from .traffic import ServiceCategory, TrafficDescriptor

DEFAULT_QUEUE_CAPACITY = 128
EFCI_THRESHOLD_FRACTION = 0.8
CLP_THRESHOLD_FRACTION = 0.9

VcKey = Tuple[int, int, int]  # (port, vpi, vci)


@dataclass(frozen=True)
class VcRoute:
    out_port: int
    out_vpi: int
    out_vci: int


class VcTable:
    """Per-switch switching table: (in_port, vpi, vci) -> outgoing labels."""

    def __init__(self) -> None:
        self._entries: Dict[VcKey, VcRoute] = {}

    def install(self, in_port: int, in_vpi: int, in_vci: int, route: VcRoute) -> None:
        key = (in_port, in_vpi, in_vci)
        if key in self._entries:
            raise ValueError(f"VC table entry for {key} already installed")
        self._entries[key] = route

    def lookup(self, in_port: int, vpi: int, vci: int) -> Optional[VcRoute]:
        return self._entries.get((in_port, vpi, vci))


def route_cell(cell: Cell, in_port: int, table: VcTable) -> Optional[Tuple[Cell, int]]:
    """Rewrite a cell's labels per the table; None means unknown VC.

    The returned cell carries the outgoing VPI/VCI (its HEC is derived
    from the new header at serialization).  Callers count unknown-VC
    drops.
    """
    route = table.lookup(in_port, cell.header.vpi, cell.header.vci)
    if route is None:
        return None
    header = replace(cell.header, vpi=route.out_vpi, vci=route.out_vci)
    return Cell(header, cell.payload), route.out_port


class EnqueueOutcome(enum.Enum):
    ACCEPTED = "accepted"
    DISCARDED_FULL = "full"
    DISCARDED_CLP = "clp_threshold"


class OutputQueue:
    """Bounded FIFO for one output port.

    Items are cells with ``clp``, ``is_management`` and a writable
    ``efci`` attribute, as the engine's TransitCell has.  Occupancy
    counts waiting cells only (a cell being serialized onto the link is
    in service, not in the buffer).  Thresholds default to 80% (EFCI)
    and 90% (CLP discard) of capacity.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_QUEUE_CAPACITY,
        clp_threshold: Optional[int] = None,
        efci_threshold: Optional[int] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clp_threshold = (
            clp_threshold if clp_threshold is not None else math.floor(CLP_THRESHOLD_FRACTION * capacity)
        )
        self.efci_threshold = (
            efci_threshold if efci_threshold is not None else math.floor(EFCI_THRESHOLD_FRACTION * capacity)
        )
        if not 0 <= self.clp_threshold <= capacity:
            raise ValueError("clp_threshold must lie within [0, capacity]")
        if not 0 <= self.efci_threshold <= capacity:
            raise ValueError("efci_threshold must lie within [0, capacity]")
        self._items: Deque[Any] = deque()
        self.accepted = 0
        self.full_drops = 0
        self.clp_drops = 0
        self.efci_marks = 0

    @property
    def occupancy(self) -> int:
        return len(self._items)

    def enqueue(self, item: Any) -> EnqueueOutcome:
        """Selective discard, then capacity check, then EFCI marking.

        The CLP check runs first so a low-priority cell hitting a full
        queue is attributed to the threshold rule it crossed first.
        Management cells are never marked.
        """
        items = self._items
        occ = len(items)
        if item.clp == 1 and occ >= self.clp_threshold:
            self.clp_drops += 1
            return EnqueueOutcome.DISCARDED_CLP
        if occ >= self.capacity:
            self.full_drops += 1
            return EnqueueOutcome.DISCARDED_FULL
        if occ + 1 > self.efci_threshold and not item.is_management:
            item.efci = True
            self.efci_marks += 1
        items.append(item)
        self.accepted += 1
        return EnqueueOutcome.ACCEPTED

    def pending(self) -> Iterator[Any]:
        """Waiting items in queue order, without removing them."""
        return iter(self._items)

    def dequeue(self) -> Optional[Any]:
        if not self._items:
            return None
        return self._items.popleft()


def booking_rate(category: ServiceCategory, descriptor: TrafficDescriptor) -> float:
    """Bandwidth a connection books for admission: PCR for CBR, SCR for
    VBR, MCR for ABR, nothing for UBR."""
    if category is ServiceCategory.CBR:
        return descriptor.pcr
    if category in (ServiceCategory.VBR_RT, ServiceCategory.VBR_NRT):
        if descriptor.scr is None:
            raise ValueError("VBR admission requires scr")
        return descriptor.scr
    if category is ServiceCategory.ABR:
        if descriptor.mcr is None:
            raise ValueError("ABR admission requires mcr")
        return descriptor.mcr
    return 0.0


class LinkBooking:
    """Booked-bandwidth ledger for one link direction.

    Individual bookings are kept and summed with fsum on demand, so the
    admit decision never drifts away from the true sum over long
    admit/release sequences.
    """

    def __init__(self, capacity: float, booking_factor: float = 1.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if booking_factor <= 0:
            raise ValueError("booking_factor must be positive")
        self.capacity = capacity
        self.booking_factor = booking_factor
        self._booked: List[Tuple[ServiceCategory, float]] = []

    @property
    def booked(self) -> float:
        return math.fsum(rate for _, rate in self._booked)

    def can_admit(self, category: ServiceCategory, descriptor: TrafficDescriptor) -> bool:
        rate = booking_rate(category, descriptor)
        if rate == 0.0:
            return True  # UBR (and zero-MCR ABR) is never refused for bandwidth
        total = math.fsum([r for _, r in self._booked] + [rate])
        return total <= self.capacity * self.booking_factor

    def book(self, category: ServiceCategory, descriptor: TrafficDescriptor) -> None:
        self._booked.append((category, booking_rate(category, descriptor)))

    def release(self, category: ServiceCategory, descriptor: TrafficDescriptor) -> None:
        self._booked.remove((category, booking_rate(category, descriptor)))


def cac_admit(
    bookings: Sequence[LinkBooking],
    category: ServiceCategory,
    descriptor: TrafficDescriptor,
) -> bool:
    """Admit a connection across every link of its route, or not at all."""
    if not all(b.can_admit(category, descriptor) for b in bookings):
        return False
    for b in bookings:
        b.book(category, descriptor)
    return True
