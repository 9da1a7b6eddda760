"""Cell switching: bounded output queues, CAC booking, VC label tables.

Each output port owns a bounded FIFO with two thresholds: above
clp_threshold arriving clp=1 cells are dropped (selective discard), and
cells accepted while the queue sits above efci_threshold are forwarded
with their congestion bit set.  The queue holds the simulator's transit
cells, whose header bits are plain attributes, so marking sets ``efci``
on the item itself.

route_cell switches codec-level Cell values by exact-match lookup on
(input port, VPI, VCI) in a plain dict, rewriting the labels for the
next hop, as cell.set_efci marks them.  route_cell builds the rewritten
cell with the cell's own ``_replace``, which runs Cell's checks, so this
module never loads the codec.  The engine does not use it: it keeps one
VC table per link (see engine.DirectedLink).

Admission books on each link the rate named by the connection's row of
traffic.CATEGORY_RULES, and admits a route only when every link has room.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Mapping, Optional, Sequence, Tuple

from .traffic import CATEGORY_RULES, ServiceCategory, TrafficDescriptor

if TYPE_CHECKING:  # route_cell builds its cells through Cell._replace
    from .cell import Cell

DEFAULT_QUEUE_CAPACITY = 128
EFCI_THRESHOLD_FRACTION = 0.8
CLP_THRESHOLD_FRACTION = 0.9


def route_cell(
    cell: Cell, in_port: int, table: Mapping[Tuple[int, int, int], Tuple[int, int, int]]
) -> Optional[Tuple[Cell, int]]:
    """Rewrite a cell's labels per ``table``, which maps the (port, VPI,
    VCI) a cell arrives on to the (port, VPI, VCI) it leaves on; None
    means unknown VC.

    The returned cell carries the outgoing VPI/VCI (its HEC is derived
    from the new header at serialization).  Callers count unknown-VC
    drops.
    """
    route = table.get((in_port, cell.header.vpi, cell.header.vci))
    if route is None:
        return None
    out_port, out_vpi, out_vci = route
    header = cell.header._replace(vpi=out_vpi, vci=out_vci)
    return cell._replace(header=header), out_port


class EnqueueOutcome(enum.Enum):
    ACCEPTED = "accepted"
    DISCARDED_FULL = "full"
    DISCARDED_CLP = "clp_threshold"


# Hot paths read members through these names: on CPython 3.11 a lookup
# such as ``EnqueueOutcome.ACCEPTED`` goes through the enum metaclass and
# costs about ten times a module global.
ACCEPTED = EnqueueOutcome.ACCEPTED
DISCARDED_FULL = EnqueueOutcome.DISCARDED_FULL
DISCARDED_CLP = EnqueueOutcome.DISCARDED_CLP


class OutputQueue:
    """Bounded FIFO for one output port.

    Items are cells with ``clp``, ``is_management`` and a writable
    ``efci`` attribute, as the engine's TransitCell has.  Occupancy,
    ``len(waiting)``, counts waiting cells only (a cell being serialized
    onto the link is in service, not in the buffer).  Thresholds default
    to 80% (EFCI) and 90% (CLP discard) of capacity.

    ``waiting`` is the FIFO itself, head first.  The port's server pops
    the head when it puts a cell on the wire; ``dequeue`` does the same
    for codec-level callers.
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
        self.waiting: Deque[Any] = deque()
        self.accepted = 0
        self.full_drops = 0
        self.clp_drops = 0
        self.efci_marks = 0

    def enqueue(self, item: Any) -> EnqueueOutcome:
        """Selective discard, then capacity check, then EFCI marking.

        The CLP check runs first so a low-priority cell hitting a full
        queue is attributed to the threshold rule it crossed first.
        Management cells are never marked.
        """
        waiting = self.waiting
        occ = len(waiting)
        if item.clp == 1 and occ >= self.clp_threshold:
            self.clp_drops += 1
            return DISCARDED_CLP
        if occ >= self.capacity:
            self.full_drops += 1
            return DISCARDED_FULL
        if occ + 1 > self.efci_threshold and not item.is_management:
            item.efci = True
            self.efci_marks += 1
        waiting.append(item)
        self.accepted += 1
        return ACCEPTED

    def dequeue(self) -> Optional[Any]:
        if not self.waiting:
            return None
        return self.waiting.popleft()


def booking_rate(category: ServiceCategory, descriptor: TrafficDescriptor) -> float:
    """Bandwidth a connection books for admission: the descriptor field
    its category's row of CATEGORY_RULES books (PCR for CBR, SCR for VBR,
    MCR for ABR), nothing for UBR."""
    name = CATEGORY_RULES[category].books
    if name is None:
        return 0.0
    rate = getattr(descriptor, name)
    if rate is None:
        # both VBR categories speak as "VBR"
        raise ValueError(f"{category.name.partition('_')[0]} admission requires {name}")
    return rate


class LinkBooking:
    """Booked-bandwidth ledger for one link direction.

    Individual bookings are kept and summed with fsum on demand, so the
    admit decision never drifts away from the true sum.  A run only
    books: a connection holds its bandwidth until the run ends.
    ``release`` and ``booked`` complete the ledger for callers that admit
    and release, as the admission property tests do over long sequences.
    """

    def __init__(self, capacity: float, booking_factor: float = 1.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if booking_factor <= 0:
            raise ValueError("booking_factor must be positive")
        self.capacity = capacity
        self.booking_factor = booking_factor
        self._booked: List[float] = []

    @property
    def booked(self) -> float:
        return math.fsum(self._booked)

    def can_admit(self, category: ServiceCategory, descriptor: TrafficDescriptor) -> bool:
        rate = booking_rate(category, descriptor)
        if rate == 0.0:
            return True  # UBR (and zero-MCR ABR) is never refused for bandwidth
        total = math.fsum(self._booked + [rate])
        return total <= self.capacity * self.booking_factor

    def book(self, category: ServiceCategory, descriptor: TrafficDescriptor) -> None:
        self._booked.append(booking_rate(category, descriptor))

    def release(self, category: ServiceCategory, descriptor: TrafficDescriptor) -> None:
        self._booked.remove(booking_rate(category, descriptor))


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
