"""Label switching, output queueing with selective discard, admission."""

import math
import random

import pytest

from atmsim.cell import Cell, CellHeader, InterfaceKind
from atmsim.engine import TransitCell
from atmsim.switch import (
    EnqueueOutcome,
    LinkBooking,
    OutputQueue,
    booking_rate,
    cac_admit,
    route_cell,
)
from atmsim.traffic import ServiceCategory, TrafficDescriptor


def _cell(vpi=0, vci=40, clp=0, management=False) -> Cell:
    return Cell(
        CellHeader(
            kind=InterfaceKind.NNI, vpi=vpi, vci=vci, clp=clp, is_management=management
        )
    )


class TestRouteCell:
    def test_route_cell_translates_labels(self):
        table = {(3, 0, 40): (1, 2, 99)}
        cell = _cell(vpi=0, vci=40, clp=1)
        routed = route_cell(cell, 3, table)
        assert routed is not None
        out_cell, out_port = routed
        assert out_port == 1
        assert out_cell.header.vpi == 2
        assert out_cell.header.vci == 99
        assert out_cell.header.clp == 1  # everything else preserved
        assert out_cell.payload == cell.payload

    def test_route_cell_unknown_vc(self):
        assert route_cell(_cell(), 0, {}) is None
        table = {(0, 0, 40): (1, 0, 50)}
        assert route_cell(_cell(vci=41), 0, table) is None  # another VCI
        assert route_cell(_cell(vci=40), 1, table) is None  # another port


def _transit(vci=40, clp=0, management=False) -> TransitCell:
    return TransitCell(None, 0.0, 0, vci, clp, management)


class TestOutputQueue:
    def test_fifo_order(self):
        queue = OutputQueue(capacity=8)
        for vci in (40, 41, 42):
            queue.enqueue(_transit(vci=vci))
        out = [queue.dequeue().vci for _ in range(3)]
        assert out == [40, 41, 42]
        assert queue.dequeue() is None

    def test_capacity_enforced(self):
        queue = OutputQueue(capacity=2)
        assert queue.enqueue(_transit()) is EnqueueOutcome.ACCEPTED
        assert queue.enqueue(_transit()) is EnqueueOutcome.ACCEPTED
        assert queue.enqueue(_transit()) is EnqueueOutcome.DISCARDED_FULL
        assert queue.full_drops == 1
        assert queue.accepted == 2

    def test_clp_discard_threshold(self):
        queue = OutputQueue(capacity=10, clp_threshold=3, efci_threshold=10)
        for _ in range(3):
            assert queue.enqueue(_transit(clp=1)) is EnqueueOutcome.ACCEPTED
        # occupancy 3 reaches the threshold: tagged cells now bounce,
        # untagged cells still get the remaining room
        assert queue.enqueue(_transit(clp=1)) is EnqueueOutcome.DISCARDED_CLP
        assert queue.enqueue(_transit(clp=0)) is EnqueueOutcome.ACCEPTED
        assert queue.clp_drops == 1
        assert queue.full_drops == 0

    def test_efci_marking_above_threshold(self):
        queue = OutputQueue(capacity=8, clp_threshold=8, efci_threshold=2)
        queue.enqueue(_transit())
        queue.enqueue(_transit())
        queue.enqueue(_transit())  # post-enqueue occupancy 3 > 2: marked
        cells = [queue.dequeue() for _ in range(3)]
        assert [c.efci for c in cells] == [False, False, True]
        assert queue.efci_marks == 1

    def test_management_cells_not_efci_marked(self):
        queue = OutputQueue(capacity=8, clp_threshold=8, efci_threshold=0)
        queue.enqueue(_transit(management=True))
        cell = queue.dequeue()
        assert not cell.efci
        assert queue.efci_marks == 0

    def test_default_thresholds(self):
        queue = OutputQueue(capacity=100)
        assert queue.efci_threshold == 80
        assert queue.clp_threshold == 90

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            OutputQueue(capacity=0)
        with pytest.raises(ValueError):
            OutputQueue(capacity=4, clp_threshold=5)


class TestBooking:
    def test_booking_rate_per_category(self):
        assert booking_rate(
            ServiceCategory.CBR, TrafficDescriptor(pcr=100.0, cdvt=0.01)
        ) == 100.0
        assert booking_rate(
            ServiceCategory.VBR_RT, TrafficDescriptor(pcr=100.0, scr=40.0, mbs=3)
        ) == 40.0
        assert booking_rate(
            ServiceCategory.ABR, TrafficDescriptor(pcr=100.0, mcr=7.0)
        ) == 7.0
        assert booking_rate(ServiceCategory.UBR, TrafficDescriptor(pcr=100.0)) == 0.0

    def test_admit_until_capacity(self):
        link = LinkBooking(capacity=100.0)
        cbr40 = TrafficDescriptor(pcr=40.0, cdvt=0.01)
        assert cac_admit([link], ServiceCategory.CBR, cbr40)
        assert cac_admit([link], ServiceCategory.CBR, cbr40)
        assert link.booked == 80.0
        assert not cac_admit([link], ServiceCategory.CBR, TrafficDescriptor(pcr=21.0, cdvt=0.01))
        assert cac_admit([link], ServiceCategory.CBR, TrafficDescriptor(pcr=20.0, cdvt=0.01))
        assert link.booked == 100.0

    def test_ubr_never_refused(self):
        link = LinkBooking(capacity=10.0)
        link.book(ServiceCategory.CBR, TrafficDescriptor(pcr=10.0, cdvt=0.01))
        for _ in range(50):
            assert cac_admit([link], ServiceCategory.UBR, TrafficDescriptor(pcr=999.0))
        assert link.booked == 10.0  # UBR booked nothing

    def test_booking_factor_overbooks(self):
        link = LinkBooking(capacity=100.0, booking_factor=2.0)
        cbr = TrafficDescriptor(pcr=150.0, cdvt=0.01)
        assert cac_admit([link], ServiceCategory.CBR, cbr)
        assert not cac_admit([link], ServiceCategory.CBR, cbr)

    def test_multi_link_all_or_nothing(self):
        wide = LinkBooking(capacity=100.0)
        narrow = LinkBooking(capacity=30.0)
        cbr = TrafficDescriptor(pcr=40.0, cdvt=0.01)
        assert not cac_admit([wide, narrow], ServiceCategory.CBR, cbr)
        assert wide.booked == 0.0  # the wide link must not keep a booking
        assert narrow.booked == 0.0

    def test_release_frees_bandwidth(self):
        link = LinkBooking(capacity=100.0)
        cbr = TrafficDescriptor(pcr=60.0, cdvt=0.01)
        assert cac_admit([link], ServiceCategory.CBR, cbr)
        assert not cac_admit([link], ServiceCategory.CBR, cbr)
        link.release(ServiceCategory.CBR, cbr)
        assert cac_admit([link], ServiceCategory.CBR, cbr)

    def test_randomized_admit_release_never_oversubscribes(self):
        rng = random.Random(30)
        link = LinkBooking(capacity=1000.0)
        active = []
        for _ in range(1000):
            if active and rng.random() < 0.4:
                descriptor = active.pop(rng.randrange(len(active)))
                link.release(ServiceCategory.CBR, descriptor)
            else:
                descriptor = TrafficDescriptor(pcr=rng.uniform(0.1, 200.0), cdvt=0.01)
                if cac_admit([link], ServiceCategory.CBR, descriptor):
                    active.append(descriptor)
            booked = math.fsum(d.pcr for d in active)
            assert link.booked == booked
            assert booked <= 1000.0

    @pytest.mark.parametrize(
        "category, descriptor, message",
        [
            (ServiceCategory.VBR_NRT, TrafficDescriptor(pcr=100.0), "VBR admission requires scr"),
            (ServiceCategory.ABR, TrafficDescriptor(pcr=100.0), "ABR admission requires mcr"),
        ],
    )
    def test_booking_rate_needs_the_booked_field(self, category, descriptor, message):
        with pytest.raises(ValueError, match=message):
            booking_rate(category, descriptor)

    def test_link_booking_checks_its_inputs(self):
        with pytest.raises(ValueError, match="capacity must be positive"):
            LinkBooking(capacity=0.0)
        with pytest.raises(ValueError, match="booking_factor must be positive"):
            LinkBooking(capacity=100.0, booking_factor=0.0)
