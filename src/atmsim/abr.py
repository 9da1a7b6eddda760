"""Rate-based ABR flow control with binary (EFCI) feedback.

The destination watches the congestion bit of delivered data cells and,
once per window of nrm cells, tells the source whether any cell in the
window arrived marked.  The source reacts multiplicatively to congestion
and additively to its absence, clamped to [mcr, pcr].  The allowed cell
rate paces emission: next cell at last + 1/acr.
"""

from __future__ import annotations

from typing import Optional

from .errors import OrderingError
from .record import Record, new_tuple

DEFAULT_NRM = 32
DEFAULT_RDF = 0.875
AIR_FRACTION_OF_PCR = 1.0 / 64.0
INITIAL_ACR_FRACTION_OF_PCR = 1.0 / 16.0


class FeedbackIndication(Record):
    """One binary feedback sample; epochs count windows at the destination."""

    __slots__ = ()

    def __new__(cls, congested, epoch):
        return new_tuple(cls, (congested, epoch))


class AbrSourceState:
    """Source-side rate state.  acr stays within [mcr, pcr] at all times."""

    __slots__ = ("pcr", "mcr", "acr", "air", "rdf", "last_epoch")

    def __init__(self, pcr: float, mcr: float, acr: float, air: float, rdf: float):
        if not 0 <= mcr <= pcr:
            raise ValueError("need 0 <= mcr <= pcr")
        if not mcr <= acr <= pcr:
            raise ValueError("acr must start within [mcr, pcr]")
        if acr <= 0:
            raise ValueError("acr must be positive to pace emission")
        if air < 0:
            raise ValueError("air must be >= 0")
        if not 0 < rdf <= 1:
            raise ValueError("rdf must lie in (0, 1]")
        self.pcr = pcr
        self.mcr = mcr
        self.acr = acr
        self.air = air
        self.rdf = rdf
        self.last_epoch = -1


def default_source(
    pcr: float,
    mcr: float = 0.0,
    air: Optional[float] = None,
    rdf: float = DEFAULT_RDF,
    initial_acr: Optional[float] = None,
) -> AbrSourceState:
    """Source state with the stock parameters: air = pcr/64 and an
    initial rate of max(mcr, pcr/16) unless overridden."""
    if air is None:
        air = pcr * AIR_FRACTION_OF_PCR
    if initial_acr is None:
        initial_acr = max(mcr, pcr * INITIAL_ACR_FRACTION_OF_PCR)
    return AbrSourceState(pcr=pcr, mcr=mcr, acr=initial_acr, air=air, rdf=rdf)


def source_adjust(state: AbrSourceState, indication: FeedbackIndication) -> float:
    """Apply one feedback indication and return the new acr.

    Congested windows multiply the rate by rdf (floored at mcr); clear
    windows add air (capped at pcr).  Indications must arrive in
    increasing epoch order; gaps from lost feedback cells are fine.
    """
    if indication.epoch <= state.last_epoch:
        raise OrderingError(
            f"feedback epoch {indication.epoch} not after {state.last_epoch}"
        )
    if indication.congested:
        state.acr = max(state.mcr, state.acr * state.rdf)
    else:
        state.acr = min(state.pcr, state.acr + state.air)
    state.last_epoch = indication.epoch
    return state.acr


class EfciObserver:
    """Destination-side window: OR of EFCI bits over runs of nrm data cells."""

    __slots__ = ("nrm", "cells_seen", "congested", "next_epoch")

    def __init__(self, nrm: int = DEFAULT_NRM):
        if nrm < 1:
            raise ValueError("nrm must be >= 1")
        self.nrm = nrm
        self.cells_seen = 0
        self.congested = False
        self.next_epoch = 0

    def observe(self, efci: bool) -> Optional[FeedbackIndication]:
        """Account one delivered data cell; returns an indication when a
        window completes, None otherwise."""
        self.cells_seen += 1
        if efci:
            self.congested = True
        if self.cells_seen < self.nrm:
            return None
        indication = FeedbackIndication(self.congested, self.next_epoch)
        self.cells_seen = 0
        self.congested = False
        self.next_epoch += 1
        return indication
