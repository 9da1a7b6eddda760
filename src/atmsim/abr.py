"""Rate-based ABR flow control with binary (EFCI) feedback.

The destination watches the congestion bit of delivered data cells and,
once per window of nrm cells, tells the source whether any cell in the
window arrived marked: one bit per window, carried by one feedback cell
on a VC the engine delivers in order.  The source reacts multiplicatively
to congestion and additively to its absence, clamped to [mcr, pcr].  The
allowed cell rate paces emission: next cell at last + 1/acr.
"""

from __future__ import annotations

from typing import Optional

DEFAULT_NRM = 32
DEFAULT_RDF = 0.875
AIR_FRACTION_OF_PCR = 1.0 / 64.0
INITIAL_ACR_FRACTION_OF_PCR = 1.0 / 16.0


class AbrSourceState:
    """Source-side rate state.  acr stays within [mcr, pcr] at all times.

    air and acr left None take the stock values: air = pcr/64 and an
    initial rate of max(mcr, pcr/16)."""

    __slots__ = ("pcr", "mcr", "acr", "air", "rdf")

    def __init__(
        self,
        pcr: float,
        mcr: float = 0.0,
        air: Optional[float] = None,
        rdf: float = DEFAULT_RDF,
        acr: Optional[float] = None,
    ):
        if air is None:
            air = pcr * AIR_FRACTION_OF_PCR
        if acr is None:
            acr = max(mcr, pcr * INITIAL_ACR_FRACTION_OF_PCR)
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


def source_adjust(state: AbrSourceState, congested: bool) -> float:
    """Apply one window's feedback bit and return the new acr.

    Congested windows multiply the rate by rdf (floored at mcr); clear
    windows add air (capped at pcr).
    """
    if congested:
        state.acr = max(state.mcr, state.acr * state.rdf)
    else:
        state.acr = min(state.pcr, state.acr + state.air)
    return state.acr


class EfciObserver:
    """Destination-side window: OR of EFCI bits over runs of nrm data cells."""

    __slots__ = ("nrm", "cells_seen", "congested")

    def __init__(self, nrm: int = DEFAULT_NRM):
        if nrm < 1:
            raise ValueError("nrm must be >= 1")
        self.nrm = nrm
        self.cells_seen = 0
        self.congested = False

    def observe(self, efci: bool) -> Optional[bool]:
        """Account one delivered data cell; returns the window's congested
        bit when a window completes, None otherwise."""
        self.cells_seen += 1
        if efci:
            self.congested = True
        if self.cells_seen < self.nrm:
            return None
        congested = self.congested
        self.cells_seen = 0
        self.congested = False
        return congested
