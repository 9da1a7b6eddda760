"""ATM cell layer: header fields, HEC generation and correction, 53-byte codec.

A cell is 53 bytes: a 5-byte header followed by a 48-byte payload.  The
header carries the routing labels (VPI/VCI), the 3-bit payload type
indicator, the cell loss priority bit and, at the user-network interface,
a 4-bit generic flow control field.  Byte 4 is the header error control
byte: a CRC-8 over bytes 0..3 XORed with the 0x55 coset, so that five
zero bytes are not a valid header.  The 40 single-bit errors have distinct
syndromes and are corrected.  The generator x^8+x^2+x+1 has the factor
x+1, so a syndrome has the weight parity of its error pattern: every
single-bit syndrome has odd weight and every double-bit error an even,
nonzero one, so a double-bit error is always detected and never
miscorrected.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Dict, Tuple

from .errors import ContractError
from .record import Record, new_tuple

CELL_BYTES = 53
CELL_BITS = 8 * CELL_BYTES
HEADER_BYTES = 5
PAYLOAD_BYTES = 48

HEC_POLY = 0x07  # x^8 + x^2 + x + 1, msb-first
HEC_COSET = 0x55

GFC_MAX = 0xF
VPI_UNI_MAX = 0xFF
VPI_NNI_MAX = 0xFFF
VCI_MAX = 0xFFFF

ZERO_PAYLOAD = bytes(PAYLOAD_BYTES)


class InterfaceKind(enum.Enum):
    """Which header format a link uses: user-network or network-network."""

    UNI = "uni"
    NNI = "nni"

    # members are singletons compared by identity; Enum.__hash__ is Python
    # code, and decode_header hashes a member to pick its memo on every call
    __hash__ = object.__hash__


def _crc8_table(poly: int) -> Tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = ((crc << 1) ^ poly) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
        table.append(crc)
    return tuple(table)


_CRC8_TABLE = _crc8_table(HEC_POLY)


def crc8(data: bytes) -> int:
    """CRC-8 of ``data`` with generator 0x07, zero init, no reflection."""
    crc = 0
    for byte in data:
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


def compute_hec(header4: bytes) -> int:
    """HEC byte for the first four header bytes.

    CRC-8 (generator x^8+x^2+x+1) of the four bytes, XORed with the 0x55
    coset, so an all-zero header yields 0x55 rather than 0x00.
    """
    if len(header4) != 4:
        raise ValueError(f"HEC covers exactly 4 bytes, got {len(header4)}")
    return crc8(header4) ^ HEC_COSET


def _syndrome_table() -> Dict[int, int]:
    # Syndrome of a single-bit error at position i of the 40-bit header
    # (bit 0 = msb of byte 0).  CRC-8 with zero init is linear, so the
    # syndrome of an error pattern is the pattern's own CRC; an error in
    # the HEC byte itself shows up directly.
    table: Dict[int, int] = {}
    for i in range(40):
        if i < 32:
            pattern = bytearray(4)
            pattern[i // 8] |= 0x80 >> (i % 8)
            syndrome = crc8(bytes(pattern))
        else:
            syndrome = 0x80 >> (i - 32)
        table[syndrome] = i
    return table


_SYNDROMES = _syndrome_table()

# Correction is only well defined if the 40 single-bit syndromes are
# distinct and nonzero; checked at import so a bad generator cannot ship.
if len(_SYNDROMES) != 40 or 0 in _SYNDROMES:
    raise AssertionError("single-bit HEC syndromes must be 40 distinct nonzero values")


class CellHeader(Record):
    """Decoded header fields.

    The 3-bit payload type is carried decomposed: ``is_management`` is the
    high bit, ``efci`` the middle bit and ``aal5_last`` the low bit.  The
    efci and aal5_last flags only carry their usual meaning on user-data
    cells (``is_management`` false); the bits are preserved either way.
    """

    __slots__ = ()

    def __new__(
        cls, kind, vpi, vci, gfc=0, is_management=False, efci=False, aal5_last=False, clp=0
    ):
        return new_tuple(cls, (kind, vpi, vci, gfc, is_management, efci, aal5_last, clp))

    # The checks run in __init__, not __new__, so that the class has an
    # __init__ of its own for a profiler to wrap.
    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        kind, vpi, vci, gfc, _, _, _, clp = self
        if not type(vpi) is type(vci) is type(gfc) is int:  # a bool is no label either
            name = next(n for n, v in zip(("vpi", "vci", "gfc"), self[1:4]) if type(v) is not int)
            raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        vpi_max = VPI_UNI_MAX if kind is InterfaceKind.UNI else VPI_NNI_MAX
        if not 0 <= vpi <= vpi_max:
            raise ValueError(f"vpi {vpi} out of range for {kind.value}")
        if not 0 <= vci <= VCI_MAX:
            raise ValueError(f"vci {vci} out of range")
        if not 0 <= gfc <= GFC_MAX:
            raise ValueError(f"gfc {gfc} out of range")
        if kind is InterfaceKind.NNI and gfc != 0:
            raise ValueError("gfc only exists at the UNI")
        if clp not in (0, 1):
            raise ValueError(f"clp must be 0 or 1, got {clp}")

    @property
    def pti(self) -> int:
        """The 3-bit payload type field."""
        return (int(self.is_management) << 2) | (int(self.efci) << 1) | int(self.aal5_last)


class DecodeStatus(enum.Enum):
    VALID = "valid"
    CORRECTED = "corrected"
    UNCORRECTABLE = "uncorrectable"


class DecodeOutcome(Record):
    """Result of decoding a 5-byte header.

    ``flipped_bit`` is only set for CORRECTED: the position (0..39, msb of
    byte 0 first) of the received bit that was inverted to restore a
    codeword.  ``header`` is None exactly when UNCORRECTABLE.
    """

    __slots__ = ()

    def __new__(cls, status, header=None, flipped_bit=None):
        return new_tuple(cls, (status, header, flipped_bit))


def _parse_fields(first4: bytes, kind: InterfaceKind) -> CellHeader:
    b0, b1, b2, b3 = first4
    if kind is InterfaceKind.UNI:
        gfc = b0 >> 4
        vpi = ((b0 & 0xF) << 4) | (b1 >> 4)
    else:
        gfc = 0
        vpi = (b0 << 4) | (b1 >> 4)
    vci = ((b1 & 0xF) << 12) | (b2 << 4) | (b3 >> 4)
    pti = (b3 >> 1) & 0x7
    return CellHeader(
        kind=kind,
        vpi=vpi,
        vci=vci,
        gfc=gfc,
        is_management=bool(pti & 0x4),
        efci=bool(pti & 0x2),
        aal5_last=bool(pti & 0x1),
        clp=b3 & 0x1,
    )


def encode_header(header: CellHeader) -> bytes:
    """Serialize a header to its 5-byte wire form, HEC included.

    Bytes 0..3 pack the fields msb-first in the order GFC (UNI only),
    VPI, VCI, PTI, CLP; byte 4 is compute_hec of the first four.
    """
    if header.kind is InterfaceKind.UNI:
        b0 = (header.gfc << 4) | (header.vpi >> 4)
    else:
        b0 = header.vpi >> 4
    b1 = ((header.vpi & 0xF) << 4) | (header.vci >> 12)
    b2 = (header.vci >> 4) & 0xFF
    b3 = ((header.vci & 0xF) << 4) | (header.pti << 1) | header.clp
    first4 = bytes((b0, b1, b2, b3))
    return first4 + bytes((compute_hec(first4),))


# Decoded outcomes by header bytes, one memo per interface kind.  A link
# carries few distinct headers (one per VC and CLP/PTI value, plus their
# corruptions), so most decodes are one lookup.  Outcomes are immutable and
# safe to share.  A kind's memo is cleared when it fills, which bounds it at
# DECODE_MEMO_MAX entries.
DECODE_MEMO_MAX = 4096
_decode_memos: Dict[InterfaceKind, Dict[bytes, DecodeOutcome]] = {
    kind: {} for kind in InterfaceKind
}


def decode_header(raw: bytes, kind: InterfaceKind) -> DecodeOutcome:
    """Decode 5 received header bytes, correcting a single flipped bit.

    A zero syndrome decodes as VALID.  A syndrome matching one of the 40
    single-bit error patterns flips that bit back and decodes as
    CORRECTED with the bit position reported.  Anything else is
    UNCORRECTABLE and the cell should be dropped by the caller.  Each
    distinct header is decoded once; repeats return the memoized outcome.
    """
    if len(raw) != HEADER_BYTES:
        raise ValueError(f"header is {HEADER_BYTES} bytes, got {len(raw)}")
    # the memo keys on bytes as given and on an exact bytes copy of anything
    # else: a bytearray cannot be hashed, a subclass may hash otherwise
    if type(raw) is not bytes:
        raw = bytes(raw)
    memo = _decode_memos[kind]
    outcome = memo.get(raw)
    if outcome is None:
        outcome = _decode(raw, kind)
        if len(memo) >= DECODE_MEMO_MAX:
            memo.clear()
        memo[raw] = outcome
    return outcome


def _decode(raw: bytes, kind: InterfaceKind) -> DecodeOutcome:
    syndrome = crc8(raw[:4]) ^ HEC_COSET ^ raw[4]
    if syndrome == 0:
        return DecodeOutcome(DecodeStatus.VALID, _parse_fields(raw[:4], kind))
    bit = _SYNDROMES.get(syndrome)
    if bit is None:
        return DecodeOutcome(DecodeStatus.UNCORRECTABLE)
    fixed = bytearray(raw)
    fixed[bit // 8] ^= 0x80 >> (bit % 8)
    return DecodeOutcome(DecodeStatus.CORRECTED, _parse_fields(bytes(fixed[:4]), kind), bit)


class Cell(Record):
    """One fixed-size cell: header plus exactly 48 payload bytes."""

    __slots__ = ()

    def __new__(cls, header, payload=ZERO_PAYLOAD):
        return new_tuple(cls, (header, payload))

    # checked in __init__, as CellHeader is; built once per trace cell, so
    # the check reads its arguments, which is faster than reading self
    def __init__(self, header: CellHeader, payload: bytes = ZERO_PAYLOAD) -> None:
        if len(payload) != PAYLOAD_BYTES:
            raise ValueError(f"payload must be {PAYLOAD_BYTES} bytes, got {len(payload)}")


def encode_cell(cell: Cell) -> bytes:
    return encode_header(cell.header) + cell.payload


def decode_cell(raw: bytes, kind: InterfaceKind) -> Tuple[DecodeOutcome, bytes]:
    """Split and decode a 53-byte cell; payload bytes pass through as-is."""
    if len(raw) != CELL_BYTES:
        raise ValueError(f"cell is {CELL_BYTES} bytes, got {len(raw)}")
    return decode_header(raw[:HEADER_BYTES], kind), raw[HEADER_BYTES:]


def set_efci(cell: Cell) -> Cell:
    """Return the cell with its congestion-experienced bit set.

    Only user-data cells carry EFCI; calling this on a management cell is
    a contract error.  Idempotent.  The HEC follows automatically since
    serialization derives it from the header fields.
    """
    if cell.header.is_management:
        raise ContractError("EFCI marking applies to user-data cells only")
    if cell.header.efci:
        return cell
    return Cell(cell.header._replace(efci=True), cell.payload)


_INF = math.inf
_fromhex = bytes.fromhex


class TraceFormatError(ValueError):
    """A cell trace line that does not parse."""


def format_trace_line(time_s: float, port: int, cell: Cell) -> str:
    """One trace line: ``<time_s> <port> <53 hex byte pairs>``."""
    return f"{time_s!r} {port} {encode_cell(cell).hex()}"


def parse_trace_line(line: str) -> Tuple[float, int, bytes]:
    """Parse a trace line to (time_s, port, raw 53 cell bytes).

    Accepts the 53 byte pairs either as one contiguous hex run or as
    space-separated pairs.
    """
    fields = line.split()
    if len(fields) == 3:
        time_text, port_text, hexrun = fields
    elif len(fields) > 3:
        time_text, port_text, *pairs = fields
        hexrun = "".join(pairs)
    else:
        raise TraceFormatError(f"expected time, port and cell bytes, got {len(fields)} fields")
    try:
        time_s = float(time_text)
    except ValueError:
        raise TraceFormatError(f"bad time value {time_text!r}") from None
    # refuses NaN and both infinities; -0.0 passes
    if not 0 <= time_s < _INF:
        raise TraceFormatError(f"time must be finite and >= 0, got {time_text}")
    try:
        port = int(port_text)
    except ValueError:
        raise TraceFormatError(f"bad port value {port_text!r}") from None
    if port < 0:
        raise TraceFormatError(f"port must be >= 0, got {port}")
    try:
        raw = _fromhex(hexrun)
    except ValueError:
        raise TraceFormatError("cell bytes are not valid hex") from None
    if len(raw) != CELL_BYTES:
        raise TraceFormatError(f"cell is {CELL_BYTES} bytes, got {len(raw)}")
    return time_s, port, raw
