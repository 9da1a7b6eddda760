"""AAL5 segmentation and reassembly.

A frame of up to 65535 bytes is zero-padded, given an 8-byte trailer
(16-bit big-endian length, two reserved zero bytes, CRC-32) and cut into
48-byte cell payloads; the final cell is flagged through the header's
aal5_last bit.  The CRC-32 uses the 0x04C11DB7 generator in the
bit-reflected convention (zlib's), computed over the padded frame plus
the trailer with a zeroed CRC field.
"""

from __future__ import annotations

import enum
import struct
import zlib
from typing import List, Tuple, Union

from .wire import PAYLOAD_BYTES

TRAILER_BYTES = 8
MAX_FRAME_BYTES = 0xFFFF

# Most cell payloads a legal frame can occupy: ceil((65535+8)/48).
_MAX_BUFFER_CELLS = -(-(MAX_FRAME_BYTES + TRAILER_BYTES) // PAYLOAD_BYTES)


class ReassemblyError(enum.Enum):
    CRC_MISMATCH = "crc_mismatch"
    LENGTH_MISMATCH = "length_mismatch"
    OVERSIZE = "oversize"


PushResult = Union[None, bytes, ReassemblyError]


def cell_count(frame_len: int) -> int:
    """Number of cell payloads a frame of the given length occupies."""
    if not 0 <= frame_len <= MAX_FRAME_BYTES:
        raise ValueError(f"frame length {frame_len} out of range")
    return -(-(frame_len + TRAILER_BYTES) // PAYLOAD_BYTES)


def _trailer(frame_len: int, crc: int) -> bytes:
    return struct.pack(">HHI", frame_len, 0, crc)


def segment(frame: bytes) -> List[Tuple[bytes, bool]]:
    """Cut a frame into (48-byte payload, is_last) pieces.

    The frame is padded with zeros so frame+trailer fills a whole number
    of payloads; only the final piece has is_last set.
    """
    n = len(frame)
    if n > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {n} bytes exceeds the {MAX_FRAME_BYTES} maximum")
    total = cell_count(n) * PAYLOAD_BYTES
    padded = frame + bytes(total - TRAILER_BYTES - n)
    crc = zlib.crc32(padded + _trailer(n, 0))
    buf = padded + _trailer(n, crc)
    return [
        (buf[i : i + PAYLOAD_BYTES], i + PAYLOAD_BYTES == total)
        for i in range(0, total, PAYLOAD_BYTES)
    ]


class Reassembler:
    """Per-VC reassembly state: one in-progress frame at a time.

    push() returns None while the frame is incomplete, the frame bytes on
    a verified last cell, or a ReassemblyError.  Any error resets the
    state so the next push starts a fresh frame.
    """

    def __init__(self) -> None:
        self._chunks: List[bytes] = []

    def push(self, payload: bytes, is_last: bool) -> PushResult:
        if len(payload) != PAYLOAD_BYTES:
            raise ValueError(f"payload must be {PAYLOAD_BYTES} bytes, got {len(payload)}")
        chunks = self._chunks
        if len(chunks) >= _MAX_BUFFER_CELLS:
            chunks.clear()
            return ReassemblyError.OVERSIZE
        chunks.append(payload)
        if not is_last:
            return None
        buf = b"".join(chunks)
        chunks.clear()
        frame_len, _reserved = struct.unpack(">HH", buf[-TRAILER_BYTES : -TRAILER_BYTES + 4])
        # Length first: a lost cell shows up as a size that cannot carry
        # the claimed frame, which is more telling than a CRC failure.
        if cell_count(frame_len) * PAYLOAD_BYTES != len(buf):
            return ReassemblyError.LENGTH_MISMATCH
        crc = zlib.crc32(buf[:-4] + bytes(4))
        (got,) = struct.unpack(">I", buf[-4:])
        if got != crc:
            return ReassemblyError.CRC_MISMATCH
        return buf[:frame_len]
