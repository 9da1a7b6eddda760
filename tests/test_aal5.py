"""Frame segmentation and reassembly, including the trailer checksum.

The checksum oracle is a reflected bit-serial CRC-32 register built here
from the polynomial constants alone, cross-checked against the classic
check value crc32(b"123456789") == 0xCBF43926.
"""

import random
import struct

import pytest

from atmsim.aal5 import (
    MAX_FRAME_BYTES,
    TRAILER_BYTES,
    Reassembler,
    ReassemblyError,
    cell_count,
    segment,
)
from atmsim.cell import PAYLOAD_BYTES


def crc32_bitserial(data: bytes) -> int:
    """Reflected CRC-32 (poly 0x04C11DB7), init and final xor all-ones."""
    reg = 0xFFFFFFFF
    for byte in data:
        reg ^= byte
        for _ in range(8):
            if reg & 1:
                reg = (reg >> 1) ^ 0xEDB88320
            else:
                reg >>= 1
    return reg ^ 0xFFFFFFFF


def padded_pdu(frame: bytes) -> bytes:
    """Reference construction: frame + zero pad + 8-byte trailer."""
    pad = (-(len(frame) + TRAILER_BYTES)) % PAYLOAD_BYTES
    body = frame + bytes(pad) + struct.pack(">HH", len(frame), 0)
    return body + struct.pack(">I", crc32_bitserial(body + bytes(4)))


def reassemble(cells, reassembler=None):
    rs = reassembler or Reassembler()
    results = [rs.push(payload, last) for payload, last in cells]
    assert all(r is None for r in results[:-1])
    return results[-1]


class TestCrc32Oracle:
    def test_check_value(self):
        assert crc32_bitserial(b"123456789") == 0xCBF43926

    def test_segment_uses_same_crc(self):
        rng = random.Random(10)
        for _ in range(50):
            frame = rng.randbytes(rng.randrange(0, 300))
            wire = b"".join(payload for payload, _ in segment(frame))
            assert wire == padded_pdu(frame)


class TestSegmentation:
    def test_cell_count_law(self):
        for length in range(0, 2001):
            expected = -(-(length + TRAILER_BYTES) // PAYLOAD_BYTES)
            assert cell_count(length) == expected
            assert len(segment(bytes(length))) == expected

    def test_last_flag_only_on_final_cell(self):
        cells = segment(bytes(100))
        assert [last for _, last in cells] == [False] * (len(cells) - 1) + [True]

    def test_all_payloads_full_size(self):
        for payload, _ in segment(bytes(130)):
            assert len(payload) == PAYLOAD_BYTES

    def test_trailer_fields(self):
        frame = bytes(range(100)) + bytes(30)
        wire = b"".join(payload for payload, _ in segment(frame))
        length, reserved, crc = struct.unpack(">HHI", wire[-TRAILER_BYTES:])
        assert length == 130
        assert reserved == 0
        assert crc == crc32_bitserial(wire[:-4] + bytes(4))

    def test_largest_frame_round_trips(self):
        frame = bytes(MAX_FRAME_BYTES)
        assert reassemble(segment(frame)) == frame

    def test_oversize_frame_rejected(self):
        with pytest.raises(ValueError):
            segment(bytes(MAX_FRAME_BYTES + 1))

    def test_negative_frame_length_rejected(self):
        with pytest.raises(ValueError, match="frame length -1 out of range"):
            cell_count(-1)


class TestReassembly:
    def test_round_trip_all_small_lengths(self):
        rng = random.Random(11)
        for length in range(0, 500):
            frame = rng.randbytes(length)
            assert reassemble(segment(frame)) == frame

    def test_round_trip_boundary_lengths(self):
        # exact multiples of the payload size, and one either side of the
        # 40/41 pivot where the trailer spills into an extra cell
        rng = random.Random(12)
        for length in (39, 40, 41, 48, 87, 88, 89, 96, 1000, 1488, 1489):
            frame = rng.randbytes(length)
            assert reassemble(segment(frame)) == frame

    def test_payload_corruption_is_crc_mismatch(self):
        rng = random.Random(13)
        frame = rng.randbytes(200)
        cells = [(bytearray(p), last) for p, last in segment(frame)]
        cells[1][0][7] ^= 0x40
        result = reassemble([(bytes(p), last) for p, last in cells])
        assert result is ReassemblyError.CRC_MISMATCH

    def test_dropped_cell_is_length_mismatch(self):
        rng = random.Random(14)
        frame = rng.randbytes(200)
        cells = segment(frame)
        del cells[1]
        assert reassemble(cells) is ReassemblyError.LENGTH_MISMATCH

    def test_duplicated_cell_is_length_mismatch(self):
        rng = random.Random(15)
        frame = rng.randbytes(200)
        cells = segment(frame)
        cells.insert(1, cells[1])
        assert reassemble(cells) is ReassemblyError.LENGTH_MISMATCH

    def test_dropped_last_cell_merges_frames(self):
        # losing the end-of-frame marker makes the next frame's trailer
        # close both; the combined buffer then fails the length check
        first = segment(bytes(100))[:-1]
        second = segment(bytes(50))
        assert reassemble(first + second) is ReassemblyError.LENGTH_MISMATCH

    def test_length_field_corruption_never_silent(self):
        rng = random.Random(16)
        for _ in range(200):
            frame = rng.randbytes(rng.randrange(0, 300))
            cells = [(bytearray(p), last) for p, last in segment(frame)]
            byte_index = rng.choice((0, 1))  # the 16-bit length field
            offset = PAYLOAD_BYTES - TRAILER_BYTES + byte_index
            cells[-1][0][offset] ^= 1 << rng.randrange(8)
            result = reassemble([(bytes(p), last) for p, last in cells])
            assert result in (
                ReassemblyError.LENGTH_MISMATCH,
                ReassemblyError.CRC_MISMATCH,
            )

    def test_oversize_stream_reported(self):
        # a legal frame occupies at most cell_count(65535) payloads; one
        # more without an end flag can no longer belong to any frame
        rs = Reassembler()
        payload = bytes(PAYLOAD_BYTES)
        for _ in range(cell_count(MAX_FRAME_BYTES)):
            assert rs.push(payload, False) is None
        assert rs.push(payload, False) is ReassemblyError.OVERSIZE
        # the error reset the buffer: the next frame reassembles cleanly
        assert reassemble(segment(b"next"), rs) == b"next"

    def test_state_resets_after_error(self):
        rs = Reassembler()
        bad = segment(bytes(100))
        del bad[0]
        assert reassemble(bad, rs) is ReassemblyError.LENGTH_MISMATCH
        frame = bytes(range(48)) * 2
        assert reassemble(segment(frame), rs) == frame

    def test_state_resets_after_success(self):
        rs = Reassembler()
        assert reassemble(segment(b"first"), rs) == b"first"
        assert reassemble(segment(b"second"), rs) == b"second"

    def test_wrong_payload_size_rejected(self):
        rs = Reassembler()
        with pytest.raises(ValueError):
            rs.push(bytes(47), False)


class TestRandomizedRoundTrip:
    def test_random_lengths_and_contents(self):
        rng = random.Random(17)
        rs = Reassembler()
        for _ in range(300):
            frame = rng.randbytes(rng.randrange(0, 3000))
            assert reassemble(segment(frame), rs) == frame
