"""Header codec, HEC protection and trace formatting.

The reference results come from a bit-serial CRC register implemented
here from the generator polynomial alone, independent of the table-driven
code under test.
"""

import random

import pytest

from atmsim.cell import (
    CELL_BYTES,
    HEADER_BYTES,
    PAYLOAD_BYTES,
    Cell,
    CellHeader,
    DecodeStatus,
    InterfaceKind,
    TraceFormatError,
    compute_hec,
    crc8,
    decode_cell,
    decode_header,
    encode_cell,
    encode_header,
    format_trace_line,
    parse_trace_line,
    set_efci,
)
from atmsim.errors import ContractError


def crc8_bitserial(data: bytes) -> int:
    """x^8 + x^2 + x + 1, msb first, zero init: one bit at a time."""
    reg = 0
    for byte in data:
        for i in range(8):
            bit = (byte >> (7 - i)) & 1
            top = (reg >> 7) & 1
            reg = ((reg << 1) & 0xFF) | bit
            if top:
                reg ^= 0x07
    # flush 8 zero bits to push the last byte through the register
    for _ in range(8):
        top = (reg >> 7) & 1
        reg = (reg << 1) & 0xFF
        if top:
            reg ^= 0x07
    return reg


def random_header(rng: random.Random) -> CellHeader:
    kind = rng.choice((InterfaceKind.UNI, InterfaceKind.NNI))
    vpi_max = 0xFF if kind is InterfaceKind.UNI else 0xFFF
    return CellHeader(
        kind=kind,
        vpi=rng.randrange(vpi_max + 1),
        vci=rng.randrange(0x10000),
        gfc=rng.randrange(16) if kind is InterfaceKind.UNI else 0,
        is_management=rng.random() < 0.2,
        efci=rng.random() < 0.3,
        aal5_last=rng.random() < 0.3,
        clp=rng.randrange(2),
    )


class TestCrc8:
    def test_matches_bitserial_single_bytes(self):
        for value in range(256):
            data = bytes((value,))
            assert crc8(data) == crc8_bitserial(data)

    def test_matches_bitserial_random_strings(self):
        rng = random.Random(0x5EED)
        for _ in range(500):
            data = rng.randbytes(rng.randrange(1, 12))
            assert crc8(data) == crc8_bitserial(data)

    def test_golden_hec_values(self):
        # frozen from the bit-serial register: all-zero header, and the
        # vpi=1/vci=1 header 00 10 00 10
        assert compute_hec(bytes(4)) == 0x55
        assert compute_hec(bytes((0x00, 0x10, 0x00, 0x10))) == 0x87
        assert crc8_bitserial(bytes(4)) ^ 0x55 == 0x55
        assert crc8_bitserial(bytes((0x00, 0x10, 0x00, 0x10))) ^ 0x55 == 0x87

    def test_hec_requires_four_bytes(self):
        with pytest.raises(ValueError):
            compute_hec(bytes(5))


class TestHeaderCodec:
    def test_known_encoding(self):
        header = CellHeader(kind=InterfaceKind.UNI, vpi=1, vci=1)
        assert encode_header(header) == bytes((0x00, 0x10, 0x00, 0x10, 0x87))

    def test_round_trip_random(self):
        rng = random.Random(1)
        for _ in range(10_000):
            header = random_header(rng)
            outcome = decode_header(encode_header(header), header.kind)
            assert outcome.status is DecodeStatus.VALID
            assert outcome.header == header
            assert outcome.flipped_bit is None

    def test_field_packing_against_bit_oracle(self):
        # read the fields straight out of the 32-bit big-endian image
        rng = random.Random(2)
        for _ in range(2_000):
            header = random_header(rng)
            word = int.from_bytes(encode_header(header)[:4], "big")
            assert word & 0x1 == header.clp
            assert (word >> 1) & 0x7 == header.pti
            assert (word >> 4) & 0xFFFF == header.vci
            if header.kind is InterfaceKind.UNI:
                assert (word >> 20) & 0xFF == header.vpi
                assert (word >> 28) & 0xF == header.gfc
            else:
                assert (word >> 20) & 0xFFF == header.vpi

    def test_pti_decomposition(self):
        for pti in range(8):
            header = CellHeader(
                kind=InterfaceKind.UNI,
                vpi=0,
                vci=5,
                is_management=bool(pti & 4),
                efci=bool(pti & 2),
                aal5_last=bool(pti & 1),
            )
            assert header.pti == pti
            decoded = decode_header(encode_header(header), InterfaceKind.UNI)
            assert decoded.header == header

    def test_field_ranges_enforced(self):
        with pytest.raises(ValueError):
            CellHeader(kind=InterfaceKind.UNI, vpi=0x100, vci=0)
        CellHeader(kind=InterfaceKind.NNI, vpi=0x100, vci=0)  # fits at the NNI
        with pytest.raises(ValueError):
            CellHeader(kind=InterfaceKind.NNI, vpi=0x1000, vci=0)
        with pytest.raises(ValueError):
            CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=0x10000)
        with pytest.raises(ValueError):
            CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=0, gfc=16)
        with pytest.raises(ValueError):
            CellHeader(kind=InterfaceKind.NNI, vpi=0, vci=0, gfc=1)
        with pytest.raises(ValueError):
            CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=0, clp=2)


class TestSingleBitCorrection:
    def test_every_position_corrected(self):
        rng = random.Random(3)
        for _ in range(50):
            header = random_header(rng)
            raw = encode_header(header)
            for bit in range(40):
                corrupted = bytearray(raw)
                corrupted[bit // 8] ^= 0x80 >> (bit % 8)
                outcome = decode_header(bytes(corrupted), header.kind)
                assert outcome.status is DecodeStatus.CORRECTED
                assert outcome.flipped_bit == bit
                assert outcome.header == header

    def test_double_flip_never_valid(self):
        # the 40 single-bit syndromes are distinct, so two flips cannot
        # cancel; some alias to a third position (miscorrection), which a
        # one-bit code is allowed to do, but none may pass as clean
        rng = random.Random(4)
        header = random_header(rng)
        raw = encode_header(header)
        statuses = set()
        for i in range(40):
            for j in range(i + 1, 40):
                corrupted = bytearray(raw)
                corrupted[i // 8] ^= 0x80 >> (i % 8)
                corrupted[j // 8] ^= 0x80 >> (j % 8)
                outcome = decode_header(bytes(corrupted), header.kind)
                assert outcome.status is not DecodeStatus.VALID
                if outcome.status is DecodeStatus.CORRECTED:
                    assert outcome.header != header
                statuses.add(outcome.status)
        assert DecodeStatus.UNCORRECTABLE in statuses


class TestCellCodec:
    def test_cell_round_trip(self):
        rng = random.Random(5)
        header = random_header(rng)
        payload = rng.randbytes(PAYLOAD_BYTES)
        raw = encode_cell(Cell(header, payload))
        assert len(raw) == CELL_BYTES
        outcome, got_payload = decode_cell(raw, header.kind)
        assert outcome.status is DecodeStatus.VALID
        assert outcome.header == header
        assert got_payload == payload

    def test_payload_length_enforced(self):
        header = CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=5)
        with pytest.raises(ValueError):
            Cell(header, bytes(47))
        with pytest.raises(ValueError):
            decode_cell(bytes(52), InterfaceKind.UNI)

    def test_default_payload_is_zeroed(self):
        cell = Cell(CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=5))
        assert cell.payload == bytes(PAYLOAD_BYTES)


class TestEfci:
    def test_set_efci_marks_user_cell(self):
        cell = Cell(CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=5))
        marked = set_efci(cell)
        assert marked.header.efci and not cell.header.efci
        assert marked.payload == cell.payload

    def test_set_efci_idempotent(self):
        cell = Cell(CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=5, efci=True))
        assert set_efci(cell) == cell

    def test_set_efci_rejects_management(self):
        cell = Cell(
            CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=5, is_management=True)
        )
        with pytest.raises(ContractError):
            set_efci(cell)

    def test_hec_follows_efci_mark(self):
        cell = Cell(CellHeader(kind=InterfaceKind.UNI, vpi=3, vci=77))
        raw = encode_cell(set_efci(cell))
        assert raw[4] == compute_hec(raw[:4])


class TestTraceFormat:
    def test_round_trip(self):
        rng = random.Random(6)
        header = random_header(rng)
        cell = Cell(header, rng.randbytes(PAYLOAD_BYTES))
        line = format_trace_line(0.125, 3, cell)
        time_s, port, raw = parse_trace_line(line)
        assert time_s == 0.125
        assert port == 3
        assert raw == encode_cell(cell)

    def test_time_survives_repr_round_trip(self):
        cell = Cell(CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=5))
        for value in (0.1, 1 / 3, 12345.6789, 2.0**-30):
            time_s, _, _ = parse_trace_line(format_trace_line(value, 0, cell))
            assert time_s == value

    def test_accepts_spaced_byte_pairs(self):
        cell = Cell(CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=5))
        raw = encode_cell(cell)
        line = "0.5 1 " + " ".join(f"{b:02x}" for b in raw)
        time_s, port, got = parse_trace_line(line)
        assert (time_s, port, got) == (0.5, 1, raw)

    def test_malformed_lines_rejected(self):
        good = format_trace_line(0.0, 0, Cell(CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=5)))
        for bad in (
            "",
            "0.5",
            "0.5 1",
            "x 1 " + "00" * CELL_BYTES,
            "0.5 x " + "00" * CELL_BYTES,
            "0.5 1 " + "00" * (CELL_BYTES - 1),
            "0.5 1 " + "zz" * CELL_BYTES,
            good + "ff",
        ):
            with pytest.raises(TraceFormatError):
                parse_trace_line(bad)

    def test_negative_time_and_port_rejected(self):
        raw_hex = "00" * CELL_BYTES
        with pytest.raises(TraceFormatError):
            parse_trace_line(f"-1.0 0 {raw_hex}")
        with pytest.raises(TraceFormatError):
            parse_trace_line(f"0.5 -2 {raw_hex}")
