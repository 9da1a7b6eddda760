"""Header codec, HEC protection and trace formatting.

The reference results come from a bit-serial CRC register implemented
here from the generator polynomial alone, independent of the table-driven
code under test.
"""

import copy
import pickle
import random

import pytest

from atmsim import cell as cell_module
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

ZERO = bytes(PAYLOAD_BYTES)


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
        # x^8+x^2+x+1 has the factor x+1, so a syndrome has the weight
        # parity of its error: single-bit syndromes are odd, a double
        # flip's is even and nonzero, so all 780 double flips are detected
        # and none is miscorrected to a third position
        rng = random.Random(4)
        for kind in InterfaceKind:
            header = CellHeader(
                kind=kind, vpi=rng.randrange(256), vci=rng.randrange(0x10000), clp=rng.randrange(2)
            )
            raw = encode_header(header)
            for i in range(40):
                for j in range(i + 1, 40):
                    corrupted = bytearray(raw)
                    corrupted[i // 8] ^= 0x80 >> (i % 8)
                    corrupted[j // 8] ^= 0x80 >> (j % 8)
                    outcome = decode_header(bytes(corrupted), kind)
                    assert outcome.status is DecodeStatus.UNCORRECTABLE, (kind, i, j)
                    assert outcome.header is None


class TestDecodeMemo:
    def test_memo_hit_equals_first_decode(self):
        rng = random.Random(5)
        for kind in InterfaceKind:
            header = CellHeader(kind=kind, vpi=rng.randrange(256), vci=rng.randrange(0x10000))
            raw = encode_header(header)
            for bit in range(40):
                corrupted = bytearray(raw)
                corrupted[bit // 8] ^= 0x80 >> (bit % 8)
                memo = cell_module._decode_memos[kind]
                memo.clear()
                first = decode_header(bytes(corrupted), kind)
                assert memo[bytes(corrupted)] is first
                again = decode_header(bytes(corrupted), kind)
                assert again is first
                assert (again.status, again.flipped_bit, again.header) == (
                    DecodeStatus.CORRECTED, bit, header
                )

    def test_same_bytes_decode_per_kind(self):
        # one 5-byte pattern reads differently at the UNI and the NNI
        raw = encode_header(CellHeader(kind=InterfaceKind.UNI, vpi=0x12, vci=7, gfc=0xA))
        uni = decode_header(raw, InterfaceKind.UNI)
        nni = decode_header(raw, InterfaceKind.NNI)
        assert (uni.header.gfc, uni.header.vpi) == (0xA, 0x12)
        assert (nni.header.gfc, nni.header.vpi) == (0, 0xA12)

    def test_accepts_bytearray(self):
        raw = encode_header(CellHeader(kind=InterfaceKind.UNI, vpi=3, vci=99))
        buffer = bytearray(raw)
        outcome = decode_header(buffer, InterfaceKind.UNI)
        assert outcome == decode_header(raw, InterfaceKind.UNI)
        assert outcome.status is DecodeStatus.VALID
        buffer[0] ^= 0x01  # the memo keys on a copy, not on the caller's buffer
        assert decode_header(raw, InterfaceKind.UNI).status is DecodeStatus.VALID
        for key in cell_module._decode_memos[InterfaceKind.UNI]:
            assert type(key) is bytes
        with pytest.raises(ValueError):
            decode_header(bytearray(4), InterfaceKind.UNI)

    def test_bytes_input_is_the_key(self):
        raw = encode_header(CellHeader(kind=InterfaceKind.UNI, vpi=4, vci=77))
        memo = cell_module._decode_memos[InterfaceKind.UNI]
        memo.clear()
        decode_header(raw, InterfaceKind.UNI)
        assert [key is raw for key in memo] == [True]

    @pytest.mark.parametrize("wrap", [bytearray, memoryview, type("Octets", (bytes,), {})])
    def test_other_input_keys_an_exact_bytes_copy(self, wrap):
        raw = encode_header(CellHeader(kind=InterfaceKind.UNI, vpi=4, vci=78))
        memo = cell_module._decode_memos[InterfaceKind.UNI]
        memo.clear()
        given = wrap(raw)
        outcome = decode_header(given, InterfaceKind.UNI)
        (key,) = memo
        assert type(key) is bytes and key == raw and key is not given
        assert memo[key] is outcome and outcome.status is DecodeStatus.VALID

    def test_one_entry_per_kind(self):
        raw = encode_header(CellHeader(kind=InterfaceKind.UNI, vpi=0x12, vci=7))
        memos = cell_module._decode_memos
        for memo in memos.values():
            memo.clear()
        decode_header(raw, InterfaceKind.UNI)
        decode_header(raw, InterfaceKind.NNI)
        decode_header(raw, InterfaceKind.UNI)
        assert {kind: list(memo) for kind, memo in memos.items()} == {
            InterfaceKind.UNI: [raw], InterfaceKind.NNI: [raw]
        }

    def test_stays_within_bound(self):
        bound = cell_module.DECODE_MEMO_MAX
        for kind in InterfaceKind:
            for vci in range(bound + 500):
                header = CellHeader(kind=kind, vpi=1, vci=vci)
                assert decode_header(encode_header(header), kind).header == header
                assert len(cell_module._decode_memos[kind]) <= bound
        assert set(cell_module._decode_memos) == set(InterfaceKind)


class TestInterfaceKindIdentity:
    """InterfaceKind hashes by identity; members stay singletons."""

    def test_equal_headers_hash_equal(self):
        for kind in InterfaceKind:
            first = CellHeader(kind=kind, vpi=5, vci=77, clp=1)
            second = CellHeader(kind=InterfaceKind(kind.value), vpi=5, vci=77, clp=1)
            assert first is not second
            assert first == second and hash(first) == hash(second)
            assert len({first, second}) == 1

    def test_pickle_and_deepcopy_keep_the_member(self):
        for kind in InterfaceKind:
            assert pickle.loads(pickle.dumps(kind)) is kind
            assert copy.deepcopy(kind) is kind
            assert copy.deepcopy({kind: 1}) == {kind: 1}


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


# field changes that a valid UNI header refuses, with the constructor's message
BAD_HEADER_FIELDS = [
    ({"vci": 70000}, "vci 70000 out of range"),
    ({"vpi": 0x100}, "vpi 256 out of range for uni"),
    ({"gfc": 16}, "gfc 16 out of range"),
    ({"kind": InterfaceKind.NNI, "gfc": 3}, "gfc only exists at the UNI"),
    ({"clp": 2}, "clp must be 0 or 1, got 2"),
    # a label must be an int: a float or a bool would pass the range checks
    ({"vpi": 1.5}, "vpi must be an integer, got 1.5"),
    ({"vpi": True}, "vpi must be an integer, got True"),
    ({"vci": 40.0}, "vci must be an integer, got 40.0"),
    ({"gfc": False}, "gfc must be an integer, got False"),
]


class TestCodecValueChecks:
    """CellHeader and Cell check their fields however they are built."""

    @staticmethod
    def header(**changes):
        return CellHeader(**{"kind": InterfaceKind.UNI, "vpi": 1, "vci": 2, **changes})

    @pytest.mark.parametrize(
        "changes, message",
        BAD_HEADER_FIELDS,
        ids=[
            "vci", "vpi", "gfc", "nni-gfc", "clp",
            "vpi-float", "vpi-bool", "vci-float", "gfc-bool",
        ],
    )
    def test_header_replace_and_make_check_like_the_constructor(self, changes, message):
        good = self.header()
        fields = {**good._asdict(), **changes}
        for build in (
            lambda: CellHeader(**fields),
            lambda: good._replace(**changes),
            lambda: CellHeader._make(fields.values()),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_cell_replace_and_make_check_like_the_constructor(self):
        header = self.header()
        message = f"payload must be {PAYLOAD_BYTES} bytes, got 1"
        for build in (
            lambda: Cell(header, b"x"),
            lambda: Cell(header)._replace(payload=b"x"),
            lambda: Cell._make((header, b"x")),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_replace_and_make_keep_the_type(self):
        header = self.header()
        assert type(header._replace(vci=3)) is CellHeader
        assert type(CellHeader._make(header)) is CellHeader
        assert type(Cell(header)._replace(header=header)) is Cell
        assert type(Cell._make((header, ZERO))) is Cell

    def test_wrapped_init_sees_every_construction(self, monkeypatch):
        # wrapped the way a profiler wraps a method: from the class's own __dict__
        counts = {CellHeader: 0, Cell: 0}
        for cls in counts:
            original = cls.__dict__["__init__"]

            def counted(self, *args, _cls=cls, _original=original, **kwargs):
                counts[_cls] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        header = self.header()
        header = header._replace(vci=3)
        header = CellHeader._make(header)
        cell = Cell(header)
        cell = cell._replace(payload=ZERO)
        cell = Cell._make(cell)
        assert counts == {CellHeader: 3, Cell: 3}
        set_efci(cell)
        assert counts == {CellHeader: 4, Cell: 4}

    def test_pickle_and_deepcopy_give_an_equal_value(self):
        header = self.header(gfc=5, efci=True, clp=1)
        values = [header, Cell(header, bytes(range(PAYLOAD_BYTES)))]
        values.append(decode_header(encode_header(header), InterfaceKind.UNI))
        for value in values:
            for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert copied == value and type(copied) is type(value)

    def test_values_are_immutable_tuples(self):
        header = self.header()
        assert header == (InterfaceKind.UNI, 1, 2, 0, False, False, False, 0)
        with pytest.raises(AttributeError):
            header.vci = 3
        with pytest.raises(AttributeError):
            Cell(header).payload = ZERO


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

    CELL_HEX = "00" * CELL_BYTES

    @pytest.mark.parametrize(
        "line, message",
        [
            ("", "expected time, port and cell bytes, got 0 fields"),
            ("0.5 1", "expected time, port and cell bytes, got 2 fields"),
            (f"x 1 {CELL_HEX}", "bad time value 'x'"),
            (f"nan 1 {CELL_HEX}", "time must be finite and >= 0, got nan"),
            (f"-inf 1 {CELL_HEX}", "time must be finite and >= 0, got -inf"),
            (f"inf 1 {CELL_HEX}", "time must be finite and >= 0, got inf"),
            (f"1e400 1 {CELL_HEX}", "time must be finite and >= 0, got 1e400"),
            (f"-1e-300 1 {CELL_HEX}", "time must be finite and >= 0, got -1e-300"),
            (f"0.5 1.0 {CELL_HEX}", "bad port value '1.0'"),
            (f"0.5 -2 {CELL_HEX}", "port must be >= 0, got -2"),
            ("0.5 1 " + "zz" * CELL_BYTES, "cell bytes are not valid hex"),
            ("0.5 1 " + "0" * (2 * CELL_BYTES - 1), "cell bytes are not valid hex"),
            ("0.5 1 " + "00" * (CELL_BYTES - 1), f"cell is {CELL_BYTES} bytes, got 52"),
            ("0.5 1 " + "00 " * (CELL_BYTES + 1), f"cell is {CELL_BYTES} bytes, got 54"),
            # the first fault in field order decides the message
            ("nan -2 zz", "time must be finite and >= 0, got nan"),
            ("0.5 -2 zz", "port must be >= 0, got -2"),
            ("0.5 2 zz", "cell bytes are not valid hex"),
        ],
    )
    def test_refusal_messages(self, line, message):
        with pytest.raises(TraceFormatError) as refused:
            parse_trace_line(line)
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "line, time_s, port",
        [
            (f"-0.0 1 {CELL_HEX}", -0.0, 1),
            (f"0.25 +3 {CELL_HEX}", 0.25, 3),
            (f"0.25\t3\t{CELL_HEX}", 0.25, 3),
            ("0.25 3 " + " ".join(["00"] * CELL_BYTES), 0.25, 3),
            (f"0.25 3 {CELL_HEX}\r\n", 0.25, 3),
            (f"  5e-324 0 {CELL_HEX[:50]} {CELL_HEX[50:]}", 5e-324, 0),
        ],
        ids=["negative-zero", "plus-sign", "tabs", "spaced-pairs", "crlf", "split-run"],
    )
    def test_accepted_edge_cases(self, line, time_s, port):
        parsed = parse_trace_line(line)
        assert parsed == (time_s, port, bytes(CELL_BYTES))
        assert type(parsed[0]) is float and type(parsed[1]) is int
        assert repr(parsed[0]) == repr(time_s)  # -0.0 keeps its sign

    def test_negative_time_and_port_rejected(self):
        raw_hex = "00" * CELL_BYTES
        with pytest.raises(TraceFormatError):
            parse_trace_line(f"-1.0 0 {raw_hex}")
        with pytest.raises(TraceFormatError):
            parse_trace_line(f"0.5 -2 {raw_hex}")
