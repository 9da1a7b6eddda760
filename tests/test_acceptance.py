"""Acceptance suite: one test per release criterion, one PASS line each.

Each test exercises a full behaviour end to end at its stated tolerance
and prints a single "criterion N: PASS" line when it holds.  Oracles are
computed independently of the implementation under test: a bit-serial
CRC register for the header checksum, exhaustive syndrome enumeration
for double errors, and exact Fraction arithmetic for rate contracts.
"""

import itertools
import json
import math
import os
import random
import time
from fractions import Fraction

import pytest

from atmsim.aal5 import (
    PAYLOAD_BYTES,
    Reassembler,
    ReassemblyError,
    cell_count,
    segment,
)
from atmsim.cell import (
    Cell,
    CellHeader,
    DecodeStatus,
    InterfaceKind,
    decode_header,
    encode_header,
)
from atmsim.cli import main as cli_main
from atmsim.engine import CELL_BITS, build, run
from atmsim.switch import EnqueueOutcome, LinkBooking, cac_admit
from atmsim.traffic import (
    Gcra,
    QosRequirement,
    ServiceCategory,
    Shaper,
    TrafficDescriptor,
    burst_tolerance,
    validate_contract,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def random_header(rng: random.Random, kind=InterfaceKind.UNI) -> CellHeader:
    if kind is InterfaceKind.UNI:
        gfc, vpi = rng.randrange(16), rng.randrange(256)
    else:
        gfc, vpi = 0, rng.randrange(4096)
    return CellHeader(
        kind=kind,
        vpi=vpi,
        vci=rng.randrange(65536),
        is_management=bool(rng.randrange(2)),
        efci=bool(rng.randrange(2)),
        aal5_last=bool(rng.randrange(2)),
        clp=rng.randrange(2),
        gfc=gfc,
    )


def crc8_register(data: bytes) -> int:
    """Bit-serial CRC-8 over data, the independent reference."""
    reg = 0
    for byte in data:
        for k in range(7, -1, -1):
            bit = (byte >> k) & 1
            top = (reg >> 7) & 1
            reg = ((reg << 1) & 0xFF) | bit
            if top:
                reg ^= 0x07
    for _ in range(8):
        top = (reg >> 7) & 1
        reg = (reg << 1) & 0xFF
        if top:
            reg ^= 0x07
    return reg


def header_syndrome(buf: bytes) -> int:
    return crc8_register(buf[:4]) ^ 0x55 ^ buf[4]


class ContinuousBucket:
    """Reference leaky bucket in exact arithmetic."""

    def __init__(self, increment: Fraction, limit: Fraction):
        self.increment = increment
        self.limit = limit
        self.level = Fraction(0)
        self.last = Fraction(0)

    def offer(self, t: Fraction) -> bool:
        drained = max(Fraction(0), self.level - (t - self.last))
        if drained > self.limit:
            return False
        self.level = drained + self.increment
        self.last = t
        return True


# ---------------------------------------------------------------------------


def test_c01_header_codec_throughput():
    rng = random.Random(1001)
    headers = [
        random_header(rng, kind)
        for kind in (InterfaceKind.UNI, InterfaceKind.NNI)
        for _ in range(50_000)
    ]
    started = time.perf_counter()
    for header in headers:
        outcome = decode_header(encode_header(header), header.kind)
        assert outcome.status is DecodeStatus.VALID
        assert outcome.header == header
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 1: PASS - 100000 header round trips in {elapsed:.2f}s")


def test_c02_single_bit_errors_all_corrected():
    rng = random.Random(1002)
    for _ in range(100):
        header = random_header(rng)
        valid = encode_header(header)
        for bit in range(40):
            corrupted = bytearray(valid)
            corrupted[bit // 8] ^= 0x80 >> (bit % 8)
            outcome = decode_header(bytes(corrupted), InterfaceKind.UNI)
            assert outcome.status is DecodeStatus.CORRECTED
            assert outcome.flipped_bit == bit
            assert outcome.header == header
    print("criterion 2: PASS - 100 headers x 40 single-bit flips all corrected in place")


def test_c03_double_bit_errors_match_syndrome_oracle():
    # The syndrome of a double flip is the XOR of two single-bit
    # syndromes; it collides with a third one for exactly the pairs the
    # oracle predicts, and can never be zero, so Valid cannot happen.
    single = {}
    base = bytes(4) + bytes((crc8_register(bytes(4)) ^ 0x55,))
    for bit in range(40):
        buf = bytearray(base)
        buf[bit // 8] ^= 0x80 >> (bit % 8)
        single[bit] = header_syndrome(bytes(buf))
    syndrome_set = set(single.values())
    assert len(syndrome_set) == 40

    rng = random.Random(1003)
    observed = 0
    predicted = 0
    for _ in range(20):
        header = random_header(rng)
        valid = encode_header(header)
        for i, j in itertools.combinations(range(40), 2):
            corrupted = bytearray(valid)
            corrupted[i // 8] ^= 0x80 >> (i % 8)
            corrupted[j // 8] ^= 0x80 >> (j % 8)
            outcome = decode_header(bytes(corrupted), InterfaceKind.UNI)
            assert outcome.status is not DecodeStatus.VALID
            miscorrects = single[i] ^ single[j] in syndrome_set
            predicted += miscorrects
            observed += outcome.status is DecodeStatus.CORRECTED
            assert (outcome.status is DecodeStatus.CORRECTED) == miscorrects
    assert observed == predicted
    print(
        f"criterion 3: PASS - 20 headers x 780 double flips: 0 valid, "
        f"{observed} miscorrections == oracle {predicted}"
    )


def test_c04_burst_tolerance_formula():
    assert burst_tolerance(3, 50.0, 100.0) == 0.02
    assert burst_tolerance(1, 50.0, 100.0) == 0.0
    assert burst_tolerance(7, 250.0, 250.0) == 0.0
    rng = random.Random(1004)
    for _ in range(1000):
        pcr = rng.uniform(10.0, 1e6)
        scr = pcr * rng.uniform(0.1, 0.9)
        mbs = rng.randrange(1, 10_000)
        assert burst_tolerance(mbs + 1, scr, pcr) > burst_tolerance(mbs, scr, pcr)
    print("criterion 4: PASS - tolerance formula exact and strictly increasing in MBS")


def test_c05_shaped_output_always_conforms():
    rng = random.Random(1005)
    for trial in range(100):
        rate = rng.uniform(100.0, 10_000.0)
        increment = 1.0 / rate
        limit = rng.uniform(0.0, 10.0 * increment)
        shaper = Shaper(buckets=[Gcra(increment, limit)])
        police = Gcra(increment, limit)
        now = 0.0
        for _ in range(10_000):
            if rng.random() < 0.3:
                gap = 0.0
            else:
                gap = rng.expovariate(rate)
            now += gap
            release = shaper.offer(now)
            if release is None:
                continue
            assert police.update(release)
    print("criterion 5: PASS - 100 shapers x 10000 cells re-policed with 0 nonconforming")


def test_c06_burst_size_law_exact():
    rng = random.Random(1006)
    for _ in range(1000):
        pcr = rng.randrange(2, 5000)
        scr = rng.randrange(1, pcr)
        mbs = rng.randrange(1, 65)
        peak_t = Fraction(1, pcr)
        sustain_t = Fraction(1, scr)
        tau = (mbs - 1) * (sustain_t - peak_t)

        bucket = Gcra(sustain_t, tau)
        oracle = ContinuousBucket(sustain_t, tau)
        for k in range(mbs):
            t = k * peak_t
            assert bucket.update(t), (pcr, scr, mbs, k)
            assert oracle.offer(t)
        over = mbs * peak_t
        assert not bucket.conforms(over), (pcr, scr, mbs)
        assert not oracle.offer(over)
    print("criterion 6: PASS - 1000 contracts pass exactly MBS back-to-back cells, never MBS+1")


def test_c07_frame_codec_and_corruption_detection():
    for length in range(0, 2001):
        frame = bytes((length + i) % 256 for i in range(length))
        cells = segment(frame)
        assert len(cells) == cell_count(length) == -(-(length + 8) // PAYLOAD_BYTES)
        re = Reassembler()
        result = None
        for payload, last in cells:
            result = re.push(payload, last)
        assert result == frame

    rng = random.Random(1007)
    crc_failures = 0
    for _ in range(10_000):
        length = rng.randrange(0, 1500)
        frame = rng.randbytes(length)
        cells = segment(frame)
        padded_len = len(cells) * PAYLOAD_BYTES
        # Anywhere but the 2-byte length field: those damage the frame
        # in a way the length check reports instead of the checksum.
        while True:
            target = rng.randrange(padded_len)
            if target not in (padded_len - 8, padded_len - 7):
                break
        re = Reassembler()
        result = None
        for index, (payload, last) in enumerate(cells):
            lo = index * PAYLOAD_BYTES
            if lo <= target < lo + PAYLOAD_BYTES:
                damaged = bytearray(payload)
                damaged[target - lo] ^= rng.randrange(1, 256)
                payload = bytes(damaged)
            result = re.push(payload, last)
        assert result is ReassemblyError.CRC_MISMATCH
        crc_failures += 1

    for _ in range(500):
        frame = rng.randbytes(rng.randrange(0, 1500))
        cells = segment(frame)
        padded_len = len(cells) * PAYLOAD_BYTES
        target = padded_len - 8 + rng.randrange(2)
        re = Reassembler()
        result = None
        for index, (payload, last) in enumerate(cells):
            lo = index * PAYLOAD_BYTES
            if lo <= target < lo + PAYLOAD_BYTES:
                damaged = bytearray(payload)
                damaged[target - lo] ^= rng.randrange(1, 256)
                payload = bytes(damaged)
            result = re.push(payload, last)
        assert isinstance(result, ReassemblyError)
    print(
        f"criterion 7: PASS - 2001 frame round trips, {crc_failures} corruptions "
        f"all caught, none silent"
    )


def test_c08_point_to_point_delay_analytic():
    # All-dyadic parameters: 424 * 2**14 bit/s serializes a cell in
    # exactly 2**-14 s, the propagation delay is 2**-10 s, and the cell
    # rate puts the link at 10 percent load with an exact float period.
    bit_rate = 424 * 2**14
    prop = 2.0**-10
    rate = 1638.4
    raw = {
        "duration_s": 2.0,
        "seed": 17,
        "nodes": [{"name": "a", "kind": "host"}, {"name": "b", "kind": "host"}],
        "links": [
            {"a": "a", "b": "b", "bit_rate": bit_rate, "propagation_delay": prop}
        ],
        "generators": [{"id": "g", "kind": "paced_cbr", "rate": rate}],
        "connections": [
            {
                "id": "c1",
                "category": "CBR",
                "route": ["a", "b"],
                "generator": "g",
                "descriptor": {"pcr": rate, "cdvt": 0.001},
            }
        ],
    }
    report = run(raw)
    conn = report.connections["c1"]
    assert conn["clr"] == 0.0
    assert conn["lost"] == 0
    delay = conn["delay"]
    expected = prop + CELL_BITS / bit_rate
    assert delay["cdv_peak_to_peak"] == 0.0
    assert abs(delay["mean_ctd"] - expected) < 1e-9
    assert abs(delay["max_ctd"] - expected) < 1e-9
    print(
        f"criterion 8: PASS - CBR at 10% load: CLR 0, CDV 0, "
        f"mean delay {delay['mean_ctd']!r} == transmission + propagation"
    )


CONTRACT_FIXTURES = [
    # (category, descriptor, qos, expected fragments; empty means valid)
    (ServiceCategory.CBR, dict(pcr=1000.0, cdvt=0.001), None, []),
    (ServiceCategory.CBR, dict(pcr=1000.0, cdvt=0.001), dict(max_ctd=0.01, max_cdv=0.002), []),
    (ServiceCategory.CBR, dict(pcr=1000.0), None, ["CBR requires CDVT"]),
    (ServiceCategory.CBR, dict(pcr=1000.0, cdvt=0.001, scr=500.0, mbs=10), None,
     ["SCR not applicable", "MBS not applicable"]),
    (ServiceCategory.CBR, dict(pcr=1000.0, cdvt=0.001, mcr=10.0), None, ["MCR not applicable"]),
    (ServiceCategory.VBR_RT, dict(pcr=1000.0, cdvt=0.001, scr=300.0, mbs=20), None, []),
    (ServiceCategory.VBR_RT, dict(pcr=1000.0, cdvt=0.001, scr=300.0, mbs=20),
     dict(max_cdv=0.005), []),
    (ServiceCategory.VBR_RT, dict(pcr=1000.0, cdvt=0.001), None,
     ["requires SCR", "requires MBS"]),
    (ServiceCategory.VBR_NRT, dict(pcr=1000.0, cdvt=0.001, scr=300.0, mbs=20), None, []),
    (ServiceCategory.VBR_NRT, dict(pcr=1000.0, cdvt=0.001, scr=300.0, mbs=20, mcr=5.0),
     None, ["MCR not applicable"]),
    (ServiceCategory.VBR_NRT, dict(pcr=1000.0, cdvt=0.001, scr=300.0, mbs=20),
     dict(max_cdv=0.005), ["max_cdv only applies"]),
    (ServiceCategory.ABR, dict(pcr=1000.0, mcr=0.0), None, []),
    (ServiceCategory.ABR, dict(pcr=1000.0, mcr=100.0), None, []),
    (ServiceCategory.ABR, dict(pcr=1000.0), None, ["ABR requires MCR"]),
    (ServiceCategory.ABR, dict(pcr=1000.0, mcr=100.0), dict(max_ctd=0.01),
     ["max_ctd not applicable for ABR"]),
    (ServiceCategory.UBR, dict(pcr=1000.0), None, []),
    (ServiceCategory.UBR, dict(pcr=1000.0), dict(clr_clp0=1e-6),
     ["not applicable for UBR"]),
    (ServiceCategory.UBR, dict(pcr=1000.0, scr=300.0, mbs=5), None,
     ["SCR not applicable", "MBS not applicable"]),
]


def test_c09_admission_control():
    assert len(CONTRACT_FIXTURES) >= 15
    for category, desc_args, qos_args, expected in CONTRACT_FIXTURES:
        descriptor = TrafficDescriptor(**desc_args)
        qos = QosRequirement(**qos_args) if qos_args else None
        problems = validate_contract(category, descriptor, qos)
        if not expected:
            assert problems == [], (category, desc_args, problems)
        else:
            for fragment in expected:
                assert any(fragment in p for p in problems), (fragment, problems)

    # rate relations are enforced at construction, before any category rule
    for bad in (
        dict(pcr=1000.0, scr=1200.0, mbs=20),
        dict(pcr=1000.0, mcr=2000.0),
        dict(pcr=0.0),
        dict(pcr=1000.0, mbs=0),
    ):
        with pytest.raises(ValueError):
            TrafficDescriptor(**bad)

    rng = random.Random(1009)
    capacity = 10_000.0
    links = [LinkBooking(capacity=capacity) for _ in range(3)]
    admitted = []  # (links, category, descriptor) actually booked
    cbr_sums = [[] for _ in links]
    for step in range(1000):
        if admitted and rng.random() < 0.4:
            index = rng.randrange(len(admitted))
            chain, category, descriptor = admitted.pop(index)
            for link in chain:
                link.release(category, descriptor)
            if category is ServiceCategory.CBR:
                for link in chain:
                    cbr_sums[links.index(link)].remove(descriptor.pcr)
        else:
            category = rng.choice((ServiceCategory.CBR, ServiceCategory.UBR))
            chain = [l for l in links if rng.random() < 0.7] or [links[0]]
            if category is ServiceCategory.CBR:
                descriptor = TrafficDescriptor(pcr=rng.uniform(100.0, 4000.0), cdvt=0.001)
            else:
                descriptor = TrafficDescriptor(pcr=rng.uniform(100.0, 4000.0))
            ok = cac_admit(chain, category, descriptor)
            if category is ServiceCategory.UBR:
                assert ok  # best effort books nothing and is never refused
            if ok:
                admitted.append((chain, category, descriptor))
                if category is ServiceCategory.CBR:
                    for link in chain:
                        cbr_sums[links.index(link)].append(descriptor.pcr)
        for link, rates in zip(links, cbr_sums):
            assert link.booked == math.fsum(rates)
            assert link.booked <= capacity
    print(
        f"criterion 9: PASS - {len(CONTRACT_FIXTURES)} contract fixtures and 1000 "
        f"admit/release steps never oversubscribed"
    )


def test_c10_discard_ordering_under_overload():
    capacity, threshold = 64, 48
    raw = {
        "duration_s": 1.0,
        "seed": 23,
        "nodes": [
            {"name": "a", "kind": "host"},
            {"name": "b", "kind": "host"},
            {
                "name": "s",
                "kind": "switch",
                "queue_capacity": capacity,
                "clp_threshold": threshold,
            },
            {"name": "c", "kind": "host"},
        ],
        "links": [
            {"a": "a", "b": "s", "bit_rate": 1e7, "propagation_delay": 1e-4},
            {"a": "b", "b": "s", "bit_rate": 1e7, "propagation_delay": 1e-4},
            {
                "a": "s",
                "b": "c",
                "bit_rate": 1e6,
                "propagation_delay": 1e-4,
                "booking_factor": 2.5,
            },
        ],
        "generators": [
            {"id": "g0", "kind": "paced_cbr", "rate": 3000.0},
            {"id": "g1", "kind": "paced_cbr", "rate": 2500.0},
        ],
        "connections": [
            {
                "id": "keep",
                "category": "CBR",
                "route": ["a", "s", "c"],
                "generator": "g0",
                "descriptor": {"pcr": 3000.0, "cdvt": 0.001},
                "clp": 0,
            },
            {
                "id": "shed",
                "category": "CBR",
                "route": ["b", "s", "c"],
                "generator": "g1",
                "descriptor": {"pcr": 2500.0, "cdvt": 0.001},
                "clp": 1,
            },
        ],
    }
    engine = build(raw)
    report = engine.run()

    node = engine.nodes["s"]
    drops = []
    for tx in node.ports.values():
        drops.extend(tx.queue.drop_log)
    drops.sort(key=lambda d: d.time)
    clp_drops = [d for d in drops if d.outcome is EnqueueOutcome.DISCARDED_CLP]
    full_drops = [d for d in drops if d.outcome is EnqueueOutcome.DISCARDED_FULL]
    assert clp_drops and full_drops

    for drop in clp_drops:
        assert drop.clp == 1
        assert drop.occupancy >= threshold
    for drop in full_drops:
        assert drop.clp == 0  # tagged cells never survive to a full queue
        assert drop.occupancy == capacity
    assert clp_drops[0].time < full_drops[0].time

    shed = report.connections["shed"]
    assert shed["loss_reasons"] == {"clp_threshold": shed["lost"]}
    print(
        f"criterion 10: PASS - {len(clp_drops)} tagged discards all at occupancy >= "
        f"{threshold}, first one before any of the {len(full_drops)} full-queue discards"
    )


def test_c11_rate_adaptation_fills_bottleneck():
    pcr = 500_000 / CELL_BITS
    raw = {
        "duration_s": 30.0,
        "seed": 11,
        "nodes": [
            {"name": "ha", "kind": "host"},
            {"name": "hb", "kind": "host"},
            {"name": "sw", "kind": "switch", "efci_threshold": 16},
            {"name": "hd", "kind": "host"},
        ],
        "links": [
            {"a": "ha", "b": "sw", "bit_rate": 2e6, "propagation_delay": 1e-4},
            {"a": "hb", "b": "sw", "bit_rate": 2e6, "propagation_delay": 1e-4},
            {"a": "sw", "b": "hd", "bit_rate": 5e5, "propagation_delay": 1e-4},
        ],
        "generators": [
            {"id": "ga", "kind": "greedy_abr"},
            {"id": "gb", "kind": "greedy_abr"},
        ],
        "connections": [
            {
                "id": "fa",
                "category": "ABR",
                "route": ["ha", "sw", "hd"],
                "generator": "ga",
                "descriptor": {"pcr": pcr, "mcr": 0.0},
                "abr": {"air": pcr / 32, "rdf": 0.9375},
            },
            {
                "id": "fb",
                "category": "ABR",
                "route": ["hb", "sw", "hd"],
                "generator": "gb",
                "descriptor": {"pcr": pcr, "mcr": 0.0},
                "abr": {"air": pcr / 32, "rdf": 0.9375},
            },
        ],
    }
    started = time.perf_counter()
    report = run(raw)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0

    second_half = report.links["sw->hd"]["second_half_utilization"]
    assert second_half >= 0.90

    for conn_id in ("fa", "fb"):
        abr = report.connections[conn_id]["abr"]
        for _, acr, _ in report.abr_series[conn_id]:
            assert abr["mcr"] <= acr <= abr["pcr"]

    bottleneck = report.switches["sw"]
    assert bottleneck["full_drops"] == 0  # the queue never overflowed

    da = report.connections["fa"]["delivered"]
    db = report.connections["fb"]["delivered"]
    fairness = min(da, db) / max(da, db)
    print(
        f"criterion 11: PASS - second-half bottleneck utilization {second_half:.4f} "
        f">= 0.90 with rates always inside [MCR, PCR]; fairness ratio {fairness:.3f} "
        f"({da} vs {db} cells) reported, not asserted"
    )


def lane_scenario(n: int) -> dict:
    hosts = [f"h{i}" for i in range(n)]
    nodes = [{"name": name, "kind": "host"} for name in hosts]
    nodes.append({"name": "server", "kind": "host"})
    nodes.append({"name": "s", "kind": "switch"})
    links = [
        {"a": name, "b": "s", "bit_rate": 1e7, "propagation_delay": 1e-5}
        for name in hosts + ["server"]
    ]
    lecs = [
        {"host": name, "mac": f"02:00:00:00:00:{i + 1:02x}"}
        for i, name in enumerate(hosts)
    ]
    traffic = [
        {
            "src": hosts[i],
            "dst": f"02:00:00:00:00:{(i + 1) % n + 1:02x}",
            "rate": 50.0,
            "frame_bytes": 200,
            "count": 30,
        }
        for i in range(n)
    ]
    traffic.append(
        {"src": hosts[0], "dst": "broadcast", "rate": 25.0, "frame_bytes": 96, "count": 10}
    )
    return {
        "duration_s": 3.0,
        "seed": 29,
        "nodes": nodes,
        "links": links,
        "lane": {"les": "server", "bus": "server", "lecs": lecs, "traffic": traffic},
    }


def test_c12_lan_emulation_resolution_and_broadcast():
    for n in (2, 4, 16):
        engine = build(lane_scenario(n))
        report = engine.run()
        lane = report.lane
        assert lane["reassembly_errors"] == 0

        for i in range(n):
            sender = lane["lecs"][f"h{i}"]
            dst_mac = f"02:00:00:00:00:{(i + 1) % n + 1:02x}"
            per_dst = sender["per_destination"][dst_mac]
            # Resolution queues the head frames; with no parallel BUS
            # copies every unicast frame travels the direct VC.
            assert per_dst["sent_direct"] == 30
            assert per_dst["sent_bus"] == 0
            assert per_dst["dropped_overflow"] == 0
            assert per_dst["dropped_timeout"] == 0

        for i in range(n):
            lec_report = lane["lecs"][f"h{i}"]
            assert lec_report["received_broadcast"] == (10 if i != 0 else 0)
            assert lec_report["duplicates"] == 0

        les = engine.lane.les
        for host, lec in engine.lane.lecs.items():
            assert lec.lookup_log, host
            for mac, atm in lec.lookup_log:
                assert les.directory[mac] == atm
    print(
        "criterion 12: PASS - 2/4/16-member LANs: unicast 100% direct after "
        "resolution, every broadcast delivered exactly once, caches match the directory"
    )


def test_c13_equal_seeds_reproduce_byte_identical_reports(tmp_path, capsys):
    scenario_path = os.path.join(DATA_DIR, "reference_scenario.json")
    first = run(scenario_path)
    second = run(scenario_path)
    assert first.to_json() == second.to_json()
    for conn_id in first.abr_series:
        assert first.abr_csv(conn_id) == second.abr_csv(conn_id)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", scenario_path, "--out", str(out_a)]) == 0
    assert cli_main(["run", scenario_path, "--out", str(out_b)]) == 0
    capsys.readouterr()
    report_a = (out_a / "report.json").read_bytes()
    report_b = (out_b / "report.json").read_bytes()
    assert report_a == report_b
    assert (out_a / "abr_bulk.csv").read_bytes() == (out_b / "abr_bulk.csv").read_bytes()
    assert json.loads(report_a)["seed"] == 42
    print("criterion 13: PASS - equal-seed runs produce byte-identical reports and series")


def test_reference_report_matches_golden_file():
    # The golden report was recorded from the simulator before its hot path
    # stopped building cell headers; any refactor must reproduce it byte
    # for byte.  Regenerate it only for a change meant to alter reports.
    scenario_path = os.path.join(DATA_DIR, "reference_scenario.json")
    with open(os.path.join(DATA_DIR, "reference_report.json"), encoding="utf-8") as handle:
        golden = handle.read()
    assert run(scenario_path).to_json() == golden
