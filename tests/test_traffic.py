"""Rate contracts: GCRA conformance, shaping, policing, contract rules.

The conformance oracle is a separately written continuous-state bucket
running on Fractions, so every comparison with the implementation is
exact (the implementation is numeric-type-agnostic and accepts Fraction
inputs unchanged).
"""

import itertools
import math
import os
import random
import statistics
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    BucketOracle,
    c11_scenario,
    modules_loaded_by_importing_atmsim,
    write_seeded_trace,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from atmsim import traffic as traffic_module
from atmsim.cell import Cell, CellHeader, InterfaceKind, parse_trace_line
from atmsim.engine import build
from atmsim.errors import OrderingError
from atmsim.switch import booking_rate
from atmsim.traffic import (
    CATEGORY_RULES,
    DELAY_CHUNK,
    DelayMoments,
    DelayStats,
    Gcra,
    Policer,
    PolicingAction,
    QosRequirement,
    ServiceCategory,
    Shaper,
    TrafficDescriptor,
    burst_tolerance,
    conform_update,
    contract_buckets,
    delay_stats,
    shape,
    validate_contract,
)


def random_rational(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randrange(lo * den, hi * den), den)


class TestBurstTolerance:
    def test_golden_value_exact(self):
        assert burst_tolerance(3, 50, 100) == 0.02

    def test_degenerate_cases(self):
        assert burst_tolerance(1, 50, 100) == 0.0
        assert burst_tolerance(7, 100, 100) == 0.0

    def test_matches_fraction_formula(self):
        rng = random.Random(20)
        for _ in range(1000):
            mbs = rng.randrange(1, 100)
            scr = Fraction(rng.randrange(1, 500), rng.randrange(1, 20))
            pcr = scr + Fraction(rng.randrange(0, 500), rng.randrange(1, 20))
            expected = (mbs - 1) * (Fraction(1, 1) / scr - Fraction(1, 1) / pcr)
            assert burst_tolerance(mbs, scr, pcr) == expected

    def test_strictly_increasing_in_mbs(self):
        rng = random.Random(21)
        for _ in range(300):
            scr = Fraction(rng.randrange(1, 100))
            pcr = scr + Fraction(rng.randrange(1, 100))
            mbs = rng.randrange(1, 50)
            assert burst_tolerance(mbs + 1, scr, pcr) > burst_tolerance(mbs, scr, pcr)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            burst_tolerance(0, 50, 100)
        with pytest.raises(ValueError):
            burst_tolerance(3, 100, 50)
        with pytest.raises(ValueError):
            burst_tolerance(3, 0, 100)

    @pytest.mark.parametrize(
        "mbs, scr, pcr",
        [(10**400, 50.0, 100.0), (10**10, 1e-300, 1e-10)],
        ids=["mbs-past-float", "result-overflows"],
    )
    def test_non_finite_result_rejected(self, mbs, scr, pcr):
        with pytest.raises(ValueError, match=r"^burst tolerance .* is not a finite number for scr="):
            burst_tolerance(mbs, scr, pcr)

    @pytest.mark.parametrize(
        "mbs, scr, pcr, expected",
        [
            (2, 1e-200, 1e-200, 0.0),
            (2, 1e-300, 2e-300, 1 / 1e-300 - 1 / 2e-300),
            (10**400, 100.0, 100.0, 0.0),
            (10**400, 1e100, 2e100, 5e299),
            (2, 1e-160, 2e-160, 5e159),
            (2, 3e-160, 7e-160, 1.904761904761905e159),
            (3, 1e-300, 3e-300, 1.3333333333333334e300),
            (3, 1e200, 2e200, 1e-200),
        ],
        ids=[
            "rates-underflow",
            "unequal-rates-underflow",
            "mbs-past-float-equal-rates",
            "mbs-past-float-unequal-rates",
            "product-subnormal",
            "unequal-product-subnormal",
            "product-underflows-ulp",
            "product-overflows",
        ],
    )
    def test_finite_result_at_float_edges(self, mbs, scr, pcr, expected):
        # scr * pcr is not a normal float, or mbs is past the float range,
        # yet the tolerance itself is a finite float: the formula is
        # evaluated exactly and rounded once
        tolerance = burst_tolerance(mbs, scr, pcr)
        assert tolerance == float((mbs - 1) * (1 / Fraction(scr) - 1 / Fraction(pcr)))
        assert type(tolerance) is float
        assert tolerance == expected
        assert math.copysign(1.0, tolerance) == 1.0

    def test_tiny_fraction_rates_stay_exact(self):
        scr, pcr = Fraction(1, 10**200), Fraction(1, 10**199)
        assert burst_tolerance(3, scr, pcr) == Fraction(18 * 10**199)

    def test_huge_exact_result_kept(self):
        assert burst_tolerance(10**400, Fraction(1), Fraction(2)) == Fraction(10**400 - 1, 2)

    @pytest.mark.parametrize(
        "scr, pcr, kind",
        [(1e-300, 1e-300, float), (1e-300, 1e-10, float), (50, 100, float), (Fraction(1, 3), 1, Fraction)],
        ids=["rates-underflow", "product-underflows", "int-rates", "fraction-rates"],
    )
    def test_single_cell_burst_is_exactly_zero(self, scr, pcr, kind):
        # mbs == 1 needs no division by scr * pcr, which may underflow
        tolerance = burst_tolerance(1, scr, pcr)
        assert type(tolerance) is kind
        assert tolerance == 0
        assert math.copysign(1.0, tolerance) == 1.0


class TestGcra:
    def test_matches_oracle_on_random_streams(self):
        rng = random.Random(22)
        for _ in range(100):
            increment = random_rational(rng, 1, 10, 7)
            limit = random_rational(rng, 0, 5, 3)
            bucket = Gcra(increment=increment, limit=limit, level=Fraction(0), last_time=Fraction(0))
            oracle = BucketOracle(increment, limit)
            t = Fraction(0)
            for _ in range(200):
                t += random_rational(rng, 0, 4, 11)
                assert conform_update((bucket,), t) == oracle.offer(t)
            assert bucket.level == oracle.level
            assert bucket.last_time == oracle.last

    def test_paced_stream_conforms_forever(self):
        period = Fraction(1, 3)
        bucket = Gcra(increment=period, limit=Fraction(0), level=Fraction(0), last_time=Fraction(0))
        for k in range(1000):
            assert conform_update((bucket,), k * period)

    def test_faster_than_contract_fails(self):
        bucket = Gcra(increment=Fraction(1), limit=Fraction(0), level=Fraction(0), last_time=Fraction(0))
        assert conform_update((bucket,), Fraction(0))
        assert not conform_update((bucket,), Fraction(1, 2))
        # the non-conforming cell left no trace: a cell at 1 still conforms
        assert conform_update((bucket,), Fraction(1))

    def test_time_regression_raises(self):
        bucket = Gcra(increment=1.0, limit=0.0)
        conform_update((bucket,), 5.0)
        with pytest.raises(OrderingError):
            bucket.conforms(4.0)

    def test_earliest_conforming_before_last_time(self):
        # not_before is raised to last_time: a bound past last_time still
        # decides, and a bucket that conforms at last_time answers it
        bucket = Gcra(increment=1.0, limit=0.5, level=2.0, last_time=10.0)
        assert bucket.earliest_conforming(5.0) == 11.5
        for level in (0.2, 0.5):
            bucket = Gcra(increment=1.0, limit=0.5, level=level, last_time=10.0)
            assert bucket.earliest_conforming(5.0) == 10.0

    @pytest.mark.parametrize("behind", [0, 1])
    def test_conform_update_regression_charges_nothing(self, behind):
        peak = Gcra(increment=0.1, limit=0.5, level=0.3, last_time=2.0)
        sust = Gcra(increment=0.5, limit=3.0, level=1.5, last_time=2.0)
        (peak, sust)[behind].last_time = 8.0
        before = bucket_states([peak, sust])
        with pytest.raises(OrderingError, match="arrival 5.0 before last conformance 8.0"):
            conform_update([peak, sust], 5.0)
        assert bucket_states([peak, sust]) == before

    def test_update_regression_raises_and_charges_nothing(self):
        bucket = Gcra(increment=1.0, limit=0.0)
        assert conform_update((bucket,), 5.0)
        with pytest.raises(OrderingError, match="arrival 4.0 before last conformance 5.0"):
            conform_update((bucket,), 4.0)
        assert (bucket.level, bucket.last_time) == (1.0, 5.0)

    @pytest.mark.parametrize("charged", [False, True])
    def test_nan_arrival_raises_and_charges_nothing(self, charged):
        peak = Gcra(increment=0.1, limit=0.5)
        sust = Gcra(increment=0.5, limit=3.0)
        if charged:
            assert conform_update([peak, sust], 2.0)
        before = bucket_states([peak, sust])
        with pytest.raises(OrderingError):
            conform_update([peak, sust], math.nan)
        assert bucket_states([peak, sust]) == before
        for bucket in (peak, sust):
            with pytest.raises(OrderingError):
                bucket.drained(math.nan)
            with pytest.raises(OrderingError):
                bucket.conforms(math.nan)
            with pytest.raises(OrderingError):
                bucket.earliest_conforming(math.nan)
        assert bucket_states([peak, sust]) == before

    def test_burst_law_exact(self):
        # with tau = BT, exactly mbs back-to-back cells at the peak rate
        # conform against the sustainable-rate bucket
        rng = random.Random(23)
        for _ in range(200):
            mbs = rng.randrange(1, 30)
            scr = Fraction(rng.randrange(1, 60))
            pcr = scr + Fraction(rng.randrange(1, 60))
            tau = (mbs - 1) * (1 / scr - 1 / pcr)
            bucket = Gcra(increment=1 / scr, limit=tau, level=Fraction(0), last_time=Fraction(0))
            peak_period = 1 / pcr
            for k in range(mbs):
                assert conform_update((bucket,), k * peak_period), f"cell {k + 1} of {mbs}"
            assert not conform_update((bucket,), mbs * peak_period)

    def test_earliest_conforming_is_minimal(self):
        rng = random.Random(24)
        for _ in range(2000):
            bucket = Gcra(
                increment=rng.uniform(1e-6, 2.0),
                limit=rng.uniform(0.0, 1.0),
                level=rng.uniform(0.0, 5.0),
                last_time=rng.uniform(0.0, 10.0),
            )
            not_before = bucket.last_time + rng.uniform(0.0, 3.0)
            t = bucket.earliest_conforming(not_before)
            assert t >= not_before
            assert bucket.conforms(t)
            prev = math.nextafter(t, -math.inf)
            if prev >= not_before:
                assert not bucket.conforms(prev)

    def test_conform_update_charges_all_or_none(self):
        peak = Gcra(increment=Fraction(1, 10), limit=Fraction(0), level=Fraction(0), last_time=Fraction(0))
        sust = Gcra(increment=Fraction(1, 2), limit=Fraction(0), level=Fraction(0), last_time=Fraction(0))
        assert conform_update([peak, sust], Fraction(0))
        # conforms at the peak bucket but not the sustainable one: neither
        # bucket may retain a deposit
        peak_before, sust_before = peak.level, sust.level
        assert not conform_update([peak, sust], Fraction(1, 10))
        assert (peak.level, sust.level) == (peak_before, sust_before)
        assert conform_update([peak, sust], Fraction(1, 2))


def oracle_offer_all(oracles, t: Fraction) -> bool:
    """All-or-none over independent oracle buckets: charge none of them
    unless every one conforms at ``t``."""
    levels = [max(Fraction(0), o.level - (t - o.last)) for o in oracles]
    if any(level > o.limit for o, level in zip(oracles, levels)):
        return False
    for o, level in zip(oracles, levels):
        o.level = level + o.increment
        o.last = t
    return True


def random_dual_contract(rng: random.Random):
    """(peak increment, peak limit, sustainable increment, sustainable limit)."""
    peak_inc = random_rational(rng, 1, 4, 7)
    sust_inc = peak_inc + random_rational(rng, 0, 6, 5)
    return peak_inc, random_rational(rng, 0, 2, 3), sust_inc, random_rational(rng, 0, 12, 3)


def fraction_buckets(peak_inc, peak_lim, sust_inc, sust_lim):
    return [
        Gcra(increment=peak_inc, limit=peak_lim, level=Fraction(0), last_time=Fraction(0)),
        Gcra(increment=sust_inc, limit=sust_lim, level=Fraction(0), last_time=Fraction(0)),
    ]


class TestDualBucketOracle:
    @pytest.mark.parametrize("action", list(PolicingAction))
    def test_policer_matches_all_or_none_oracle(self, action):
        rng = random.Random(41)
        for _ in range(60):
            contract = random_dual_contract(rng)
            policer = Policer(buckets=fraction_buckets(*contract), action=action)
            oracles = [BucketOracle(contract[0], contract[1]), BucketOracle(contract[2], contract[3])]
            expected = {"passed": 0, "tagged": 0, "dropped": 0}
            t = Fraction(0)
            for _ in range(150):
                t += random_rational(rng, 0, 3, 11)
                cell = Cell(CellHeader(kind=InterfaceKind.UNI, vpi=1, vci=33, clp=int(rng.random() < 0.2)))
                out = policer.offer(cell, t)
                if oracle_offer_all(oracles, t):
                    expected["passed"] += 1
                    assert out is cell
                elif action is PolicingAction.DROP:
                    expected["dropped"] += 1
                    assert out is None
                else:
                    expected["tagged"] += 1
                    assert out is not None and out.header.clp == 1
                    assert out.header.vci == cell.header.vci
            for bucket, oracle in zip(policer.buckets, oracles):
                assert (bucket.level, bucket.last_time) == (oracle.level, oracle.last)
            assert (policer.passed, policer.tagged, policer.dropped) == (
                expected["passed"], expected["tagged"], expected["dropped"]
            )

    def test_shaped_fraction_stream_repolices_clean(self):
        rng = random.Random(42)
        for _ in range(30):
            contract = random_dual_contract(rng)
            arrivals = []
            t = Fraction(0)
            for _ in range(150):
                t += random_rational(rng, 0, 2, 13)  # mostly oversubscribed
                arrivals.append(t)
            releases, overflow = shape(arrivals, fraction_buckets(*contract), depth=10_000)
            assert overflow == 0
            # exact: the same releases as the shaper written on Gcra.conforms
            reference = ReferenceShaper(fraction_buckets(*contract), depth=10_000)
            assert releases == [reference.offer(t) for t in arrivals]
            policer = Policer(buckets=fraction_buckets(*contract), action=PolicingAction.TAG_CLP)
            oracles = [BucketOracle(contract[0], contract[1]), BucketOracle(contract[2], contract[3])]
            cell = Cell(CellHeader(kind=InterfaceKind.UNI, vpi=1, vci=33))
            for arrival, release in zip(arrivals, releases):
                assert isinstance(release, Fraction) and release >= arrival
                assert policer.offer(cell, release) is cell
                assert oracle_offer_all(oracles, release)
            assert policer.passed == len(arrivals)


class TestContractBuckets:
    def test_peak_only(self):
        buckets = contract_buckets(TrafficDescriptor(pcr=100.0, cdvt=0.01))
        assert len(buckets) == 1
        assert buckets[0].increment == 0.01
        assert buckets[0].limit == 0.01

    def test_dual_bucket(self):
        descriptor = TrafficDescriptor(pcr=100.0, cdvt=0.001, scr=50.0, mbs=3)
        peak, sust = contract_buckets(descriptor)
        assert peak.increment == 1 / 100.0 and peak.limit == 0.001
        assert sust.increment == 1 / 50.0
        assert sust.limit == burst_tolerance(3, 50.0, 100.0) + 0.001

    def test_no_cdvt_means_zero_tolerance(self):
        (bucket,) = contract_buckets(TrafficDescriptor(pcr=100.0))
        assert bucket.limit == 0.0

    def test_fraction_descriptor_gives_exact_buckets(self):
        descriptor = TrafficDescriptor(
            pcr=Fraction(100), cdvt=Fraction(1, 1000), scr=Fraction(50), mbs=3
        )
        peak, sust = contract_buckets(descriptor)
        assert (peak.increment, peak.limit) == (Fraction(1, 100), Fraction(1, 1000))
        assert (sust.increment, sust.limit) == (Fraction(1, 50), Fraction(21, 1000))
        # level and last_time start at Gcra's exact zero and take the
        # type of the arrival times, so a Fraction arrival leaves all four
        # fields Fractions
        assert conform_update([peak, sust], Fraction(1, 7))
        for bucket in (peak, sust):
            for name in Gcra.__slots__:
                assert type(getattr(bucket, name)) is Fraction, name
        # with cdvt left out the tolerance is the exact int 0, so neither
        # limit turns into a float
        descriptor = TrafficDescriptor(pcr=Fraction(100), scr=Fraction(50), mbs=3)
        peak, sust = contract_buckets(descriptor)
        assert (peak.limit, sust.limit) == (0, Fraction(1, 50))
        assert (type(peak.limit), type(sust.limit)) == (int, Fraction)

    def test_scr_without_mbs_rejected(self):
        descriptor = TrafficDescriptor(pcr=100.0, scr=50.0)
        with pytest.raises(ValueError):
            contract_buckets(descriptor)


class TestShaper:
    def test_output_conforms_and_keeps_order(self):
        rng = random.Random(25)
        for _ in range(20):
            increment = rng.uniform(0.001, 0.1)
            limit = rng.uniform(0.0, 0.05)
            shaper = Shaper([Gcra(increment=increment, limit=limit)], depth=10_000)
            check = Gcra(increment=increment, limit=limit)
            t = 0.0
            last_release = -math.inf
            for _ in range(500):
                t += rng.uniform(0.0, increment)  # mostly oversubscribed
                release = shaper.offer(t)
                assert release is not None
                assert release >= t
                assert release >= last_release
                assert conform_update((check,), release), "shaped cell must conform"
                last_release = release

    def test_conforming_stream_passes_untouched(self):
        period = 0.25
        shaper = Shaper([Gcra(increment=period, limit=0.0)])
        for k in range(100):
            assert shaper.offer(k * period) == k * period

    def test_overflow_counted_and_dropped(self):
        shaper = Shaper([Gcra(increment=1.0, limit=0.0)], depth=3)
        releases = [shaper.offer(0.0) for _ in range(6)]
        assert releases[:4] == [0.0, 1.0, 2.0, 3.0]
        assert releases[4:] == [None, None]
        assert shaper.overflow == 2

    def test_backlog_drains_as_time_passes(self):
        # occupancy counts cells whose release lies in the future; the
        # cell released at the arrival instant itself is already gone
        shaper = Shaper([Gcra(increment=1.0, limit=0.0)], depth=2)
        assert shaper.offer(0.0) == 0.0  # passes straight through
        assert shaper.offer(0.0) == 1.0
        assert shaper.offer(0.0) == 2.0
        assert shaper.offer(0.0) is None  # both buffer slots held
        assert shaper.overflow == 1
        assert shaper.offer(1.5) == 3.0  # the 1.0 release has drained

    def test_arrival_regression_raises(self):
        shaper = Shaper([Gcra(increment=1.0, limit=0.0)])
        shaper.offer(2.0)
        with pytest.raises(OrderingError):
            shaper.offer(1.0)

    @pytest.mark.parametrize("first", [True, False])
    def test_nan_arrival_raises_and_charges_nothing(self, first):
        bucket = Gcra(increment=1.0, limit=0.0)
        shaper = Shaper([bucket])
        if not first:
            assert shaper.offer(2.0) == 2.0
        before = (bucket.level, bucket.last_time, shaper.overflow)
        with pytest.raises(OrderingError):
            shaper.offer(math.nan)
        assert (bucket.level, bucket.last_time, shaper.overflow) == before
        # the refused arrival left no mark: an earlier arrival than the last
        # is still refused, and the next one shapes as before
        if not first:
            with pytest.raises(OrderingError):
                shaper.offer(1.0)
        assert shaper.offer(2.0) == (2.0 if first else 3.0)

    def test_shape_refuses_nan(self):
        with pytest.raises(OrderingError):
            shape([0.0, math.nan, 1.0], [Gcra(increment=1.0, limit=0.0)])

    def test_shape_helper(self):
        releases, overflow = shape(
            [0.0, 0.0, 0.0, 0.0], [Gcra(increment=1.0, limit=0.0)], depth=2
        )
        assert releases == [0.0, 1.0, 2.0, None]
        assert overflow == 1

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            Shaper([Gcra(increment=1.0, limit=0.0)], depth=0)


def reference_conform_update(buckets, arrival) -> bool:
    """conform_update written on Gcra.drained."""
    levels = []
    for bucket in buckets:
        down = bucket.drained(arrival)
        if down > bucket.limit:
            return False
        levels.append(down)
    for bucket, down in zip(buckets, levels):
        bucket.level = down + bucket.increment
        bucket.last_time = arrival
    return True


def reference_earliest_conforming(bucket, not_before):
    """Gcra.earliest_conforming written on Gcra.conforms."""
    if not_before < bucket.last_time:
        not_before = bucket.last_time
    t = not_before
    bound = bucket.last_time + (bucket.level - bucket.limit)
    if bound > t:
        t = bound
    while not bucket.conforms(t):
        t = math.nextafter(t, math.inf)
    if isinstance(t, float):
        while t > not_before:
            prev = math.nextafter(t, -math.inf)
            if prev < not_before or not bucket.conforms(prev):
                break
            t = prev
    return t


class ReferenceShaper:
    """Shaper.offer on reference_earliest_conforming and
    reference_conform_update, asking every bucket."""

    def __init__(self, buckets, depth: int):
        self.buckets = buckets
        self.depth = depth
        self.pending = []
        self.last_release = None

    def offer(self, arrival):
        self.pending = [t for t in self.pending if t > arrival]
        if len(self.pending) >= self.depth:
            return None
        t = arrival
        if self.last_release is not None and self.last_release > t:
            t = self.last_release
        for bucket in self.buckets:
            t = reference_earliest_conforming(bucket, t)
        while not reference_conform_update(self.buckets, t):
            t = math.nextafter(t, math.inf)
        self.last_release = t
        self.pending.append(t)
        return t


def bucket_states(buckets):
    return [(bucket.level, bucket.last_time) for bucket in buckets]


def on_off_bursts(rng: random.Random, cells: int, start: float = 0.0):
    """Bursts at the peak spacing of the benchmark's contract (1 ms) with
    a small jitter, separated by silences of 20..150 ms."""
    times = []
    t = start + rng.uniform(0.0, 0.05)
    while len(times) < cells:
        for _ in range(rng.randint(10, 80)):
            times.append(t)
            t += 0.001 + rng.uniform(0.0, 0.0002)
        t += rng.uniform(0.02, 0.15)
    return times[:cells]


def paced_at_pcr(cells: int):
    """A source emitting every 1/1000 s by repeated addition, as sources pace."""
    times, t = [], 0.0
    for _ in range(cells):
        times.append(t)
        t += 1 / 1000.0
    return times


def equal_runs(rng: random.Random, cells: int):
    """Runs of 1..20 cells at one instant, spaced 0..30 ms apart."""
    times, t = [], 0.0
    while len(times) < cells:
        times.extend([t] * rng.randint(1, 20))
        t += rng.uniform(0.0, 0.03)
    return times[:cells]


BENCH_CONTRACT = TrafficDescriptor(pcr=1000.0, cdvt=0.0005, scr=400.0, mbs=40)


def three_buckets():
    """A peak, a sustainable and a slower third bucket."""
    return [
        Gcra(increment=0.001, limit=0.0005),
        Gcra(increment=0.0025, limit=0.0395),
        Gcra(increment=0.004, limit=0.25, level=0.1, last_time=0.0),
    ]


def below_floor_buckets():
    """A bucket whose limit lies below zero, so only the floor at zero
    decides it: it refuses every cell, where a drain without the floor
    would pass the first cell after a silence of 0.25 s."""
    return [Gcra(increment=0.001, limit=0.0005), Gcra(increment=0.5, limit=-0.25)]


# (buckets, arrivals, the verdicts given); the arrivals are seeded
HAND_BUILT_BUCKETS = {
    # two on/off sources merged, so that each of the three buckets refuses cells
    "three_buckets": (
        three_buckets,
        lambda: sorted(
            on_off_bursts(random.Random(65), 3000) + on_off_bursts(random.Random(68), 1000)
        ),
        {True, False},
    ),
    "limit_below_zero": (
        below_floor_buckets, lambda: equal_runs(random.Random(66), 3000), {False}
    ),
    "fraction_state": (
        lambda: fraction_buckets(
            Fraction(1, 1000), Fraction(1, 2000), Fraction(1, 400), Fraction(79, 2000)
        ),
        lambda: [
            Fraction(t).limit_denominator(10**9) for t in on_off_bursts(random.Random(67), 600)
        ],
        {True, False},
    ),
}

# (stream, contract, shaper depth); every stream is seeded
DRAIN_STREAMS = {
    "on_off_bursts": (lambda: on_off_bursts(random.Random(61), 3000), BENCH_CONTRACT, 1024),
    "pcr_zero_cdvt": (lambda: paced_at_pcr(2001), TrafficDescriptor(pcr=1000.0), 1024),
    "pcr_zero_cdvt_anchored": (
        lambda: [k / 1000.0 for k in range(2001)], TrafficDescriptor(pcr=1000.0), 1024
    ),
    "equal_runs": (lambda: equal_runs(random.Random(62), 3000), BENCH_CONTRACT, 16),
    "near_1e6_s": (lambda: on_off_bursts(random.Random(63), 3000, start=1e6), BENCH_CONTRACT, 1024),
    "near_1e6_s_fast": (
        lambda: [1e6 + t / 1000.0 for t in on_off_bursts(random.Random(64), 3000)],
        TrafficDescriptor(pcr=1e6, cdvt=1e-7, scr=4e5, mbs=40),
        64,
    ),
}


class TestDrainMatchesReference:
    """conform_update and Gcra.earliest_conforming drain their buckets
    inline, and Shaper.offer skips a bucket that already conforms; on
    float streams each must agree with the same code written on
    Gcra.drained and Gcra.conforms, bit for bit, after every call.  So
    must conform_update on hand-built bucket lists."""

    @pytest.mark.parametrize("stream", sorted(DRAIN_STREAMS))
    def test_policing_matches_reference(self, stream):
        make, contract, _ = DRAIN_STREAMS[stream]
        buckets, reference = contract_buckets(contract), contract_buckets(contract)
        for t in make():
            assert conform_update(buckets, t) == reference_conform_update(reference, t)
            assert bucket_states(buckets) == bucket_states(reference)

    @pytest.mark.parametrize("name", sorted(HAND_BUILT_BUCKETS))
    def test_hand_built_buckets_match_reference(self, name):
        make, arrivals, given = HAND_BUILT_BUCKETS[name]
        buckets, reference = make(), make()
        verdicts = set()
        for t in arrivals():
            verdict = conform_update(buckets, t)
            assert verdict == reference_conform_update(reference, t)
            # repr tells the number types and the sign of zero apart
            assert repr(bucket_states(buckets)) == repr(bucket_states(reference))
            verdicts.add(verdict)
        assert verdicts == given

    @pytest.mark.parametrize("stream", sorted(DRAIN_STREAMS))
    def test_shaping_matches_reference(self, stream):
        make, contract, depth = DRAIN_STREAMS[stream]
        arrivals = make()
        buckets, reference = contract_buckets(contract), contract_buckets(contract)
        shaper, expected = Shaper(buckets, depth=depth), ReferenceShaper(reference, depth)
        releases = []
        for t in arrivals:
            # the arrival may precede a bucket's last_time; the candidate a
            # delayed cell starts from is the last release
            starts = [t] if expected.last_release is None else [t, max(t, expected.last_release)]
            for not_before in starts:
                for bucket, twin in zip(buckets, reference):
                    assert bucket.earliest_conforming(not_before) == reference_earliest_conforming(
                        twin, not_before
                    )
            release = shaper.offer(t)
            assert release == expected.offer(t)
            assert bucket_states(buckets) == bucket_states(reference)
            releases.append(release)
        assert shape(arrivals, contract_buckets(contract), depth=depth) == (
            releases, releases.count(None)
        )


class TestShapeCallBudget:
    """The per-cell work of ``shape``, counted in Python-level calls: one
    Shaper.offer per cell, at most one Gcra.earliest_conforming per bucket
    per cell and one conform_update per released cell.  No other atmsim
    function may be entered once per cell."""

    def test_calls_per_cell(self, tmp_path):
        path = str(tmp_path / "trace.txt")
        write_seeded_trace(path)
        with open(path, encoding="utf-8") as fh:
            arrivals = [t for t, port, _ in map(parse_trace_line, fh) if port == 0]
        buckets = contract_buckets(BENCH_CONTRACT)

        package = os.path.dirname(traffic_module.__file__) + os.sep
        calls: Counter = Counter()

        def profile(frame, event, _arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(package):
                calls[code] += 1

        sys.setprofile(profile)
        try:
            releases, overflow = shape(arrivals, buckets)
        finally:
            sys.setprofile(None)

        released = len(arrivals) - overflow
        # co_name, not co_qualname: 3.10 has no co_qualname, and shape
        # enters no other function named offer
        by_name = {code.co_name: n for code, n in calls.items()}
        assert by_name.pop("offer") == len(arrivals)
        assert by_name.pop("conform_update") == released
        # the seeded bursts overrun the SCR bucket, so cells are delayed
        assert 0 < by_name.pop("earliest_conforming") <= len(buckets) * len(arrivals)
        assert len(arrivals) == 1000 and releases.count(None) == overflow
        # what remains runs once per call of shape
        assert {name: n for name, n in by_name.items() if n > 10} == {}


class TestPolicing:
    def _cell(self, clp: int = 0) -> Cell:
        return Cell(CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=5, clp=clp))

    def _policer(self, action: PolicingAction) -> Policer:
        # one cell per second: a cell at 0 conforms, a second one at 0 does not
        return Policer(buckets=[Gcra(increment=1.0, limit=0.0)], action=action)

    def test_police_verdicts(self):
        cell = self._cell()
        policer = self._policer(PolicingAction.DROP)
        assert policer.offer(cell, 0.0) is cell
        assert policer.offer(cell, 0.0) is None
        policer = self._policer(PolicingAction.TAG_CLP)
        policer.offer(cell, 0.0)
        tagged = policer.offer(cell, 0.0)
        assert tagged is not None and tagged.header.clp == 1
        assert tagged.header.vci == cell.header.vci
        assert tagged.payload == cell.payload

    def test_tagging_already_tagged_cell(self):
        cell = self._cell(clp=1)
        policer = self._policer(PolicingAction.TAG_CLP)
        policer.offer(cell, 0.0)
        tagged = policer.offer(cell, 0.0)
        assert tagged is not None and tagged.header.clp == 1

    def test_policer_counters_drop(self):
        policer = Policer(buckets=[Gcra(increment=1.0, limit=0.0)])
        cell = self._cell()
        kept = [policer.offer(cell, t) for t in (0.0, 0.25, 1.0, 1.5, 2.0)]
        assert [c is not None for c in kept] == [True, False, True, False, True]
        assert (policer.passed, policer.tagged, policer.dropped) == (3, 0, 2)

    def test_policer_counters_tag(self):
        policer = Policer(
            buckets=[Gcra(increment=1.0, limit=0.0)], action=PolicingAction.TAG_CLP
        )
        outs = [policer.offer(self._cell(), t) for t in (0.0, 0.5, 1.0)]
        assert [c.header.clp for c in outs if c is not None] == [0, 1, 0]
        assert (policer.passed, policer.tagged, policer.dropped) == (2, 1, 0)


class TestContractRules:
    def _check(self, category, descriptor, qos=None):
        return validate_contract(category, descriptor, qos)

    def test_valid_contracts_accepted(self):
        cases = [
            (ServiceCategory.CBR, TrafficDescriptor(pcr=100.0, cdvt=0.01),
             QosRequirement(clr_clp0=1e-9, max_ctd=0.01, max_cdv=0.002)),
            (ServiceCategory.VBR_RT, TrafficDescriptor(pcr=100.0, cdvt=0.01, scr=50.0, mbs=5),
             QosRequirement(clr_clp0=1e-7, max_ctd=0.05, max_cdv=0.01)),
            (ServiceCategory.VBR_NRT, TrafficDescriptor(pcr=100.0, scr=20.0, mbs=10),
             QosRequirement(clr_clp0=1e-5, max_ctd=0.5)),
            (ServiceCategory.ABR, TrafficDescriptor(pcr=100.0, mcr=0.0),
             QosRequirement(clr_clp0=1e-4)),
            (ServiceCategory.ABR, TrafficDescriptor(pcr=100.0, mcr=10.0), None),
            (ServiceCategory.UBR, TrafficDescriptor(pcr=100.0), None),
        ]
        for category, descriptor, qos in cases:
            assert self._check(category, descriptor, qos) == []

    def test_cbr_violations(self):
        v = self._check(
            ServiceCategory.CBR,
            TrafficDescriptor(pcr=100.0, scr=50.0, mbs=3, mcr=1.0),
        )
        text = " / ".join(v)
        assert "CBR requires CDVT" in text
        assert "SCR not applicable" in text
        assert "MBS not applicable" in text
        assert "MCR not applicable" in text

    def test_vbr_violations(self):
        v = self._check(ServiceCategory.VBR_RT, TrafficDescriptor(pcr=100.0, mcr=5.0))
        text = " / ".join(v)
        assert "VBR_RT requires SCR" in text
        assert "VBR_RT requires MBS" in text
        assert "MCR not applicable" in text

    def test_abr_violations(self):
        v = self._check(
            ServiceCategory.ABR,
            TrafficDescriptor(pcr=100.0, scr=50.0, mbs=3),
            QosRequirement(max_ctd=0.1),
        )
        text = " / ".join(v)
        assert "ABR requires MCR" in text
        assert "SCR not applicable" in text
        assert "MBS not applicable" in text
        assert "max_ctd not applicable" in text

    def test_ubr_violations(self):
        v = self._check(
            ServiceCategory.UBR,
            TrafficDescriptor(pcr=100.0, scr=50.0, mbs=3, mcr=0.0),
            QosRequirement(clr_clp0=1e-6, clr_clp1=1e-3, max_ctd=0.1, max_cdv=0.01),
        )
        assert len(v) == 7  # scr, mbs, mcr + all four QoS fields

    BARE = TrafficDescriptor(pcr=1000.0)
    FULL = TrafficDescriptor(pcr=1000.0, cdvt=0.001, scr=500.0, mbs=10, mcr=100.0)
    ALL_QOS = QosRequirement(clr_clp0=1e-6, clr_clp1=1e-3, max_ctd=0.01, max_cdv=0.002)

    @pytest.mark.parametrize(
        "category, full, expected",
        [
            (ServiceCategory.CBR, False, ["CBR requires CDVT"]),
            (ServiceCategory.VBR_RT, False, ["VBR_RT requires SCR", "VBR_RT requires MBS"]),
            (ServiceCategory.VBR_NRT, False, ["VBR_NRT requires SCR", "VBR_NRT requires MBS"]),
            (ServiceCategory.ABR, False, ["ABR requires MCR (zero allowed)"]),
            (ServiceCategory.UBR, False, []),
            (
                ServiceCategory.CBR,
                True,
                ["SCR not applicable for CBR", "MBS not applicable for CBR", "MCR not applicable for CBR"],
            ),
            (ServiceCategory.VBR_RT, True, ["MCR not applicable for VBR_RT"]),
            (
                ServiceCategory.VBR_NRT,
                True,
                ["MCR not applicable for VBR_NRT", "max_cdv only applies to CBR and VBR_RT, not VBR_NRT"],
            ),
            (
                ServiceCategory.ABR,
                True,
                [
                    "SCR not applicable for ABR",
                    "MBS not applicable for ABR",
                    "max_ctd not applicable for ABR",
                    "max_cdv only applies to CBR and VBR_RT, not ABR",
                ],
            ),
            (
                ServiceCategory.UBR,
                True,
                [
                    "SCR not applicable for UBR",
                    "MBS not applicable for UBR",
                    "MCR not applicable for UBR",
                    "clr_clp0 not applicable for UBR (no QoS guarantees)",
                    "clr_clp1 not applicable for UBR (no QoS guarantees)",
                    "max_ctd not applicable for UBR (no QoS guarantees)",
                    "max_cdv not applicable for UBR (no QoS guarantees)",
                ],
            ),
        ],
    )
    def test_every_message_in_order(self, category, full, expected):
        """Bare: PCR alone, no QoS.  Full: every descriptor field and every QoS field."""
        if full:
            assert self._check(category, self.FULL, self.ALL_QOS) == expected
        else:
            assert self._check(category, self.BARE) == expected

    def test_every_category_has_a_row_that_books_what_it_requires(self):
        assert set(CATEGORY_RULES) == set(ServiceCategory)
        for rule in CATEGORY_RULES.values():
            assert rule.books in ("pcr", None) or rule.books in rule.requires

    @pytest.mark.parametrize("category", list(ServiceCategory))
    def test_accepted_contracts_book_without_raising(self, category):
        # why cac_admit cannot raise for a scenario that validated
        values = {"cdvt": 0.001, "scr": 500.0, "mbs": 10, "mcr": 100.0}
        books = CATEGORY_RULES[category].books
        accepted = 0
        for size in range(len(values) + 1):
            for names in itertools.combinations(values, size):
                descriptor = TrafficDescriptor(pcr=1000.0, **{n: values[n] for n in names})
                if not validate_contract(category, descriptor):
                    accepted += 1
                    expected = 0.0 if books is None else getattr(descriptor, books)
                    assert booking_rate(category, descriptor) == expected
        assert accepted

    def test_cdv_only_for_realtime(self):
        v = self._check(
            ServiceCategory.VBR_NRT,
            TrafficDescriptor(pcr=100.0, scr=50.0, mbs=3),
            QosRequirement(max_cdv=0.01),
        )
        assert any("max_cdv" in item for item in v)

    def test_descriptor_field_validation(self):
        with pytest.raises(ValueError):
            TrafficDescriptor(pcr=0.0)
        with pytest.raises(ValueError):
            TrafficDescriptor(pcr=100.0, scr=200.0)
        with pytest.raises(ValueError):
            TrafficDescriptor(pcr=100.0, mbs=0)
        with pytest.raises(ValueError):
            TrafficDescriptor(pcr=100.0, mcr=200.0)
        with pytest.raises(ValueError):
            QosRequirement(clr_clp0=1.5)

    def test_negative_cdvt_rejected(self):
        with pytest.raises(ValueError, match="cdvt must be >= 0"):
            TrafficDescriptor(pcr=1, cdvt=-1)

    @pytest.mark.parametrize("field", ["pcr", "cdvt", "scr", "mcr"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_rejected(self, field, value):
        fields = {"pcr": 100.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrafficDescriptor(**fields)
        with pytest.raises(ValueError):
            QosRequirement(max_cdv=-0.1)

    @pytest.mark.parametrize("field", ["max_ctd", "max_cdv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_bounds_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            QosRequirement(**{field: value})

    @pytest.mark.parametrize("field", ["clr_clp0", "clr_clp1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_loss_ratios_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a ratio in \[0, 1\]$"):
            QosRequirement(**{field: value})

    @pytest.mark.parametrize("mbs", [math.nan, math.inf, 2.5, 2.0, Fraction(2), "2", True])
    def test_mbs_must_be_an_integer(self, mbs):
        with pytest.raises(ValueError) as info:
            TrafficDescriptor(pcr=1.0, mbs=mbs)
        assert str(info.value) == f"mbs must be an integer, got {mbs!r}"
        assert TrafficDescriptor(pcr=1.0, mbs=2).mbs == 2

    @pytest.mark.parametrize(
        "record, changes",
        [
            (TrafficDescriptor(pcr=1.0), {"pcr": -1.0}),
            (TrafficDescriptor(pcr=100.0, cdvt=0.01), {"scr": 200.0, "mbs": 2}),
            (TrafficDescriptor(pcr=100.0), {"mcr": math.nan}),
            (QosRequirement(), {"clr_clp0": 1.5}),
            (QosRequirement(max_ctd=0.1), {"max_cdv": -0.1}),
        ],
    )
    def test_replace_and_make_check_like_the_constructor(self, record, changes):
        # a plain namedtuple's _replace and _make build through tuple.__new__
        values = {**record._asdict(), **changes}
        with pytest.raises(ValueError) as built:
            type(record)(**values)
        with pytest.raises(ValueError) as replaced:
            record._replace(**changes)
        with pytest.raises(ValueError) as made:
            type(record)._make(values.values())
        assert str(replaced.value) == str(made.value) == str(built.value)

    def test_replace_keeps_the_record_type(self):
        descriptor = TrafficDescriptor(pcr=100.0)._replace(cdvt=0.01)
        assert type(descriptor) is TrafficDescriptor
        assert descriptor == TrafficDescriptor(pcr=100.0, cdvt=0.01)
        assert type(QosRequirement()._replace(max_ctd=0.1)) is QosRequirement


class TestMetrics:
    def test_delay_stats_golden(self):
        samples = [0.001, 0.002, 0.003, 0.006]
        stats = delay_stats(moments_of(samples))
        assert stats is not None
        assert stats.count == 4
        assert stats.mean_ctd == 0.003
        assert stats.max_ctd == 0.006
        assert stats.cdv_peak_to_peak == 0.005
        assert stats.cdv_stddev == statistics.pstdev(samples)

    def test_delay_stats_empty(self):
        assert delay_stats(moments_of([])) is None


def moments_of(samples):
    """A DelayMoments filled as the engine fills one: each sample appended,
    and the pending samples folded whenever DELAY_CHUNK of them wait."""
    moments = DelayMoments()
    for sample in samples:
        moments.pending.append(sample)
        if len(moments.pending) == DELAY_CHUNK:
            moments.fold()
    return moments


def reference_stats(samples):
    """What delay_stats must give: the statistics module on the whole list."""
    return DelayStats(
        count=len(samples),
        mean_ctd=statistics.fmean(samples),
        max_ctd=max(samples),
        cdv_peak_to_peak=max(samples) - min(samples),
        cdv_stddev=statistics.pstdev(samples),
    )


# Zeros of both signs, the smallest subnormal, the smallest normal, and
# magnitudes far enough apart that one chunk spans ~1,300 binary orders.
EDGE_SAMPLES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-9, 1.0, 1e300, -1e300)
finite_samples = st.lists(
    st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(EDGE_SAMPLES),
    min_size=1,
    max_size=60,
)


def delay_like(count, seed=5):
    rng = random.Random(seed)
    return [rng.uniform(1e-4, 2e-3) for _ in range(count)]


class RecordingMoments(DelayMoments):
    """A DelayMoments that also keeps every sample and the size of each fold."""

    __slots__ = ("samples", "fold_sizes")

    def __init__(self):
        super().__init__()
        self.samples = []
        self.fold_sizes = []

    def fold(self):
        self.samples.extend(self.pending)
        self.fold_sizes.append(len(self.pending))
        super().fold()


@pytest.fixture(scope="module")
def c11_run():
    engine = build(c11_scenario())
    for flow in engine.connections:
        flow.delays = RecordingMoments()
    return engine, engine.run()


# a sample count that fills many chunks exactly, so the cases either side of
# it fold more than eight full chunks before the partial one
MANY_CHUNKS = 4096
assert MANY_CHUNKS % DELAY_CHUNK == 0 and MANY_CHUNKS // DELAY_CHUNK > 8


class TestDelayMoments:
    """delay_stats streams exact integer moments; each field must equal
    what len, fmean, max, max - min and pstdev give on the whole list."""

    @settings(max_examples=300, deadline=None)
    @given(finite_samples)
    def test_matches_statistics_module(self, samples):
        assert delay_stats(moments_of(samples)) == reference_stats(samples)

    @pytest.mark.parametrize(
        "count",
        [1, DELAY_CHUNK - 1, DELAY_CHUNK, DELAY_CHUNK + 1]
        + [MANY_CHUNKS - 1, MANY_CHUNKS, MANY_CHUNKS + 1],
    )
    def test_chunk_boundaries(self, count):
        samples = delay_like(count)
        assert delay_stats(moments_of(samples)) == reference_stats(samples)

    def test_later_chunk_with_the_smallest_magnitude_rescales(self):
        samples = delay_like(2 * DELAY_CHUNK + 100)
        samples[2 * DELAY_CHUNK + 7] = 3e-9
        moments = DelayMoments()
        scales = []
        for start in range(0, len(samples), DELAY_CHUNK):
            moments.pending.extend(samples[start : start + DELAY_CHUNK])
            moments.fold()
            scales.append(moments.scale)
        assert scales[0] == scales[1] < scales[2]
        assert moments.stats() == delay_stats(moments_of(samples)) == reference_stats(samples)

    @pytest.mark.parametrize(
        "samples",
        [
            [5e-324, 1e300],
            [1e300] * DELAY_CHUNK + [5e-324],  # the tiny sample rescales the sums
            [5e-324] * DELAY_CHUNK + [1e300],  # ldexp would overflow in chunk 2
        ],
        ids=["one-chunk", "tiny-last", "huge-last"],
    )
    def test_span_beyond_ldexp_range(self, samples):
        assert delay_stats(moments_of(samples)) == reference_stats(samples)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("before", [1, DELAY_CHUNK, MANY_CHUNKS])
    def test_non_finite_sample_rejected(self, value, before):
        with pytest.raises(ValueError, match=r"^delay sample -?(inf|nan) is not finite$"):
            delay_stats(moments_of([0.001] * before + [value]))

    def test_c11_delays_match_statistics_module(self, c11_run):
        engine, report = c11_run
        for flow in engine.connections:
            samples = flow.delays.samples
            assert len(samples) == flow.delivered > 2 * DELAY_CHUNK
            expected = reference_stats(samples)
            assert delay_stats(moments_of(samples)) == expected
            assert report.connections[flow.id]["delay"] == expected._asdict()

    def test_c11_buffer_stays_below_one_chunk(self, c11_run):
        engine, _report = c11_run
        for flow in engine.connections:
            delays = flow.delays
            assert len(delays.pending) < DELAY_CHUNK
            assert delays.folded + len(delays.pending) == flow.delivered
            # folded as each chunk filled during the run, never above one
            assert max(delays.fold_sizes) == DELAY_CHUNK

    def test_c11_run_allocates_little_beyond_what_it_keeps(self):
        # tracemalloc's peak during run(), less what the run still holds
        # after it, is mostly each connection's pending samples and the
        # temporaries of their folds, which DELAY_CHUNK bounds
        tracemalloc.start()
        try:
            engine = build(dict(c11_scenario(), duration_s=10.0))
            tracemalloc.reset_peak()
            report = engine.run()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.connections["fa"]["delivered"] > DELAY_CHUNK
        assert peak - held < 64 * 1024

    def test_importing_atmsim_leaves_statistics_and_fractions_unloaded(self):
        assert modules_loaded_by_importing_atmsim("statistics", "fractions", "decimal") == []


