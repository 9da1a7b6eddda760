"""Traffic contracts, GCRA conformance, policing, shaping and QoS math.

Rates are cells per second, times are seconds.  The conformance
arithmetic never forces floats: drive it with int/float for speed or
with fractions.Fraction when exact boundary decisions matter.
"""

from __future__ import annotations

import bisect
import enum
import math
import sys
from itertools import repeat
from operator import mul
from typing import List, Optional, Sequence, Tuple, Union

from .cell import Cell
from .errors import OrderingError
from .record import Record, new_tuple


class ServiceCategory(enum.Enum):
    CBR = "cbr"
    VBR_RT = "vbr_rt"
    VBR_NRT = "vbr_nrt"
    ABR = "abr"
    UBR = "ubr"


class TrafficDescriptor(Record):
    """Declared traffic parameters of one connection.

    pcr is mandatory; the rest only where the service category uses them.
    cdvt is the tolerance (seconds) granted on top of peak-rate spacing.
    """

    __slots__ = ()

    def __new__(cls, pcr, cdvt=None, scr=None, mbs=None, mcr=None):
        for name, value in (("pcr", pcr), ("cdvt", cdvt), ("scr", scr), ("mcr", mcr)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not pcr > 0:
            raise ValueError("pcr must be positive")
        if cdvt is not None and not cdvt >= 0:
            raise ValueError("cdvt must be >= 0")
        if scr is not None and not 0 < scr <= pcr:
            raise ValueError("scr must satisfy 0 < scr <= pcr")
        if mbs is not None and type(mbs) is not int:  # a bool is no count either
            raise ValueError(f"mbs must be an integer, got {mbs!r}")
        if mbs is not None and not mbs >= 1:
            raise ValueError("mbs must be >= 1")
        if mcr is not None and not 0 <= mcr <= pcr:
            raise ValueError("mcr must satisfy 0 <= mcr <= pcr")
        return new_tuple(cls, (pcr, cdvt, scr, mbs, mcr))


class QosRequirement(Record):
    """Requested QoS guarantees; every field optional."""

    __slots__ = ()

    def __new__(cls, clr_clp0=None, clr_clp1=None, max_ctd=None, max_cdv=None):
        for name, value in (("clr_clp0", clr_clp0), ("clr_clp1", clr_clp1)):
            if value is not None and not 0 <= value <= 1:
                raise ValueError(f"{name} must be a ratio in [0, 1]")
        for name, value in (("max_ctd", max_ctd), ("max_cdv", max_cdv)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be >= 0")
        return new_tuple(cls, (clr_clp0, clr_clp1, max_ctd, max_cdv))


_QOS_FIELDS = QosRequirement._fields


class CategoryRule(Record):
    """The descriptor fields one service category ``requires`` and ``excludes``,
    the one admission ``books`` (None: nothing), and the ``qos`` it may request."""

    __slots__ = ()

    def __new__(cls, requires, excludes, books, qos):
        return new_tuple(cls, (requires, excludes, books, qos))


# The service-category table of ATM Forum TM 4.0 (af-tm-0056.000)
CATEGORY_RULES = {
    ServiceCategory.CBR: CategoryRule(("cdvt",), ("scr", "mbs", "mcr"), "pcr", _QOS_FIELDS),
    ServiceCategory.VBR_RT: CategoryRule(("scr", "mbs"), ("mcr",), "scr", _QOS_FIELDS),
    ServiceCategory.VBR_NRT: CategoryRule(
        ("scr", "mbs"), ("mcr",), "scr", ("clr_clp0", "clr_clp1", "max_ctd")
    ),
    ServiceCategory.ABR: CategoryRule(("mcr",), ("scr", "mbs"), "mcr", ("clr_clp0", "clr_clp1")),
    ServiceCategory.UBR: CategoryRule((), ("scr", "mbs", "mcr"), None, ()),
}


def validate_contract(
    category: ServiceCategory,
    descriptor: TrafficDescriptor,
    qos: Optional[QosRequirement] = None,
) -> List[str]:
    """Check descriptor+QoS applicability for a service category.

    Returns a list of human-readable violations; empty means the contract
    is well formed.  Applicability is the category's row of
    CATEGORY_RULES: missing required fields first, then declared excluded
    ones, then QoS fields the category may not request.
    """
    if qos is None:
        qos = QosRequirement()
    rule = CATEGORY_RULES[category]
    cat = category.name
    v: List[str] = []
    for name in rule.requires:
        if getattr(descriptor, name) is None:
            v.append(f"{cat} requires {name.upper()}" + (" (zero allowed)" if name == "mcr" else ""))
    for name in rule.excludes:
        if getattr(descriptor, name) is not None:
            v.append(f"{name.upper()} not applicable for {cat}")
    for name in _QOS_FIELDS:
        if getattr(qos, name) is None or name in rule.qos:
            continue
        if not rule.qos:
            v.append(f"{name} not applicable for {cat} (no QoS guarantees)")
        elif name == "max_cdv":
            cdv = " and ".join(c.name for c, r in CATEGORY_RULES.items() if name in r.qos)
            v.append(f"max_cdv only applies to {cdv}, not {cat}")
        else:
            v.append(f"{name} not applicable for {cat}")
    return v


def burst_tolerance(mbs: int, scr: float, pcr: float) -> float:
    """Tolerance of the sustainable-rate bucket for a given burst size.

    (mbs - 1) * (1/scr - 1/pcr), computed in factored form, (mbs - 1) *
    (pcr - scr) / (scr * pcr), so the result stays exact where the inputs
    allow it.  Where float arithmetic cannot give it that way (scr * pcr
    is not a normal float, mbs is past the float range, or the result
    overflows on the way), it is evaluated exactly and rounded once; only
    a result past the float range is refused.  Int or Fraction rates give
    the factored result, a Fraction for Fraction rates.  With this
    tolerance, exactly mbs back-to-back cells at the peak rate conform.
    """
    if mbs < 1:
        raise ValueError("mbs must be >= 1")
    if not 0 < scr <= pcr:
        raise ValueError("rates must satisfy 0 < scr <= pcr")
    product = scr * pcr
    tolerance = math.inf
    if not isinstance(product, float) or sys.float_info.min <= product < math.inf:
        try:
            tolerance = (mbs - 1) * (pcr - scr) / product
        except OverflowError:  # mbs, or an int quotient, past the float range
            pass
    if tolerance == math.inf:
        # imported here: fractions loads decimal, which costs start-up time
        from fractions import Fraction

        try:
            tolerance = float((mbs - 1) * (1 / Fraction(scr) - 1 / Fraction(pcr)))
        except OverflowError:
            raise ValueError(
                f"burst tolerance (mbs - 1) * (1/scr - 1/pcr) is not a finite number "
                f"for scr={scr} and pcr={pcr}"
            ) from None
    return tolerance


class Gcra:
    """Continuous-state leaky bucket.

    The bucket drains at unit rate since the last conforming arrival and
    is floored at zero; an arrival conforms when the drained level is at
    most ``limit`` and then deposits ``increment``.  Non-conforming
    arrivals leave the state untouched.  increment = 1/rate, limit = the
    tolerance (cdvt, or burst tolerance + cdvt for the sustainable-rate
    bucket).
    """

    __slots__ = ("increment", "limit", "level", "last_time")

    def __init__(self, increment: float, limit: float, level: float = 0, last_time: float = 0):
        self.increment = increment
        self.limit = limit
        self.level = level
        self.last_time = last_time

    def drained(self, arrival: float) -> float:
        if not arrival >= self.last_time:  # refuses NaN too
            raise OrderingError(f"arrival {arrival} before last conformance {self.last_time}")
        down = self.level - (arrival - self.last_time)
        return down if down > 0 else 0

    def conforms(self, arrival: float) -> bool:
        """Would a cell at ``arrival`` conform?  No state change."""
        return self.drained(arrival) <= self.limit

    def earliest_conforming(self, not_before: float) -> float:
        """Smallest representable time >= not_before at which a cell conforms.

        No arrival may precede last_time, so a not_before before it is
        raised to it; a NaN raises OrderingError.  The algebraic bound
        last_time + (level - limit) can land one ulp short under float
        rounding, so the result is nudged with nextafter until the bucket
        actually agrees.  Each test is
        conforms() with Gcra.drained written out, as the shaper calls this
        for every delayed cell.
        """
        last, level, limit = self.last_time, self.level, self.limit
        if not not_before >= last:
            if not not_before < last:  # NaN is neither
                raise OrderingError(f"time {not_before} is not comparable with {last}")
            not_before = last
        t = not_before
        bound = last + (level - limit)
        if bound > t:
            t = bound
        while True:
            down = level - (t - last)
            if (down if down > 0 else 0) <= limit:
                break
            t = math.nextafter(t, math.inf)
        # the bound itself may have rounded up past the true threshold;
        # walk back down to the smallest conforming representable.  Exact
        # numeric types land on the threshold directly and skip this.
        if isinstance(t, float):
            while t > not_before:
                prev = math.nextafter(t, -math.inf)
                if prev < not_before:
                    break
                down = level - (prev - last)
                if not (down if down > 0 else 0) <= limit:
                    break
                t = prev
        return t


def conform_update(buckets: Sequence[Gcra], arrival: float) -> bool:
    """Dual (or n-fold) GCRA: conforming only if every bucket agrees.

    Buckets are only charged when the cell conforms overall, so a cell
    rejected by one bucket does not consume credit in another.  The first
    pass stops at the first bucket that refuses (or raises OrderingError
    on an arrival before its last_time, or NaN); only when all agree does
    the second drain each (distinct) bucket again and charge it.  The
    drain is Gcra.drained written out, as this runs once per cell.
    """
    for bucket in buckets:
        last = bucket.last_time
        if not arrival >= last:
            raise OrderingError(f"arrival {arrival} before last conformance {last}")
        down = bucket.level - (arrival - last)
        if (down if down > 0 else 0) > bucket.limit:
            return False
    for bucket in buckets:
        down = bucket.level - (arrival - bucket.last_time)
        bucket.level = (down if down > 0 else 0) + bucket.increment
        bucket.last_time = arrival
    return True


def contract_buckets(descriptor: TrafficDescriptor) -> List[Gcra]:
    """Conformance buckets for a descriptor: peak-rate bucket always,
    plus the sustainable-rate bucket when scr/mbs are declared."""
    cdvt = descriptor.cdvt if descriptor.cdvt is not None else 0
    buckets = [Gcra(increment=1 / descriptor.pcr, limit=cdvt)]
    if descriptor.scr is not None:
        if descriptor.mbs is None:
            raise ValueError("scr without mbs leaves the burst tolerance undefined")
        bt = burst_tolerance(descriptor.mbs, descriptor.scr, descriptor.pcr)
        buckets.append(Gcra(increment=1 / descriptor.scr, limit=bt + cdvt))
    return buckets


class PolicingAction(enum.Enum):
    DROP = "drop"
    TAG_CLP = "tag_clp"


_DROP = PolicingAction.DROP  # read per non-conforming cell; see switch.ACCEPTED


class Policer:
    """Usage parameter control of Cell values, with counters.

    The buckets decide.  A conforming cell passes as the same object.  A
    non-conforming one is discarded (None) under DROP, or passed with
    clp=1 under TAG_CLP: as the same object when it is already tagged,
    else as a copy whose header gets a fresh HEC when it is serialized.
    """

    __slots__ = ("buckets", "action", "passed", "tagged", "dropped")

    def __init__(self, buckets: List[Gcra], action: PolicingAction = PolicingAction.DROP):
        self.buckets = buckets
        self.action = action
        self.passed = 0
        self.tagged = 0
        self.dropped = 0

    def offer(self, cell: Cell, arrival: float) -> Optional[Cell]:
        if conform_update(self.buckets, arrival):
            self.passed += 1
            return cell
        if self.action is _DROP:
            self.dropped += 1
            return None
        self.tagged += 1
        if cell.header.clp == 1:
            return cell
        return Cell(cell.header._replace(clp=1), cell.payload)


class Shaper:
    """Open-loop shaper: delays cells to their earliest conforming times.

    Order is preserved; a cell is dropped (and counted) when more than
    ``depth`` cells are already waiting at its arrival instant.  Shaped
    output re-policed with the same buckets is conforming by
    construction.
    """

    def __init__(self, buckets: Sequence[Gcra], depth: int = 1024):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.buckets = list(buckets)
        self.depth = depth
        self.overflow = 0
        self._pending: List[float] = []  # release times not yet in the past
        self._last_arrival: float = -math.inf
        self._last_release: Optional[float] = None

    def offer(self, arrival: float) -> Optional[float]:
        """Release time for a cell arriving now, or None if it overflows."""
        # a NaN fails this test too, the first arrival's included
        if not arrival >= self._last_arrival:
            raise OrderingError(f"arrival {arrival} is not at or after {self._last_arrival}")
        self._last_arrival = arrival
        cut = bisect.bisect_right(self._pending, arrival)
        if cut:
            del self._pending[:cut]
        if len(self._pending) >= self.depth:
            self.overflow += 1
            return None
        t = arrival
        if self._last_release is not None and self._last_release > t:
            t = self._last_release
        for bucket in self.buckets:
            # the drain falls as t grows, so a bucket that conforms at t
            # (and has no later last_time) would answer t itself
            last = bucket.last_time
            if t >= last:
                down = bucket.level - (t - last)
                if (down if down > 0 else 0) <= bucket.limit:
                    continue
            t = bucket.earliest_conforming(t)
        while not conform_update(self.buckets, t):
            t = math.nextafter(t, math.inf)
        self._last_release = t
        self._pending.append(t)
        return t


def shape(
    arrivals: Sequence[float], buckets: Sequence[Gcra], depth: int = 1024
) -> Tuple[List[Optional[float]], int]:
    """Shape a whole arrival sequence; returns (release times, overflow count).

    The output list aligns with the input; None marks an overflowed cell.
    """
    shaper = Shaper(buckets, depth=depth)
    releases = [shaper.offer(t) for t in arrivals]
    return releases, shaper.overflow


class DelayStats(Record):
    __slots__ = ()

    def __new__(cls, count, mean_ctd, max_ctd, cdv_peak_to_peak, cdv_stddev):
        return new_tuple(cls, (count, mean_ctd, max_ctd, cdv_peak_to_peak, cdv_stddev))


# Delay samples a DelayMoments holds before folding them into its sums.
DELAY_CHUNK = 4096


class DelayMoments:
    """Exact running moments of one connection's transfer delays.

    Samples wait in ``pending`` until DELAY_CHUNK of them are folded at
    once.  Every sample seen so far times ``2**scale`` is an exact
    integer, and ``total`` and ``squares`` are the exact sums of those
    integers and of their squares, so memory stays bounded however many
    cells are delivered, and ``stats`` gives what ``statistics.fmean``
    and ``statistics.pstdev`` give on the whole list, bit for bit.
    """

    __slots__ = ("pending", "folded", "scale", "total", "squares", "low", "high")

    def __init__(self) -> None:
        self.pending: List[float] = []
        self.folded = 0
        self.scale = 0
        self.total = 0
        self.squares = 0
        self.low = math.inf
        self.high = -math.inf

    def fold(self) -> None:
        """Add the pending samples to the sums and empty the buffer."""
        xs = self.pending
        if not xs:
            return
        low, high = min(xs), max(xs)
        # The smallest nonzero magnitude, 2**e > |x| >= 2**(e-1), has its
        # last mantissa bit at or above 2**(e-53), and so has every larger one.
        smallest = low if low > 0 else min(filter(None, map(abs, xs)), default=0.0)
        scale = max(self.scale, 53 - math.frexp(smallest)[1])
        try:
            ints = list(map(int, map(math.ldexp, xs, repeat(scale))))
        except (OverflowError, ValueError):
            ints = _scaled_ints(xs, scale)
        shift = scale - self.scale
        self.scale = scale
        self.total = (self.total << shift) + sum(ints)
        self.squares = (self.squares << 2 * shift) + sum(map(mul, ints, ints))
        self.folded += len(xs)
        self.low = min(self.low, low)
        self.high = max(self.high, high)
        xs.clear()

    def stats(self) -> Optional[DelayStats]:
        """Statistics of every sample added; None when there are none."""
        self.fold()
        n = self.folded
        if not n:
            return None
        total, scale = self.total, self.scale
        return DelayStats(
            count=n,
            # int / int rounds once, correctly, as math.fsum does: this is fmean
            mean_ctd=total / (1 << scale) / n,
            max_ctd=self.high,
            cdv_peak_to_peak=self.high - self.low,
            cdv_stddev=_sqrt_of_frac(n * self.squares - total * total, n * n << 2 * scale),
        )


def _scaled_ints(xs: Sequence[float], scale: int) -> List[int]:
    """Each x times 2**scale as an exact integer, where ldexp would overflow."""
    ints = []
    for x in xs:
        if not math.isfinite(x):
            raise ValueError(f"delay sample {x!r} is not finite")
        num, den = x.as_integer_ratio()
        ints.append(num << (scale + 1 - den.bit_length()))
    return ints


def _sqrt_of_frac(num: int, den: int) -> float:
    """Correctly rounded square root of num/den, for num >= 0 and den > 0.

    The integer root is taken to at least 55 bits and rounded to odd (its
    last bit set when inexact), which makes the one rounding to a float
    that follows correct.
    """
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


def delay_stats(delays: Union[DelayMoments, Sequence[float]]) -> Optional[DelayStats]:
    """Transfer-delay statistics; None for an empty sample set.

    ``delays`` is a list of samples or the DelayMoments that took them.
    Peak-to-peak delay variation is max - min; the spread statistic is
    the population standard deviation.  A non-finite sample raises
    ValueError.
    """
    if not isinstance(delays, DelayMoments):
        moments = DelayMoments()
        for start in range(0, len(delays), DELAY_CHUNK):
            moments.pending.extend(delays[start : start + DELAY_CHUNK])
            moments.fold()
        delays = moments
    return delays.stats()


class ConnectionMetrics:
    """Per-connection cell accounting, split by loss priority, and the
    moments of its transfer delays."""

    __slots__ = (
        "transmitted_clp0",
        "transmitted_clp1",
        "lost_clp0",
        "lost_clp1",
        "delivered",
        "delays",
    )

    def __init__(self) -> None:
        self.transmitted_clp0 = 0
        self.transmitted_clp1 = 0
        self.lost_clp0 = 0
        self.lost_clp1 = 0
        self.delivered = 0
        self.delays = DelayMoments()

    @property
    def transmitted(self) -> int:
        return self.transmitted_clp0 + self.transmitted_clp1

    @property
    def lost(self) -> int:
        return self.lost_clp0 + self.lost_clp1

    @property
    def in_flight(self) -> int:
        """Cells still inside the network: transmitted - delivered - lost."""
        return self.transmitted - self.delivered - self.lost


def compute_clr(metrics: ConnectionMetrics, clp: Optional[int] = None) -> float:
    """Cell loss ratio lost/transmitted for one CLP class (None = both).

    Zero transmitted cells give a CLR of 0.0 rather than a division error.
    """
    if clp is None:
        lost, transmitted = metrics.lost, metrics.transmitted
    elif clp == 0:
        lost, transmitted = metrics.lost_clp0, metrics.transmitted_clp0
    elif clp == 1:
        lost, transmitted = metrics.lost_clp1, metrics.transmitted_clp1
    else:
        raise ValueError("clp must be 0, 1 or None")
    if transmitted == 0:
        return 0.0
    return lost / transmitted
