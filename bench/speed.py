"""Host speed, sampled inside a repetition while it runs.

On a shared virtual machine the same code can take 1.6x longer or more
for anything from a fraction of a second to minutes, with load from
outside the process, in two ways: the hypervisor gives the vCPU to
someone else for milliseconds at a time (steal), and the vCPU runs slower
while it is ours (a busy sibling hyperthread, a lower clock).  Host
seconds of one workload then spread between runs far more than any
regression worth catching.

A ``SpeedClock`` takes both out.  Against steal it counts CPU seconds of
the process (and of any child it reaped), not host seconds: stolen time
is not charged to the process.  Against slow spells it runs a fixed
pure-Python calibration kernel every ``INTERVAL_S`` from a timer signal,
in the measured process itself, and scales each measured segment to a
reference speed,

    scaled = CPU seconds without the kernel * REFERENCE_TICK_S / mean kernel CPU time in the segment

so that a slow spell stretches the kernel about as much as the workload
and cancels out.  The kernel does what atmsim's hot paths do
(heap-ordered events, frozen dataclass copies, method calls, attribute
and dict updates) and runs no atmsim code, so a change to atmsim moves
only the numerator.  The garbage collector is paused during a tick, so a
collection of the workload's heap is never billed to the kernel.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import resource
import signal
import statistics
import time
from typing import Any, Dict, List, Tuple

INTERVAL_S = 0.01
# About the kernel's CPU time on a 2-vCPU Intel Xeon VM with CPython 3.11.7
# in its fast spells (0.4 to 0.5 ms in its slow ones).  Only a scale: it
# makes scaled seconds read like host seconds in a fast spell there.
REFERENCE_TICK_S = 0.00025


@dataclasses.dataclass(frozen=True)
class _Header:
    vpi: int
    vci: int
    pti: int = 0
    clp: int = 0


class _Port:
    __slots__ = ("name", "cells", "per_vc")

    def __init__(self, name: str) -> None:
        self.name = name
        self.cells = 0
        self.per_vc: dict = {}

    def accept(self, vc: int) -> int:
        self.cells += 1
        self.per_vc[vc] = self.per_vc.get(vc, 0) + 1
        return self.cells


def kernel() -> int:
    """A fixed amount of atmsim-like work; returns a checksum of it."""
    queue: List[Tuple[float, int, _Header]] = []
    for seq in range(16):
        heapq.heappush(queue, (seq * 1e-3, seq, _Header(1, seq)))
    seq = 16
    for i in range(40):
        t, _, header = heapq.heappop(queue)
        header = dataclasses.replace(header, vci=(header.vci + 3) % 64, pti=(header.pti + 1) & 7)
        heapq.heappush(queue, (t + 1e-3 + (i % 7) * 1e-5, seq, header))
        seq += 1
    ports = [_Port(str(k)) for k in range(8)]
    total = 0
    recent: List[Tuple[int, str]] = []
    for i in range(250):
        port = ports[i & 7]
        total += port.accept(i % 13)
        recent.append((i, port.name))
        if len(recent) > 32:
            recent.pop(0)
    return total + seq


class SpeedClock:
    """Samples host speed with the kernel while started; see the module doc."""

    def __init__(self) -> None:
        self.spent = 0.0  # host seconds inside the kernel since construction
        self._spent_cpu = 0.0  # CPU seconds inside the kernel
        self._ticks: List[float] = []  # CPU seconds of each tick in this segment
        self._lap_at = (0.0, 0.0)
        self._previous: Any = None
        self._busy = False

    def _tick(self, *_: Any) -> None:
        if self._busy:  # the timer fired during a tick
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        took = time.process_time() - cpu
        self.spent += time.perf_counter() - wall
        if enabled:
            gc.enable()
        self._ticks.append(took)
        self._spent_cpu += took
        self._busy = False

    def now(self) -> float:
        """Host seconds with the kernel's time taken out."""
        return time.perf_counter() - self.spent

    def _cpu(self) -> float:
        """CPU seconds of this process and its reaped children, without the kernel."""
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + children.ru_utime + children.ru_stime - self._spent_cpu

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        self._lap_at = (self.now(), self._cpu())
        self._ticks.clear()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def lap(self) -> Dict[str, float]:
        """The segment since the last lap: host, CPU and scaled seconds.  A
        tick at the segment's end makes every segment have one."""
        self._tick()
        at = (self.now(), self._cpu())
        (host, cpu), self._lap_at = [b - a for a, b in zip(self._lap_at, at)], at
        ticks, self._ticks = self._ticks, []
        mean_tick = sum(ticks) / len(ticks)
        return {"host": host, "cpu": cpu, "scaled": cpu * REFERENCE_TICK_S / mean_tick}


def median_tick(samples: int = 2000) -> float:
    """The median kernel time here, to compare with REFERENCE_TICK_S."""
    clock = SpeedClock()
    for _ in range(samples):
        clock._tick()
    return statistics.median(clock._ticks)


if __name__ == "__main__":
    print(f"median kernel time: {median_tick():.6g} s")
