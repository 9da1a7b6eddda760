"""Per-layer tracing of atmsim from outside the package.

``install`` replaces each boundary below with a timing wrapper.  A
method is wrapped on its class.  A module-level function is rebound in
every ``atmsim`` module namespace that holds it, because modules import
each other's functions by name (``engine`` calls its own binding of
``route_cell``), so wrapping only the defining module would miss those
calls.

Each boundary accumulates calls, total seconds and self seconds (total
minus the time spent in wrapped boundaries it called) in memory; nothing
is written until ``Tracer.summary`` is read at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

# (layer, module that defines it, qualified name)
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("scenario", "atmsim.scenario", "load_scenario"),
    ("scenario", "atmsim.scenario", "validate_scenario"),
    ("engine", "atmsim.engine", "EventQueue.schedule"),
    ("engine", "atmsim.engine", "EventQueue.pop"),
    ("engine", "atmsim.engine", "Engine.run"),
    ("switch", "atmsim.switch", "route_cell"),
    ("switch", "atmsim.switch", "OutputQueue.enqueue"),
    ("switch", "atmsim.switch", "OutputQueue.dequeue"),
    ("switch", "atmsim.cell", "set_efci"),
    ("cell", "atmsim.cell", "CellHeader.__init__"),
    ("cell", "atmsim.cell", "Cell.__init__"),
    ("cell", "atmsim.cell", "parse_trace_line"),
    ("cell", "atmsim.cell", "decode_cell"),
    ("aal5", "atmsim.aal5", "segment"),
    ("aal5", "atmsim.aal5", "Reassembler.push"),
    ("lane", "atmsim.lane", "Lec.send"),
    ("lane", "atmsim.lane", "Lec.deliver"),
    ("lane", "atmsim.lane", "Lec.on_arp_reply"),
    ("lane", "atmsim.lane", "Bus.forward"),
    ("lane", "atmsim.lane", "Les.resolve"),
    ("lane", "atmsim.lane", "decode_control"),
    ("abr", "atmsim.abr", "EfciObserver.observe"),
    ("abr", "atmsim.abr", "source_adjust"),
    ("traffic", "atmsim.traffic", "Policer.offer"),
    ("traffic", "atmsim.traffic", "Shaper.offer"),
    ("traffic", "atmsim.traffic", "Gcra.earliest_conforming"),
    ("traffic", "atmsim.traffic", "Gcra.conforms"),
    ("traffic", "atmsim.traffic", "delay_stats"),
    ("cli", "atmsim.cli", "main"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in BOUNDARIES))


def boundary_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname}"


class Tracer:
    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total, self]
        self.counts: Dict[str, int] = {}
        self._stack: List[List[Any]] = []  # [child seconds, boundary name]

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def wrap(self, name: str, fn: Callable, outcome: Optional[Callable[[Any], None]]) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
            if outcome is not None:
                outcome(result)
            return result

        return traced

    def summary(self) -> Dict[str, Any]:
        return {
            "boundaries": {name: list(values) for name, values in self.stats.items()},
            "counts": dict(self.counts),
        }


def _outcomes(tracer: Tracer) -> Dict[str, Callable[[Any], None]]:
    """Result classifiers for the boundaries whose ratios are reported."""

    def enqueue(outcome: Any) -> None:
        tracer.count("switch.enqueue_accepted" if outcome.value == "accepted" else "switch.enqueue_refused")

    def push(result: Any) -> None:
        if isinstance(result, bytes):
            tracer.count("aal5.frames_ok")
        elif result is not None:
            tracer.count("aal5.frames_bad")

    def decode(result: Any) -> None:
        tracer.count(f"cell.decode_{result[0].status.value}")

    def conforms(_result: Any) -> None:
        if tracer.inside("traffic.Shaper.offer"):
            tracer.count("traffic.conforms_in_shaper")

    return {
        "switch.OutputQueue.enqueue": enqueue,
        "aal5.Reassembler.push": push,
        "cell.decode_cell": decode,
        "traffic.Gcra.conforms": conforms,
    }


def install(tracer: Tracer) -> None:
    """Wrap every boundary of an already imported atmsim."""
    outcomes = _outcomes(tracer)
    for _, module_name, _ in BOUNDARIES:
        importlib.import_module(module_name)
    modules = [
        module
        for key, module in list(sys.modules.items())
        if key == "atmsim" or key.startswith("atmsim.")
    ]
    for layer, module_name, qualname in BOUNDARIES:
        name = boundary_name(layer, qualname)
        module = sys.modules[module_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], outcomes.get(name)))
            continue
        original = getattr(module, qualname)
        wrapped = tracer.wrap(name, original, outcomes.get(name))
        for namespace in modules:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)
