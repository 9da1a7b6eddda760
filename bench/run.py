"""atmsim benchmark: throughput of three workloads, with output checks.

    python3 bench/run.py --workload abr_bottleneck --seed 11 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, untraced then traced
    python3 bench/run.py --record                # rewrite bench/golden.json

A run is a closed loop with one client: it starts one fresh interpreter
(bench/child.py) at a time, each doing one batch job at a fixed input
size, until ``--seconds`` of host time have passed.  Every metric is
the median over the run's repetitions; times are CPU seconds scaled to a
reference host speed measured inside each repetition (bench/speed.py).  Before
measuring, the repository's reference scenario is run once, untimed, and
its report digest checked.  Each repetition's output digest is checked
against bench/golden.json, or, for a seed with no recorded digest,
against the run's first repetition.  A failed or mismatching repetition
counts in ``error_rate``.

``--trace 1`` alternates untraced repetitions with traced ones, in which
bench/tracer.py wraps the public functions of each atmsim layer, and
reports per-layer calls and seconds plus the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics of the chosen mode.  Everything above it is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(ROOT, "tests", "data", "reference_scenario.json")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")

sys.path.insert(0, BENCH_DIR)
import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60
RECORDED_SEEDS = range(0, 16)

# name -> (unit, better), each the median over a run's untraced
# repetitions.  Times are scaled to a reference host speed by speed.py;
# error_rate travels as attempted/failed.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "cells_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed beside them: unscaled host and CPU seconds.
HOST = ("host_wall_s", "cpu_wall_s", "host_setup_s", "cpu_setup_s")


BOUNDARY_STATS = {"calls": ("count", "lower"), "total_s": ("s", "lower"), "self_s": ("s", "lower")}
# Ratios and counts taken at the boundaries, plus the cost of tracing itself.
DERIVED = {
    "switch.accept_ratio": ("ratio", "higher"),
    "cell.header_builds_per_hop": ("ratio", "lower"),
    "cell.decode_corrected": ("count", "higher"),
    "cell.decode_uncorrectable": ("count", "higher"),
    "aal5.frames_ok_ratio": ("ratio", "higher"),
    "traffic.conforms_per_shaped_cell": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    metrics: Dict[str, Tuple[str, str]] = {}
    for layer, _, qualname in tracer.BOUNDARIES:
        for stat, spec in BOUNDARY_STATS.items():
            metrics[f"{tracer.boundary_name(layer, qualname)}.{stat}"] = spec
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = ("s", "lower")
    metrics.update(DERIVED)
    return metrics


# -- environment ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # a checkout that is not a repository must not report an enclosing one
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> Dict[str, Any]:
    load1, load5, load15 = os.getloadavg()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg": [load1, load5, load15],
        "commit": _git_commit(),
    }


# -- children --------------------------------------------------------------------


class ChildFailed(Exception):
    pass


def child(job: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job in a fresh single-threaded interpreter and wait for it."""
    job = {"src": SRC, **job}
    env = {
        "PATH": os.environ.get("PATH", ""),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    try:
        proc = subprocess.run(
            [sys.executable, "-I", os.path.join(BENCH_DIR, "child.py"), json.dumps(job)],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"no result line in {proc.stdout[-500:]!r}") from None


# -- one run ---------------------------------------------------------------------


class Run:
    """Accumulates repetitions and their correctness for one workload and seed."""

    def __init__(self, workload: str, seed: int, golden: Dict[str, Any]):
        self.workload = workload
        self.seed = seed
        self.reference: str = golden["reference"]
        self.expected: Optional[str] = golden.get(workload, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.untraced: List[Dict[str, Any]] = []
        self.traced: List[Dict[str, Any]] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def gate(self) -> None:
        """The reference scenario, once, untimed."""
        self.attempted += 1
        try:
            digest = child({"mode": "reference", "reference": REFERENCE})["digest"]
        except ChildFailed as exc:
            self.fail(f"reference scenario: {exc}")
            return
        if digest != self.reference:
            self.fail(f"reference scenario digest {digest} != recorded {self.reference}")

    def repeat(self, job: Dict[str, Any]) -> None:
        self.attempted += 1
        label = "traced" if job["traced"] else "untraced"
        try:
            result = child(job)
        except ChildFailed as exc:
            self.fail(f"{label} repetition: {exc}")
            return
        if self.expected is None:
            self.expected = result["digest"]  # unrecorded seed: agree with the first
        if result["digest"] != self.expected:
            self.fail(f"{label} digest {result['digest']} != expected {self.expected}")
        elif result["checks"]:
            self.fail(f"{label} checks: {'; '.join(result['checks'])}")
        else:
            (self.traced if job["traced"] else self.untraced).append(result)


def make_job(workload: str, seed: int, work: str) -> Dict[str, Any]:
    """The repetition job; writes the conformance trace into ``work`` first."""
    job: Dict[str, Any] = {"mode": "run", "workload": workload, "seed": seed, "traced": False}
    if workload == "conformance":
        job["trace_file"] = os.path.join(work, "trace.txt")
        prepared = child({"mode": "prepare", "seed": seed, "trace_file": job["trace_file"]})
        job["injected"] = prepared["injected"]
    return job


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Run:
    with open(GOLDEN) as fh:
        run = Run(workload, seed, json.load(fh))
    run.gate()
    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        job = make_job(workload, seed, work)
        deadline = time.perf_counter() + seconds
        modes = (False, True) if traced else (False,)
        while True:
            for mode in modes:
                run.repeat({**job, "traced": mode})
            enough = len(run.untraced) >= 2 and (not traced or len(run.traced) >= 2)
            if time.perf_counter() >= deadline and (enough or run.attempted > 8):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run


# -- metrics ---------------------------------------------------------------------


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(run: Run) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {name: [] for name in (*END_TO_END, *HOST)}
    for rep in run.untraced:
        for name in ("wall_s", "setup_s", "peak_rss_mb", *HOST):
            samples[name].append(rep[name])
        samples["events_per_s"].append(rep["events"] / rep["wall_s"])
        samples["cells_per_s"].append(rep["cells"] / rep["wall_s"])
    return samples


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run) -> Dict[str, float]:
    """Medians over the traced repetitions; counts repeat exactly."""
    values: Dict[str, List[float]] = {}
    for rep in run.traced:
        layers = rep["layers"]
        bounds = layers["boundaries"]
        counts = layers["counts"]
        self_by_layer = {layer: 0.0 for layer in tracer.LAYERS}
        row: Dict[str, float] = {}
        for layer, _, qualname in tracer.BOUNDARIES:
            name = tracer.boundary_name(layer, qualname)
            calls, total, own = bounds.get(name, (0, 0.0, 0.0))
            row[f"{name}.calls"] = calls
            row[f"{name}.total_s"] = total
            row[f"{name}.self_s"] = own
            self_by_layer[layer] += own
        for layer, own in self_by_layer.items():
            row[f"{layer}.self_s"] = own
        accepted = counts.get("switch.enqueue_accepted", 0)
        frames_ok = counts.get("aal5.frames_ok", 0)
        hops = rep["cells"] if run.workload in workloads.SIMULATIONS else 0
        row["switch.accept_ratio"] = _ratio(accepted, accepted + counts.get("switch.enqueue_refused", 0))
        row["cell.header_builds_per_hop"] = _ratio(row["cell.CellHeader.__init__.calls"], hops)
        row["cell.decode_corrected"] = counts.get("cell.decode_corrected", 0)
        row["cell.decode_uncorrectable"] = counts.get("cell.decode_uncorrectable", 0)
        row["aal5.frames_ok_ratio"] = _ratio(frames_ok, frames_ok + counts.get("aal5.frames_bad", 0))
        row["traffic.conforms_per_shaped_cell"] = _ratio(
            counts.get("traffic.conforms_in_shaper", 0), row["traffic.Shaper.offer.calls"]
        )
        for key, value in row.items():
            values.setdefault(key, []).append(value)
    medians = {key: statistics.median(vals) for key, vals in values.items()}
    medians["trace.overhead"] = statistics.median(rep["wall_s"] for rep in run.traced) / statistics.median(
        rep["wall_s"] for rep in run.untraced
    )
    return medians


# -- output ----------------------------------------------------------------------


def report(run: Run, traced: bool) -> Dict[str, Any]:
    print(
        f"workload {run.workload} seed {run.seed} trace {int(traced)}: "
        f"{len(run.untraced)} untraced and {len(run.traced)} traced repetitions, "
        f"{run.attempted} attempted (reference gate included), {run.failed} failed"
    )
    error_rate = run.failed / run.attempted
    metrics: Dict[str, Dict[str, Any]] = {}
    print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}  {'unit':<6}{'n':>4}")
    for name, values in end_to_end(run).items():
        unit = END_TO_END[name][0] if name in END_TO_END else "s"
        if not values:
            print(f"  {name:<14}{'n/a':>14}")
            continue
        q1, q2, q3 = _quartiles(values)
        print(f"  {name:<14}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}  {unit:<6}{len(values):>4}")
        if name in END_TO_END:
            metrics[name] = {"value": q2, "unit": unit}
    print(f"  {'error_rate':<14}{error_rate:>14.6g}{'':>28}  {'ratio':<6}{run.attempted:>4}")
    if not traced:
        return metrics

    values = per_layer(run) if run.traced and run.untraced else {}
    if not values:
        return {}
    units = {name: unit for name, (unit, _) in per_layer_metrics().items()}
    print(f"  per layer, medians of {len(run.traced)} traced repetitions:")
    print(f"  {'boundary':<44}" + "".join(f"{stat:>12}" for stat in BOUNDARY_STATS))
    for layer, _, qualname in tracer.BOUNDARIES:
        name = tracer.boundary_name(layer, qualname)
        print(f"  {name:<44}" + "".join(f"{values[f'{name}.{stat}']:>12.6g}" for stat in BOUNDARY_STATS))
    for name in [f"{layer}.self_s" for layer in tracer.LAYERS] + list(DERIVED):
        print(f"  {name:<44}{values[name]:>12.6g} {units[name]}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    env = environment()
    print("env: " + json.dumps(env))
    if env["loadavg"][0] > (env["nproc"] or 1):
        print(
            f"warning: 1-minute load average {env['loadavg'][0]:.2f} exceeds nproc "
            f"{env['nproc']}; timings will be noisy",
            file=sys.stderr,
        )
    run = measure(workload, seed, seconds, traced)
    metrics = report(run, traced)
    for problem in run.problems:
        print(f"  problem: {problem}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def record() -> int:
    """Rewrite golden.json from the current code; review the diff before committing."""
    golden: Dict[str, Any] = {"reference": child({"mode": "reference", "reference": REFERENCE})["digest"]}
    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        for workload in workloads.WORKLOADS:
            seeds = sorted(set(RECORDED_SEEDS) | {workloads.DEFAULT_SEEDS[workload]})
            golden[workload] = {}
            for seed in seeds:
                result = child(make_job(workload, seed, work))
                if result["checks"]:
                    raise SystemExit(f"{workload} seed {seed}: {result['checks']}")
                golden[workload][str(seed)] = result["digest"]
                print(f"{workload} seed {seed}: {result['digest']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, help="scenario or trace seed (default per workload)")
    parser.add_argument("--seconds", type=float, default=30.0, help="host seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite golden.json and exit")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (os.path.join(SRC, "atmsim", "__init__.py"), REFERENCE) if not os.path.isfile(p)]
    if missing:
        print(f"error: not an atmsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        return record() if args.record else run_all(args)
    except ChildFailed as exc:  # only set-up children raise; repetitions count failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_all(args: argparse.Namespace) -> int:
    """Results, correct or not, go to stdout; the exit code is 0 once they are printed."""
    if args.workload == "all":
        plan = [(workload, traced) for workload in workloads.WORKLOADS for traced in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    for workload, traced in plan:
        seed = args.seed if args.seed is not None else workloads.DEFAULT_SEEDS[workload]
        print(json.dumps(run_one(workload, seed, args.seconds, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
