"""Shared test helpers."""

import json
import signal
from typing import Any, Callable, Dict, Tuple

import pytest

from atmsim.engine import Engine, RunReport, build

RUN_GUARD_S = 5.0


def run_guarded(raw: Dict[str, Any], seconds: float = RUN_GUARD_S) -> Tuple[Engine, RunReport]:
    """Build and run scenario ``raw``, failing with the scenario in the
    message if the run takes more than ``seconds`` of wall time, so that a
    run that never ends fails its test instead of stalling the suite.

    The guard is a real-time interval timer (SIGALRM) on this process.
    """

    def expire(_signum: int, _frame: Any) -> None:
        raise TimeoutError(f"run still going after {seconds} s: {json.dumps(raw)}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        engine = build(raw)
        return engine, engine.run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def guarded_run() -> Callable[..., Tuple[Engine, RunReport]]:
    """``run_guarded``; session-scoped, so hypothesis tests can take it."""
    return run_guarded
