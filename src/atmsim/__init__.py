"""Cell-level ATM network simulator.

The protocol pieces (cells, AAL5, GCRA conformance, switching, ABR
feedback, LAN emulation) are plain importable modules; the engine ties
them into a deterministic discrete-event simulation driven by JSON
scenario files.  The package root names the run API only; everything
else is imported from its own module.
"""

from .engine import Engine, RunReport, ScenarioInvalid, build, preflight, run
from .scenario import Scenario, ScenarioError, load_scenario, validate_scenario

__version__ = "0.1.0"

__all__ = [
    "Engine",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "ScenarioInvalid",
    "build",
    "load_scenario",
    "preflight",
    "run",
    "validate_scenario",
]
