"""Cell-level ATM network simulator.

The protocol pieces (cells, AAL5, GCRA conformance, switching, ABR
feedback, LAN emulation) are plain importable modules; the engine ties
them into a deterministic discrete-event simulation driven by JSON
scenario files.  The package root names the run API only; everything
else is imported from its own module.  The root loads no submodule
itself: a run-API name is imported from ``engine`` or ``scenario`` on
first use (PEP 562), so ``import atmsim.cell`` loads only the codec.
"""

from importlib import import_module

__version__ = "0.1.0"

_ENGINE = ("Engine", "RunReport", "ScenarioInvalid", "build", "preflight", "run")
_SCENARIO = ("Scenario", "ScenarioError", "load_scenario", "validate_scenario")

__all__ = sorted(_ENGINE + _SCENARIO)


def __getattr__(name: str) -> object:
    """Import a run-API name from its home module and keep it here, so the
    import runs once per name; any other name is missing, which lets
    ``from atmsim import cell`` fall through to the submodule."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(".engine" if name in _ENGINE else ".scenario", __name__)
    value = globals()[name] = getattr(home, name)
    return value
