"""Where names live: the package root names the run API only, only
``atmsim.lane`` speaks the LE-ARP control format, and the protocol core
imports nothing from the scenario, engine or CLI layers."""

import ast
import re
from pathlib import Path

import pytest

import atmsim

RUN_API = [
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

PROTOCOL_CORE = ["aal5", "abr", "cell", "errors", "lane", "rng", "switch", "traffic"]
UPPER_LAYERS = {"scenario", "engine", "cli"}

LE_ARP_NAMES = re.compile(
    r"\b(OP_ARP_REQUEST|OP_ARP_REPLY|decode_control|encode_arp_request|encode_arp_reply)\b"
)


def test_package_root_names_the_run_api_only():
    assert sorted(atmsim.__all__) == RUN_API
    for name in RUN_API:
        assert getattr(atmsim, name) is not None


def test_only_lane_names_the_le_arp_codec():
    src = Path(atmsim.__file__).parent
    speakers = sorted(
        path.name for path in src.glob("*.py") if LE_ARP_NAMES.search(path.read_text())
    )
    assert speakers == ["lane.py"]


def atmsim_imports(source: str) -> set:
    """The atmsim modules that a source text imports, by name in the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = "atmsim" + (f".{base}" if base else "")
            # ``from . import x`` and ``from atmsim import x`` import module x
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        names.update(name.split(".")[1] for name in dotted if name.startswith("atmsim."))
    return names


def test_import_reader_sees_every_form():
    source = (
        "import math, atmsim.engine\n"
        "from atmsim import cli\n"
        "from atmsim.rng import x\n"
        "from .scenario import ScenarioError\n"
        "from . import lane\n"
        "from dataclasses import field\n"
    )
    assert atmsim_imports(source) == {"engine", "cli", "rng", "scenario", "lane"}


@pytest.mark.parametrize("module", PROTOCOL_CORE)
def test_protocol_core_does_not_import_upper_layers(module):
    path = Path(atmsim.__file__).parent / f"{module}.py"
    assert not atmsim_imports(path.read_text()) & UPPER_LAYERS
