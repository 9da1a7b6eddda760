"""Where names live: the package root names the run API only and loads
it on first use, only ``atmsim.lane`` speaks the LE-ARP control format,
the protocol core imports nothing from the scenario, engine or CLI
layers, the CLI's cell commands load no simulator, no simulation loads
the cell codec, and every name a module imports is read there.  How
records are written: values are records, tuples with named fields, run
state is slotted classes, no class is a dataclass, and start-up runs no
generated code."""

import ast
import dataclasses
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import (
    GOLDEN_CONTRACT,
    c11_scenario,
    modules_loaded_by,
    modules_loaded_by_importing_atmsim,
    write_seeded_trace,
)

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

PROTOCOL_CORE = ["aal5", "abr", "cell", "errors", "lane", "rng", "switch", "traffic", "wire"]
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


def test_importing_the_package_root_loads_no_submodule():
    assert modules_loaded_by("import atmsim", "atmsim") == ["atmsim"]


@pytest.mark.parametrize("module", PROTOCOL_CORE)
def test_protocol_core_loads_no_upper_layer(module):
    """The run-time counterpart of the source check above: importing a
    protocol-core module alone loads none of the upper layers."""
    loaded = modules_loaded_by(f"import atmsim.{module}", "atmsim")
    assert f"atmsim.{module}" in loaded
    assert not {name.split(".")[-1] for name in loaded} & UPPER_LAYERS


# what only a simulation needs
SIMULATOR = ["aal5", "abr", "engine", "lane", "rng", "scenario", "switch"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["hec", "00000000"], 0),
        (["hec", "0000000055"], 0),
        (["conformance", "{trace}", *GOLDEN_CONTRACT], 1),
    ],
    ids=["hec-compute", "hec-check", "conformance"],
)
def test_cell_commands_leave_the_simulator_unloaded(argv, code, tmp_path):
    trace = tmp_path / "trace.txt"
    if "{trace}" in argv:
        write_seeded_trace(trace)
    argv = [arg.format(trace=trace) for arg in argv]
    run_cli = (
        "import contextlib, io, atmsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert atmsim.cli.main({argv!r}) == {code}"
    )
    loaded = {name.split(".")[-1] for name in modules_loaded_by(run_cli, "atmsim")}
    assert "cli" in loaded
    assert sorted(loaded & set(SIMULATOR)) == []


DATA = Path(__file__).parent / "data"
# the layers only some scenarios use: LAN emulation, AAL5 and the random streams
OPTIONAL_LAYERS = ["aal5", "lane", "rng"]


def scenario_text(name):
    """A scenario as JSON text, for a child to parse: a child that imports
    conftest, where ``c11_scenario`` lives, loads ``atmsim.lane`` itself."""
    if name == "c11":
        return json.dumps(c11_scenario())
    return (DATA / f"{name}_scenario.json").read_text(encoding="utf-8")


def atmsim_modules_loaded(code):
    """The atmsim modules, by name in the package, a child running ``code`` loads."""
    return {name.split(".")[-1] for name in modules_loaded_by(code, "atmsim")}


def layers_loaded(code):
    """Which of OPTIONAL_LAYERS a child running ``code`` loads."""
    return sorted(atmsim_modules_loaded(code) & set(OPTIONAL_LAYERS))


@pytest.mark.parametrize(
    "name, layers",
    [("c11", []), ("congested", ["rng"]), ("reference", OPTIONAL_LAYERS)],
    ids=["c11-abr-only", "congested-on-off", "reference-lane"],
)
def test_a_run_loads_only_the_layers_its_scenario_uses(name, layers):
    """A run loads the optional layers its scenario uses, and never the
    cell codec: no simulation encodes or decodes a cell."""
    run = f"import atmsim, json\natmsim.run(json.loads({scenario_text(name)!r}))"
    loaded = atmsim_modules_loaded(run)
    assert sorted(loaded & set(OPTIONAL_LAYERS)) == layers
    assert "cell" not in loaded


@pytest.mark.parametrize("module", ["engine", "switch", "traffic"])
def test_simulator_modules_leave_the_codec_unloaded(module):
    """The engine reads the cell's geometry from ``atmsim.wire``, and
    ``route_cell`` and ``Policer.offer`` build their cells through the
    cell's own ``_replace``, so none of them loads ``atmsim.cell``."""
    loaded = atmsim_modules_loaded(f"import atmsim.{module}")
    assert module in loaded
    assert "cell" not in loaded


def test_validating_a_scenario_without_lane_loads_no_lane_layer():
    argv = ["validate", str(DATA / "congested_scenario.json")]
    validate = (
        "import contextlib, io, atmsim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert atmsim.cli.main({argv!r}) == 0"
    )
    assert not set(layers_loaded(validate)) & {"aal5", "lane"}


def test_a_lane_run_imports_nothing_after_its_build():
    """LAN emulation and AAL5 load during ``build``; ``run`` then reaches
    them through names bound there, so every module is loaded by then."""
    build_then_run = (
        "import atmsim, json\n"
        f"engine = atmsim.build(json.loads({scenario_text('reference')!r}))\n"
        "built = sorted(sys.modules)\n"
        "engine.run()\n"
        "assert sorted(sys.modules) == built, sorted(set(sys.modules) - set(built))"
    )
    assert layers_loaded(build_then_run) == OPTIONAL_LAYERS


RESOLVE_RUN_API = """
import atmsim
assert "build" not in vars(atmsim)
from atmsim import build
assert build is vars(atmsim)["build"]
import atmsim.engine
assert atmsim.run is atmsim.engine.run
assert atmsim.Scenario is atmsim.scenario.Scenario
try:
    atmsim.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("atmsim.no_such_name resolved")
from atmsim import cell
assert cell is sys.modules["atmsim.cell"]
"""


def test_package_root_resolves_the_run_api_on_first_use():
    assert "atmsim.engine" in modules_loaded_by(RESOLVE_RUN_API, "atmsim")


SRC = Path(atmsim.__file__).parent
REFERENCE = DATA / "reference_scenario.json"

SCHEMA_RECORDS = {
    "scenario": [
        "Scenario",
        "NodeSpec",
        "LinkSpec",
        "GeneratorSpec",
        "AbrOverrides",
        "ConnectionSpec",
        "LecSpec",
        "LaneTrafficSpec",
        "LaneSpec",
    ],
    "traffic": ["TrafficDescriptor", "QosRequirement"],
}
CODEC_AND_REPORT_VALUES = {
    "cell": ["CellHeader", "Cell", "DecodeOutcome"],
    "traffic": ["DelayStats"],
    "engine": ["RunReport"],
}
RUN_STATE = {
    "abr": ["AbrSourceState", "EfciObserver"],
    "lane": ["LecCounters", "DestinationStats", "ArpCacheEntry"],
    "traffic": ["Gcra", "Policer", "DelayMoments"],
}


PUBLIC_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def test_each_public_constant_has_one_home():
    """No public UPPER_CASE constant is assigned at module level in two
    modules; every other module imports it from its one home."""
    homes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and PUBLIC_CONSTANT.fullmatch(target.id):
                    homes.setdefault(target.id, set()).add(path.stem)
    assert {name: sorted(found) for name, found in homes.items() if len(found) > 1} == {}


def classes_defined_in_atmsim():
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"atmsim.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_no_class_in_atmsim_is_a_dataclass():
    found = {cls.__name__ for cls in classes_defined_in_atmsim() if dataclasses.is_dataclass(cls)}
    assert found == set()


def test_importing_atmsim_loads_no_dataclass_or_hashing_module():
    refused = ("dataclasses", "inspect", "hashlib", "_hashlib")
    assert modules_loaded_by_importing_atmsim(*refused, run=False) == []
    # the reference run keys its random streams with SHA-256, which comes
    # from the builtin _sha256 where the interpreter has one (CPython 3.10,
    # 3.11) and from OpenSSL's, through hashlib, elsewhere
    hashing = [] if importlib.util.find_spec("_sha256") else ["_hashlib", "hashlib"]
    assert modules_loaded_by_importing_atmsim(*refused) == hashing


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in SCHEMA_RECORDS.items() for name in names]
)
def test_schema_records_are_named_tuples(module, name):
    cls = getattr(importlib.import_module(f"atmsim.{module}"), name)
    assert issubclass(cls, tuple) and hasattr(cls, "_fields")
    assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in CODEC_AND_REPORT_VALUES.items() for name in names],
)
def test_codec_and_report_values_are_named_tuples(module, name):
    cls = getattr(importlib.import_module(f"atmsim.{module}"), name)
    assert issubclass(cls, tuple) and hasattr(cls, "_fields")
    assert "__dict__" not in vars(cls)


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in RUN_STATE.items() for name in names]
)
def test_run_state_is_slotted(module, name):
    cls = getattr(importlib.import_module(f"atmsim.{module}"), name)
    assert cls.__slots__ and "__dict__" not in vars(cls)
    assert not dataclasses.is_dataclass(cls)


def test_loaded_scenario_is_an_immutable_value():
    first, second = atmsim.load_scenario(str(REFERENCE)), atmsim.load_scenario(str(REFERENCE))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    with pytest.raises(AttributeError):
        first.duration_s = 2.0
    with pytest.raises(AttributeError):
        first.connections[0].descriptor.pcr = 1.0


# argv: the directory holding atmsim, the reference scenario, and a JSON
# list of the other modules atmsim imports
NO_GENERATED_CODE = """
import importlib, json, os, sys
src, scenario, imports = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
for name in imports:
    try:
        importlib.import_module(name)
    except ImportError:  # _sha256 is not on every interpreter
        pass
generated = []
sys.addaudithook(
    lambda event, args: generated.append(str(args[1]))
    if event == "compile" and not os.path.isfile(str(args[1]))
    else None
)
sys.path.insert(0, src)
import atmsim, atmsim.cli
atmsim.run(atmsim.load_scenario(scenario))
print(json.dumps(generated))
"""


def imports_outside_atmsim():
    """Every module the atmsim sources import that is not atmsim's own."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    return sorted(name for name in names if name.split(".")[0] not in ("atmsim", "__future__"))


def test_start_up_runs_no_generated_code():
    """Importing atmsim and atmsim.cli, then loading and running the
    reference scenario, compiles nothing but module sources: no class is
    built by ``eval`` (as ``collections.namedtuple`` builds one) and no
    annotation is evaluated (as ``typing.get_type_hints`` does).  The
    standard-library modules atmsim imports are loaded first, so that what
    they generate for themselves, such as ``functools``' own namedtuple
    where the interpreter does not load it at start-up, is not counted."""
    argv = [str(SRC.parent), str(REFERENCE), json.dumps(imports_outside_atmsim())]
    out = subprocess.run(
        [sys.executable, "-I", "-c", NO_GENERATED_CODE, *argv],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == []


def imported_names(tree):
    """(name, line) for every name an import statement in ``tree`` binds,
    at module level, under ``if TYPE_CHECKING:`` or inside a function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def names_read(tree):
    """Every name ``tree`` reads, those in annotations written as strings
    included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read |= names_read(ast.parse(part.value, mode="eval"))
    return read


def test_dead_import_reader_sees_every_form():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json\n"
        "from typing import TYPE_CHECKING, List, Tuple\n"
        "if TYPE_CHECKING:\n"
        "    from .cell import Cell\n"
        "    from .rng import Stream\n"
        "def f(x: 'List[Cell]') -> int:\n"
        "    from .lane import Les as L\n"
        "    return os.sep\n"
        "y: Tuple[int] = ()\n"
    )
    tree = ast.parse(source)
    unread = [name for name, _ in imported_names(tree) if name not in names_read(tree)]
    assert unread == ["json", "Stream", "L"]


def test_every_imported_name_is_read():
    """A name a module imports and never reads, in code or in an
    annotation, is a leftover: the import only costs start-up time."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = names_read(tree)
        unread += [
            f"{path.name}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in read
        ]
    assert unread == []
