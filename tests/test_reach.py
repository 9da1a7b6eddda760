"""Every definition in atmsim is reached by a command, or says why not.

A fresh interpreter imports ``atmsim.cli`` and runs ``cli.main`` under
``sys.setprofile``: ``run`` and ``validate`` on the reference and
congested scenarios, ``conformance`` (``drop`` and ``tag``) on a 50-cell
trace with one 1-bit and one 2-bit header error, and ``hec`` in its four
forms.  Each ``def`` in ``src/atmsim`` that was never entered must be
listed in NOT_REACHED with a one-word reason, and every name listed
there must still exist and still be unreached.  So code that no command
runs cannot be added, or left behind by a change, without saying why.

Reasons:
- ``bench``: named by the benchmark harness under ``bench/``;
- ``error-path``: runs only on input the commands refuse, or on a broken
  invariant;
- ``fallback``: a branch for inputs the goldens do not produce;
- ``record-api``: namedtuple's interface on ``record.Record`` (repr,
  pickling), which no command uses and the record parity tests check;
- ``unused-by-goldens``: a public helper no golden input calls.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

import atmsim
from atmsim.cell import Cell, CellHeader, InterfaceKind, encode_cell

SRC = Path(atmsim.__file__).parent
DATA_DIR = Path(__file__).parent / "data"

REASONS = {"bench", "error-path", "fallback", "record-api", "unused-by-goldens"}

NOT_REACHED: Dict[str, str] = {
    "cell.Cell.__init__": "bench",
    "cell.Cell.__new__": "bench",
    "cell.decode_cell": "bench",
    "cell.encode_cell": "bench",
    "cell.format_trace_line": "bench",
    "cell.set_efci": "bench",
    "cli._die": "error-path",
    "engine.EventQueue.pop": "bench",
    "engine.ScenarioInvalid.__init__": "error-path",
    "engine._into_past": "error-path",
    "engine.run": "bench",
    "record.Record.__getnewargs__": "record-api",
    "record.Record.__repr__": "record-api",
    "record.Record._make": "bench",
    "record.Record._replace": "bench",
    "switch.LinkBooking.booked": "unused-by-goldens",
    "switch.LinkBooking.release": "unused-by-goldens",
    "switch.OutputQueue.dequeue": "bench",
    "switch.route_cell": "bench",
    "traffic.Gcra.conforms": "bench",
    "traffic.Gcra.drained": "bench",
    "traffic.Gcra.earliest_conforming": "bench",
    "traffic.Policer.__init__": "bench",
    "traffic.Policer.offer": "bench",
    "traffic.Shaper.__init__": "bench",
    "traffic.Shaper.offer": "bench",
    "traffic._scaled_ints": "fallback",
    "traffic.shape": "bench",
}


def definitions() -> Dict[Tuple[str, int], str]:
    """Every ``def`` in the package: (file name, first line) -> dotted name.

    The first line is that of the code object, which for a decorated
    function is the line of its first decorator.
    """
    found: Dict[Tuple[str, int], str] = {}

    def visit(node: ast.AST, prefix: str, filename: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = f"{prefix}.{child.name}"
                found[(filename, first)] = name
                visit(child, name, filename)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", filename)
            else:
                visit(child, prefix, filename)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path.name)
    return found


CHILD = """
import contextlib, io, json, os, sys
src, commands = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
entered = set()
sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
import atmsim.cli
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in commands:
        codes.append(atmsim.cli.main(argv))
sys.setprofile(None)
package = os.path.dirname(atmsim.cli.__file__) + os.sep
lines = sorted(
    [code.co_filename[len(package):], code.co_firstlineno]
    for code in entered
    if code.co_filename.startswith(package)
)
print(json.dumps({"codes": codes, "entered": lines}))
"""


def write_trace(path: Path) -> None:
    """50 cells at 1024 cells/s, every fifth one early, with a 1-bit
    header error on line 10 and a 2-bit one on line 20."""
    lines = []
    for i in range(50):
        t = i / 1024 - (1 / 2048 if i % 5 == 4 else 0)
        header = CellHeader(kind=InterfaceKind.UNI, vpi=1, vci=40 + i % 2)
        raw = bytearray(encode_cell(Cell(header)))
        for bit in {9: (3,), 19: (5, 17)}.get(i, ()):
            raw[bit // 8] ^= 0x80 >> (bit % 8)
        lines.append(f"{t!r} 0 {raw.hex()}")
    path.write_text("\n".join(lines) + "\n")


def reached(tmp_path: Path) -> Tuple[List[int], Set[Tuple[str, int]]]:
    """Exit codes of the commands, and the (file name, first line) of
    each atmsim function they entered, importing the package included."""
    trace = tmp_path / "trace.txt"
    write_trace(trace)
    contract = ["--pcr", "1024", "--scr", "512", "--mbs", "4"]
    commands = []
    for name in ("reference", "congested"):
        scenario = str(DATA_DIR / f"{name}_scenario.json")
        commands.append(["run", scenario, "--out", str(tmp_path / name)])
        commands.append(["validate", scenario])
    for action in ("drop", "tag"):
        commands.append(["conformance", str(trace), *contract, "--action", action])
    # compute, check a valid header, correct one bit, refuse two bits
    commands += [["hec", "00100010"], ["hec", "0010001087"], ["hec", "0010001086"]]
    commands.append(["hec", "0010001084"])
    out = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(SRC.parent), json.dumps(commands)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    result = json.loads(out)
    return result["codes"], {tuple(entry) for entry in result["entered"]}


def test_every_unreached_definition_is_listed(tmp_path):
    codes, entered = reached(tmp_path)
    # both traces hold non-conforming cells, and two flipped bits are refused
    assert codes == [0, 0, 0, 0, 1, 1, 0, 0, 0, 1]
    never = {name for key, name in definitions().items() if key not in entered}
    assert set(NOT_REACHED.values()) <= REASONS
    listed = set(NOT_REACHED)
    assert sorted(never - listed) == [], "never entered by any command; list it with a reason"
    assert sorted(listed - never) == [], "entered by a command, or gone: drop it from the list"
