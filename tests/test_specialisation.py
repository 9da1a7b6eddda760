"""The cell path's hottest bytecode specialises (PEP 659) during a run.

CPython 3.11 and later rewrite an instruction into a specialised form
(``LOAD_ATTR_INSTANCE_VALUE``, ``STORE_ATTR_INSTANCE_VALUE``, ...) once its
code object is warm and the instruction has seen the same kind of operand
a few times.  Three things in the engine decide whether that happens:

- ``Engine.run`` is entered once, and 3.11 warms a code object only on
  entry and at an unconditional backward jump, so its dispatch loop must
  close with one;
- an instance attribute that shares its name with a method of the class
  never specialises, so the bound handlers the hop path pushes live under
  names no method has;
- the sequence counter is drawn with ``next()`` on a plain iterator, as a
  method-wrapper stored on the instance does not specialise on 3.11.

The reference scenario runs once in a fresh interpreter, because code
objects in this test session are already warm, and the subprocess reports
each site's opname as ``dis`` sees it with ``adaptive=True``.  A site is
specialised when its opname is neither the base instruction nor its
``*_ADAPTIVE`` form.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIO = ROOT / "tests" / "data" / "reference_scenario.json"

# argv: src, scenario, then a JSON list of [function, base opname, argval]
PROBE = """
import dis, json, sys
sys.path.insert(0, sys.argv[1])
import atmsim
from atmsim.engine import Engine
atmsim.run(sys.argv[2])
found = []
for name, base, argval in json.loads(sys.argv[3]):
    fn = getattr(Engine, name)
    plain = dis.get_instructions(fn)
    warm = dis.get_instructions(fn, adaptive=True)
    found.append([
        w.opname for p, w in zip(plain, warm)
        if p.opname == base and p.argval == argval
    ])
print(json.dumps(found))
"""

SITES = [
    ("run", "STORE_ATTR", "now"),  # the dispatch loop's clock update
    ("_complete", "LOAD_ATTR", "_on_arrive"),
    ("_complete", "LOAD_ATTR", "_on_complete"),
    ("_fire", "LOAD_ATTR", "_on_fire"),
    ("_complete", "LOAD_GLOBAL", "next"),  # the sequence draw
    ("_complete", "LOAD_ATTR", "_seq"),
]


@pytest.fixture(scope="module")
def warm_opnames():
    done = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC), str(SCENARIO), json.dumps(SITES)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return dict(zip(SITES, json.loads(done.stdout)))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="no specializing interpreter before 3.11")
@pytest.mark.parametrize("site", SITES, ids=["%s:%s:%s" % site for site in SITES])
def test_hot_site_is_specialised(warm_opnames, site):
    _fn, base, _argval = site
    opnames = warm_opnames[site]
    assert opnames, "site not found"
    for opname in opnames:
        assert opname != base and not opname.endswith("_ADAPTIVE"), opnames
