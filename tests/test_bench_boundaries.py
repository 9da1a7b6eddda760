"""Every boundary the benchmark tracer wraps still names a function or
method of atmsim, so a traced benchmark run can install all of them."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import tracer
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize(
    "module_name, qualname", [(module, name) for _layer, module, name in tracer.BOUNDARIES]
)
def test_boundary_resolves(module_name, qualname):
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        assert callable(vars(getattr(module, cls_name)).get(attr))
    else:
        assert callable(getattr(module, qualname, None))
