"""Every atmsim record behaves as a ``collections.namedtuple`` with the same
fields and defaults: the twin is built from the parameters of the record's
own ``__new__``, read with ``inspect``, and the two are compared on one
valid value of each record."""

import collections
import copy
import importlib
import inspect
import pickle
from pathlib import Path

import pytest

import atmsim
from atmsim.cell import Cell, CellHeader, DecodeOutcome, DecodeStatus, InterfaceKind
from atmsim.engine import RunReport
from atmsim.lane import BROADCAST_MAC
from atmsim.record import Record
from atmsim.scenario import (
    AbrOverrides,
    ConnectionSpec,
    GeneratorSpec,
    LaneSpec,
    LaneTrafficSpec,
    LecSpec,
    LinkSpec,
    NodeSpec,
    Scenario,
)
from atmsim.switch import VcRoute
from atmsim.traffic import (
    CategoryRule,
    DelayStats,
    QosRequirement,
    ServiceCategory,
    TrafficDescriptor,
)

HEADER = CellHeader(InterfaceKind.UNI, 1, 40, 2, False, True, False, 1)

# One value of each record, every field given, positionally.
VALUES = {
    Scenario: (1.0, 3, (NodeSpec("a", "host"),), (), (), (), None),
    NodeSpec: ("s", "switch", 64, 50, 40),
    LinkSpec: ("a", "b", 1e6, 0.001, 0.9),
    GeneratorSpec: ("g", "on_off_vbr", None, 100.0, 0.05, 0.01, None),
    AbrOverrides: (10.0, 0.5, 16, 20.0),
    ConnectionSpec: (
        "c",
        ServiceCategory.ABR,
        ("a", "s", "b"),
        "g",
        TrafficDescriptor(100.0, mcr=1.0),
        QosRequirement(clr_clp0=0.01),
        1,
        AbrOverrides(rdf=0.25),
    ),
    LecSpec: ("h", b"\x02\x00\x00\x00\x00\x01"),
    LaneTrafficSpec: ("h", BROADCAST_MAC, 10.0, (64, 1500), 0.5, 7),
    LaneSpec: ("les", "bus", (LecSpec("h", b"\x02\x00\x00\x00\x00\x01"),), ()),
    TrafficDescriptor: (100.0, 0.001, 50.0, 4, 0.0),
    QosRequirement: (0.01, 0.1, 0.5, 0.2),
    CategoryRule: (("cdvt",), ("scr", "mbs"), "pcr", ("max_ctd",)),
    DelayStats: (3, 0.1, 0.2, 0.05, 0.01),
    CellHeader: tuple(HEADER),
    Cell: (HEADER, bytes(range(48))),
    DecodeOutcome: (DecodeStatus.CORRECTED, HEADER, 7),
    VcRoute: (1, 2, 3),
    RunReport: (1.0, 0, 10, {"c": {"lost": 0}}, {}, {}, {"c": [(0.0, 1.0, False)]}, None),
}


def records_in_atmsim():
    for path in sorted(Path(atmsim.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"atmsim.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Record) and value is not Record:
                yield value


def twin_of(cls):
    """A namedtuple declared by the parameters of ``cls.__new__``."""
    parameters = list(inspect.signature(cls.__new__).parameters.values())[1:]
    defaults = [p.default for p in parameters if p.default is not inspect.Parameter.empty]
    return collections.namedtuple(cls.__name__, [p.name for p in parameters], defaults=defaults)


def raised(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


def test_every_record_has_a_value():
    assert set(records_in_atmsim()) == set(VALUES)


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
class TestNamedtupleParity:
    def test_declaration(self, cls):
        twin = twin_of(cls)
        assert cls._fields == twin._fields
        assert cls._field_defaults == twin._field_defaults
        assert cls.__match_args__ == twin.__match_args__
        assert "__dict__" not in vars(cls) and cls.__slots__ == ()

    def test_value(self, cls):
        values = VALUES[cls]
        ours, theirs = cls(*values), twin_of(cls)(*values)
        assert type(ours) is cls
        assert repr(ours) == repr(theirs)
        assert ours == theirs and tuple(ours) == values
        assert ours._asdict() == theirs._asdict()
        for name, value in zip(cls._fields, values):
            assert getattr(ours, name) is value
        try:
            expected_hash = hash(theirs)
        except TypeError:  # a field holds a dict
            assert raised(lambda: hash(ours)) == raised(lambda: hash(theirs))
        else:
            assert hash(ours) == expected_hash

    def test_construction(self, cls):
        values = VALUES[cls]
        twin = twin_of(cls)
        ours = cls(*values)
        assert cls(**dict(zip(cls._fields, values))) == ours
        assert type(cls._make(values)) is cls and cls._make(values) == ours
        required = len(cls._fields) - len(cls._field_defaults)
        assert cls(*values[:required]) == twin(*values[:required])
        if required:
            assert raised(lambda: cls(*values[: required - 1])) == raised(
                lambda: twin(*values[: required - 1])
            )
        assert raised(lambda: cls(*values, None)) == raised(lambda: twin(*values, None))

    def test_replace(self, cls):
        values = VALUES[cls]
        ours, theirs = cls(*values), twin_of(cls)(*values)
        last = cls._fields[-1]  # back to its default, where it has one
        changes = {last: cls._field_defaults.get(last, values[-1])}
        changed = ours._replace(**changes)
        assert type(changed) is cls and changed == theirs._replace(**changes)
        assert raised(lambda: ours._replace(colour=1)) == raised(lambda: theirs._replace(colour=1))

    def test_pickle_and_deepcopy(self, cls):
        ours = cls(*VALUES[cls])
        for copied in (pickle.loads(pickle.dumps(ours)), copy.deepcopy(ours)):
            assert type(copied) is cls and copied == ours
