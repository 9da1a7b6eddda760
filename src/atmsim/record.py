"""Immutable value records: named tuples written as ordinary classes.

A record subclasses Record, sets ``__slots__ = ()`` and defines a
``__new__`` whose parameters after ``cls`` declare the fields and their
defaults, and which checks them and returns ``new_tuple(cls, fields)``.
Record gives each field namedtuple's C accessor and adds the rest of
namedtuple's interface, whose ``_make`` and ``_replace`` build through
``cls(...)`` and so check what the constructor checks.
"""

from __future__ import annotations

from collections import _tuplegetter  # type: ignore[attr-defined]
from typing import Any, Dict, Iterable, Tuple

new_tuple = tuple.__new__  # a global: read faster than the attribute, once per value built


class Record(tuple):
    __slots__ = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        code, defaults = cls.__new__.__code__, cls.__new__.__defaults__ or ()
        fields = code.co_varnames[1 : code.co_argcount]
        cls._fields = cls.__match_args__ = fields
        cls._field_defaults = dict(zip(fields[len(fields) - len(defaults) :], defaults))
        for index, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(index, f"Alias for field number {index}"))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "Record":
        return cls(*iterable)

    def _replace(self, /, **changes: Any) -> "Record":
        result = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

    def _asdict(self) -> Dict[str, Any]:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> Tuple[Any, ...]:
        return tuple(self)
