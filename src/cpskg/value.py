"""The base of cpskg's immutable value types: RDF terms and triples, query
terms, expression-tree nodes and settings.

A subclass names its fields in ``__slots__``; a slot whose name starts with
``_`` holds state derived from them, such as an :class:`~cpskg.rdf.Iri`'s
N-Triples text, and takes no part below. Values of one class with equal
fields are equal and hash equal. A subclass's ``__init__`` checks its
arguments and sets its slots with ``object.__setattr__``; after that,
assignment and deletion raise :class:`AttributeError`. A value pickles and
copies by calling its class with its fields, so it is checked again.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, ClassVar

__all__ = ["Value"]


class Value:
    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]]
    # the fields' values: a tuple, or the value itself for a one-field class
    _values: ClassVar[Callable[[Any], Any]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = operator.attrgetter(*cls._fields)

    def _astuple(self) -> tuple:
        values = self._values(self)
        return values if len(self._fields) > 1 else (values,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
