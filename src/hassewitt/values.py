"""The frozen base class of the package's value types.

A value type lists its compared fields in ``_fields``.  Its constructor
takes one value per field, by position, and stores them with
:data:`setfield`, past the frozen ``__setattr__``.  A type that validates
or normalises its input writes its own constructor, which stores its
fields the same way.  Equality holds only between instances of the same
class and compares those fields, the hash is the hash of their tuple, and
the repr is ``Name(field=value, ...)``.

A type keeps a hand-written copy of a generic method only where a
workload reaches it often enough to matter.  Only ``Place`` writes its own
``__eq__``, ``__hash__`` and ``__lt__`` (the other orderings are derived):
a ``forms`` request hashes ~11 places, compares ~3 for equality and ~3 by
``<``, and the generic ``__hash__`` and ``__eq__`` cost 5 to 10 times the
copies.  No workload hashes a ``SquareClass`` or a ``CohClass2`` and
``forms`` compares fewer than one of them per request, so they take the
generic methods.  ``FormInvariants`` writes its own ``__hash__`` for a
different reason: it leaves out the unhashable ``hasse_local`` dict.
"""

from __future__ import annotations

setfield = object.__setattr__


class Value:
    """Immutable value: setting or deleting any attribute raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes {len(fields)} fields but {len(args)} were given")
        for name, value in zip(fields, args):
            setfield(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
