"""The frozen base class of the package's value types.

A value type lists its compared fields in ``_fields``; its constructor
stores them with :data:`setfield`, past the frozen ``__setattr__``.
Equality holds only between instances of the same class and compares
those fields, the hash is the hash of their tuple, and the repr is
``Name(field=value, ...)``.  Types on the request path write their own
``__eq__`` and ``__hash__`` with the same meaning, without the generic
loop over ``_fields``.
"""

from __future__ import annotations

setfield = object.__setattr__


class Value:
    """Immutable value: setting or deleting any attribute raises AttributeError."""

    _fields: tuple[str, ...] = ()

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
