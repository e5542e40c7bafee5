"""Base of the package's immutable value types.

A value type lists its fields, in order, as both ``__slots__`` and
``__match_args__``, validates its arguments in ``__init__`` and stores them
with ``object.__setattr__``.  This base gives it what a frozen dataclass
would generate, without importing ``dataclasses`` or generating code at
import time: equality and hashing on the field tuple, a
``Name(field=value, ...)`` repr, no assignment or deletion, and pickling
and copying through the constructor.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenValue:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__match_args__)
        if len(cls.__match_args__) == 1:   # attrgetter of one name: the bare value
            cls._values = lambda self: (get(self),)
        else:
            cls._values = lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
