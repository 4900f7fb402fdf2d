"""The immutable value base shared by the package's record types."""

import math


def as_double(x) -> float:
    """float(x), or nan for an int beyond the double range, which no finiteness check accepts."""
    try:
        return float(x)
    except OverflowError:
        return math.nan


class Value:
    """Immutable record over ``__slots__``; its fields are named in ``_fields``.

    ``==`` holds only between instances of the same class with equal
    fields, and hash and repr are taken over the fields in order.
    Assignment and deletion raise AttributeError, so each subclass's
    ``__init__`` validates its arguments and then stores each field once
    with ``object.__setattr__``.  Copy and pickle rebuild through
    ``__init__``.
    """

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
