"""The immutable base of the package's record types, and the one check of each input kind."""

import math
from operator import itemgetter

# The bounds of real(): the largest finite double and the smallest
# positive one, so "> 0" is the closed bound TINY.  Below the smallest
# normal double, DBL_MIN, a sum has lost relative precision.
DBL_MAX = math.nextafter(math.inf, 0.0)
DBL_MIN = 2.0**-1022
TINY = math.ulp(0.0)

# The rule and lower bound of every angular frequency: real(omega, *OMEGA).
OMEGA = ("omega must be finite and > 0", TINY)


def real(x, rule: str, low: float = -DBL_MAX, high: float = DBL_MAX) -> float:
    """float(x) when it lies in [low, high]; otherwise ValueError(f"{rule}, got ...").

    The one check of every real input.  Finite bounds reject NaN and
    the infinities; a bool, and an int beyond the double range, fail.
    The message shows the double's repr, or x's type name when x has
    no double, so an int is never written out in decimal.
    """
    if type(x) is not bool:
        try:
            v = float(x)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if low <= v <= high:
                return v
            raise ValueError(f"{rule}, got {v!r}")
    raise ValueError(f"{rule}, got {type(x).__name__}")


def count(x, rule: str, low: int, high: float) -> int:
    """x when it is an int in [low, high]; otherwise ValueError(f"{rule}, got ...").

    The one check of every integer count; a bool is not a count.  The
    message shows x when it is an int that fits in 64 bits, and x's
    type name otherwise, so a huge int is never written out in decimal.
    """
    if type(x) is int and low <= x <= high:
        return x
    shown = x if isinstance(x, int) and x.bit_length() < 64 else type(x).__name__
    raise ValueError(f"{rule}, got {shown}")


class Value(tuple):
    """Immutable record that is the tuple of its fields, in the order its class annotates them.

    Each subclass annotates its fields and declares ``__slots__ = ()``;
    each field is a read-only property of its index.  A record iterates,
    indexes, takes ``len`` and orders as its tuple, and its hash is the
    tuple's, but ``==`` holds only between records of the same class.
    Assignment and deletion raise AttributeError.  Each subclass's
    ``__new__`` checks its arguments and ends in
    ``tuple.__new__(cls, fields)``; copy and pickle rebuild through it.
    Builds from values already checked, as the parser's, call
    ``tuple.__new__`` themselves.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's
    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(self)
