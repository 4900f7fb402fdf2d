"""The immutable base of the package's record types, and the one check of each input kind."""

import math

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


class Value:
    """Immutable record whose fields are its ``__slots__``, in order.

    ``==`` holds only between instances of the same class with equal
    fields, and hash and repr are taken over the fields in order.
    Assignment and deletion raise AttributeError, so each subclass's
    ``__init__`` validates its arguments and ends with one call of
    ``Value.__init__``, which stores them in ``__slots__`` order.  Copy
    and pickle rebuild through the subclass's ``__init__``.  The parser's
    unchecked builds in ``tf`` are the one exception: they store their
    fields inline, because a parse builds a record per term and the
    generic store takes about twice as long per record.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
