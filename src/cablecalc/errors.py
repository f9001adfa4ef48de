"""Exception hierarchy shared across the package, the two parameter checks
every layer uses (check_int for one integer argument, check_coprime for a
(p, q) pair), and _Record, the base of the package's immutable records.

The CLI maps these onto exit codes: UsageError -> 1, ValidationError (and
its subclasses) -> 2, InternalCheckError and any exception outside this
hierarchy (a bug) -> 3, except MemoryError (input too large) and the
ValueError of an answer's integer past the digit limit of str -> 2.
"""

from __future__ import annotations

from math import gcd

__all__ = ["CablecalcError", "UsageError", "ValidationError", "InsufficientDataError", "InternalCheckError"]


class CablecalcError(Exception):
    """Base class for package errors."""


class UsageError(CablecalcError):
    """Malformed command line or malformed request."""


class ValidationError(CablecalcError):
    """Input data fails a documented precondition or invariant."""


class InsufficientDataError(ValidationError):
    """A computation needs invariants the input does not carry."""


class InternalCheckError(CablecalcError):
    """An internal consistency assertion failed; indicates a bug."""


class _Record:
    """An immutable record whose fields are its __slots__.  A subclass's
    __init__ checks its arguments and passes them here in slot order, or,
    for a record the engine builds on every call, sets each itself with
    object.__setattr__.  Repr, equality (only within one class) and hash go
    by the fields; assignment and deletion raise AttributeError; pickle and
    copy rebuild a record through __init__, so it is checked again."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def check_int(value, what: str, low: int | None = None) -> int:
    """Return value if it is an int (not a bool) and at least low when low
    is given; otherwise raise ValidationError naming it as `what`."""
    if not isinstance(value, int) or isinstance(value, bool) or low is not None and value < low:
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def check_coprime(p, q, what: str = "p and q") -> None:
    """Raise ValidationError unless p and q are coprime positive integers.

    `what` names the pair in the message ("surgery parameters", ...).
    """
    for v in (p, q):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"{what} must be integers, got ({p!r}, {q!r})")
    if p < 1 or q < 1:
        raise ValidationError(f"{what} must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValidationError(f"{what} must be coprime, got ({p}, {q})")
