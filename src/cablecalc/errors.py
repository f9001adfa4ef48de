"""Exception hierarchy shared across the package, and the two parameter
checks every layer uses: check_int for one integer argument and
check_coprime for a (p, q) pair.

The CLI maps these onto exit codes: UsageError -> 1, ValidationError (and
its subclasses) -> 2, InternalCheckError and any exception outside this
hierarchy (a bug) -> 3, except MemoryError (input too large) -> 2.
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
