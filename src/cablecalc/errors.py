"""Exception hierarchy shared across the package, and the one parameter
check every layer uses.

The CLI maps these onto exit codes: UsageError -> 1, ValidationError (and
its subclasses) -> 2, InternalCheckError and any exception outside this
hierarchy (a bug) -> 3, except MemoryError (input too large) -> 2.
"""

from __future__ import annotations

from math import gcd

__all__ = ["CablecalcError", "UsageError", "ValidationError", "InsufficientDataError",
           "InternalCheckError", "check_coprime"]


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
