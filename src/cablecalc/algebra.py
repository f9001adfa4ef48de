"""Exact scalar arithmetic: rationals and GF(2) linear algebra.

Rationals are stdlib ``fractions.Fraction`` (already exact, lowest terms,
positive denominator); this module only adds the string forms used by the
JSON interfaces.  GF(2) vectors are ints used as bitmasks (bit j = coordinate
j), so all elimination is word-parallel.  There is one eliminator: Echelon
keeps a basis of a span and answers span membership.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

__all__ = [
    "Fraction",
    "parse_rational",
    "format_rational",
    "Echelon",
]


def parse_rational(s: str) -> Fraction:
    """Parse an exact rational from a "p/q" or integer string."""
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


def format_rational(r: Fraction | int) -> str:
    """Format a rational the way the JSON interfaces expect ("-1/2", "3").

    A ``Fraction`` is already in lowest terms with a positive denominator,
    and an ``int`` prints as a ``Fraction`` with denominator 1 does, so
    ``str`` is the whole conversion.
    """
    return str(r)


class Echelon:
    """Incremental row-echelon basis keyed by highest set bit."""

    __slots__ = ("pivots",)

    def __init__(self, vectors: Iterable[int] = ()):
        self.pivots: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        while v:
            p = v.bit_length() - 1
            row = self.pivots.get(p)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> bool:
        """Insert v; True if it enlarged the span."""
        v = self.reduce(v)
        if v == 0:
            return False
        self.pivots[v.bit_length() - 1] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

