"""Exact scalar arithmetic: rationals and GF(2) linear algebra.

Rationals are stdlib ``fractions.Fraction`` (already exact, lowest terms,
positive denominator); this module only adds the string forms used by the
JSON interfaces.  GF(2) vectors are ints used as bitmasks (bit j = coordinate
j), so all elimination is word-parallel.  There are two eliminators: Echelon
keeps a basis of a span and answers span membership, and kernel gives the
dependencies among a list of columns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

__all__ = [
    "Fraction",
    "parse_rational",
    "format_rational",
    "Echelon",
    "kernel",
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


def kernel(cols: Iterable[int]) -> list[int]:
    """Basis of the dependencies among the columns: bitmasks x over column
    positions whose columns sum to 0.  Columns are reduced as they come, by
    the reduced columns before them (keyed by highest bit), carrying the
    combination each one stands for; a column that reduces to 0 yields its
    combination."""
    pivots: dict[int, tuple[int, int]] = {}
    basis = []
    for j, c in enumerate(cols):
        combo = 1 << j
        while c:
            top = c.bit_length() - 1
            hit = pivots.get(top)
            if hit is None:
                pivots[top] = (c, combo)
                break
            c ^= hit[0]
            combo ^= hit[1]
        else:
            basis.append(combo)
    return basis
