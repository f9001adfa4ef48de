"""Exact scalar arithmetic: rationals and GF(2) linear algebra.

Rationals are stdlib ``fractions.Fraction`` (already exact, lowest terms,
positive denominator); this module only adds the string forms used by the
JSON interfaces.  GF(2) vectors are ints used as bitmasks (bit j = coordinate
j) and matrices are lists of row masks, so all elimination is word-parallel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

__all__ = [
    "Fraction",
    "parse_rational",
    "format_rational",
    "BitMatrix",
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


class BitMatrix:
    """GF(2) matrix with bit-packed rows (bit j of rows[i] = entry (i, j))."""

    __slots__ = ("rows", "n_cols")

    def __init__(self, rows: Iterable[int], n_cols: int):
        self.rows = list(rows)
        self.n_cols = n_cols
        mask = (1 << n_cols) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the column range")

    def rank(self) -> int:
        ech = Echelon()
        for r in self.rows:
            ech.add(r)
        return ech.rank

    def _reduced_echelon(self, extra: int = 0) -> dict[int, int]:
        """Reduced row echelon form as pivot column -> row.

        Each row's lowest set bit is its pivot column, and no row has a bit
        at another row's pivot column.  Bit i of ``extra`` rides along as
        column n_cols of row i (the right side of a system); a row left
        with only that bit is stored under pivot n_cols.
        """
        n = self.n_cols
        piv: dict[int, int] = {}
        for i, r in enumerate(self.rows):
            r |= (extra >> i & 1) << n
            while r:
                c = (r & -r).bit_length() - 1
                p = piv.get(c)
                if p is None:
                    piv[c] = r
                    break
                r ^= p
        pivmask = 0
        for c in piv:
            pivmask |= 1 << c
        # clear each row's other pivot columns, highest pivot first, so the
        # rows it is reduced by are already reduced
        for c in sorted(piv, reverse=True):
            r = piv[c]
            x = r & pivmask & ~(1 << c)
            while x:
                r ^= piv[(x & -x).bit_length() - 1]
                x &= x - 1
            piv[c] = r
        return piv

    def solve(self, b: int) -> Optional[int]:
        """One solution x (bitmask over columns) of A x = b, or None.

        b is a bitmask over rows; free variables are set to 0.
        """
        n = self.n_cols
        piv = self._reduced_echelon(b)
        if n in piv:
            return None
        x = 0
        for c, r in piv.items():
            if r >> n & 1:
                x |= 1 << c
        return x

    def nullspace(self) -> list[int]:
        """Basis (bitmasks over columns) of {x : A x = 0}, one vector per
        non-pivot column c, with bit c set and no other non-pivot bit."""
        piv = self._reduced_echelon()
        basis = {c: 1 << c for c in range(self.n_cols) if c not in piv}
        for pc, r in piv.items():
            x = r & ~(1 << pc)
            while x:
                basis[(x & -x).bit_length() - 1] |= 1 << pc
                x &= x - 1
        return list(basis.values())


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
