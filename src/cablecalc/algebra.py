"""Exact rationals for the JSON interfaces.

Rationals are stdlib ``fractions.Fraction`` (already exact, lowest terms,
positive denominator); this module only adds the string forms used by the
JSON interfaces.  The engine's GF(2) linear algebra works on bitmask
columns inside ``cablecalc.iota``.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "Fraction",
    "parse_rational",
    "format_rational",
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

