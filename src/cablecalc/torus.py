"""Torus-knot and L-space-cable V-sequences from numerical semigroups.

An L-space knot of genus g has a semigroup S in N with exactly g gaps, all
below 2g, and its V-sequence counts them: V_s is the number of gaps above
s + g - 1.  The torus knot T(p, q) has S = <p, q>.  The semigroup of an
L-space (p, q)-cable of K is {p*s + q*j : s in S_K, 0 <= j < p}, which is
p*S_K + q*N for p >= 2 (Hedden, "On knot Floer homology and cabling II";
S. Wang, "Semigroups of L-space knots"), so every V-sequence here is a gap
count on a bytearray.  The member
sieve in gap_vs is a second, independent route to torus_vs, kept for checks.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import InternalCheckError, ValidationError, check_coprime

__all__ = [
    "torus_vs",
    "gap_vs",
    "cable_vs",
    "lspace_cable_check",
    "torus_genus",
]


def torus_genus(p: int, q: int) -> int:
    """Seifert genus (p-1)(q-1)/2 of the (p, q) torus knot."""
    check_coprime(p, q)
    return (p - 1) * (q - 1) // 2


def _vs_from_gaps(gap: bytearray, g: int) -> tuple[int, ...]:
    """(V_0, ..., V_g) from the gap marks of 0..2g-1: V_s counts the gaps
    above s + g - 1, a suffix count over gap[g:]."""
    if len(gap) != 2 * g or gap.count(1) != g:
        raise InternalCheckError(f"semigroup of genus {g} has {gap.count(1)} gaps below {len(gap)}")
    return tuple(accumulate(reversed(gap[g:]), initial=0))[::-1]


def _mark_torus_gaps(gap: bytearray, p: int, q: int) -> None:
    """Mark the gaps of <p, q>: the class of b*q mod p (0 < b < p) first
    meets the semigroup at b*q, so b*q - k*p for k >= 1 are its gaps."""
    if p > q:
        p, q = q, p
    for b in range(1, p):
        gap[b * q % p:b * q:p] = b"\x01" * (b * q // p)


def torus_vs(p: int, q: int) -> tuple[int, ...]:
    """V-sequence (V_0, ..., V_g) of the (p, q) torus knot, V_g = 0."""
    g = torus_genus(p, q)
    gap = bytearray(2 * g)
    _mark_torus_gaps(gap, p, q)
    return _vs_from_gaps(gap, g)


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def gap_vs(p: int, q: int) -> tuple[int, ...]:
    """Whole V-sequence of T(p, q) by sieving the members of <p, q> below
    2g.  Same numbers as torus_vs, by an independent route."""
    g = torus_genus(p, q)
    member = bytearray(2 * g)
    for a in range(0, 2 * g, p):
        member[a::q] = b"\x01" * len(range(a, 2 * g, q))
    return _vs_from_gaps(member.translate(_FLIP), g)


def cable_vs(v_seq: tuple[int, ...], p: int, q: int) -> tuple[int, ...] | None:
    """V-sequence of the (p, q)-cable of an L-space knot with V-sequence
    v_seq, or None when the cable is not an L-space knot.

    v_seq may end in any number of zeros; the companion's genus g is the
    count of its positive entries.  The companion's gaps are read off the
    V steps (g + s is a gap iff V_s > V_(s+1)) and the symmetry k in S iff
    2g - 1 - k not in S.  The cable's gaps are those of <p, q> plus
    p*x + q*j for every companion gap x and 0 <= j < p.
    """
    check_coprime(p, q, "cable parameters")
    if 0 not in v_seq:
        raise ValidationError(f"companion V-sequence {tuple(v_seq)!r} never reaches 0")
    g = v_seq.index(0)
    if not lspace_cable_check(g, p, q):
        return None
    g_new = p * g + (p - 1) * (q - 1) // 2
    gap = bytearray(2 * g_new)
    _mark_torus_gaps(gap, p, q)
    ones = b"\x01" * p
    for s in range(g):
        x = g + s if v_seq[s] > v_seq[s + 1] else g - 1 - s
        gap[p * x:p * x + p * q:q] = ones
    return _vs_from_gaps(gap, g_new)


def lspace_cable_check(genus: int, p: int, q: int) -> bool:
    """Whether the (p, q) cable of an L-space knot of this genus is again
    an L-space knot: q >= p(2*genus - 1)."""
    check_coprime(p, q)
    if genus < 0:
        raise ValidationError("need genus >= 0")
    return q >= p * (2 * genus - 1)
