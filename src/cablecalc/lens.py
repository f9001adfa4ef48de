"""d-invariants of lens spaces and their spin-c conjugation combinatorics.

L(p, q) carries p spin-c structures labeled 0..p-1.  d(L(p, q), i) is the
classical recursive correction term; the recursion swaps (p, q) -> (q, p mod q)
and terminates at d(L(1, 0), 0) = 0, so every value is an exact rational.
Conjugation i -> (p + q - 1 - i) mod p reverses each of the label blocks
0..q-1 and q..p-1 (q reduced mod p), and d(i) = d(conj i), so whole
vectors recurse on integer numerators over one common denominator for the
first half of each block only, overwrite each numerator with one
``Fraction`` per conjugate pair and mirror the rest in place.  They are
refused above MAX_VECTOR_LABELS labels before anything is allocated; a
single label needs only O(log p) integer steps and has no such limit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle
from math import gcd, lcm

from .errors import ValidationError, check_coprime, check_int

__all__ = ["lens_d", "lens_d_vector", "conj_spinc", "selfconj_spinc"]

# Largest p for which a whole label vector is built.  Building one takes
# about 55 bytes per label: L(999983, 7919) peaks at 71 MB RSS in 1.0-1.2 s
# (Python 3.11, x86-64, single-threaded), and `cablecalc lens d --json` on
# it at 169 MB in 1.5-1.8 s.
MAX_VECTOR_LABELS = 10**6


def _check_label(p: int, i: int) -> None:
    if not 0 <= check_int(i, "spin-c label") < p:
        raise ValidationError(f"spin-c label {i} out of range 0..{p - 1}")


def _check_vector_size(p: int) -> None:
    """Refuse a label vector of more than MAX_VECTOR_LABELS entries."""
    if p > MAX_VECTOR_LABELS:
        raise ValidationError(f"p = {p} exceeds the label-vector limit of {MAX_VECTOR_LABELS}")


def _mirror(half: list, n: int) -> list:
    """A conjugation block of n labels from its first half (middle
    included): the block is a palindrome, so the rest is the same entries
    in reverse.  half is extended in place and returned."""
    half += half[n // 2 - 1::-1] if n > 1 else []
    return half


def _lens_halves(p: int, q: int) -> tuple[list[int], list[int], int]:
    """Integer numerators of d(L(p, q), i) over one common denominator, on
    the first half (middle included) of each conjugation block, labels
    0..q-1 and q..p-1 with q reduced mod p.  Conjugation i -> p + q - 1 - i
    reverses each block, so these halves determine the vector.  Label i of
    L(p, q) reads label i mod q of L(q, p mod q)."""
    if p == 1:
        return [], [0], 1
    q %= p
    r = p % q
    lo, hi, sub_den = _lens_halves(q, r)
    den = lcm(4 * p * q, sub_den)
    a, b = den // (4 * p * q), den // sub_den
    sub = [x * b for x in _mirror(lo, r) + _mirror(hi, q - r)]
    # Label i reads sub[i mod q]; the second block starts at label q, so
    # both blocks read sub from its start, the second one cyclically.
    h1, h2 = (q + 1) // 2, (p - q + 1) // 2
    pq, c = p * q, 1 - p - q
    return ([(t * t - pq) * a - s for t, s in zip(range(c, c + 2 * h1, 2), sub)],
            [(t * t - pq) * a - s for t, s in zip(range(c + 2 * q, c + 2 * (q + h2), 2), cycle(sub))],
            den)


def _label_vector(p: int, q: int, lo: list[int], hi: list[int], den: int) -> list[Fraction]:
    """The p entries from the block halves of _lens_halves (numerators over
    den): one Fraction per conjugate pair, shared by both labels, written
    over lo and hi, which become the vector.  As Fraction._from_coprime_ints
    does, one gcd reduces each entry and its slots are set directly, so
    entries with the same reduced denominator share one int; Fraction(n,
    den) would give each its own."""
    dens: dict[int, int] = {}
    new = object.__new__
    for half in (lo, hi):
        for k, n in enumerate(half):
            g = gcd(n, den)
            f = new(Fraction)
            f._numerator, d = n // g, den // g
            f._denominator = dens.setdefault(d, d)
            half[k] = f
    vec = _mirror(lo, q % p)
    vec += _mirror(hi, p - q % p)
    return vec


def lens_d(p: int, q: int, i: int) -> Fraction:
    """d(L(p, q), i) for 0 <= i < p; q >= p is reduced mod p (label kept)."""
    check_coprime(p, q)
    _check_label(p, i)
    # num/den accumulates the alternating sum of the recursion's terms
    num, den, sign = 0, 1, 1
    while p > 1:
        q %= p
        t = 4 * p * q
        num = num * t + sign * ((2 * i + 1 - p - q) ** 2 - p * q) * den
        den *= t
        p, q, i, sign = q, p % q, i % q, -sign
    return Fraction(num, den)


def lens_d_vector(p: int, q: int) -> list[Fraction]:
    """All p correction terms of L(p, q), indexed by spin-c label."""
    check_coprime(p, q)
    _check_vector_size(p)
    return _label_vector(p, q, *_lens_halves(p, q))


def conj_spinc(p: int, q: int, i: int) -> int:
    """Label of the conjugate spin-c structure: (p + q - 1 - i) mod p."""
    check_coprime(p, q)
    _check_label(p, i)
    return (p + q - 1 - i) % p


def selfconj_spinc(p: int, q: int) -> list[int]:
    """Self-conjugate spin-c labels of L(p, q), sorted.

    Both odd: one label (q-1)/2.  One of p, q even: the even/odd split gives
    (q-1)/2 and/or (p+q-1)/2, all taken mod p.
    """
    check_coprime(p, q)
    if p % 2 == 1 and q % 2 == 1:
        labels = {((q - 1) // 2) % p}
    elif p % 2 == 0:
        labels = {((q - 1) // 2) % p, ((p + q - 1) // 2) % p}
    else:
        labels = {((p + q - 1) // 2) % p}
    return sorted(labels)
