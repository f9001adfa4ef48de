"""d-invariants of lens spaces and their spin-c conjugation combinatorics.

L(p, q) carries p spin-c structures labeled 0..p-1.  d(L(p, q), i) is the
classical recursive correction term; the recursion swaps (p, q) -> (q, p mod q)
and terminates at d(L(1, 0), 0) = 0, so every value is an exact rational.
Whole vectors recurse on integer numerators over one common denominator,
build one ``Fraction`` per distinct value (d(i) = d(conj i), so about half
the entries repeat), and are refused above MAX_VECTOR_LABELS labels before
anything is allocated; a single label needs only O(log p) work and has no
such limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import ValidationError, check_coprime

__all__ = ["MAX_VECTOR_LABELS", "lens_d", "lens_d_vector", "conj_spinc", "selfconj_spinc"]

# Largest p for which a whole label vector is built.  Building one takes
# about 140 bytes per label: L(999983, 7919) peaks at 152 MB RSS in 2.2 s
# (Python 3.11, single-threaded), and `cablecalc lens d` on it at 243 MB in 4.6 s.
MAX_VECTOR_LABELS = 10**6


def _check_label(p: int, i: int) -> None:
    if not 0 <= i < p:
        raise ValidationError(f"spin-c label {i} out of range 0..{p - 1}")


def _check_vector_size(p: int) -> None:
    """Refuse a label vector of more than MAX_VECTOR_LABELS entries."""
    if p > MAX_VECTOR_LABELS:
        raise ValidationError(f"p = {p} exceeds the label-vector limit of {MAX_VECTOR_LABELS}")


def _fractions(nums: Iterable[int], den: int) -> list[Fraction]:
    """nums[i]/den as Fractions, one object per distinct numerator."""
    memo: dict[int, Fraction] = {}
    out = []
    for n in nums:
        f = memo.get(n)
        if f is None:
            f = memo[n] = Fraction(n, den)
        out.append(f)
    return out


def _lens_num(p: int, q: int) -> tuple[list[int], int]:
    """Integer numerators of d(L(p, q), i) for i = 0..p-1, and their common
    denominator.  Label i of L(p, q) reads label i mod q of L(q, p mod q)."""
    if p == 1:
        return [0], 1
    q %= p
    sub, sub_den = _lens_num(q, p % q)
    den = lcm(4 * p * q, sub_den)
    a, b = den // (4 * p * q), den // sub_den
    return [((2 * i + 1 - p - q) ** 2 - p * q) * a - sub[i % q] * b for i in range(p)], den


def lens_d(p: int, q: int, i: int) -> Fraction:
    """d(L(p, q), i) for 0 <= i < p; q >= p is reduced mod p (label kept)."""
    check_coprime(p, q)
    _check_label(p, i)
    d, sign = Fraction(0), 1
    while p > 1:
        q %= p
        d += sign * Fraction((2 * i + 1 - p - q) ** 2 - p * q, 4 * p * q)
        p, q, i, sign = q, p % q, i % q, -sign
    return d


def lens_d_vector(p: int, q: int) -> list[Fraction]:
    """All p correction terms of L(p, q), indexed by spin-c label."""
    check_coprime(p, q)
    _check_vector_size(p)
    return _fractions(*_lens_num(p, q))


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
