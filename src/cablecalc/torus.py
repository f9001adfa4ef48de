"""Torus-knot Alexander polynomials, torsion coefficients and V-sequences.

Everything is exact integer arithmetic.  Symmetric Laurent polynomials are
stored sparsely as {exponent: coefficient}.  For positive torus knots (and
more generally the L-space knots handled here) the non-negative torsion
coefficients of the Alexander polynomial give the V-sequence of non-negative
surgery correction terms; a numerical-semigroup gap count provides an
independent route to the same numbers and is kept as an oracle.
"""

from __future__ import annotations

from math import gcd

from .errors import InternalCheckError

__all__ = [
    "AlexanderPoly",
    "alexander_torus",
    "torsion_coeff",
    "torus_vs",
    "gap_v",
    "gap_vs",
    "cable_alexander",
    "lspace_cable_check",
    "alexander_from_vs",
    "torus_genus",
]


class AlexanderPoly:
    """Symmetric Laurent polynomial with integer coefficients.

    coeffs maps exponent -> nonzero coefficient; a(k) == a(-k) and a(1) = 1
    are required, which pins the symmetric normalization.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int]):
        cs = {int(e): int(c) for e, c in coeffs.items() if c != 0}
        for e, c in cs.items():
            if cs.get(-e) != c:
                raise ValueError(f"not symmetric at exponent {e}")
        if sum(cs.values()) != 1:
            raise ValueError("not normalized: values at t=1 must sum to 1")
        self.coeffs = cs

    @property
    def degree(self) -> int:
        """Top exponent (the genus, for the knots handled here)."""
        return max(self.coeffs, default=0)

    def coeff(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def inflate(self, p: int) -> "AlexanderPoly":
        """Substitute t -> t**p."""
        if p < 1:
            raise ValueError("inflation step must be >= 1")
        return AlexanderPoly({e * p: c for e, c in self.coeffs.items()})

    def __mul__(self, other: "AlexanderPoly") -> "AlexanderPoly":
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return AlexanderPoly(acc)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AlexanderPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "AlexanderPoly(1)"
        terms = ", ".join(f"{e}: {c}" for e, c in sorted(self.coeffs.items()))
        return f"AlexanderPoly({{{terms}}})"


def _check_torus(p: int, q: int) -> None:
    if p < 1 or q < 1:
        raise ValueError(f"need p, q >= 1, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got ({p}, {q})")


def torus_genus(p: int, q: int) -> int:
    """Seifert genus (p-1)(q-1)/2 of the (p, q) torus knot."""
    _check_torus(p, q)
    return (p - 1) * (q - 1) // 2


def _poly_divide(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer coefficient lists (index = exponent)."""
    num = list(num)
    dd = len(den) - 1
    while den[dd] == 0:
        dd -= 1
    den_nz = [(i, dc) for i, dc in enumerate(den[: dd + 1]) if dc]
    out = [0] * (len(num) - dd)
    for e in range(len(num) - 1 - dd, -1, -1):
        c = num[e + dd]
        if c % den[dd] != 0:
            raise ArithmeticError("non-exact polynomial division")
        f = c // den[dd]
        out[e] = f
        if f:
            for i, dc in den_nz:
                num[e + i] -= f * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def alexander_torus(p: int, q: int) -> AlexanderPoly:
    """Symmetrized (t**(pq) - 1)(t - 1) / ((t**p - 1)(t**q - 1))."""
    _check_torus(p, q)
    if p == 1 or q == 1:
        return AlexanderPoly({0: 1})
    num = [0] * (p * q + 2)
    num[0], num[1], num[p * q], num[p * q + 1] = 1, -1, -1, 1
    den1 = [0] * (p + 1)
    den1[0], den1[p] = -1, 1
    den2 = [0] * (q + 1)
    den2[0], den2[q] = -1, 1
    quot = _poly_divide(_poly_divide(num, den1), den2)
    g = torus_genus(p, q)
    if len(quot) - 1 != 2 * g:
        raise InternalCheckError(f"Alexander polynomial of T({p},{q}) has span {len(quot) - 1}, expected {2 * g}")
    return AlexanderPoly({e - g: c for e, c in enumerate(quot) if c})


def torsion_coeff(alex: AlexanderPoly, s: int) -> int:
    """t_s = sum_{j>=1} j * a(s + j)."""
    if s < 0:
        raise ValueError("torsion coefficients are indexed by s >= 0")
    return sum(j * alex.coeff(s + j) for j in range(1, alex.degree - s + 1))


def torus_vs(p: int, q: int) -> tuple[int, ...]:
    """V-sequence (V_0, ..., V_g) of the (p, q) torus knot, V_g = 0.

    V_s equals the s-th torsion coefficient of the Alexander polynomial.
    t_s = sum_{m>s} sum_{k>=m} a_k, so two suffix-sum passes over the
    coefficients give the whole sequence at once.
    """
    alex = alexander_torus(p, q)
    g = alex.degree
    suf = [0] * (g + 2)
    for m in range(g, 0, -1):
        suf[m] = suf[m + 1] + alex.coeff(m)
    vs = [0] * (g + 1)
    for s in range(g - 1, -1, -1):
        vs[s] = vs[s + 1] + suf[s + 1]
    vs = tuple(vs)
    if vs[-1] != 0 or not all(vs[i] - 1 <= vs[i + 1] <= vs[i] for i in range(g)):
        raise InternalCheckError(f"V-sequence of T({p},{q}) does not end at 0 with steps of 0 or -1")
    return vs


def gap_v(p: int, q: int, s: int) -> int:
    """Count of semigroup gaps k of <p, q> with k > s + g - 1.

    Independent route to torus_vs for p, q >= 2; used as an oracle.
    """
    _check_torus(p, q)
    if p < 2 or q < 2:
        raise ValueError("gap counting needs p, q >= 2")
    if s < 0:
        raise ValueError("need s >= 0")
    g = torus_genus(p, q)
    frob = p * q - p - q
    in_sg = [False] * (frob + 1)
    for a in range(0, frob + 1, p):
        for k in range(a, frob + 1, q):
            in_sg[k] = True
    return sum(1 for k in range(s + g, frob + 1) if not in_sg[k])


def gap_vs(p: int, q: int) -> tuple[int, ...]:
    """Whole V-sequence by gap counting: one semigroup sieve, then suffix
    counts of the gaps above s + g - 1.  Same numbers as torus_vs."""
    _check_torus(p, q)
    if p < 2 or q < 2:
        raise ValueError("gap counting needs p, q >= 2")
    g = torus_genus(p, q)
    frob = p * q - p - q
    in_sg = [False] * (frob + 1)
    for a in range(0, frob + 1, p):
        for k in range(a, frob + 1, q):
            in_sg[k] = True
    vs = [0] * (g + 1)
    for s in range(g - 1, -1, -1):
        k = s + g
        vs[s] = vs[s + 1] + (k <= frob and not in_sg[k])
    return tuple(vs)


def cable_alexander(alex: AlexanderPoly, p: int, q: int) -> AlexanderPoly:
    """Alexander polynomial of the (p, q) cable: alex(t**p) * alexander_torus(p, q)."""
    _check_torus(p, q)
    return alex.inflate(p) * alexander_torus(p, q)


def lspace_cable_check(genus: int, p: int, q: int) -> bool:
    """Whether the (p, q) cable of an L-space knot of this genus is again
    an L-space knot: q >= p(2*genus - 1)."""
    _check_torus(p, q)
    if genus < 0:
        raise ValueError("need genus >= 0")
    return q >= p * (2 * genus - 1)


def alexander_from_vs(vs: tuple[int, ...]) -> AlexanderPoly:
    """Reconstruct the Alexander polynomial of an L-space knot from its
    V-sequence (V_0, ..., V_g) via second differences of torsion coefficients."""
    if not vs or vs[-1] != 0:
        raise ValueError("V-sequence must end at V_g = 0")
    t = list(vs) + [0, 0]
    coeffs: dict[int, int] = {}
    for j in range(1, len(vs) + 1):
        a = t[j - 1] - 2 * t[j] + t[j + 1] if j >= 1 else 0
        if a:
            coeffs[j] = a
            coeffs[-j] = a
    coeffs[0] = 1 - 2 * sum(c for e, c in coeffs.items() if e > 0)
    return AlexanderPoly(coeffs)
