"""Alexander-polynomial route to V-sequences, kept as a test oracle.

For an L-space knot the non-negative torsion coefficients of the Alexander
polynomial are its V-sequence, and the (p, q)-cable has polynomial
alex(t**p) * alexander_torus(p, q).  This is independent of the semigroup
gap counts in cablecalc.torus and costs O(g^2) per cabling stage.
Symmetric Laurent polynomials are stored sparsely as {exponent: coefficient}.
"""

from __future__ import annotations

from cablecalc.errors import ValidationError, check_coprime
from cablecalc.torus import torus_genus


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
                raise ValidationError(f"not symmetric at exponent {e}")
        if sum(cs.values()) != 1:
            raise ValidationError("not normalized: values at t=1 must sum to 1")
        self.coeffs = cs

    @property
    def degree(self) -> int:
        """Top exponent (the genus, for the knots handled here)."""
        return max(self.coeffs, default=0)

    def coeff(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def inflate(self, p: int) -> "AlexanderPoly":
        """Substitute t -> t**p."""
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
        terms = ", ".join(f"{e}: {c}" for e, c in sorted(self.coeffs.items()))
        return f"AlexanderPoly({{{terms}}})"


def _poly_divide(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer coefficient lists (index = exponent)."""
    num = list(num)
    dd = len(den) - 1
    den_nz = [(i, dc) for i, dc in enumerate(den) if dc]
    out = [0] * (len(num) - dd)
    for e in range(len(num) - 1 - dd, -1, -1):
        f = out[e] = num[e + dd] // den[dd]
        for i, dc in den_nz:
            num[e + i] -= f * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def alexander_torus(p: int, q: int) -> AlexanderPoly:
    """Symmetrized (t**(pq) - 1)(t - 1) / ((t**p - 1)(t**q - 1))."""
    g = torus_genus(p, q)
    if p == 1 or q == 1:
        return AlexanderPoly({0: 1})
    num = [0] * (p * q + 2)
    num[0], num[1], num[p * q], num[p * q + 1] = 1, -1, -1, 1
    quot = _poly_divide(_poly_divide(num, [-1] + [0] * (p - 1) + [1]), [-1] + [0] * (q - 1) + [1])
    return AlexanderPoly({e - g: c for e, c in enumerate(quot) if c})


def torsion_coeff(alex: AlexanderPoly, s: int) -> int:
    """t_s = sum_{j>=1} j * a(s + j)."""
    if s < 0:
        raise ValidationError("torsion coefficients are indexed by s >= 0")
    return sum(j * alex.coeff(s + j) for j in range(1, alex.degree - s + 1))


def torsion_vs(alex: AlexanderPoly) -> tuple[int, ...]:
    """(t_0, ..., t_g) by two suffix sums: t_s = sum_{m>s} sum_{k>=m} a_k."""
    g = alex.degree
    suf = [0] * (g + 2)
    for m in range(g, 0, -1):
        suf[m] = suf[m + 1] + alex.coeff(m)
    vs = [0] * (g + 1)
    for s in range(g - 1, -1, -1):
        vs[s] = vs[s + 1] + suf[s + 1]
    return tuple(vs)


def cable_alexander(alex: AlexanderPoly, p: int, q: int) -> AlexanderPoly:
    """Alexander polynomial of the (p, q) cable: alex(t**p) * alexander_torus(p, q)."""
    return alex.inflate(p) * alexander_torus(p, q)


def alexander_from_vs(vs) -> AlexanderPoly:
    """Alexander polynomial of an L-space knot from its V-sequence
    (V_0, ..., V_g) via second differences of torsion coefficients."""
    if not vs or vs[-1] != 0:
        raise ValidationError("V-sequence must end at V_g = 0")
    t = list(vs) + [0, 0]
    coeffs: dict[int, int] = {}
    for j in range(1, len(vs) + 1):
        a = t[j - 1] - 2 * t[j] + t[j + 1]
        if a:
            coeffs[j] = coeffs[-j] = a
    coeffs[0] = 1 - 2 * sum(c for e, c in coeffs.items() if e > 0)
    return AlexanderPoly(coeffs)


def alexander_cable_vs(vs, p: int, q: int) -> tuple[int, ...] | None:
    """V-sequence of the (p, q)-cable of an L-space knot with V-sequence
    vs by the Alexander route, or None outside the L-space regime."""
    alex = alexander_from_vs(vs)
    if q < p * (2 * alex.degree - 1):
        return None
    return torsion_vs(cable_alexander(alex, p, q))


def gap_v(p: int, q: int, s: int) -> int:
    """Count of semigroup gaps k of <p, q> with k > s + g - 1, by a
    membership set."""
    check_coprime(p, q)
    if p < 2 or q < 2:
        raise ValidationError("gap counting needs p, q >= 2")
    if s < 0:
        raise ValidationError("need s >= 0")
    g = torus_genus(p, q)
    members = {a * p + b * q for a in range(q) for b in range(p)}
    return sum(1 for k in range(s + g, 2 * g) if k not in members)
