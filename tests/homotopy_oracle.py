"""Span route to the null-homotopy of a chain map, kept as a test oracle.

A degree-0 map f on a free F2[U]-complex C is null-homotopic when some map
H of degree +1 has dH + Hd = f.  The unknowns are the admissible entries of
H: y in H(x) needs y in the graded piece V_{gr(x)+D}.  Every term of the
equation has degree 0, so each entry (w, g), generator g in the image of w,
is one coordinate, and an unknown's column is the entries of dH + Hd it
reaches.  f is null-homotopic just when its entries lie in the span of the
columns.  This solves one global linear system, independent of the
mapping-cone homology that cablecalc.iota compares, and its size grows with
the square of the generator count, so it is for small complexes only.

Maps are given as the engine gives them: one generator bitmask column per
generator, with U-exponents forced by the gradings.  Span membership is
decided by Echelon, a row-echelon basis over GF(2), and a graded piece is
the list of generators that piece() gives.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from cablecalc import iota


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


def piece(cx, grading: int) -> list[int]:
    """The graded piece V_grading of a complex, at its scaled gradings: the
    generators x of grading's class mod 2D with gr(x) >= grading, in
    generator order."""
    step = 2 * cx.D
    return [i for i, g in enumerate(cx.gr) if g >= grading and (g - grading) % step == 0]


def candidate_gradings(cx, floor: int) -> list[int]:
    """Every grading G - 2kD >= floor of a generator, from the top down."""
    return sorted({h for g in cx.gr for h in range(g, floor - 1, -2 * cx.D)}, reverse=True)


def _commutator_columns(cx, degree: int, order: dict[int, int]) -> Iterator[tuple[int, int, int]]:
    """(x, y, column) for each admissible entry y in X(x) of a map X of
    degree `degree` (in units of D): the entries of dX + Xd it reaches, the
    entry (w, g) numbered by order, in order of first use."""
    gr, D, dcols = cx.gr, cx.D, cx.dcols
    n = len(gr)
    preds: list[list[int]] = [[] for _ in range(n)]  # x -> the w with x in d(w)
    for w in range(n):
        for x in iota._bits(dcols[w]):
            preds[x].append(w)
    for x in range(n):
        for y in piece(cx, gr[x] + degree * D):
            # (x, y) puts d(y) into dX(x), and y into Xd(w) for each w
            # with x in d(w)
            col = 0
            for key in [x * n + g for g in iota._bits(dcols[y])] + [w * n + y for w in preds[x]]:
                col ^= 1 << order.setdefault(key, len(order))
            yield x, y, col


def null_homotopic(cx: iota.GradedComplex, fcols: Sequence[int]) -> bool:
    """Whether some H of degree +1 has dH + Hd = f."""
    n = len(cx.gr)
    order: dict[int, int] = {}
    span = Echelon(col for _, _, col in _commutator_columns(cx, 1, order))
    rhs = 0
    for w in range(n):
        for g in iota._bits(fcols[w]):
            if w * n + g not in order:
                return False  # an entry of f that no H reaches
            rhs |= 1 << order[w * n + g]
    return span.contains(rhs)


def chain_maps(cx: iota.GradedComplex) -> list[list[int]]:
    """A basis of the degree-0 chain maps of cx over F2, each as columns:
    the kernel of f -> df + fd on the admissible entries of f, read off an
    echelon basis of the rows (df + fd) << m | f."""
    entries = list(_commutator_columns(cx, 0, {}))
    m = len(entries)
    ech = Echelon(col << m | 1 << k for k, (_, _, col) in enumerate(entries))
    basis = []
    for row in ech.pivots.values():
        if row >> m == 0:
            cols = [0] * len(cx.gr)
            for k in iota._bits(row):
                x, y, _ = entries[k]
                cols[x] ^= 1 << y
            basis.append(cols)
    return basis


def homotopy_image(cx: iota.GradedComplex, hcols: Sequence[int]) -> list[int]:
    """The columns of dH + Hd, for H given by its columns."""
    dcols = cx.dcols
    return [iota._image(dcols, h) ^ iota._image(hcols, dc) for h, dc in zip(hcols, dcols)]


def random_map(cx: iota.GradedComplex, degree: int, rng) -> list[int]:
    """Columns of a random map of degree `degree` (in units of D), each
    admissible entry kept with probability 1/2."""
    cols = [0] * len(cx.gr)
    for x, g in enumerate(cx.gr):
        for y in piece(cx, g + degree * cx.D):
            if rng.random() < 0.5:
                cols[x] |= 1 << y
    return cols
