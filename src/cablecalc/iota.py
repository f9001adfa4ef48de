"""Chain complexes over F2[U] with a homotopy involution, and their
correction terms d, d_lower and d_upper.

A complex is finitely generated and free over F2[U], graded by exact
rationals; U drops the grading by 2 and the differential by 1.  Module
elements are frozensets of (generator, U-exponent) terms, so addition is
symmetric difference.  Every map in sight is homogeneous, so it is a GF(2)
bit matrix whose U-exponents are forced by the gradings, and all heavy
lifting is bit-packed linear algebra.

Inside the engine gradings are integers: the complex's gradings are scaled
by D, the lcm of their denominators, so d has degree -D and U degree -2D,
and only generators in one class mod 2D meet in a graded piece.  Fractions
are made only for the values returned and for the gradings of a derived
complex; a tensor product's are added as integers on the factors'.  The
engine works in generator coordinates.  A map is one bitmask column per
generator (bit i: generator i occurs in the image), and its U-exponents are
checked once, where the columns are built; a column stands for the map only
when that check passes.  A graded piece V_g is the list of generators x of
its class with gr(x) >= g, standing for the elements U^k x with
k = (gr(x) - g)/2D, and an element of it is a mask over the generators.
The image of U^k x under a map is then the generator's column, read at the
target grading, and U^m, which sends U^k x to U^(k+m) x, leaves the mask as
it is.  A complex holds its coordinates from construction on: a
GradedComplex its D, generator index, scaled gradings and d's columns,
with the results of its degree and d^2 checks, and once computed its
homology; an IotaComplex iota's columns, with the result of their check,
and once computed its (d, d_lower, d_upper).  None of these refers back to
the complex.  A map is held once: when its columns pass the degree check
its name-keyed terms are dropped at construction, and diff or iota remakes
them from the columns, with the U-exponents the gradings force, on first
read and keeps them.  So neither a GradedComplex nor the iota of an
IotaComplex may be mutated after construction.  tensor, dual and shift
build a complex from their inputs' coordinates alone (a product's columns
from the factors', a dual's transposed, a shift's as they are), and refuse
an input whose d or iota fails its degree check, since no columns stand
for that map.

validate checks d, iota and their composites on the columns.  Unless
iota^2 = id exactly, it decides whether iota^2 is homotopic to id from the
homology of the mapping cone of iota^2 + id (see _null_homotopic).

Homology comes from one valuation-greedy reduction of a differential,
which sweeps the U-exponents 0, 1, 2, ... in turn: each pivot has the least
U-exponent left, which keeps every entry a monomial and each column
operation a plain XOR.  Because d^2 = 0 each pivot pair x_j -> U^e x_i
splits off as a direct summand, a torsion class F2[U]/U^e when e > 0, and
the generators left unpaired carry the free part.

d_lower and d_upper come from the same reduction, run on the mapping cone
of Q(1+iota), whose homology is HFI (Hendricks-Manolescu, Involutive
Heegaard Floer homology, 2017): generators x at gr(x) and Qx at gr(x) - 1,
with x -> dx + Q(1+iota)x and Qx -> Q dx, built by the _cone_homology
that validate's homotopy test shares.  Localized at U it has rank 2,
so H(cone) has exactly two free generators, in the two classes of d mod 2:
the one in d's class is at d_lower, the other at d_upper - 1.  All three
values come from one reduction of the cone per IotaComplex, which keeps
them, so d_results, d_lower and d_upper on one complex share it.
brute_oracle re-derives all three invariants without these reductions, to
cross-check them: d_lower is the top grading of a non-torsion cycle x with
(id+iota)x = dy, found by one elimination per grading class over F2,
extended as the generators enter in descending grading, and d_upper comes
from the same systems on the transposed columns.  A cycle is non-torsion
when it lies outside the span of d over its whole other class.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import InternalCheckError, ValidationError, check_int

__all__ = [
    "GradedComplex",
    "IotaComplex",
    "validate",
    "homology_summary",
    "d_invariant",
    "d_lower",
    "d_upper",
    "DResults",
    "d_results",
    "tensor",
    "shift",
    "dual",
    "brute_oracle",
    "load_complex",
    "dump_complex",
]

# complex_from_dict refuses more generators: memory grows as their square
MAX_GENERATORS = 20_000

Term = tuple  # (generator name, U exponent)
Element = frozenset
ZERO: Element = frozenset()


def elt_shift(x: Element, k: int) -> Element:
    """Multiply an element by U**k."""
    if k == 0:
        return x
    return frozenset((g, e + k) for g, e in x)


def apply_map(mp: Mapping[str, Element], x: Element) -> Element:
    """Apply an F2[U]-linear map given on generators to an element."""
    acc: frozenset = frozenset()
    for g, e in x:
        img = mp.get(g)
        if img:
            acc ^= elt_shift(img, e)
    return acc


def _clean_map(generators: Sequence[str], raw: Mapping[str, Iterable[Term]], what: str) -> dict[str, Element]:
    known = set(generators)
    out: dict[str, Element] = {}
    for src, terms in raw.items():
        if src not in known:
            raise ValidationError(f"{what} defined on unknown generator {src!r}")
        val = terms if type(terms) is frozenset else frozenset(terms := [tuple(t) for t in terms])
        if len(val) != len(terms):
            val = frozenset(t for t, k in Counter(terms).items() if k % 2)  # repeated terms cancel in pairs
        for g, e in val:
            if g not in known:
                raise ValidationError(f"{what}[{src!r}] hits unknown generator {g!r}")
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValidationError(f"{what}[{src!r}] has bad U-exponent {e!r}")
        if val:
            out[src] = val
    return out


def _read_grading(name, g) -> Fraction:
    """A grading read from its text form ("p/q", an integer or a decimal),
    as every complex file's is; a bool is refused, and so is a value whose
    text form str cannot write (past the interpreter's digit limit), or
    whose decimal exponent alone passes it, before the number is built."""
    if not isinstance(g, bool):
        try:
            text, limit = str(g), sys.get_int_max_str_digits()
            _, e, power = text.lower().partition("e")
            if e and limit and abs(int(power)) >= limit:
                raise ValueError(f"exponent {power} past the digit limit")
            q = Fraction(text)
            str(q)
            return q
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"bad grading {g!r} of generator {name!r}")


class GradedComplex:
    """Free F2[U]-complex: ordered generators, exact rational gradings and
    the differential, held in generator coordinates: D, the generator
    index, the scaled gradings gr, d's columns, the details of its degree
    and d^2 checks (None when they pass) and, once _homology has run, its
    homology.  A Fraction grading is kept as given and a frozenset image is
    read without copying; a grading that is not an int is read by
    _read_grading, as a complex file's is.  A complex must not be mutated.
    When d's columns pass the degree check they stand for diff, which is
    remade from them on first read."""

    __slots__ = ("generators", "grading", "D", "index", "gr", "dcols", "d_degree", "d_square", "hom", "_diff")

    def __init__(self, generators: Sequence[tuple[str, Fraction]], diff: Mapping[str, Iterable[Term]]):
        names = [str(n) for n, _ in generators]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate generator names")
        if not names:
            raise ValidationError("complex needs at least one generator")
        self.generators: tuple[str, ...] = tuple(names)
        self.grading: dict[str, Fraction] = {
            str(n): g if type(g) is Fraction else Fraction(g) if type(g) is int else _read_grading(n, g)
            for n, g in generators}
        self._coords(*_scale(self.grading.values()), _clean_map(self.generators, diff, "differential"))

    def _coords(self, D: int, gr: list[int], diff: Optional[dict[str, Element]], dcols: Optional[list[int]] = None):
        """Set the coordinates on the scaled gradings gr, d's columns built
        from diff, or given, by _built, with no degree fault."""
        self.D, self.gr, self.hom = D, gr, None
        self.index: dict[str, int] = {g: i for i, g in enumerate(self.generators)}
        self.dcols, self.d_degree = _columns(self, diff, -1) if dcols is None else (dcols, None)
        if self.d_degree is None:
            self._diff = None  # the columns stand for it
            self.d_square = next((f"d(d({g})) != 0" for g, c in zip(self.generators, self.dcols)
                                  if _image(self.dcols, c)), None)
        else:
            # the columns drop U-exponents, which only the degree check
            # ties to the gradings, so d^2 is taken on the terms
            self._diff = diff
            self.d_square = next((f"d(d({g})) != 0" for g in self.generators
                                  if apply_map(diff, diff.get(g, ZERO))), None)

    @property
    def diff(self) -> dict[str, Element]:
        if self._diff is None:
            self._diff = _terms(self, self.dcols, -1)
        return self._diff

    def scaled(self, q: Fraction) -> int:
        return q.numerator * (self.D // q.denominator)

    def unscaled(self, g: int) -> Fraction:
        return Fraction(g, self.D)

    def __repr__(self) -> str:
        return f"GradedComplex({len(self.generators)} generators)"


class IotaComplex:
    """A graded complex with a candidate homotopy involution, held as its
    columns, with the detail of their degree check (None when it passes),
    and its (d, d_lower, d_upper) once computed.  iota must not be mutated.
    When the columns pass the check they stand for iota, which is remade
    from them on first read."""

    __slots__ = ("complex", "icols", "i_degree", "_iota", "_values")

    def __init__(self, complex: GradedComplex, iota: Mapping[str, Iterable[Term]]):
        self.complex = complex
        terms = _clean_map(complex.generators, iota, "iota")
        self.icols, self.i_degree = _columns(complex, terms, 0)
        self._iota: Optional[dict[str, Element]] = None if self.i_degree is None else terms
        self._values = None  # (d, d_lower, d_upper), set once by _invariants

    @property
    def iota(self) -> dict[str, Element]:
        if self._iota is None:
            self._iota = _terms(self.complex, self.icols, 0)
        return self._iota

    def __repr__(self) -> str:
        return f"IotaComplex({len(self.complex.generators)} generators)"


# ---------------------------------------------------------------------------
# generator coordinates


def _terms(cx: GradedComplex, cols: Sequence[int], degree: int) -> dict[str, Element]:
    """The name-keyed map whose columns passed the degree check: the
    gradings force each U-exponent, (gr_i - gr_j - degree * D) / 2D."""
    names, gr, D = cx.generators, cx.gr, cx.D
    return {names[j]: frozenset((names[i], (gr[i] - gr[j] - degree * D) // (2 * D)) for i in _bits(c))
            for j, c in enumerate(cols) if c}


def _scale(grading: Collection[Fraction]) -> tuple[int, list[int]]:
    """D, the lcm of the gradings' denominators, and the gradings scaled by it."""
    D = lcm(*{q.denominator for q in grading})
    return D, [q.numerator * (D // q.denominator) for q in grading]


def _columns(cx: GradedComplex, mp: Mapping[str, Element], degree: int) -> tuple[list[int], Optional[str]]:
    """mp as one column per generator of cx, and the first term (by
    source, then term order) whose U-exponent breaks the degree, or None."""
    index, gr, step = cx.index, cx.gr, 2 * cx.D
    cols = [0] * len(gr)
    detail = None
    for src, val in mp.items():
        j = index[src]
        want = gr[j] + degree * cx.D
        col = 0
        for g, e in val:
            i = index[g]
            col |= 1 << i
            if detail is None and gr[i] - step * e != want:
                bad, e_bad = min(t for t in val if gr[index[t[0]]] - step * t[1] != want)
                detail = f"term U^{e_bad}*{bad} in image of {src} breaks degree {degree}"
        cols[j] = col
    return cols, detail


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _image(cols: Sequence[int], mask: int) -> int:
    """The sum of the columns at the bits of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= cols[low.bit_length() - 1]
        mask ^= low
    return acc


def _transpose(cols: Sequence[int]) -> list[int]:
    out = [0] * len(cols)
    for j, c in enumerate(cols):
        for i in _bits(c):
            out[i] |= 1 << j
    return out


def _id_plus_iota(ic: IotaComplex) -> list[int]:
    """Columns of id+iota; an iota term of the wrong degree, which no
    column can stand for, raises."""
    if ic.i_degree is not None:
        raise InternalCheckError(f"iota is not a degree-0 map: {ic.i_degree}")
    return [c ^ 1 << j for j, c in enumerate(ic.icols)]


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.ok]


def _null_homotopic(cx: GradedComplex, fcols: list[int]) -> bool:
    """Whether the degree-0 map f with columns fcols is dH + Hd for some H.

    dH + Hd is always a chain map, so f must be one.  A chain map f is
    null-homotopic just when H(cone f) is H(C) + H(C)[-1] as a graded
    F2[U]-module.  Given H, (x, Qy) -> (x, Q(y + Hx)) carries cone(f) onto
    cone(0).  Conversely, equal graded dimensions force f_* = 0, so H(cone f)
    is an extension of H(C) by H(C)[-1] whose class is [f] (universal
    coefficients over the graded PID F2[U]), and one whose middle term is
    the sum of its ends splits (Miyata, Note on direct summands of modules,
    1967).  The modules are compared by their (grading, U-order) classes,
    free ones of order 0.
    """
    if any(_image(cx.dcols, fc) != _image(fcols, dc) for fc, dc in zip(fcols, cx.dcols)):
        return False
    free, torsion = _homology(cx)
    ours = [(cx.scaled(g), 0) for g in free] + [(cx.scaled(g), e) for g, e in torsion]
    got_free, got_torsion = _cone_homology(cx, fcols)
    return (sorted(ours + [(g - cx.D, e) for g, e in ours])
            == sorted([(g, 0) for g in got_free] + got_torsion))


def _validate(ic: IotaComplex) -> list[tuple[str, Optional[str]]]:
    """(name, failure detail or None) of every check."""
    cx = ic.complex
    details = [("differential-degree", cx.d_degree), ("differential-squared", cx.d_square),
               ("iota-degree", ic.i_degree)]
    if any(detail is not None for _, detail in details):
        skipped = ("iota-chain-map", "iota-squared-homotopic-identity", "localized-rank-one")
        details += [(name, "not checked: structural failure") for name in skipped]
    else:
        # every exponent is now forced by the gradings, so the columns
        # stand for the maps and their composites
        dcols, icols = cx.dcols, ic.icols
        chain = next((f"iota fails to commute with d on {g}" for j, g in enumerate(cx.generators)
                      if _image(dcols, icols[j]) != _image(icols, dcols[j])), None)
        square_plus_id = [_image(icols, c) ^ 1 << j for j, c in enumerate(icols)]
        homotopic = not any(square_plus_id) or _null_homotopic(cx, square_plus_id)
        rank = len(_homology(cx)[0])
        details += [
            ("iota-chain-map", chain),
            ("iota-squared-homotopic-identity", None if homotopic else "no homotopy from iota^2 to id"),
            ("localized-rank-one", None if rank == 1 else f"localized homology has rank {rank}, expected 1"),
        ]
    return details


def validate(ic: IotaComplex) -> ValidationReport:
    """Check all defining properties; later checks are skipped once one fails."""
    checks = (ValidationCheck(name, detail is None, detail or "") for name, detail in _validate(ic))
    return ValidationReport(tuple(checks))


def _check(ic: IotaComplex) -> None:
    """Raise ValidationError when ic fails validate."""
    bad = [(name, detail) for name, detail in _validate(ic) if detail]
    if bad:
        raise ValidationError(f"invalid iota-complex: {bad[0][0]}: {bad[0][1]}")


# ---------------------------------------------------------------------------
# homology over F2[U] (one valuation-greedy reduction of d)


_Homology = tuple[tuple[Fraction, ...], tuple[tuple[Fraction, int], ...]]


def _homology(cx: GradedComplex) -> _Homology:
    """(free part gradings, torsion (grading, U-order) pairs) of H_*(C),
    computed on first use and kept on the complex."""
    if cx.hom is None:
        for detail in (cx.d_degree, cx.d_square):
            if detail is not None:
                raise InternalCheckError(f"homology of a non-complex: {detail}")
        free, torsion = _reduce_homology(cx.dcols, cx.gr, cx.D)
        cx.hom = (tuple(cx.unscaled(g) for g in free),
                  tuple((cx.unscaled(g), e) for g, e in sorted(torsion, reverse=True)))
    return cx.hom


def _reduce_homology(cols: Sequence[int], gr: Sequence[int], D: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Split a complex into pairs x_j -> U^e x_i plus free generators, and
    return the free generators' gradings and the torsion (grading, e) pairs.

    The complex is given by the bit columns of its differential over
    generators at the scaled gradings gr, with d of degree -D and U of
    degree -2D; entry (i, j) stands for U^e with e = (gr_i - gr_j + D) / 2D.
    The levels that hold entries are swept upward, one pass over the live
    columns each: column j pivots on its lowest live row in the grading
    gr_j - D + 2De.  Every entry left has level e or more, so the pivot has
    the least U-exponent; a column passed at level e had no level-e entry,
    so clearing adds to it only entries above e, and the pass clears level
    e.  A pivot clears row i from the other live columns (a change of
    source basis x_k -> x_k + U^c x_j) and retires i and j.  Clearing
    column j by row operations (x_i -> x_i + U^c x_r) and the same changes
    on the other side of the map touch only row j and column i, so the bits
    are not tracked: in the new basis d x_j = U^e x_i, and d^2 = 0 forces
    d x_i = 0 and leaves x_j out of every other image, so the pair splits
    off as a direct summand.  It adds F2[U]/U^e at gr_i when e > 0; the
    generators still live at the end carry the free part.

    A row index keeps, for each live row, the mask of the live columns
    with a bit there, so a pivot on row i XORs only the columns that hold
    i, and then flips those columns in the index of each live row of the
    column it added.  Bit loops are written out inline, and a pivot row is
    found among the column's own live bits, as the scan finds levels.
    """
    cols = list(cols)
    n, step = len(gr), 2 * D
    rows = [0] * n  # row -> mask of the columns with a bit there
    for j, c in enumerate(cols):
        col_bit = 1 << j
        while c:
            bit = c & -c
            rows[bit.bit_length() - 1] |= col_bit
            c ^= bit
    live = (1 << n) - 1
    busy = [j for j in range(n) if cols[j]]  # the columns that may still pivot
    torsion = []
    e = -1
    while busy:
        # go on at the least level left: every pass clears its own level
        low = None
        for j in busy:
            m, base = cols[j] & live, D - gr[j]
            while m:
                bit = m & -m
                level = gr[bit.bit_length() - 1] + base
                if low is None or level < low:
                    low = level
                m ^= bit
        if low % step or low <= step * e:
            raise InternalCheckError("homology reduction left a live entry of d")
        e = low // step
        for j in busy:
            m, target = cols[j] & live if live >> j & 1 else 0, gr[j] - D + step * e
            while m:
                bit = m & -m
                if gr[bit.bit_length() - 1] == target:
                    break
                m ^= bit
            else:
                continue
            i = bit.bit_length() - 1
            live ^= 1 << i | 1 << j
            col, holders = cols[j], rows[i] & live
            m = holders
            while m:
                bit = m & -m
                cols[bit.bit_length() - 1] ^= col
                m ^= bit
            m = col & live
            while m:
                bit = m & -m
                rows[bit.bit_length() - 1] ^= holders
                m ^= bit
            if e:
                torsion.append((gr[i], e))
        busy = [j for j in busy if live >> j & 1 and cols[j] & live]
    return [gr[j] for j in _bits(live)], torsion


def _cone_homology(cx: GradedComplex, fcols: Sequence[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """_reduce_homology of the cone of the degree-0 chain map f on cx with
    columns fcols: x at gr(x) with column dx + Q f(x), and Qx at gr(x) - D
    with column Q dx, Q's bits above C's."""
    n, D, gr, dcols = len(cx.gr), cx.D, cx.gr, cx.dcols
    cols = [c | t << n for c, t in zip(dcols, fcols)] + [c << n for c in dcols]
    return _reduce_homology(cols, gr + [g - D for g in gr], D)


@dataclass(frozen=True)
class HomologySummary:
    free_grading: Fraction
    torsion: tuple[tuple[Fraction, int], ...]
    torsion_exponent: int


def homology_summary(ic: IotaComplex | GradedComplex, check: bool = True) -> HomologySummary:
    """Free-part grading, torsion classes and the maximal torsion U-order."""
    cx = ic.complex if isinstance(ic, IotaComplex) else ic
    if check and isinstance(ic, IotaComplex):
        _check(ic)
    free, torsion = _rank_one(cx)
    return HomologySummary(free[0], torsion, max((e for _, e in torsion), default=0))


def _rank_one(cx: GradedComplex) -> _Homology:
    """_homology(cx), refused unless its free part has rank 1."""
    hom = _homology(cx)
    if len(hom[0]) != 1:
        raise ValidationError(f"localized homology has rank {len(hom[0])}, expected 1")
    return hom


# ---------------------------------------------------------------------------
# the three correction terms


def d_invariant(ic: IotaComplex | GradedComplex, check: bool = True) -> Fraction:
    """Maximal grading carrying a homology class that survives all U-powers."""
    return homology_summary(ic, check=check).free_grading


def _invariants(ic: IotaComplex, check: bool) -> tuple[Fraction, Fraction, Fraction]:
    """(d, d_lower, d_upper), the last two read off the two free generators
    of the homology of the cone of Q(1+iota), and kept on ic."""
    if check:
        _check(ic)
    if ic._values is None:
        cx = ic.complex
        d = _rank_one(cx)[0][0]
        free, _ = _cone_homology(cx, _id_plus_iota(ic))
        sd, D = cx.scaled(d), cx.D
        lower = [g for g in free if (g - sd) % (2 * D) == 0]
        upper = [g + D for g in free if (g + D - sd) % (2 * D) == 0]
        if len(free) != 2 or len(lower) != 1 or len(upper) != 1:
            found = ", ".join(str(cx.unscaled(g)) for g in free)
            raise InternalCheckError(f"cone of Q(1+iota) has free gradings [{found}], "
                                     "expected one in each class of d mod 2")
        # a value equal to d shares its Fraction: every complex keeps them
        ic._values = (d, *(d if g == sd else cx.unscaled(g) for g in lower + upper))
    return ic._values


def d_lower(ic: IotaComplex, check: bool = True) -> Fraction:
    """Maximal grading of a non-U-torsion cycle a with (id+iota)a a boundary:
    the free generator of H(cone of Q(1+iota)) in d's class mod 2.  Kept
    on ic with d and d_upper, as d_results says."""
    return _invariants(ic, check)[1]


def d_upper(ic: IotaComplex, check: bool = True) -> Fraction:
    """Maximal value over triples (x, y, z) with d y = (id+iota) x,
    d z = U^m x and U^m y + (id+iota) z of non-torsion class, m >= 0;
    the value is gr(x)+1 when x is nonzero and gr(y) when x = 0.  It is 1
    above the free generator of H(cone of Q(1+iota)) outside d's class
    mod 2.  Kept on ic with d and d_lower, as d_results says.
    """
    return _invariants(ic, check)[2]


@dataclass(frozen=True)
class DResults:
    d: Fraction
    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        if not self.lower <= self.d <= self.upper:
            raise InternalCheckError(f"invariant chain violated: {self.lower} <= {self.d} <= {self.upper}")


def d_results(
    ic: IotaComplex,
    check: bool = True,
    m_max: Optional[int] = None,
    window_slack: int = 0,
) -> DResults:
    """All three correction terms from one cone, asserting d_lower <= d <=
    d_upper.  They are kept on ic, so its iota must not be mutated, and a
    later call on ic reads them, after every check when check is set.
    m_max (None asks for the default) and window_slack must be integers
    >= 0, but change no result."""
    if m_max is not None:
        check_int(m_max, "m_max", 0)
    check_int(window_slack, "window_slack", 0)
    return DResults(*_invariants(ic, check))


# ---------------------------------------------------------------------------
# constructions


def _graded(what: str, *ics: IotaComplex) -> None:
    """Refuse an input whose d or iota fails its degree check: no columns stand for that map."""
    for ic in ics:
        for name, detail in (("differential", ic.complex.d_degree), ("iota", ic.i_degree)):
            if detail is not None:
                raise ValidationError(f"{what} needs well-graded maps: the {name} fails its degree check: {detail}")


def _built(names: Sequence[str], grading: dict[str, Fraction], D: int, gr: list[int],
           dcols: list[int], icols: list[int]) -> IotaComplex:
    """The iota-complex on these generators, gradings and coordinates, whose
    columns of d and iota pass their degree checks; d^2 is checked on them."""
    cx = GradedComplex.__new__(GradedComplex)
    cx.generators, cx.grading = tuple(names), grading
    cx._coords(D, gr, None, dcols)
    ic = IotaComplex.__new__(IotaComplex)
    ic.complex, ic.icols, ic.i_degree, ic._iota, ic._values = cx, icols, None, None, None
    return ic


def shift(ic: IotaComplex, r: Fraction) -> IotaComplex:
    """Shift all gradings by the exact rational r: the columns are kept,
    and D and the scaled gradings are taken afresh."""
    _graded("shift", ic)
    cx, r = ic.complex, Fraction(r)
    grading = {g: q + r for g, q in cx.grading.items()}
    return _built(cx.generators, grading, *_scale(grading.values()), cx.dcols, ic.icols)


def dual(ic: IotaComplex) -> IotaComplex:
    """The dual complex Hom(C, F2[U]), the mirror: gradings negated, d and
    iota transposed.  The U-exponents stay the ones the gradings force, so
    they are kept.  Its invariants are (-d, -d_upper, -d_lower) of ic."""
    _graded("dual", ic)
    cx = ic.complex
    return _built(cx.generators, {g: -q for g, q in cx.grading.items()}, cx.D, [-g for g in cx.gr],
                  _transpose(cx.dcols), _transpose(ic.icols))


def tensor(a: IotaComplex, b: IotaComplex, sep: str = "|") -> IotaComplex:
    """Tensor product over F2[U]: gradings add, d is the Leibniz map and
    iota acts diagonally.  The gradings are added as the factors' scaled
    integers, and the product's columns of d and iota are built from the
    factors' columns."""
    _graded("tensor", a, b)
    ca, cb = a.complex, b.complex
    D = lcm(ca.D, cb.D)
    sa, sb, nb = D // ca.D, D // cb.D, len(cb.gr)
    names = [f"{ga}{sep}{gb}" for ga in ca.generators for gb in cb.generators]
    if len(set(names)) != len(names):
        names = [f"t{i}" for i in range(len(names))]
    sums = [x * sa + y * sb for x in ca.gr for y in cb.gr]
    fracs = {g: Fraction(g, D) for g in set(sums)}  # one per grading

    def spread(c: int) -> int:
        # the column c of a, moved to b's first generator: bit p to bit p * nb
        return sum(1 << p * nb for p in _bits(c))

    # entry (x, y) is bit x * nb + y.  d(x|y) = dx|y + x|dy, and iota(x|y) =
    # iota(x)|iota(y) holds a copy of iota(y) in the nb-bit block of each bit
    # of iota(x): the product with spread(iota(x)), as the blocks are disjoint
    dcols = [s << y ^ c << x * nb for x, s in enumerate(map(spread, ca.dcols)) for y, c in enumerate(cb.dcols)]
    icols = [c * s for s in map(spread, a.icols) for c in b.icols]
    k = gcd(D, *sums)  # the coordinates scale by the lcm of the product's denominators
    return _built(names, {nm: fracs[g] for nm, g in zip(names, sums)}, D // k,
                  sums if k == 1 else [g // k for g in sums], dcols, icols)


# ---------------------------------------------------------------------------
# cycle/cocycle oracle


def _enter(pivots: dict[int, tuple[int, int]], span: dict, img: int, x: int) -> bool:
    """Add (img, x) to an echelon basis of (image, x-part) pairs keyed by each
    image's lowest bit; True when it makes an image 0 with x outside span."""
    while img:
        p = pivots.get(img & -img)
        if p is None:
            pivots[img & -img] = img, x
            return False
        img, x = img ^ p[0], x ^ p[1]
    while x:
        p = span.get(x & -x)
        if p is None:
            return True
        x ^= p[0]
    return False


def _tops(gr: Sequence[int], dcols: Sequence[int], id_iota: Sequence[int], D: int) -> tuple[int, int]:
    """Scaled (d, d_lower) of the complex with these columns: the top
    candidate r with a cycle x in V_r that is not torsion, and the top one
    where also (id+iota)x = dy for a y in V_(r+D).  U^N x is a boundary far
    below every generator, where the piece of the other class is whole, just
    when x is in the span of d's columns over that whole class: that is the
    tower test.  Candidates come in descending order, as x enters V_r at
    r = gr(x) or y enters V_(r+D) at r = gr(y) - D, and each class mod 2D
    extends one elimination: of cycles until d, then of witnesses, which
    start there (none lies above d) as one solve of the x, then y, met."""
    step, n = 2 * D, len(gr)
    events = sorted([(g, i) for i, g in enumerate(gr)] + [(g - D, n + j) for j, g in enumerate(gr)], reverse=True)
    spans: dict[int, dict] = {r % step: {} for r, _ in events}
    for g, col in zip(gr, dcols):
        _enter(spans[g % step], {}, col, 0)
    systems: dict[int, dict] = {}
    met = {c: ([], []) for c in spans}
    d = None
    for r, k in events:
        c, span = r % step, spans[(r + D) % step]
        xs, ys = met[c]
        (xs if k < n else ys).append(k % n)
        if d is None:
            if k >= n or not _enter(systems.setdefault(c, {}), span, dcols[k], 1 << k):
                continue
            d, systems = r, {}
        if c in systems:
            cols = [(dcols[k] ^ id_iota[k], 1 << k) if k < n else (dcols[k - n], 0)]
        else:
            systems[c] = {}
            cols = [(dcols[i] ^ id_iota[i], 1 << i) for i in xs] + [(dcols[j], 0) for j in ys]
        # a y adds nothing to the x-part of a combination
        if any(_enter(systems[c], span, img, x) for img, x in cols):
            return d, r
    raise InternalCheckError("cycle oracle found no " + ("non-torsion cycle" if d is None else "d_lower witness"))


def brute_oracle(ic: IotaComplex, truncation: int, check: bool = True) -> DResults:
    """Recompute (d, d_lower, d_upper) from cycles and cocycles, without
    the engine's reductions.

    d_lower is the top grading r of a non-torsion cycle x with (id+iota)x =
    dy (Hendricks-Manolescu, Involutive Heegaard Floer homology, 2017), a
    local map T_r -> C, found by one elimination over F2 per grading class
    (see _tops).  d_upper is the least r with a local map C -> T_r
    (Hendricks-Manolescu-Zemke, 2018): the same systems on the transposed
    columns at negated gradings.  It neither reads nor keeps ic's values.
    ``truncation`` bounds nothing, but must be an int, at least the torsion
    exponent of the homology plus the number of generators.
    """
    if check:
        _check(ic)
    cx = ic.complex
    min_trunc = max((e for _, e in _rank_one(cx)[1]), default=0) + len(cx.gr)
    check_int(truncation, "truncation", min_trunc)
    id_iota = _id_plus_iota(ic)
    d, lower = _tops(cx.gr, cx.dcols, id_iota, cx.D)
    co_d, co_lower = _tops([-g for g in cx.gr], _transpose(cx.dcols), _transpose(id_iota), cx.D)
    if co_d != -d:
        raise InternalCheckError(f"cycle oracle: d of the cocycle system is {-co_d}, of the cycle system {d}")
    return DResults(cx.unscaled(d), cx.unscaled(lower), cx.unscaled(-co_lower))


# ---------------------------------------------------------------------------
# serialization


def complex_to_dict(ic: IotaComplex) -> dict:
    cx = ic.complex

    def map_out(mp: Mapping[str, Element]) -> dict:
        out = {}
        order = {g: i for i, g in enumerate(cx.generators)}
        for g in cx.generators:
            val = mp.get(g)
            if val:
                out[g] = [
                    {"gen": h, "upow": e} for h, e in sorted(val, key=lambda t: (order[t[0]], t[1]))
                ]
        return out

    return {
        "generators": [
            {"name": g, "grading": str(cx.grading[g])} for g in cx.generators
        ],
        "differential": map_out(cx.diff),
        "iota": map_out(ic.iota),
    }


def complex_from_dict(data: Mapping) -> IotaComplex:
    if not isinstance(data, Mapping):
        raise ValidationError("complex file must be a JSON object")
    gens_raw = data.get("generators")
    if not isinstance(gens_raw, list) or not gens_raw:
        raise ValidationError("complex file needs a non-empty 'generators' list")
    if len(gens_raw) > MAX_GENERATORS:
        raise ValidationError(f"{len(gens_raw)} generators exceed the complex-file limit of {MAX_GENERATORS}")
    gens = []
    for entry in gens_raw:
        try:
            name = entry["name"]
            grading = _read_grading(name, entry["grading"])
        except (KeyError, TypeError, ValidationError) as exc:
            raise ValidationError(f"bad generator entry {entry!r}") from exc
        if not isinstance(name, str):
            raise ValidationError(f"bad generator entry {entry!r}")
        gens.append((name, grading))

    def map_in(key: str) -> dict[str, list[Term]]:
        raw = data.get(key, {})
        if not isinstance(raw, Mapping):
            raise ValidationError(f"'{key}' must be an object")
        out: dict[str, list[Term]] = {}
        for src, terms in raw.items():
            if not isinstance(terms, list):
                raise ValidationError(f"{key}[{src!r}] must be a list of terms")
            parsed = []
            for t in terms:
                try:
                    gen = t["gen"]
                    upow = t["upow"]
                except (KeyError, TypeError) as exc:
                    raise ValidationError(f"bad term {t!r} in {key}[{src!r}]") from exc
                if not isinstance(gen, str):
                    raise ValidationError(f"bad generator {gen!r} in {key}[{src!r}]")
                if not isinstance(upow, int) or isinstance(upow, bool) or upow < 0:
                    raise ValidationError(f"bad U-exponent {upow!r} in {key}[{src!r}]")
                parsed.append((gen, upow))
            out[src] = parsed
        return out

    cx = GradedComplex(gens, map_in("differential"))
    return IotaComplex(cx, map_in("iota"))


def load_complex(path: str) -> IotaComplex:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, a UnicodeDecodeError or an over-long integer
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    return complex_from_dict(data)


def dump_complex(ic: IotaComplex, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_dict(ic), fh, indent=2, sort_keys=False)
        fh.write("\n")
