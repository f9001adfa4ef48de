"""Chain complexes over F2[U] with a homotopy involution, and their
correction terms d, d_lower and d_upper.

A complex is finitely generated and free over F2[U], graded by exact
rationals; U drops the grading by 2 and the differential by 1.  Module
elements are frozensets of (generator, U-exponent) terms, so addition is
symmetric difference.  Because every map in sight is homogeneous, a map is
determined by a GF(2) bit matrix whose U-exponents are forced by the
gradings; all heavy lifting reduces to bit-packed linear algebra over the
finite-dimensional graded pieces.

Inside the engine gradings are integers: each public call scales the
complex's gradings by D, the lcm of their denominators, so d has degree -D
and U degree -2D, and only generators in one class mod 2D meet in a graded
piece.  Fractions are made only for the values returned.  The scaled view
and the pieces built on it live in a piece context that belongs to one
public call and is dropped when it returns; the public calls it makes on
the same complex (d_results -> validate, d_lower, d_upper) share it, so no
piece is built twice in one call.

Homology comes from one valuation-greedy reduction of d: each pivot has the
least U-exponent left, which keeps every entry a monomial and each column
operation a plain XOR.  Because d^2 = 0 each pivot pair x_j -> U^e x_i splits
off as a direct summand, a torsion class F2[U]/U^e when e > 0, and the
generators left unpaired carry the free part.  It runs once per complex and
is kept on it, so a GradedComplex must not be mutated after construction.

d_lower and d_upper search candidate gradings from the top downward,
deciding existence of a witness at each grading with one nullspace (d_upper
at the one U-power m_max: U times a non-torsion class is non-torsion, so
witnesses persist as m grows).  Every witness is a non-torsion homogeneous
cycle, which lives only in a grading d - 2kD, so they scan only d's class
mod 2D.  Non-torsion is read off one free cocycle: H(C)/torsion = F2[U], so
with U = 1 a cocycle phi, a set S of generators in d's class, is nonzero on
a cycle exactly when the cycle is non-torsion, and on a piece the test is
the parity of the cycle's bits on S.  S is found once per complex and kept
on it next to the homology.  No non-torsion cycle lies above d, so d_lower
scans from d down to the window's floor.  d_upper's witnesses with x = 0
are exactly the non-torsion cycles at v (phi o (id+iota) vanishes on
cycles, as iota is the identity on localized homology), which exist just
when v <= d, so d_upper scans only v > d and is d when none has a witness.
brute_oracle re-derives all three invariants by exhaustive enumeration over
a U-truncated model, with its own non-torsion test, and is used to
cross-check.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .algebra import BitMatrix, Echelon, format_rational, parse_rational
from .errors import InternalCheckError, ValidationError

__all__ = [
    "Term",
    "Element",
    "ZERO",
    "element",
    "apply_map",
    "elt_shift",
    "GradedComplex",
    "IotaComplex",
    "ValidationCheck",
    "ValidationReport",
    "validate",
    "require_valid",
    "HomologySummary",
    "homology_summary",
    "d_invariant",
    "d_lower",
    "d_upper",
    "DResults",
    "d_results",
    "tensor",
    "shift",
    "brute_oracle",
    "complex_to_dict",
    "complex_from_dict",
    "load_complex",
    "dump_complex",
]

Term = tuple  # (generator name, U exponent)
Element = frozenset
ZERO: Element = frozenset()


def element(terms: Iterable[Term]) -> Element:
    """Build an element, cancelling repeated terms mod 2."""
    acc: set[Term] = set()
    for t in terms:
        acc ^= {tuple(t)}
    return frozenset(acc)


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
        val = element(terms)
        for g, e in val:
            if g not in known:
                raise ValidationError(f"{what}[{src!r}] hits unknown generator {g!r}")
            if not isinstance(e, int) or e < 0:
                raise ValidationError(f"{what}[{src!r}] has bad U-exponent {e!r}")
        if val:
            out[src] = val
    return out


class GradedComplex:
    """Free F2[U]-complex: ordered generators, exact rational gradings,
    differential stored as generator -> element (missing means zero)."""

    __slots__ = ("generators", "grading", "diff", "_hom", "_phi")

    def __init__(self, generators: Sequence[tuple[str, Fraction]], diff: Mapping[str, Iterable[Term]]):
        names = [str(n) for n, _ in generators]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate generator names")
        if not names:
            raise ValidationError("complex needs at least one generator")
        self.generators: tuple[str, ...] = tuple(names)
        self.grading: dict[str, Fraction] = {str(n): Fraction(g) for n, g in generators}
        self.diff: dict[str, Element] = _clean_map(self.generators, diff, "differential")
        self._hom = None  # set once by _homology
        self._phi = None  # set once by _free_cocycle

    def __repr__(self) -> str:
        return f"GradedComplex({len(self.generators)} generators)"


class IotaComplex:
    """A graded complex together with a candidate homotopy involution."""

    __slots__ = ("complex", "iota")

    def __init__(self, complex: GradedComplex, iota: Mapping[str, Iterable[Term]]):
        self.complex = complex
        self.iota: dict[str, Element] = _clean_map(complex.generators, iota, "iota")

    def __repr__(self) -> str:
        return f"IotaComplex({len(self.complex.generators)} generators)"


# ---------------------------------------------------------------------------
# scaled-integer gradings and per-call piece contexts


class _PieceCtx:
    """One complex on its scaled-integer gradings, plus the graded pieces and
    piece-level masks built so far.  It lives for one public call."""

    def __init__(self, cx: GradedComplex):
        self.cx = cx
        scale = 1
        for q in cx.grading.values():
            scale = lcm(scale, q.denominator)
        self.D = scale
        self.gr: dict[str, int] = {
            g: q.numerator * (scale // q.denominator) for g, q in cx.grading.items()
        }
        # generators by grading class mod 2D, in generator order: only these
        # can appear in a piece of a grading in that class
        self.classes: dict[int, list[tuple[str, int]]] = {}
        for g in cx.generators:
            self.classes.setdefault(self.gr[g] % (2 * scale), []).append((g, self.gr[g]))
        self._pieces: dict[int, _Piece] = {}
        self._dcols: dict[int, list[int]] = {}
        self._w: dict[int, list[int]] = {}

    def scaled(self, q: Fraction) -> int:
        return q.numerator * (self.D // q.denominator)

    def unscaled(self, g: int) -> Fraction:
        return Fraction(g, self.D)

    def piece(self, grading: int) -> _Piece:
        p = self._pieces.get(grading)
        if p is None:
            p = _piece_for(self, grading)
            self._pieces[grading] = p
        return p

    def map_cols(self, mp: Mapping[str, Element], src: _Piece, dst: _Piece) -> list[int]:
        index = dst.index
        cols = []
        for g, k in src.basis:
            v = 0
            for h, e in mp.get(g, ZERO):
                i = index.get((h, e + k))
                if i is None:
                    raise InternalCheckError(f"image of {(g, k)} leaves the piece of grading {dst.grading}")
                v |= 1 << i
            cols.append(v)
        return cols

    def diff_cols(self, src: _Piece) -> tuple[list[int], _Piece]:
        dst = self.piece(src.grading - self.D)
        cols = self._dcols.get(src.grading)
        if cols is None:
            cols = self._dcols[src.grading] = self.map_cols(self.cx.diff, src, dst)
        return cols, dst

    def upow_cols(self, src: _Piece, m: int) -> tuple[list[int], _Piece]:
        dst = self.piece(src.grading - 2 * m * self.D)
        index = dst.index
        cols = []
        for g, k in src.basis:
            i = index.get((g, k + m))
            cols.append(0 if i is None else 1 << i)
        return cols, dst

    def boundary_masks(self, grading: int) -> list[int]:
        """Spanning masks of d(V_{grading+1}) inside V_grading."""
        cols, dst = self.diff_cols(self.piece(grading + self.D))
        if dst.grading != grading:
            raise InternalCheckError("boundary piece has the wrong grading")
        return [c for c in cols if c]

    def torsionish_masks(self, grading: int, n_exp: int) -> list[int]:
        """Spanning masks of {w : U^N w in im d} inside V_grading (the brute
        oracle's non-torsion test, independent of the free cocycle)."""
        cached = self._w.get(grading)
        if cached is not None:
            return cached
        piece = self.piece(grading)
        ucols, udst = self.upow_cols(piece, n_exp)
        null = BitMatrix.from_columns(ucols + self.boundary_masks(udst.grading), udst.dim).nullspace()
        mask_a = (1 << piece.dim) - 1
        out = [v & mask_a for v in null if v & mask_a]
        self._w[grading] = out
        return out

    def phi_mask(self, piece: _Piece) -> int:
        """Bits of the piece's basis on the free cocycle's support S: a cycle
        w in a piece of d's class is non-torsion iff |w & phi_mask| is odd."""
        support = _free_cocycle(self)
        mask = 0
        for i, (g, _) in enumerate(piece.basis):
            if g in support:
                mask |= 1 << i
        return mask

    def candidate_gradings(self, floor: int) -> list[int]:
        """Every grading G - 2kD >= floor of a generator, from the top down."""
        vals: set[int] = set()
        for g in self.gr.values():
            vals.update(range(g, floor - 1, -2 * self.D))
        return sorted(vals, reverse=True)


# The piece context of the public call in progress; a nested public call on
# the same complex (d_results -> validate, d_lower, d_upper) reuses it.
_CALL_CTX: ContextVar[Optional[_PieceCtx]] = ContextVar("cablecalc_iota_call", default=None)


@contextmanager
def _call_ctx(cx: GradedComplex) -> Iterator[_PieceCtx]:
    ctx = _CALL_CTX.get()
    if ctx is not None and ctx.cx is cx:
        yield ctx
        return
    ctx = _PieceCtx(cx)
    token = _CALL_CTX.set(ctx)
    try:
        yield ctx
    finally:
        _CALL_CTX.reset(token)


class _Piece:
    """GF(2) vector space of homogeneous elements at one scaled grading."""

    __slots__ = ("grading", "basis", "index")

    def __init__(self, grading: int, basis: list[Term]):
        self.grading = grading
        self.basis = basis
        self.index = {t: i for i, t in enumerate(basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)


def _piece_for(ctx: _PieceCtx, grading: int, truncation: Optional[int] = None) -> _Piece:
    step = 2 * ctx.D
    basis: list[Term] = []
    for g, gg in ctx.classes.get(grading % step, ()):
        if gg >= grading:
            k = (gg - grading) // step
            if truncation is None or k < truncation:
                basis.append((g, k))
    return _Piece(grading, basis)


def _id_plus_iota(ic: IotaComplex) -> dict[str, Element]:
    return {g: ic.iota.get(g, ZERO) ^ {(g, 0)} for g in ic.complex.generators}


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


def _check_degree(ctx: _PieceCtx, mp: Mapping[str, Element], degree: int) -> Optional[str]:
    gr, step = ctx.gr, 2 * ctx.D
    for src, val in mp.items():
        for g, e in sorted(val):
            if gr[src] + degree * ctx.D != gr[g] - step * e:
                return f"term U^{e}*{g} in image of {src} breaks degree {degree}"
    return None


def _check_d_squared(cx: GradedComplex) -> Optional[str]:
    for g in cx.generators:
        img = apply_map(cx.diff, cx.diff.get(g, ZERO))
        if img:
            return f"d(d({g})) != 0"
    return None


def _iota_squared_homotopy(ic: IotaComplex, ctx: _PieceCtx) -> Optional[dict[str, Element]]:
    """A degree +1 map H with dH + Hd = iota^2 + id, or None.

    Unknowns are the admissible bit-matrix entries of H: U^k y in H(x) needs
    gr(y) = gr(x) + 1 + 2k, so y comes from one grading class mod 2D.  The
    equation is solved coordinate-wise over the graded pieces.
    """
    cx = ic.complex
    gens = cx.generators
    step = 2 * ctx.D
    unknowns: list[tuple[str, str, int]] = []  # (src, dst, exponent)
    targets: dict[str, list[tuple[str, int, int]]] = {}  # src -> [(dst, exponent, unknown)]
    for x in gens:
        lo = ctx.gr[x] + ctx.D
        targets[x] = row = []
        for y, gy in ctx.classes.get(lo % step, ()):
            if gy >= lo:
                k = (gy - lo) // step
                row.append((y, k, len(unknowns)))
                unknowns.append((x, y, k))
    rows: list[int] = []
    rhs = 0
    coord_of: dict[tuple[str, str, int], int] = {}  # (eq gen, term gen, exp) -> row

    def row_for(x: str, g: str, e: int) -> int:
        key = (x, g, e)
        r = coord_of.get(key)
        if r is None:
            r = coord_of[key] = len(rows)
            rows.append(0)
        return r

    for x in gens:
        # dH(x): unknown (x, y) contributes U^k * d(y)
        for y, k, j in targets[x]:
            for g, e in cx.diff.get(y, ZERO):
                rows[row_for(x, g, e + k)] ^= 1 << j
        # Hd(x): term U^c*w of d(x) contributes U^c * H(w)
        for w, c in cx.diff.get(x, ZERO):
            for y, k, j in targets[w]:
                rows[row_for(x, y, c + k)] ^= 1 << j
        # right side: iota(iota(x)) + x
        for g, e in apply_map(ic.iota, ic.iota.get(x, ZERO)) ^ {(x, 0)}:
            rhs |= 1 << row_for(x, g, e)
    sol = BitMatrix(rows, len(unknowns)).solve(rhs)
    if sol is None:
        return None
    h: dict[str, Element] = {}
    for j, (x, y, k) in enumerate(unknowns):
        if sol >> j & 1:
            h[x] = h.get(x, ZERO) ^ {(y, k)}
    return h


def validate(ic: IotaComplex) -> ValidationReport:
    """Check all defining properties; later checks are skipped once one fails."""
    cx = ic.complex
    checks: list[ValidationCheck] = []

    def run(name, fn) -> bool:
        detail = fn()
        checks.append(ValidationCheck(name, detail is None, detail or ""))
        return detail is None

    with _call_ctx(cx) as ctx:
        structural = True
        structural &= run("differential-degree", lambda: _check_degree(ctx, cx.diff, -1))
        structural &= run("differential-squared", lambda: _check_d_squared(cx))
        structural &= run("iota-degree", lambda: _check_degree(ctx, ic.iota, 0))
        if not structural:
            skipped = ("iota-chain-map", "iota-squared-homotopic-identity", "localized-rank-one")
            for name in skipped:
                checks.append(ValidationCheck(name, False, "not checked: structural failure"))
            return ValidationReport(tuple(checks))

        def chain() -> Optional[str]:
            for g in cx.generators:
                lhs = apply_map(cx.diff, ic.iota.get(g, ZERO))
                rhs = apply_map(ic.iota, cx.diff.get(g, ZERO))
                if lhs != rhs:
                    return f"iota fails to commute with d on {g}"
            return None

        run("iota-chain-map", chain)
        run(
            "iota-squared-homotopic-identity",
            lambda: None if _iota_squared_homotopy(ic, ctx) is not None else "no homotopy from iota^2 to id",
        )

        def rank_one() -> Optional[str]:
            free, _ = _homology(cx)
            if len(free) != 1:
                return f"localized homology has rank {len(free)}, expected 1"
            return None

        run("localized-rank-one", rank_one)
    return ValidationReport(tuple(checks))


def require_valid(ic: IotaComplex) -> None:
    report = validate(ic)
    if not report.ok:
        bad = report.failures()[0]
        raise ValidationError(f"invalid iota-complex: {bad.name}: {bad.detail}")


# ---------------------------------------------------------------------------
# homology over F2[U] (one valuation-greedy reduction of d)


def _homology(cx: GradedComplex) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, int], ...]]:
    """(free part gradings, torsion (grading, U-order) pairs) of H_*(C),
    computed on first use and kept on the complex."""
    if cx._hom is None:
        cx._hom = _reduce_homology(cx)
    return cx._hom


def _reduce_homology(cx: GradedComplex) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, int], ...]]:
    """Split C into pairs x_j -> U^e x_i plus free generators.

    d is held as bit columns over the generators; entry (i, j) stands for
    U^e with e = (gr_i - gr_j + D) / 2D.  Each step takes the live entry of
    least e, clears row i from the other live columns (a change of source
    basis x_k -> x_k + U^c x_j) and retires i and j.  Clearing column j by
    row operations (x_i -> x_i + U^c x_r) and the same changes on the other
    side of the map touch only row j and column i, so the bits are not
    tracked: in the new basis d x_j = U^e x_i, and d^2 = 0 forces d x_i = 0
    and leaves x_j out of every other image, so the pair splits off as a
    direct summand.  It adds F2[U]/U^e at gr_i when e > 0; the generators
    still live at the end carry the free part.
    """
    with _call_ctx(cx) as ctx:
        for detail in (_check_degree(ctx, cx.diff, -1), _check_d_squared(cx)):
            if detail is not None:
                raise InternalCheckError(f"homology of a non-complex: {detail}")
        gens = cx.generators
        n, step = len(gens), 2 * ctx.D
        gr = [ctx.gr[g] for g in gens]
        idx = {g: i for i, g in enumerate(gens)}
        cols = [0] * n
        for j, g in enumerate(gens):
            for h, _ in cx.diff.get(g, ZERO):
                cols[j] |= 1 << idx[h]
        live = (1 << n) - 1
        torsion = []
        while True:
            best = None  # least (2D * exponent, i, j) over live entries
            for j in range(n):
                if not live >> j & 1:
                    continue
                v = cols[j] & live
                while v:
                    i = (v & -v).bit_length() - 1
                    v &= v - 1
                    key = (gr[i] - gr[j] + ctx.D, i, j)
                    if best is None or key < best:
                        best = key
            if best is None:
                break
            e2, pi, pj = best
            if e2 % step or e2 < 0:
                raise InternalCheckError("inadmissible pivot exponent")
            live &= ~(1 << pi | 1 << pj)
            for j in range(n):
                if live >> j & 1 and cols[j] >> pi & 1:
                    cols[j] ^= cols[pj]
            if e2:
                torsion.append((gr[pi], e2 // step))
        free = tuple(ctx.unscaled(gr[j]) for j in range(n) if live >> j & 1)
        torsion.sort(key=lambda t: (-t[0], -t[1]))
        return free, tuple((ctx.unscaled(s), e) for s, e in torsion)


def _free_cocycle(ctx: _PieceCtx) -> frozenset[str]:
    """Support S of a cocycle phi: C -> F2 that is nonzero on the free class,
    computed on first use and kept on the complex.

    With U = 1 a complex of rank-one localized homology has homology F2, in
    the class A of d mod 2D, so phi is a functional on the generators of A
    that kills d of the class B = A + D (a cocycle) and is not psi o d for
    a functional psi on B (a coboundary).  A homogeneous cycle is torsion
    iff its U = 1 image is a boundary, so phi tells the two kinds apart.
    """
    cx = ctx.cx
    if cx._phi is None:
        free, _ = _homology(cx)
        step = 2 * ctx.D
        d = ctx.scaled(free[0])
        cls_a = [g for g, _ in ctx.classes[d % step]]
        col = {g: i for i, g in enumerate(cls_a)}
        cocycle_eqs = []  # d(b) with U = 1 as a mask over A, one row per b in B
        for b, _ in ctx.classes.get((d + ctx.D) % step, ()):
            img = 0
            for a, _ in cx.diff.get(b, ZERO):
                img ^= 1 << col[a]
            cocycle_eqs.append(img)
        coboundaries: dict[str, int] = {}  # b -> the a whose d(a) has b, with U = 1
        for a in cls_a:
            for b, _ in cx.diff.get(a, ZERO):
                coboundaries[b] = coboundaries.get(b, 0) ^ 1 << col[a]
        exact = Echelon(coboundaries.values())
        for phi in BitMatrix(cocycle_eqs, len(cls_a)).nullspace():
            if not exact.contains(phi):
                cx._phi = frozenset(g for g in cls_a if phi >> col[g] & 1)
                break
        else:
            raise InternalCheckError("localized homology has no free cocycle")
    return cx._phi


@dataclass(frozen=True)
class HomologySummary:
    free_grading: Fraction
    torsion: tuple[tuple[Fraction, int], ...]
    torsion_exponent: int


def homology_summary(ic: IotaComplex | GradedComplex, check: bool = True) -> HomologySummary:
    """Free-part grading, torsion classes and the maximal torsion U-order."""
    cx = ic.complex if isinstance(ic, IotaComplex) else ic
    if check and isinstance(ic, IotaComplex):
        require_valid(ic)
    free, torsion = _homology(cx)
    if len(free) != 1:
        raise ValidationError(f"localized homology has rank {len(free)}, expected 1")
    n = max((e for _, e in torsion), default=0)
    return HomologySummary(free[0], torsion, n)


# ---------------------------------------------------------------------------
# the three correction terms


def _search_floor(ctx: _PieceCtx, summary: HomologySummary, window_slack: int) -> int:
    """Scaled bottom of the search window, d - 2N - 2 - window_slack."""
    return ctx.scaled(summary.free_grading) - ctx.D * (2 * summary.torsion_exponent + 2 + window_slack)


def _check_search(m_max: Optional[int], window_slack: int) -> None:
    """Both must be ints >= 0 (m_max None asks for the default)."""
    for name, value in (("m_max", 0 if m_max is None else m_max), ("window_slack", window_slack)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValidationError(f"{name} must be an integer >= 0, got {value!r}")


def d_invariant(ic: IotaComplex | GradedComplex, check: bool = True) -> Fraction:
    """Maximal grading carrying a homology class that survives all U-powers."""
    return homology_summary(ic, check=check).free_grading


def d_lower(ic: IotaComplex, check: bool = True, window_slack: int = 0) -> Fraction:
    """Maximal grading of a non-U-torsion cycle a with (id+iota)a a boundary."""
    _check_search(None, window_slack)
    with _call_ctx(ic.complex) as ctx:
        if check:
            require_valid(ic)
        summary = homology_summary(ic, check=False)
        id_iota = _id_plus_iota(ic)
        d, step = ctx.scaled(summary.free_grading), 2 * ctx.D
        for g in range(d, _search_floor(ctx, summary, window_slack) - 1, -step):
            if _lower_witness_at(ctx, id_iota, g):
                return ctx.unscaled(g)
    raise InternalCheckError("no d_lower witness found within the search window")


def _lower_witness_at(ctx: _PieceCtx, id_iota: Mapping[str, Element], g: int) -> bool:
    piece = ctx.piece(g)
    if not piece.dim:
        return False
    dcols, ddst = ctx.diff_cols(piece)
    icols = ctx.map_cols(id_iota, piece, piece)
    # unknowns (a, b): d a = 0 and (id+iota) a = d b; a witness has phi(a) = 1
    stacked = [dcols[j] | (icols[j] << ddst.dim) for j in range(piece.dim)]
    stacked += [b << ddst.dim for b in ctx.boundary_masks(g)]
    null = BitMatrix.from_columns(stacked, ddst.dim + piece.dim).nullspace()
    phi = ctx.phi_mask(piece)
    return any((s & phi).bit_count() & 1 for s in null)


def d_upper(
    ic: IotaComplex,
    check: bool = True,
    m_max: Optional[int] = None,
    window_slack: int = 0,
) -> Fraction:
    """Maximal value over triples (x, y, z) with d y = (id+iota) x,
    d z = U^m x and U^m y + (id+iota) z of non-torsion class, m <= m_max;
    the value is gr(x)+1 when x is nonzero and gr(y) when x = 0.

    The triples with x = 0 reach exactly the gradings v <= d of d's class
    (y a non-torsion cycle; (id+iota) z is torsion for a cycle z), so only
    values v > d are searched, each with x nonzero, and the answer is d
    when none of them has a witness.  Only m = m_max is tried: a witness
    (x, y, z) at m gives (x, y, U z) at m + 1, since U times a non-torsion
    class is non-torsion.  The default m_max is N plus the number of
    generators.  window_slack, which widens d_lower's window, is checked
    but cannot move this search, which ends at d.
    """
    _check_search(m_max, window_slack)
    with _call_ctx(ic.complex) as ctx:
        if check:
            require_valid(ic)
        summary = homology_summary(ic, check=False)
        if m_max is None:
            m_max = summary.torsion_exponent + len(ic.complex.generators)
        id_iota = _id_plus_iota(ic)
        d, step = ctx.scaled(summary.free_grading), 2 * ctx.D
        top = max(gg + (d - gg) % step for gg in ctx.gr.values() if (d - gg) % ctx.D == 0)
        for v in range(top, d, -step):
            if _upper_witness_at(ctx, id_iota, v, m_max):
                return ctx.unscaled(v)
        return summary.free_grading


def _upper_witness_at(ctx: _PieceCtx, id_iota: Mapping[str, Element], v: int, m: int) -> bool:
    """A triple (x, y, z) at U-power m with value v > d: x must be nonzero,
    since the triples with x = 0 never reach above d."""
    px = ctx.piece(v - ctx.D)
    if not px.dim:
        return False
    py = ctx.piece(v)
    pz = ctx.piece(v - 2 * m * ctx.D)
    ix_cols = ctx.map_cols(id_iota, px, px)  # (id+iota) x in V_{v-1}
    dy_cols, dydst = ctx.diff_cols(py)  # d y in V_{v-1}
    ux_cols, uxdst = ctx.upow_cols(px, m)  # U^m x in V_{v-1-2m}
    dz_cols, dzdst = ctx.diff_cols(pz)  # d z in V_{v-1-2m}
    if dydst.grading != px.grading or dzdst.grading != uxdst.grading:
        raise InternalCheckError("d_upper equation pieces have mismatched gradings")
    r1, r2 = px.dim, uxdst.dim
    stacked = [ix_cols[j] | (ux_cols[j] << r1) for j in range(px.dim)]
    stacked += dy_cols
    stacked += [c << r1 for c in dz_cols]
    null = BitMatrix.from_columns(stacked, r1 + r2).nullspace()
    mask_x = (1 << px.dim) - 1
    if not any(s & mask_x for s in null):
        return False
    # phi(U^m y + (id+iota) z) as a functional on the unknowns (x, y, z):
    # phi reads generators only, so phi(U^m y) = phi(y)
    phi_z = ctx.phi_mask(pz)
    row = ctx.phi_mask(py) << px.dim
    for j, c in enumerate(ctx.map_cols(id_iota, pz, pz)):
        row |= ((c & phi_z).bit_count() & 1) << (px.dim + py.dim + j)
    return any((s & row).bit_count() & 1 for s in null)


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
    """All three correction terms, asserting d_lower <= d <= d_upper.  The
    calls share one piece context, so no graded piece is built twice."""
    _check_search(m_max, window_slack)
    with _call_ctx(ic.complex):
        if check:
            require_valid(ic)
        return DResults(
            d_invariant(ic, check=False),
            d_lower(ic, check=False, window_slack=window_slack),
            d_upper(ic, check=False, m_max=m_max, window_slack=window_slack),
        )


# ---------------------------------------------------------------------------
# constructions


def shift(ic: IotaComplex, r: Fraction) -> IotaComplex:
    """Shift all gradings by the exact rational r."""
    cx = ic.complex
    out = GradedComplex([(g, cx.grading[g] + Fraction(r)) for g in cx.generators], cx.diff)
    return IotaComplex(out, ic.iota)


def tensor(a: IotaComplex, b: IotaComplex, sep: str = "|") -> IotaComplex:
    """Tensor product over F2[U]: gradings add, d is the Leibniz map and
    iota acts diagonally."""
    ca, cb = a.complex, b.complex
    names: dict[tuple[str, str], str] = {}
    for ga in ca.generators:
        for gb in cb.generators:
            names[(ga, gb)] = f"{ga}{sep}{gb}"
    if len(set(names.values())) != len(names):
        names = {pair: f"t{i}" for i, pair in enumerate(names)}
    gens = [
        (names[(ga, gb)], ca.grading[ga] + cb.grading[gb])
        for ga in ca.generators
        for gb in cb.generators
    ]

    def pair_elt(ea: Element, eb: Element) -> Element:
        acc: set[Term] = set()
        for ga, ka in ea:
            for gb, kb in eb:
                acc ^= {(names[(ga, gb)], ka + kb)}
        return frozenset(acc)

    diff: dict[str, Element] = {}
    iota: dict[str, Element] = {}
    for ga in ca.generators:
        for gb in cb.generators:
            nm = names[(ga, gb)]
            d = pair_elt(ca.diff.get(ga, ZERO), frozenset(((gb, 0),))) ^ pair_elt(
                frozenset(((ga, 0),)), cb.diff.get(gb, ZERO)
            )
            if d:
                diff[nm] = d
            it = pair_elt(a.iota.get(ga, ZERO), b.iota.get(gb, ZERO))
            if it:
                iota[nm] = it
    return IotaComplex(GradedComplex(gens, diff), iota)


# ---------------------------------------------------------------------------
# brute-force oracle over the U-truncated model


def _mask_images(cols: Sequence[int]) -> list[int]:
    """Images of every subset mask, given per-basis-vector image columns."""
    out = [0] * (1 << len(cols))
    for mask in range(1, len(out)):
        low = mask & -mask
        out[mask] = out[mask ^ low] ^ cols[low.bit_length() - 1]
    return out


class _BruteCtx:
    """Mask-enumeration helpers: sources are U-truncated pieces, images are
    held in full (untruncated) piece coordinates so nothing is lost."""

    def __init__(self, ic: IotaComplex, full: _PieceCtx, truncation: int):
        self.full = full
        self.truncation = truncation
        self.id_iota = _id_plus_iota(ic)
        self._pieces: dict[int, _Piece] = {}
        self._cache: dict[tuple, list[int]] = {}

    def piece(self, grading: int) -> _Piece:
        p = self._pieces.get(grading)
        if p is None:
            p = self._pieces[grading] = _piece_for(self.full, grading, self.truncation)
        return p

    def _images(self, kind: str, grading: int, m: int, col_fn) -> list[int]:
        key = (kind, grading, m)
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = _mask_images(col_fn(self.piece(grading)))
        return got

    def diff_images(self, grading: int) -> list[int]:
        full = self.full
        dst = full.piece(grading - full.D)
        return self._images("d", grading, 0, lambda src: full.map_cols(full.cx.diff, src, dst))

    def id_iota_images(self, grading: int) -> list[int]:
        dst = self.full.piece(grading)
        return self._images("i", grading, 0, lambda src: self.full.map_cols(self.id_iota, src, dst))

    def upow_images(self, grading: int, m: int) -> list[int]:
        """U^m of truncated-piece masks in full-piece coordinates (m = 0
        re-expresses them)."""
        return self._images("u", grading, m, lambda src: self.full.upow_cols(src, m)[0])


def brute_oracle(ic: IotaComplex, truncation: int, check: bool = True) -> DResults:
    """Recompute (d, d_lower, d_upper) by exhaustive enumeration.

    Candidate elements are drawn from the graded pieces with U-exponents
    below ``truncation``; maps are evaluated exactly (images keep full-piece
    coordinates) and non-torsionness is tested against the full complex, so
    every witness found is genuine.  truncation must be at least
    torsion_exponent + number of generators, which makes the truncated
    search exhaustive as well.
    """
    with _call_ctx(ic.complex) as full:
        if check:
            require_valid(ic)
        summary = homology_summary(ic, check=False)
        n_exp = summary.torsion_exponent
        min_trunc = n_exp + len(ic.complex.generators)
        if truncation < min_trunc:
            raise ValidationError(f"truncation {truncation} too small; need at least {min_trunc}")
        br = _BruteCtx(ic, full, truncation)
        floor = _search_floor(full, summary, 0)
        gradings = full.candidate_gradings(floor)
        torsionish = {g: Echelon(full.torsionish_masks(g, n_exp)) for g in gradings}

        d_val = None
        for g in gradings:
            dim = br.piece(g).dim
            dimg, femb, ws = br.diff_images(g), br.upow_images(g, 0), torsionish[g]
            if any(
                dimg[mask] == 0 and not ws.contains(femb[mask]) for mask in range(1, 1 << dim)
            ):
                d_val = g
                break
        if d_val is None:
            raise InternalCheckError("brute search found no non-torsion cycle")

        lower_val = None
        for g in gradings:
            dim = br.piece(g).dim
            dimg, femb, ws = br.diff_images(g), br.upow_images(g, 0), torsionish[g]
            iimg = br.id_iota_images(g)
            bnd = Echelon(full.boundary_masks(g))
            found = False
            for mask in range(1, 1 << dim):
                if dimg[mask]:
                    continue
                if not bnd.contains(iimg[mask]):
                    continue
                if not ws.contains(femb[mask]):
                    found = True
                    break
            if found:
                lower_val = g
                break
        if lower_val is None:
            raise InternalCheckError("brute search found no d_lower witness")

        upper_val = None
        values = sorted({w for g in gradings for w in (g, g + full.D)}, reverse=True)
        for v in values:
            if _brute_upper_at(br, v, truncation, n_exp):
                upper_val = v
                break
        if upper_val is None:
            raise InternalCheckError("brute search found no d_upper witness")
        return DResults(full.unscaled(d_val), full.unscaled(lower_val), full.unscaled(upper_val))


def _brute_upper_at(br: _BruteCtx, v: int, truncation: int, n_exp: int) -> bool:
    step = 2 * br.full.D
    dx = br.piece(v - br.full.D).dim
    dy = br.piece(v).dim
    if not (dx or dy):
        return False
    ximg_i = br.id_iota_images(v - br.full.D)
    yimg_d = br.diff_images(v)
    y_by_image: dict[int, list[int]] = {}
    for ymask in range(1 << dy):
        y_by_image.setdefault(yimg_d[ymask], []).append(ymask)
    for m in range(truncation + 1):
        dz = br.piece(v - m * step).dim
        ws = Echelon(br.full.torsionish_masks(v - m * step, n_exp))
        ximg_u = br.upow_images(v - br.full.D, m)
        yimg_u = br.upow_images(v, m)
        zimg_d = br.diff_images(v - m * step)
        zimg_i = br.id_iota_images(v - m * step)
        z_by_image: dict[int, list[int]] = {}
        for zmask in range(1 << dz):
            z_by_image.setdefault(zimg_d[zmask], []).append(zmask)
        for xmask in range(1 << dx):
            y_hits = y_by_image.get(ximg_i[xmask])
            if not y_hits:
                continue
            z_hits = z_by_image.get(ximg_u[xmask])
            if not z_hits:
                continue
            for ymask in y_hits:
                if xmask == 0 and ymask == 0:
                    continue
                uy = yimg_u[ymask]
                for zmask in z_hits:
                    w = uy ^ zimg_i[zmask]
                    if w and not ws.contains(w):
                        return True
    return False


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
            {"name": g, "grading": format_rational(cx.grading[g])} for g in cx.generators
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
    gens = []
    for entry in gens_raw:
        try:
            name = entry["name"]
            grading = parse_rational(entry["grading"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad generator entry {entry!r}") from exc
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    return complex_from_dict(data)


def dump_complex(ic: IotaComplex, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(complex_to_dict(ic), fh, indent=2, sort_keys=False)
        fh.write("\n")
