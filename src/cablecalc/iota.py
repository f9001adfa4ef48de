"""Chain complexes over F2[U] with a homotopy involution, and their
correction terms d, d_lower and d_upper.

A complex is finitely generated and free over F2[U], graded by exact
rationals; U drops the grading by 2 and the differential by 1.  Module
elements are frozensets of (generator, U-exponent) terms, so addition is
symmetric difference.  Because every map in sight is homogeneous, a map is
determined by a GF(2) bit matrix whose U-exponents are forced by the
gradings; all heavy lifting reduces to bit-packed linear algebra over the
finite-dimensional graded pieces.

The homology routine runs a valuation-greedy elimination: pivots are chosen
with minimal U-exponent, which keeps every matrix entry a monomial and each
row/column operation a plain XOR; it runs once per complex and is kept on
it, so a GradedComplex must not be mutated after construction.  d_lower and
d_upper search candidate gradings from the top downward, deciding existence
of a witness at each grading with nullspace computations (d_upper at the one
U-power m_max: U times a non-torsion class is non-torsion, so witnesses
persist as m grows); brute_oracle re-derives all three invariants by
exhaustive enumeration over a U-truncated model and is used to cross-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import BitMatrix, Echelon, format_rational, parse_rational, subspace_not_contained
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

    __slots__ = ("generators", "grading", "diff", "_hom")

    def __init__(self, generators: Sequence[tuple[str, Fraction]], diff: Mapping[str, Iterable[Term]]):
        names = [str(n) for n, _ in generators]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate generator names")
        if not names:
            raise ValidationError("complex needs at least one generator")
        self.generators: tuple[str, ...] = tuple(names)
        self.grading: dict[str, Fraction] = {str(n): Fraction(g) for n, g in generators}
        self.diff: dict[str, Element] = _clean_map(self.generators, diff, "differential")
        self._hom = None  # set once by _homology; racing threads at worst both compute it

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


def _check_degree(cx: GradedComplex, mp: Mapping[str, Element], degree: int) -> Optional[str]:
    for src, val in mp.items():
        for g, e in sorted(val):
            if cx.grading[src] + degree != cx.grading[g] - 2 * e:
                return f"term U^{e}*{g} in image of {src} breaks degree {degree}"
    return None


def _check_d_squared(cx: GradedComplex) -> Optional[str]:
    for g in cx.generators:
        img = apply_map(cx.diff, cx.diff.get(g, ZERO))
        if img:
            return f"d(d({g})) != 0"
    return None


def _iota_squared_homotopy(ic: IotaComplex) -> Optional[dict[str, Element]]:
    """A degree +1 map H with dH + Hd = iota^2 + id, or None.

    Unknowns are the admissible bit-matrix entries of H; the equation is
    solved coordinate-wise over the graded pieces.
    """
    cx = ic.complex
    gens = cx.generators
    gr = cx.grading
    unknowns: list[tuple[str, str, int]] = []  # (src, dst, exponent)
    uidx: dict[tuple[str, str], int] = {}
    for x in gens:
        for y in gens:
            k2 = gr[y] - gr[x] - 1
            if k2.denominator == 1 and k2 >= 0 and int(k2) % 2 == 0:
                uidx[(x, y)] = len(unknowns)
                unknowns.append((x, y, int(k2) // 2))
    rows: list[int] = []
    rhs = 0
    coord_of: dict[tuple[str, str, int], int] = {}  # (eq gen, term gen, exp) -> row

    def row_for(x: str, term: Term) -> int:
        key = (x, term[0], term[1])
        if key not in coord_of:
            coord_of[key] = len(rows)
            rows.append(0)
        return coord_of[key]

    for x in gens:
        # dH(x): unknown (x, y) contributes U^k * d(y)
        for y in gens:
            j = uidx.get((x, y))
            if j is None:
                continue
            k = unknowns[j][2]
            for g, e in cx.diff.get(y, ZERO):
                rows[row_for(x, (g, e + k))] ^= 1 << j
        # Hd(x): term U^c*w of d(x) contributes U^c * H(w)
        for w, c in cx.diff.get(x, ZERO):
            for y in gens:
                j = uidx.get((w, y))
                if j is None:
                    continue
                k = unknowns[j][2]
                rows[row_for(x, (y, c + k))] ^= 1 << j
        # right side: iota(iota(x)) + x
        target = apply_map(ic.iota, ic.iota.get(x, ZERO)) ^ {(x, 0)}
        for term in target:
            rhs |= 1 << row_for(x, term)
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

    structural = True
    structural &= run("differential-degree", lambda: _check_degree(cx, cx.diff, -1))
    structural &= run("differential-squared", lambda: _check_d_squared(cx))
    structural &= run("iota-degree", lambda: _check_degree(cx, ic.iota, 0))
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
        lambda: None if _iota_squared_homotopy(ic) is not None else "no homotopy from iota^2 to id",
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
# homology over F2[U] (valuation-greedy elimination; entries stay monomials)


def _kernel_basis(cx: GradedComplex) -> list[tuple[Element, Fraction]]:
    """Basis of ker(d) as (element, grading) pairs; spans the full kernel."""
    gens = cx.generators
    gr = cx.grading
    n = len(gens)
    idx = {g: i for i, g in enumerate(gens)}
    cols = [0] * n
    for j, g in enumerate(gens):
        for h, _ in cx.diff.get(g, ZERO):
            cols[j] |= 1 << idx[h]
    trans = [1 << j for j in range(n)]  # current source basis in original coordinates
    col_grading = [gr[g] for g in gens]

    def exp(i: int, j: int) -> Fraction:
        return (gr[gens[i]] - col_grading[j] + 1) / 2

    done_cols: set[int] = set()
    while True:
        best = None
        for j in range(n):
            if j in done_cols or not cols[j]:
                continue
            v = cols[j]
            while v:
                i = (v & -v).bit_length() - 1
                v &= v - 1
                e = exp(i, j)
                if best is None or (e, i, j) < best:
                    best = (e, i, j)
        if best is None:
            break
        _, pi, pj = best
        for j in range(n):
            if j != pj and j not in done_cols and cols[j] >> pi & 1:
                cols[j] ^= cols[pj]
                trans[j] ^= trans[pj]
        done_cols.add(pj)
    out = []
    for j in range(n):
        if j in done_cols:
            continue
        if cols[j]:
            raise InternalCheckError("kernel reduction left a nonzero non-pivot column")
        sigma = col_grading[j]
        terms = []
        for i in range(n):
            if trans[j] >> i & 1:
                k2 = gr[gens[i]] - sigma
                if k2.denominator != 1 or int(k2) % 2 != 0 or k2 < 0:
                    raise InternalCheckError("inadmissible exponent in kernel vector")
                terms.append((gens[i], int(k2) // 2))
        out.append((frozenset(terms), sigma))
    return out


def _snf_monomial(rows: list[int], n_cols: int, row_gr: list[Fraction], col_gr: list[Fraction], degree: int):
    """Greedy Smith reduction of a homogeneous monomial matrix.

    Returns (pivots, free_rows) where pivots is a list of (row, col, exponent)
    and free_rows are the rows never used as a pivot.
    """
    rows = list(rows)
    m = len(rows)

    def exp(i: int, j: int) -> Fraction:
        return (row_gr[i] - col_gr[j] - degree) / 2

    done_rows: set[int] = set()
    done_cols: set[int] = set()
    pivots: list[tuple[int, int, int]] = []
    while True:
        best = None
        for i in range(m):
            if i in done_rows or not rows[i]:
                continue
            v = rows[i]
            while v:
                j = (v & -v).bit_length() - 1
                v &= v - 1
                if j in done_cols:
                    continue
                e = exp(i, j)
                if best is None or (e, i, j) < best:
                    best = (e, i, j)
        if best is None:
            break
        e, pi, pj = best
        if e.denominator != 1 or e < 0:
            raise InternalCheckError("inadmissible pivot exponent")
        for i in range(m):
            if i != pi and rows[i] >> pj & 1:
                rows[i] ^= rows[pi]
        rows[pi] = 1 << pj
        done_rows.add(pi)
        done_cols.add(pj)
        pivots.append((pi, pj, int(e)))
    free_rows = [i for i in range(m) if i not in done_rows]
    return pivots, free_rows


def _homology(cx: GradedComplex) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, int], ...]]:
    """(free part gradings, torsion (grading, U-order) pairs) of H_*(C),
    computed on first use and kept on the complex."""
    if cx._hom is None:
        cx._hom = _reduce_homology(cx)
    return cx._hom


def _reduce_homology(cx: GradedComplex) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, int], ...]]:
    kernel = _kernel_basis(cx)
    gr = cx.grading
    im: list[tuple[Element, Fraction]] = []
    for g in cx.generators:
        v = cx.diff.get(g, ZERO)
        if v:
            im.append((v, gr[g] - 1))
    if not im:
        return tuple(s for _, s in kernel), ()
    # express each image generator in the kernel basis (graded bit solve)
    mrows = [0] * len(kernel)
    for l, (v, gv) in enumerate(im):
        piece = _piece_for(cx, gv)
        cols = []
        admissible = []
        for mth, (kvec, sigma) in enumerate(kernel):
            a2 = sigma - gv
            if a2.denominator == 1 and a2 >= 0 and int(a2) % 2 == 0:
                cols.append(piece.coords(elt_shift(kvec, int(a2) // 2)))
                admissible.append(mth)
        sol = BitMatrix.from_columns(cols, len(piece.basis)).solve(piece.coords(v))
        if sol is None:
            raise InternalCheckError("image vector not in span of kernel basis")
        for bit, mth in enumerate(admissible):
            if sol >> bit & 1:
                mrows[mth] |= 1 << l
    pivots, free_rows = _snf_monomial(
        mrows, len(im), [s for _, s in kernel], [gv for _, gv in im], 0
    )
    free = tuple(kernel[i][1] for i in free_rows)
    torsion = sorted(((kernel[i][1], e) for i, _, e in pivots if e > 0), key=lambda t: (-t[0], -t[1]))
    return free, tuple(torsion)


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
# graded pieces


class _Piece:
    """GF(2) vector space of homogeneous elements at one grading."""

    __slots__ = ("grading", "basis", "index")

    def __init__(self, grading: Fraction, basis: list[Term]):
        self.grading = grading
        self.basis = basis
        self.index = {t: i for i, t in enumerate(basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x: Element) -> int:
        v = 0
        for t in x:
            i = self.index.get(t)
            if i is None:
                raise InternalCheckError(f"term {t} not homogeneous of grading {self.grading}")
            v |= 1 << i
        return v

    def unpack(self, v: int) -> Element:
        return frozenset(self.basis[i] for i in range(self.dim) if v >> i & 1)


def _piece_for(cx: GradedComplex, grading: Fraction, truncation: Optional[int] = None) -> _Piece:
    basis: list[Term] = []
    for g in cx.generators:
        k2 = cx.grading[g] - grading
        if k2.denominator == 1 and k2 >= 0 and int(k2) % 2 == 0:
            k = int(k2) // 2
            if truncation is None or k < truncation:
                basis.append((g, k))
    return _Piece(Fraction(grading), basis)


class _PieceCtx:
    """Cached graded pieces and piece-level matrices for one complex."""

    def __init__(self, ic: IotaComplex, truncation: Optional[int] = None):
        self.ic = ic
        self.cx = ic.complex
        self.truncation = truncation
        self._pieces: dict[Fraction, _Piece] = {}
        self._w: dict[Fraction, list[int]] = {}
        self._id_iota: dict[str, Element] = {
            g: (ic.iota.get(g, ZERO) ^ {(g, 0)}) for g in self.cx.generators
        }
        self.n_gens = len(self.cx.generators)

    def piece(self, grading: Fraction) -> _Piece:
        p = self._pieces.get(grading)
        if p is None:
            p = _piece_for(self.cx, grading, self.truncation)
            self._pieces[grading] = p
        return p

    def map_cols(self, mp: Mapping[str, Element], src: _Piece, dst: _Piece) -> list[int]:
        return [dst.coords(apply_map(mp, frozenset((t,)))) for t in src.basis]

    def diff_cols(self, src: _Piece) -> tuple[list[int], _Piece]:
        dst = self.piece(src.grading - 1)
        return self.map_cols(self.cx.diff, src, dst), dst

    def id_iota_cols(self, src: _Piece) -> list[int]:
        dst = self.piece(src.grading)
        return self.map_cols(self._id_iota, src, dst)

    def upow_cols(self, src: _Piece, m: int) -> tuple[list[int], _Piece]:
        dst = self.piece(src.grading - 2 * m)
        cols = []
        for g, k in src.basis:
            t = (g, k + m)
            cols.append(1 << dst.index[t] if t in dst.index else 0)
        return cols, dst

    def boundary_masks(self, grading: Fraction) -> list[int]:
        """Spanning masks of d(V_{grading+1}) inside V_grading."""
        src = self.piece(grading + 1)
        cols, dst = self.diff_cols(src)
        if dst.grading != grading:
            raise InternalCheckError("boundary piece has the wrong grading")
        return [c for c in cols if c]

    def torsionish_masks(self, grading: Fraction, n_exp: int) -> list[int]:
        """Spanning masks of {w : U^N w in im d} inside V_grading."""
        key = grading
        cached = self._w.get(key)
        if cached is not None:
            return cached
        piece = self.piece(grading)
        ucols, udst = self.upow_cols(piece, n_exp)
        bcols = self.boundary_masks(udst.grading)
        nd = len(udst.basis)
        stacked = ucols + bcols
        null = BitMatrix.from_columns(stacked, nd).nullspace()
        mask_a = (1 << piece.dim) - 1
        out = [v & mask_a for v in null]
        out = [v for v in out if v]
        self._w[key] = out
        return out

    def cycle_masks(self, piece: _Piece) -> list[int]:
        cols, dst = self.diff_cols(piece)
        return BitMatrix.from_columns(cols, dst.dim).nullspace()


def _candidate_gradings(cx: GradedComplex, floor: Fraction) -> list[Fraction]:
    vals: set[Fraction] = set()
    for g in cx.generators:
        gamma = cx.grading[g]
        while gamma >= floor:
            vals.add(gamma)
            gamma -= 2
    return sorted(vals, reverse=True)


def d_invariant(ic: IotaComplex | GradedComplex, check: bool = True) -> Fraction:
    """Maximal grading carrying a homology class that survives all U-powers."""
    return homology_summary(ic, check=check).free_grading


def d_lower(ic: IotaComplex, check: bool = True, window_slack: int = 0) -> Fraction:
    """Maximal grading of a non-U-torsion cycle a with (id+iota)a a boundary."""
    if check:
        require_valid(ic)
    summary = homology_summary(ic, check=False)
    n_exp = summary.torsion_exponent
    floor = summary.free_grading - 2 * n_exp - 2 - window_slack
    ctx = _PieceCtx(ic)
    for g in _candidate_gradings(ic.complex, floor):
        piece = ctx.piece(g)
        if not piece.dim:
            continue
        dcols, ddst = ctx.diff_cols(piece)
        icols = ctx.id_iota_cols(piece)
        # unknowns (a, b): d a = 0 and (id+iota) a = d b
        nrows = ddst.dim + piece.dim
        stacked = []
        for j in range(piece.dim):
            stacked.append(dcols[j] | (icols[j] << ddst.dim))
        for b in ctx.boundary_masks(g):
            stacked.append(b << ddst.dim)
        null = BitMatrix.from_columns(stacked, nrows).nullspace()
        mask_a = (1 << piece.dim) - 1
        zs = [v & mask_a for v in null]
        zs = [v for v in zs if v]
        if not zs:
            continue
        ws = ctx.torsionish_masks(g, n_exp)
        if subspace_not_contained(zs, ws) is not None:
            return g
    raise InternalCheckError("no d_lower witness found within the search window")


def d_upper(
    ic: IotaComplex,
    check: bool = True,
    m_max: Optional[int] = None,
    window_slack: int = 0,
) -> Fraction:
    """Maximal value over triples (x, y, z) with d y = (id+iota) x,
    d z = U^m x and U^m y + (id+iota) z of non-torsion class, m <= m_max;
    the value is gr(x)+1 when x is nonzero and gr(y) when x = 0.  Only
    m = m_max is tried: a witness (x, y, z) at m gives (x, y, U z) at m + 1,
    since U times a non-torsion class is non-torsion."""
    if check:
        require_valid(ic)
    summary = homology_summary(ic, check=False)
    n_exp = summary.torsion_exponent
    cx = ic.complex
    if m_max is None:
        m_max = n_exp + len(cx.generators)
    floor = summary.free_grading - 2 * n_exp - 2 - window_slack
    ctx = _PieceCtx(ic)
    piece_gradings = _candidate_gradings(cx, floor - 1)
    values = sorted({v for g in piece_gradings for v in (g, g + 1) if v >= floor}, reverse=True)
    for v in values:
        if _upper_witness_at(ctx, v, m_max, n_exp):
            return v
    raise InternalCheckError("no d_upper witness found within the search window")


def _upper_witness_at(ctx: _PieceCtx, v: Fraction, m: int, n_exp: int) -> bool:
    px = ctx.piece(v - 1)
    py = ctx.piece(v)
    pz = ctx.piece(v - 2 * m)
    ws = ctx.torsionish_masks(pz.grading, n_exp)
    wspan = Echelon(ws)
    # branch with x nonzero: value gr(x) + 1
    if px.dim:
        ix_cols = ctx.id_iota_cols(px)  # (id+iota) x in V_{v-1}
        dy_cols, dydst = ctx.diff_cols(py)  # d y in V_{v-1}
        ux_cols, uxdst = ctx.upow_cols(px, m)  # U^m x in V_{v-1-2m}
        dz_cols, dzdst = ctx.diff_cols(pz)  # d z in V_{v-1-2m}
        if dydst.grading != px.grading or dzdst.grading != uxdst.grading:
            raise InternalCheckError("d_upper equation pieces have mismatched gradings")
        r1, r2 = px.dim, uxdst.dim
        stacked = []
        for j in range(px.dim):
            stacked.append(ix_cols[j] | (ux_cols[j] << r1))
        for j in range(py.dim):
            stacked.append(dy_cols[j])
        for j in range(pz.dim):
            stacked.append(dz_cols[j] << r1)
        null = BitMatrix.from_columns(stacked, r1 + r2).nullspace()
        mask_x = (1 << px.dim) - 1
        have_x = any(s & mask_x for s in null)
        if have_x:
            uy_cols, uydst = ctx.upow_cols(py, m)
            iz_cols = ctx.id_iota_cols(pz)
            if uydst.grading != pz.grading:
                raise InternalCheckError("U^m y and (id+iota) z land in different pieces")
            phis = []
            for s in null:
                w = 0
                for j in range(py.dim):
                    if s >> (px.dim + j) & 1:
                        w ^= uy_cols[j]
                for j in range(pz.dim):
                    if s >> (px.dim + py.dim + j) & 1:
                        w ^= iz_cols[j]
                phis.append(w)
            if any(not wspan.contains(p) for p in phis):
                return True
    # branch with x = 0, y a nonzero cycle: value gr(y)
    if py.dim:
        ky = ctx.cycle_masks(py)
        if ky:
            kz = ctx.cycle_masks(pz)
            uy_cols, uydst = ctx.upow_cols(py, m)
            iz_cols = ctx.id_iota_cols(pz)
            if uydst.grading != pz.grading:
                raise InternalCheckError("U^m y and (id+iota) z land in different pieces")
            phis = []
            for yv in ky:
                w = 0
                for j in range(py.dim):
                    if yv >> j & 1:
                        w ^= uy_cols[j]
                phis.append(w)
            for zv in kz:
                w = 0
                for j in range(pz.dim):
                    if zv >> j & 1:
                        w ^= iz_cols[j]
                phis.append(w)
            if any(not wspan.contains(p) for p in phis):
                return True
    return False


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
    """All three correction terms, asserting d_lower <= d <= d_upper."""
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
        self.ic = ic
        self.full = full
        self.trunc = _PieceCtx(ic, truncation=truncation)
        self._cache: dict[tuple, list[int]] = {}

    def piece(self, grading: Fraction) -> _Piece:
        return self.trunc.piece(grading)

    def _images(self, kind: str, grading: Fraction, m: int, col_fn) -> list[int]:
        key = (kind, grading, m)
        got = self._cache.get(key)
        if got is None:
            got = _mask_images([col_fn(t) for t in self.trunc.piece(grading).basis])
            self._cache[key] = got
        return got

    def diff_images(self, grading: Fraction) -> list[int]:
        dst = self.full.piece(grading - 1)
        diff = self.ic.complex.diff
        return self._images("d", grading, 0, lambda t: dst.coords(apply_map(diff, frozenset((t,)))))

    def id_iota_images(self, grading: Fraction) -> list[int]:
        dst = self.full.piece(grading)
        mp = self.full._id_iota
        return self._images("i", grading, 0, lambda t: dst.coords(apply_map(mp, frozenset((t,)))))

    def upow_images(self, grading: Fraction, m: int) -> list[int]:
        dst = self.full.piece(grading - 2 * m)
        return self._images("u", grading, m, lambda t: 1 << dst.index[(t[0], t[1] + m)])

    def embed_images(self, grading: Fraction) -> list[int]:
        """Truncated-piece masks re-expressed in full-piece coordinates."""
        dst = self.full.piece(grading)
        return self._images("e", grading, 0, lambda t: 1 << dst.index[t])


def brute_oracle(ic: IotaComplex, truncation: int, check: bool = True) -> DResults:
    """Recompute (d, d_lower, d_upper) by exhaustive enumeration.

    Candidate elements are drawn from the graded pieces with U-exponents
    below ``truncation``; maps are evaluated exactly (images keep full-piece
    coordinates) and non-torsionness is tested against the full complex, so
    every witness found is genuine.  truncation must be at least
    torsion_exponent + number of generators, which makes the truncated
    search exhaustive as well.
    """
    if check:
        require_valid(ic)
    summary = homology_summary(ic, check=False)
    n_exp = summary.torsion_exponent
    cx = ic.complex
    min_trunc = n_exp + len(cx.generators)
    if truncation < min_trunc:
        raise ValidationError(f"truncation {truncation} too small; need at least {min_trunc}")
    full = _PieceCtx(ic)
    br = _BruteCtx(ic, full, truncation)
    floor = summary.free_grading - 2 * n_exp - 2
    gradings = _candidate_gradings(cx, floor)
    torsionish = {g: Echelon(full.torsionish_masks(g, n_exp)) for g in gradings}

    d_val = None
    for g in gradings:
        dim = br.piece(g).dim
        dimg, femb, ws = br.diff_images(g), br.embed_images(g), torsionish[g]
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
        dimg, femb, ws = br.diff_images(g), br.embed_images(g), torsionish[g]
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
    values = sorted({w for g in gradings for w in (g, g + 1)}, reverse=True)
    for v in values:
        if _brute_upper_at(br, v, truncation, n_exp):
            upper_val = v
            break
    if upper_val is None:
        raise InternalCheckError("brute search found no d_upper witness")
    return DResults(d_val, lower_val, upper_val)


def _brute_upper_at(br: _BruteCtx, v: Fraction, truncation: int, n_exp: int) -> bool:
    dx = br.piece(v - 1).dim
    dy = br.piece(v).dim
    if not (dx or dy):
        return False
    ximg_i = br.id_iota_images(v - 1)
    yimg_d = br.diff_images(v)
    y_by_image: dict[int, list[int]] = {}
    for ymask in range(1 << dy):
        y_by_image.setdefault(yimg_d[ymask], []).append(ymask)
    for m in range(truncation + 1):
        dz = br.piece(v - 2 * m).dim
        ws = Echelon(br.full.torsionish_masks(v - 2 * m, n_exp))
        ximg_u = br.upow_images(v - 1, m)
        yimg_u = br.upow_images(v, m)
        zimg_d = br.diff_images(v - 2 * m)
        zimg_i = br.id_iota_images(v - 2 * m)
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
