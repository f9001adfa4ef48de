"""Cabling rules for involutive concordance invariants and the reports
built on them: surgery correction terms, slice obstructions, and genus /
unknotting lower bounds.

The central record is KnotInvariants: the involutive pair (v_lower,
v_upper), optionally the non-increasing V-sequence that drives surgery
d-invariants, and optional genus data.  Cabling a knot with parameters
(p, q) transforms this record in a way that splits on the parity of the
longitudinal winding p: for odd p both involutive invariants gain V_0 of
the (p, q) torus pattern, while for even p the output is read off the
companion's V-sequence alone.  The V-sequence itself propagates through a
stage only when the cable is certified to be an L-space knot again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import sub

from .errors import InsufficientDataError, InternalCheckError, ValidationError, check_coprime, check_int
from .lens import _check_vector_size, _label_vector, _lens_halves, lens_d, selfconj_spinc
from .torus import cable_vs, torus_genus, torus_vs

__all__ = [
    "KnotInvariants",
    "CableStage",
    "KnotSpec",
    "BoundsReport",
    "torus_knot_invariants",
    "niwu_d",
    "involutive_surgery_d",
    "spinc_projection_zero",
    "cable_inv_v0",
    "iterated_cable",
    "slice_obstruction",
    "genus_bounds",
    "unknotting_bounds",
    "knot_spec_from_dict",
    "load_knot_spec",
    "invariants_to_dict",
]


def _check_vseq(vs, what: str = "v_seq") -> tuple[int, ...]:
    """Validate a V-sequence: non-negative, steps of 0 or -1, ending at 0.

    Entries beyond the stored part always read as zero, so the final stored
    entry must itself be 0 for the implicit tail to be a legal continuation.
    """
    if isinstance(vs, (str, bytes)) or not hasattr(vs, "__iter__"):
        raise ValidationError(f"{what} must be a sequence of integers, got {vs!r}")
    out = tuple(vs)
    # One pass at C speed for the common case: plain ints, steps of 0 or 1
    # down, last entry 0 (which with such steps rules out negative entries).
    # Anything else takes the loops below, which name what is wrong.
    if set(map(type, out)) == {int} and out[-1] == 0 and set(map(sub, out, out[1:])) <= {0, 1}:
        return out
    for v in out:
        check_int(v, f"{what} entry")
    for v in out:
        if v < 0:
            raise ValidationError(f"{what} entries must be non-negative, got {v}")
    for i in range(len(out) - 1):
        if not out[i] - 1 <= out[i + 1] <= out[i]:
            raise ValidationError(
                f"{what} must be non-increasing in steps of at most 1 "
                f"(entries {i}..{i + 1} are {out[i]}, {out[i + 1]})")
    if out and out[-1] != 0:
        raise ValidationError(f"{what} must end at 0, got final entry {out[-1]}")
    return out


def _niwu_v(vs: tuple[int, ...], p: int, q: int, s: int) -> int:
    """max{V_(s//q), V_((p+q-1-s)//q)}, the V term of the Ni-Wu formula at
    label s of p/q-surgery.  V is non-increasing and zero past the stored
    part, so this is V at the smaller index."""
    i = min(s // q, (p + q - 1 - s) // q)
    return vs[i] if i < len(vs) else 0


@dataclass(frozen=True)
class KnotInvariants:
    """Concordance data of a knot.

    v_lower and v_upper are the involutive correction invariants of
    +1-surgery (both equal the classical V_0 for torus knots).  v_seq is
    the non-increasing sequence V_0, V_1, ... controlling the d-invariants
    of large surgeries; entries beyond the stored part are zero.  genus3 /
    genus4 are the Seifert and slice genus when known.  lspace records that
    the knot is an L-space knot, which is what licenses carrying v_seq
    through a cabling stage.
    """

    v_lower: int
    v_upper: int
    v_seq: tuple[int, ...] | None = None
    genus3: int | None = None
    genus4: int | None = None
    lspace: bool = False

    def __post_init__(self):
        check_int(self.v_lower, "v_lower")
        check_int(self.v_upper, "v_upper")
        if self.v_upper > self.v_lower:
            raise ValidationError(
                f"v_upper must not exceed v_lower, got ({self.v_lower}, {self.v_upper})")
        if self.v_seq is not None:
            vs = _check_vseq(self.v_seq)
            if not vs:
                raise ValidationError("v_seq must be non-empty; use [0] for a trivial sequence")
            object.__setattr__(self, "v_seq", vs)
            if not self.v_upper <= vs[0] <= self.v_lower:
                raise ValidationError(
                    f"v_seq[0] = {vs[0]} must lie between v_upper = {self.v_upper} "
                    f"and v_lower = {self.v_lower}")
        for name in ("genus3", "genus4"):
            g = getattr(self, name)
            if g is not None and check_int(g, name) < 0:
                raise ValidationError(f"{name} must be non-negative, got {g}")
        if not isinstance(self.lspace, bool):
            raise ValidationError(f"lspace must be a boolean, got {self.lspace!r}")
        if self.lspace and self.v_seq is None:
            raise ValidationError("an L-space record needs its v_seq")


@dataclass(frozen=True)
class CableStage:
    """One cabling stage: p is the longitudinal winding, q the meridional."""

    p: int
    q: int

    def __post_init__(self):
        check_coprime(self.p, self.q, "cable parameters")

    @property
    def s_even_case(self) -> int:
        """The distinguished label s = (p+q-1)/2 mod q used when p is even."""
        if self.p % 2:
            raise ValidationError("s_even_case is only defined for even p")
        return ((self.p + self.q - 1) // 2) % self.q


def _as_stage(stage) -> CableStage:
    if isinstance(stage, CableStage):
        return stage
    try:
        p, q = stage
    except (TypeError, ValueError):
        raise ValidationError(f"not a cable stage: {stage!r}") from None
    return CableStage(check_int(p, "cable parameter p"), check_int(q, "cable parameter q"))


@dataclass(frozen=True)
class KnotSpec:
    """A base knot plus an ordered list of cabling stages."""

    base: KnotInvariants
    stages: tuple[CableStage, ...] = ()

    def __post_init__(self):
        if not isinstance(self.base, KnotInvariants):
            raise ValidationError(f"base must be a KnotInvariants, got {self.base!r}")
        object.__setattr__(self, "stages", tuple(_as_stage(st) for st in self.stages))


@dataclass(frozen=True)
class ProjectionPair:
    """Where the spin-c label [0] of pq-surgery on a cable lands in the two
    connected summands: pi1 is a label mod q for the q/p-surgery summand,
    pi2 a label mod p for the lens summand."""

    pi1: int
    pi2: int


@dataclass(frozen=True)
class BoundEntry:
    """One lower bound for the unknotting number, with its hypothesis note.

    value None means the bound does not apply to these inputs; the note
    says why.
    """

    name: str
    value: int | None
    note: str = ""


@dataclass(frozen=True)
class BoundsReport:
    """Every known lower bound, applicable or not, plus their maximum."""

    entries: tuple[BoundEntry, ...]

    @property
    def maximum(self) -> int:
        values = [e.value for e in self.entries if e.value is not None]
        if not values:
            raise ValidationError("no applicable bounds in the report")
        return max(values)

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "entries": [
                {"name": e.name, "value": e.value, "note": e.note} for e in self.entries
            ],
            "maximum": self.maximum,
        }


def torus_knot_invariants(p: int, q: int) -> KnotInvariants:
    """Full invariant record of the positive (p, q) torus knot."""
    vs = torus_vs(p, q)
    g = torus_genus(p, q)
    # Torus knots are L-space knots with v_lower = v_upper = V_0 and g4 = g3.
    return KnotInvariants(v_lower=vs[0], v_upper=vs[0], v_seq=vs,
                          genus3=g, genus4=g, lspace=True)


def niwu_d(p: int, q: int, vs=None) -> list[Fraction]:
    """Correction terms of positive p/q-surgery, one per spin-c label.

    Entry s is d(L(p,q),[s]) - 2*max{V_(s//q), V_((p+q-1-s)//q)} (the
    Ni-Wu surgery formula); the V-sequence reads as zero past its stored
    part, so vs=None or () gives the plain lens-space vector.
    """
    return _label_vector(p, q, *_niwu_halves(p, q, vs))


def _niwu_halves(p: int, q: int, vs) -> tuple[list[int], list[int], int]:
    """niwu_d's entries as lens._lens_halves gives d(L(p, q)): integer
    numerators over one denominator on the first half of each conjugation
    block.  The inputs are checked here."""
    check_coprime(p, q, "surgery parameters")
    seq = _check_vseq(() if vs is None else vs, "V-sequence")
    _check_vector_size(p)
    lo, hi, den = _lens_halves(p, q)
    # The max is V at the smaller index, which on the first half of each
    # conjugation block is s // q (q unreduced): V_0 on labels below q mod p,
    # then runs of q labels per index, zero past the stored part.
    v0 = 2 * den * seq[0] if seq else 0
    terms = chain(chain.from_iterable(repeat(2 * den * v, q) for v in seq), repeat(0))
    return [n - v0 for n in lo], [n - t for n, t in zip(hi, islice(terms, q % p, None))], den


def involutive_surgery_d(p: int, q: int, inv: KnotInvariants) -> dict[int, tuple[Fraction, Fraction]]:
    """Involutive correction terms (d_lower, d_upper) of positive
    p/q-surgery at each self-conjugate spin-c label.

    For odd q the label (q-1)/2 mod p carries lens_d - 2*v_lower and
    lens_d - 2*v_upper.  When one of p, q is even, the label (p+q-1)/2
    mod p carries the Ni-Wu value (which needs the V-sequence) below and
    the bare lens value above.
    """
    check_coprime(p, q, "surgery parameters")
    out: dict[int, tuple[Fraction, Fraction]] = {}
    if q % 2 == 1:
        i = ((q - 1) // 2) % p
        base = lens_d(p, q, i)
        out[i] = (base - 2 * inv.v_lower, base - 2 * inv.v_upper)
    if p % 2 == 0 or q % 2 == 0:
        j = ((p + q - 1) // 2) % p
        if inv.v_seq is None:
            raise InsufficientDataError(
                "insufficient invariants: v_seq is required for the "
                f"even-parameter surgery label (p={p}, q={q})")
        base = lens_d(p, q, j)
        out[j] = (base - 2 * _niwu_v(inv.v_seq, p, q, j), base)
    if sorted(out) != selfconj_spinc(p, q):
        raise InternalCheckError(
            f"self-conjugate labels disagree for ({p}, {q}): "
            f"{sorted(out)} vs {selfconj_spinc(p, q)}")
    return dict(sorted(out.items()))


def spinc_projection_zero(p: int, q: int) -> ProjectionPair:
    """Split the label [0] of pq-surgery on a (p, q)-cable across the two
    summands q/p-surgery and L(p, q).  The case table depends on the
    parities of p and q."""
    check_coprime(p, q, "surgery parameters")
    if p % 2 == 1 and q % 2 == 1:
        return ProjectionPair(((p - 1) // 2) % q, ((q - 1) // 2) % p)
    if p % 2 == 1:
        return ProjectionPair(((p - 1) // 2) % q, ((p + q - 1) // 2) % p)
    return ProjectionPair(((p + q - 1) // 2) % q, ((q - 1) // 2) % p)


def cable_inv_v0(stage, inv: KnotInvariants) -> KnotInvariants:
    """Involutive invariants of the (p, q)-cable of a knot with the given
    invariants.

    Odd p: both invariants gain V_0 of the (p, q) torus pattern.  Even p:
    v_lower = max{V_(s//p), V_((p+q-1-s)//p)} + V_0(T) over the companion's
    V-sequence at s = (p+q-1)/2 mod q, and v_upper = V_0(T).  The output
    carries a V-sequence only when the companion is an L-space knot and the
    cable stays in the L-space regime, in which case it is counted from
    the cable's semigroup (torus.cable_vs).
    """
    stage = _as_stage(stage)
    p, q = stage.p, stage.q
    v0t = torus_vs(p, q)[0]
    if p % 2 == 1:
        lo = inv.v_lower + v0t
        hi = inv.v_upper + v0t
    else:
        if inv.v_seq is None:
            raise InsufficientDataError(
                "insufficient invariants: v_seq of the companion is required "
                f"for an even-p stage ({p},{q})")
        s = stage.s_even_case
        lo = _niwu_v(inv.v_seq, q, p, s) + v0t
        hi = v0t
    out_vs = cable_vs(inv.v_seq, p, q) if inv.lspace else None
    out_g = None if out_vs is None else len(out_vs) - 1
    return KnotInvariants(v_lower=lo, v_upper=hi, v_seq=out_vs, genus3=out_g,
                          genus4=out_g, lspace=out_vs is not None)


def iterated_cable(spec: KnotSpec) -> KnotInvariants:
    """Fold cable_inv_v0 over the stages of a knot spec, left to right."""
    inv = spec.base
    for idx, stage in enumerate(spec.stages, start=1):
        try:
            inv = cable_inv_v0(stage, inv)
        except ValidationError as exc:
            raise type(exc)(
                f"stage {idx} of {len(spec.stages)} ({stage.p},{stage.q}): {exc}") from None
    return inv


def slice_obstruction(inv: KnotInvariants) -> str:
    """Verdict string: a nonzero v_lower or v_upper obstructs the knot from
    being smoothly slice."""
    if inv.v_lower != 0 or inv.v_upper != 0:
        return "obstructed (not smoothly slice)"
    return "no obstruction"


def genus_bounds(inv: KnotInvariants) -> int:
    """Slice-genus lower bound from the involutive invariants.

    The ceiling bound -ceil((g4+1)/2) <= v_upper <= v_lower <= ceil((g4+1)/2)
    inverts to g4 >= 2*v_lower - 2 and g4 >= -2*v_upper - 2 (for an integer
    V, ceil((g+1)/2) >= V is exactly g >= 2V - 2).
    """
    return max(2 * inv.v_lower - 2, -2 * inv.v_upper - 2, 0)


def unknotting_bounds(stage, inv_companion: KnotInvariants,
                      v0_companion: int | None = None,
                      g4_parity: str | None = None) -> BoundsReport:
    """Lower bounds for the unknotting number of the (p, q)-cable of a knot
    with the given invariants.

    The involutive bounds need odd p; they are listed as not applicable
    (never silently dropped) otherwise.  Parity-refined variants are added
    only when the slice-genus parity of the cable is asserted via
    g4_parity.  The HLP torsion-order bound u >= p and, when the
    companion's classical V_0 is supplied, the bound 2*V_0(K) + 2*V_0(T) - 1
    have no parity requirement.  The genus route (unknotting number >=
    slice genus >= its involutive bound for the cable) is included whenever
    the cable's invariants are computable.
    """
    stage = _as_stage(stage)
    if g4_parity not in (None, "odd", "even"):
        raise ValidationError(f"g4_parity must be 'odd' or 'even', got {g4_parity!r}")
    if v0_companion is not None and check_int(v0_companion, "v0_companion") < 0:
        raise ValidationError(f"v0_companion must be non-negative, got {v0_companion}")
    p, q = stage.p, stage.q
    v0t = torus_vs(p, q)[0]
    lo, hi = inv_companion.v_lower, inv_companion.v_upper
    odd_p = p % 2 == 1
    na = "not applicable: involutive bounds need odd p"
    entries = []
    if odd_p:
        entries.append(BoundEntry("involutive-lower", 2 * lo + 2 * v0t - 2,
                                  "u >= 2*v_lower(K) + 2*V0(T) - 2"))
        entries.append(BoundEntry("involutive-upper-variant", -2 * hi - 2 * v0t - 2,
                                  "u >= -2*v_upper(K) - 2*V0(T) - 2"))
    else:
        entries.append(BoundEntry("involutive-lower", None, na))
        entries.append(BoundEntry("involutive-upper-variant", None, na))
    if g4_parity is not None:
        d = 1 if g4_parity == "odd" else 2
        note = f"refined variant assuming g4 of the cable is {g4_parity}"
        if odd_p:
            entries.append(BoundEntry("involutive-lower-parity", 2 * lo + 2 * v0t - d, note))
            entries.append(BoundEntry("involutive-upper-parity", -2 * hi - 2 * v0t - d, note))
        else:
            entries.append(BoundEntry("involutive-lower-parity", None, na))
            entries.append(BoundEntry("involutive-upper-parity", None, na))
    if any((lo, hi, inv_companion.v_seq and inv_companion.v_seq[0],
            inv_companion.genus3, inv_companion.genus4)):
        entries.append(BoundEntry("hlp", p,
                                  "u >= p (torsion-order bound; assumes a nontrivial companion)"))
    else:
        entries.append(BoundEntry("hlp", None, "not applicable: needs a nontrivial companion, "
                                  "and every invariant given for this one is zero"))
    if v0_companion is not None:
        entries.append(BoundEntry("v0-based", 2 * v0_companion + 2 * v0t - 1,
                                  "u >= 2*V0(K) + 2*V0(T) - 1"))
    else:
        entries.append(BoundEntry("v0-based", None,
                                  "not applicable: V0 of the companion not provided"))
    try:
        cable = cable_inv_v0(stage, inv_companion)
    except InsufficientDataError:
        entries.append(BoundEntry("jz-genus", None,
                                  "not applicable: needs the companion v_seq when p is even"))
    else:
        entries.append(BoundEntry("jz-genus", genus_bounds(cable),
                                  "u >= g4 >= involutive genus bound for the cable"))
    return BoundsReport(tuple(entries))


# ---------------------------------------------------------------------------
# knot-spec JSON

def knot_spec_from_dict(data) -> KnotSpec:
    """Build a KnotSpec from the JSON shape
    {"base": {"type": "torus", "p": .., "q": ..} |
             {"type": "custom", "v_lower": .., "v_upper": .., ...},
     "stages": [[p1, q1], [p2, q2], ...]}.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"knot spec must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"base", "stages"}
    if unknown:
        raise ValidationError(f"unknown knot-spec keys: {sorted(unknown)}")
    base_d = data.get("base")
    if not isinstance(base_d, dict):
        raise ValidationError("knot spec needs a 'base' object")
    kind = base_d.get("type")
    if kind == "torus":
        extra = set(base_d) - {"type", "p", "q"}
        if extra:
            raise ValidationError(f"unknown torus base keys: {sorted(extra)}")
        base = torus_knot_invariants(check_int(base_d.get("p"), "base.p"),
                                     check_int(base_d.get("q"), "base.q"))
    elif kind == "custom":
        extra = set(base_d) - {"type", "v_lower", "v_upper", "v_seq",
                               "genus3", "genus4", "lspace"}
        if extra:
            raise ValidationError(f"unknown custom base keys: {sorted(extra)}")
        vs = base_d.get("v_seq")
        if vs is not None and not isinstance(vs, (list, tuple)):
            raise ValidationError(f"base.v_seq must be a list, got {vs!r}")
        base = KnotInvariants(
            v_lower=check_int(base_d.get("v_lower"), "base.v_lower"),
            v_upper=check_int(base_d.get("v_upper"), "base.v_upper"),
            v_seq=None if vs is None else tuple(vs),
            genus3=base_d.get("genus3"),
            genus4=base_d.get("genus4"),
            lspace=base_d.get("lspace", False),
        )
    else:
        raise ValidationError(f"base.type must be 'torus' or 'custom', got {kind!r}")
    stages_d = data.get("stages", [])
    if not isinstance(stages_d, list):
        raise ValidationError(f"stages must be a list of [p, q] pairs, got {stages_d!r}")
    stages = []
    for i, item in enumerate(stages_d, start=1):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValidationError(f"stage {i} must be a [p, q] pair, got {item!r}")
        stages.append(CableStage(check_int(item[0], f"stage {i} p"),
                                 check_int(item[1], f"stage {i} q")))
    return KnotSpec(base, tuple(stages))


def load_knot_spec(path) -> KnotSpec:
    """Read and validate a knot-spec JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read knot spec: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, a UnicodeDecodeError or an over-long integer
        raise ValidationError(f"knot spec {path} is not valid JSON: {exc}") from None
    return knot_spec_from_dict(data)


def invariants_to_dict(inv: KnotInvariants) -> dict:
    """JSON-ready form of a KnotInvariants record (integers only)."""
    return {
        "v_lower": inv.v_lower,
        "v_upper": inv.v_upper,
        "v_seq": None if inv.v_seq is None else list(inv.v_seq),
        "genus3": inv.genus3,
        "genus4": inv.genus4,
        "lspace": inv.lspace,
    }
