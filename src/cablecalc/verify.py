"""Self-checking sweeps: exact identities between independently computed
quantities, and randomized property tests of the chain-complex engine.

Each sweep returns a VerifyReport listing what was checked and every
failure verbatim, so a counterexample can be rerun by hand.  Sweeps run
serially over inputs enumerated in a fixed order, so reports are
deterministic, and compute each value once: every random complex is
generated and solved once and its result reused by the products.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .concordance import (
    KnotInvariants,
    _niwu_v,
    cable_inv_v0,
    spinc_projection_zero,
    torus_knot_invariants,
)
from .errors import InternalCheckError, _Record, check_int
from .iota import (
    DResults,
    GradedComplex,
    IotaComplex,
    brute_oracle,
    complex_to_dict,
    d_results,
    dual,
    homology_summary,
    tensor,
)
from .lens import lens_d
from .randgen import random_iota_complex
from .torus import lspace_cable_check, torus_vs

__all__ = ["VerifyReport", "run_verify_identity13", "run_verify_moser", "run_verify_engine"]


class VerifyReport(_Record):
    """Outcome of one verification sweep."""

    __slots__ = ("name", "checked", "failures", "skipped", "notes")

    def __init__(self, name: str, checked: int, failures: tuple[str, ...] = (),
                 skipped: tuple[str, ...] = (), notes: tuple[str, ...] = ()):
        super().__init__(name, checked, failures, skipped, notes)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "ok": self.ok,
            "failures": list(self.failures),
            "skipped": list(self.skipped),
            "notes": list(self.notes),
        }

    def lines(self, max_skipped: int = 12) -> list[str]:
        """Human-readable report.  Failures are always listed verbatim;
        long skip lists are truncated (the full list stays in to_dict())."""
        out = [f"verify {self.name}: {'ok' if self.ok else 'FAILED'} "
               f"({self.checked} checked, {len(self.failures)} failed, "
               f"{len(self.skipped)} skipped)"]
        out.extend(f"  note: {n}" for n in self.notes)
        shown = self.skipped if max_skipped < 0 else self.skipped[:max_skipped]
        out.extend(f"  skipped: {s}" for s in shown)
        if len(shown) < len(self.skipped):
            out.append(f"  ... and {len(self.skipped) - len(shown)} more skipped")
        out.extend(f"  FAIL: {f}" for f in self.failures)
        return out


def thread_cap() -> int:
    """Always 1: sweeps run serially.  Kept only because the benchmark's
    worker imports it; it goes when the benchmark drops that import."""
    return 1


# ---------------------------------------------------------------------------
# identity sweep: pq-surgery on a torus knot computed two ways

def run_verify_identity13(max_q: int) -> VerifyReport:
    """Check, for all odd coprime 3 <= p < q <= max_q, the exact identity

        lens_d(p*q, 1, 0) - 2*V0(T(p,q))
            == lens_d(q, p, (p-1)/2 mod q) + lens_d(p, q, (q-1)/2 mod p).

    Both sides compute the same surgery: pq-surgery on the (p, q) torus
    knot, which is also a connected sum of two lens spaces because the
    torus knot is a cable of the unknot.  The sweep pins the spin-c
    labeling conventions of the lens recursion against the V-sequence.
    """
    check_int(max_q, "sweep bound", 3)
    pairs = [(p, q)
             for p in range(3, max_q + 1, 2)
             for q in range(p + 2, max_q + 1, 2)
             if gcd(p, q) == 1]

    def case(pq):
        p, q = pq
        lhs = lens_d(p * q, 1, 0) - 2 * torus_vs(p, q)[0]
        rhs = lens_d(q, p, ((p - 1) // 2) % q) + lens_d(p, q, ((q - 1) // 2) % p)
        if lhs != rhs:
            return f"(p={p}, q={q}): lhs {lhs} != rhs {rhs}"
        return None

    failures = tuple(f for f in map(case, pairs) if f)
    notes = ()
    if not pairs:
        notes = (f"warning: empty sweep, no odd coprime pairs with 3 <= p < q <= {max_q}",)
    return VerifyReport("identity13", len(pairs), failures, (), notes)


# ---------------------------------------------------------------------------
# connected-sum consistency for cable surgeries

def moser_case(a: int, b: int, p: int, q: int,
               comp: KnotInvariants | None = None) -> tuple[str, str]:
    """Check one companion/stage pair of the connected-sum consistency:
    pq-surgery on the (p, q)-cable of T(a, b) equals q/p-surgery on T(a, b)
    plus L(p, q), compared at the spin-c label [0] of the cable surgery.
    Each side is the Ni-Wu formula evaluated at its one label.

    Returns ("pass" | "skip" | "fail", detail).  Pairs where the cable
    leaves the L-space regime are skipped because the cable's V-sequence is
    not licensed there.  comp, if given, must be torus_knot_invariants(a, b).
    """
    comp = comp or torus_knot_invariants(a, b)
    if not lspace_cable_check(comp.genus3, p, q):
        return ("skip", f"companion T({a},{b}), stage ({p},{q}): cable leaves the L-space regime")
    cable = cable_inv_v0((p, q), comp)
    lhs = lens_d(p * q, 1, 0) - 2 * _niwu_v(cable.v_seq or (), p * q, 1, 0)
    proj = spinc_projection_zero(p, q)
    rhs = lens_d(q, p, proj.pi1) - 2 * _niwu_v(comp.v_seq, q, p, proj.pi1) + lens_d(p, q, proj.pi2)
    if lhs != rhs:
        return ("fail", f"companion T({a},{b}), stage ({p},{q}): lhs {lhs} != rhs {rhs}")
    return ("pass", f"companion T({a},{b}), stage ({p},{q})")


def run_verify_moser(max_param: int) -> VerifyReport:
    """Sweep moser_case over torus companions T(a, b) with a < b <= max_param
    and all coprime stages (p, q) with p, q <= max_param."""
    check_int(max_param, "sweep bound", 2)
    companions = [(1, 2)] + [(a, b)
                             for a in range(2, max_param + 1)
                             for b in range(a + 1, max_param + 1)
                             if gcd(a, b) == 1]
    stages = [(p, q)
              for p in range(1, max_param + 1)
              for q in range(1, max_param + 1)
              if gcd(p, q) == 1]
    results = []
    for a, b in companions:
        comp = torus_knot_invariants(a, b)
        results += [moser_case(a, b, p, q, comp) for p, q in stages]
    failures = tuple(d for (st, d) in results if st == "fail")
    skipped = tuple(d for (st, d) in results if st == "skip")
    checked = sum(1 for (st, _) in results if st == "pass")
    return VerifyReport("moser", checked, failures, skipped)


# ---------------------------------------------------------------------------
# engine property suite

def figure_eight_complex() -> IotaComplex:
    """The motivating small complex with nontrivial involutive data:
    generators a, c at grading 0 and b at grading -1 with db = U*c, and
    the involution a -> a + c (b, c fixed).  Invariants (d, d_lower,
    d_upper) = (0, -2, 0)."""
    cx = GradedComplex(
        [("a", Fraction(0)), ("c", Fraction(0)), ("b", Fraction(-1))],
        {"b": [("c", 1)]},
    )
    return IotaComplex(cx, {"a": [("a", 0), ("c", 0)], "c": [("c", 0)], "b": [("b", 0)]})


def swap_complex() -> IotaComplex:
    """Two cycles at grading 0 identified in homology, swapped by the
    involution.  Invariants (0, 0, 0)."""
    cx = GradedComplex(
        [("e1", Fraction(0)), ("e2", Fraction(0)), ("f", Fraction(1))],
        {"f": [("e1", 0), ("e2", 0)]},
    )
    return IotaComplex(cx, {"e1": [("e2", 0)], "e2": [("e1", 0)], "f": [("f", 0)]})


def _serialize(ic: IotaComplex) -> str:
    return json.dumps(complex_to_dict(ic), sort_keys=True)


_Solved = tuple[int, IotaComplex, DResults | None]


def _engine_case(case_seed: int) -> tuple[_Solved, list[str]]:
    """All single-complex engine checks for one random complex.  Returns
    (seed, complex, results or None if they failed) for the products too."""
    ic = random_iota_complex(case_seed, max_order=4)
    fails: list[str] = []
    try:
        base = d_results(ic, check=False)
    except InternalCheckError as exc:
        return (case_seed, ic, None), [f"seed {case_seed}: {exc}; complex {_serialize(ic)}"]
    span = homology_summary(ic, check=False).torsion_exponent + len(ic.complex.generators)
    got = brute_oracle(ic, truncation=span, check=False)
    if (got.d, got.lower, got.upper) != (base.d, base.lower, base.upper):
        fails.append(f"seed {case_seed}: engine {base} != brute {got}; complex {_serialize(ic)}")

    mirror = d_results(dual(ic), check=False)
    if (mirror.d, mirror.lower, mirror.upper) != (-base.d, -base.upper, -base.lower):
        fails.append(f"seed {case_seed}: dual complex gives {mirror}, not (-d, -upper, -lower) "
                     f"of {base}; complex {_serialize(ic)}")

    identity = {g: [(g, 0)] for g in ic.complex.generators}
    trivial = d_results(IotaComplex(ic.complex, identity), check=False)
    if not trivial.lower == trivial.d == trivial.upper == base.d:
        fails.append(f"seed {case_seed}: identity involution must give equal invariants, "
                     f"got {trivial}; complex {_serialize(ic)}")
    return (case_seed, ic, base), fails


def _tensor_case(first: _Solved, second: _Solved) -> list[str]:
    """Product checks on two solved factors: d additivity and the
    interleaved inequality chain."""
    (sa, a, ra), (sb, b, rb) = first, second
    if ra is None or rb is None:
        return [f"seeds {sa},{sb}: product not checked, a factor failed"]
    try:
        rt = d_results(tensor(a, b), check=False)
    except InternalCheckError as exc:
        return [f"seeds {sa},{sb}: {exc}; complexes {_serialize(a)} | {_serialize(b)}"]
    fails: list[str] = []
    if rt.d != ra.d + rb.d:
        fails.append(f"seeds {sa},{sb}: d not additive: {rt.d} != {ra.d} + {rb.d}; "
                     f"complexes {_serialize(a)} | {_serialize(b)}")
    chain = (ra.lower + rb.lower <= rt.lower <= ra.lower + rb.upper
             <= rt.upper <= ra.upper + rb.upper)
    if not chain:
        fails.append(f"seeds {sa},{sb}: inequality chain violated: "
                     f"A {ra}, B {rb}, product {rt}; "
                     f"complexes {_serialize(a)} | {_serialize(b)}")
    return fails


def run_verify_engine(n_random: int, seed: int = 0) -> VerifyReport:
    """Randomized property suite for the engine.

    Always starts from the two fixed fixtures, then draws n_random seeded
    complexes: each must agree with the cycle/cocycle oracle, give
    (-d, -d_upper, -d_lower) on its dual complex, collapse to equal
    invariants under the identity involution, and satisfy additivity plus
    the inequality chain under tensor products in consecutive pairs.
    """
    check_int(n_random, "n_random", 1)
    check_int(seed, "seed")

    failures: list[str] = []
    for name, builder, expect in (
        ("figure-eight-like", figure_eight_complex, (0, -2, 0)),
        ("swap", swap_complex, (0, 0, 0)),
    ):
        res = d_results(builder())
        got = (res.d, res.lower, res.upper)
        if got != tuple(Fraction(v) for v in expect):
            failures.append(f"fixture {name}: expected {expect}, got {got}")

    # products pair consecutive seeds; their failures follow all single ones
    product_failures: list[str] = []
    for k in range(n_random):
        solved, fs = _engine_case(seed + k)
        failures.extend(fs)
        if k % 2:
            product_failures.extend(_tensor_case(previous, solved))
        previous = solved
    failures.extend(product_failures)

    n_pairs = n_random // 2
    return VerifyReport("engine", 2 + n_random + n_pairs, tuple(failures), (),
                        (f"seed {seed}, {n_random} random complexes, {n_pairs} products",))
