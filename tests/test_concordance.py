import json
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from alexander_oracle import alexander_cable_vs
from test_lens import block_edge_cases

from cablecalc.concordance import (
    CableStage,
    KnotInvariants,
    KnotSpec,
    cable_inv_v0,
    genus_bounds,
    invariants_to_dict,
    involutive_surgery_d,
    iterated_cable,
    knot_spec_from_dict,
    niwu_d,
    slice_obstruction,
    spinc_projection_zero,
    torus_knot_invariants,
    unknotting_bounds,
    _check_vseq,
)
from cablecalc.errors import InsufficientDataError, ValidationError
from cablecalc.lens import conj_spinc, lens_d, lens_d_vector
from cablecalc.torus import torus_vs

UNKNOT = KnotInvariants(0, 0, v_seq=(0,), lspace=True)


def random_vseq(rng):
    """A random V-sequence (steps of 0 or -1) followed by 0-3 padding zeros."""
    steps = [rng.randint(0, 1) for _ in range(rng.randint(0, 12))]
    return tuple(sum(steps[s:]) for s in range(len(steps) + 1)) + (0,) * rng.randint(0, 3)


# ---------------------------------------------------------------------------
# record validation


def test_knot_invariants_rejects_upper_above_lower():
    with pytest.raises(ValidationError):
        KnotInvariants(0, 1)


def test_knot_invariants_vseq_sandwich():
    KnotInvariants(2, 0, v_seq=(1, 0))
    with pytest.raises(ValidationError):
        KnotInvariants(2, 1, v_seq=(3, 2, 1, 0))
    with pytest.raises(ValidationError):
        KnotInvariants(2, 1, v_seq=(0,))


def test_vseq_shape_is_checked():
    with pytest.raises(ValidationError):
        KnotInvariants(2, 0, v_seq=(2, 0))  # step of 2
    with pytest.raises(ValidationError):
        KnotInvariants(2, 0, v_seq=(2, 1))  # does not end at 0
    with pytest.raises(ValidationError):
        KnotInvariants(0, 0, v_seq=(-1,))
    with pytest.raises(ValidationError):
        KnotInvariants(0, 0, v_seq=())

    # the messages are read off the per-entry checks; an int subclass and
    # an iterator pass them, a bool does not
    class Count(int):
        pass

    one, zero = Count(1), Count(0)
    got = _check_vseq([one, zero])
    assert got == (1, 0) and got[0] is one and got[1] is zero
    assert _check_vseq(iter([2, 1, 1, 0])) == (2, 1, 1, 0)
    assert _check_vseq(()) == ()
    for vs, message in [((True, 0), "v_seq entry must be an integer, got True"),
                        ((1, 0, -1), "v_seq entries must be non-negative, got -1"),
                        ((3, 1, 0), "v_seq must be non-increasing in steps of at most 1 "
                                    "(entries 0..1 are 3, 1)"),
                        ((2, 1), "v_seq must end at 0, got final entry 1")]:
        with pytest.raises(ValidationError) as err:
            _check_vseq(vs)
        assert str(err.value) == message, vs


def test_lspace_flag_requires_vseq():
    with pytest.raises(ValidationError):
        KnotInvariants(1, 1, lspace=True)


def test_cable_stage_validation():
    with pytest.raises(ValidationError):
        CableStage(2, 4)
    with pytest.raises(ValidationError):
        CableStage(0, 3)
    with pytest.raises(ValidationError):
        CableStage(3, -1)
    assert CableStage(2, 3).s_even_case == 2
    assert CableStage(2, 1).s_even_case == 0
    with pytest.raises(ValidationError):
        CableStage(3, 2).s_even_case


def test_torus_knot_invariants():
    inv = torus_knot_invariants(2, 3)
    assert (inv.v_lower, inv.v_upper) == (1, 1)
    assert inv.v_seq == (1, 0)
    assert inv.genus3 == inv.genus4 == 1
    assert inv.lspace
    with pytest.raises(ValidationError):
        torus_knot_invariants(2, 4)


# ---------------------------------------------------------------------------
# surgery d-invariants


def test_niwu_unknot_matches_lens_space():
    for p, q in [(3, 1), (3, 2), (5, 3), (7, 4)]:
        assert niwu_d(p, q) == lens_d_vector(p, q)
        assert niwu_d(p, q, ()) == lens_d_vector(p, q)


def test_niwu_plus_one_surgery_values():
    assert niwu_d(1, 1, (1, 0)) == [Fraction(-2)]
    assert niwu_d(1, 1, (2, 1, 1, 1, 0)) == [Fraction(-4)]


def test_niwu_matches_per_label_formula():
    rng = random.Random(11)
    checked = 0
    while checked < 80:
        vs, p, q = random_vseq(rng), rng.randint(1, 150), rng.randint(1, 30)
        if gcd(p, q) != 1:
            continue
        v = vs + (0,) * (p // q + 2)
        want = [lens_d(p, q, s) - 2 * max(v[s // q], v[(p + q - 1 - s) // q]) for s in range(p)]
        assert niwu_d(p, q, vs) == want, (p, q, vs)
        if p % 2 == 0 or q % 2 == 0:
            j = ((p + q - 1) // 2) % p
            pair = involutive_surgery_d(p, q, KnotInvariants(vs[0], vs[0], v_seq=vs))
            assert pair[j] == (want[j], lens_d(p, q, j)), (p, q, vs)
        checked += 1


def test_niwu_mirrors_each_block_exactly():
    # block edges of lens_d_vector, plus q > p, where the V index s // q
    # uses the unreduced q; long and short V-sequences against the formula
    rng = random.Random(13)
    cases = block_edge_cases(7)
    cases += [(p, q + k * p) for p, q in cases if p < 24 for k in (1, 3)]
    cases += [(2003, 7), (2003, 2), (1000, 1)]
    vseqs = [torus_vs(7, 11), torus_vs(2, 9), (3, 2, 1, 0), (0,)]
    for p, q in cases:
        vs = rng.choice(vseqs) if p > 24 else random_vseq(rng)
        v = vs + (0,) * (p // q + 2)
        want = [lens_d(p, q, s) - 2 * max(v[s // q], v[(p + q - 1 - s) // q]) for s in range(p)]
        got = niwu_d(p, q, vs)
        assert got == want, (p, q, vs)
        assert all(got[s] is got[conj_spinc(p, q, s)] for s in range(p)), (p, q, vs)


def test_label_vectors_hold_reduced_shared_fractions():
    # p = 1 and 2, even p, q > p, q = +-1 mod p, V-sequences longer than p/q
    cases = [(1, 1), (1, 4), (2, 1), (2, 5), (10, 3), (64, 7), (7, 30), (11, 25),
             (13, 1), (13, 12), (13, 14), (13, 25), (301, 2)]
    for p, q in cases:
        for vs in (None, (1, 0), torus_vs(5, 7), torus_vs(2, 81)):
            got = lens_d_vector(p, q) if vs is None else niwu_d(p, q, vs)
            v = (vs or (0,)) + (0,) * (p // q + 2)
            assert got == [lens_d(p, q, s) - 2 * max(v[s // q], v[(p + q - 1 - s) // q])
                           for s in range(p)], (p, q, vs)
            for x in got:
                assert type(x) is Fraction, (p, q, vs)
                assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1, (p, q, vs, x)
                assert hash(x) == hash(Fraction(x.numerator, x.denominator)), (p, q, vs, x)
            assert all(got[s] is got[conj_spinc(p, q, s)] for s in range(p)), (p, q, vs)


def test_label_vectors_trace_under_64_bytes_per_label():
    # one Fraction per conjugate pair with shared denominators: about 56
    # traced bytes per label; Fraction(n, den) per pair takes about 72
    vs = torus_vs(2, 401)
    niwu_d(5, 3, vs)  # so that no first-call allocation is counted
    for build in (lambda: lens_d_vector(20011, 797), lambda: niwu_d(20011, 3, vs)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            vec = build()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(vec) == 20011
        assert peak / 20011 < 64, peak / 20011


def test_niwu_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        niwu_d(4, 2, ())
    with pytest.raises(ValidationError):
        niwu_d(0, 1, ())
    with pytest.raises(ValidationError):
        niwu_d(3, 2, (2, 0))


def test_involutive_surgery_plus_one():
    table = involutive_surgery_d(1, 1, KnotInvariants(1, 0))
    assert table == {0: (Fraction(-2), Fraction(0))}


def test_involutive_surgery_two_one_unknot():
    table = involutive_surgery_d(2, 1, UNKNOT)
    assert table == {
        0: (Fraction(1, 4), Fraction(1, 4)),
        1: (Fraction(-1, 4), Fraction(-1, 4)),
    }


def test_involutive_surgery_even_case_needs_vseq():
    with pytest.raises(InsufficientDataError):
        involutive_surgery_d(3, 2, KnotInvariants(1, 0))
    # with the sequence supplied the even-parameter label is computable
    table = involutive_surgery_d(3, 2, KnotInvariants(1, 0, v_seq=(1, 0)))
    assert sorted(table) == [2]


def test_involutive_surgery_label_sets():
    # odd q: one self-conjugate label; even p or q: the paired labels
    assert sorted(involutive_surgery_d(3, 1, KnotInvariants(1, 0))) == [0]
    assert sorted(involutive_surgery_d(5, 3, KnotInvariants(1, 0))) == [1]
    assert sorted(involutive_surgery_d(4, 1, UNKNOT)) == [0, 2]


# ---------------------------------------------------------------------------
# spin-c projections


def test_spinc_projection_case_table():
    for (p, q), expected in [((3, 5), (1, 2)), ((3, 2), (1, 2)), ((2, 3), (2, 1))]:
        proj = spinc_projection_zero(p, q)
        assert (proj.pi1, proj.pi2) == expected


def test_spinc_projection_ranges():
    for p, q in [(3, 5), (5, 3), (2, 7), (7, 2), (4, 9), (9, 4)]:
        proj = spinc_projection_zero(p, q)
        assert 0 <= proj.pi1 < q
        assert 0 <= proj.pi2 < p


# ---------------------------------------------------------------------------
# cabling


def test_cable_v0_odd_p():
    assert cable_inv_v0((3, 2), UNKNOT).v_lower == 1
    assert cable_inv_v0((3, 2), UNKNOT).v_upper == 1
    got = cable_inv_v0((3, 2), KnotInvariants(3, 0, v_seq=(0,)))
    assert got.v_lower == 4


def test_cable_v0_even_p():
    inv = KnotInvariants(1, 0, v_seq=(1, 0))
    got = cable_inv_v0((2, 1), inv)
    assert (got.v_lower, got.v_upper) == (1, 0)

    got = cable_inv_v0((2, 3), torus_knot_invariants(3, 5))
    assert (got.v_lower, got.v_upper) == (2, 1)


def test_cable_v0_even_p_needs_vseq():
    with pytest.raises(InsufficientDataError):
        cable_inv_v0((2, 3), KnotInvariants(1, 0))


def test_cable_v0_gap_preserved_for_odd_p():
    inv = KnotInvariants(5, 2)
    for stage in [(3, 2), (5, 4), (7, 1)]:
        got = cable_inv_v0(stage, inv)
        assert got.v_lower - got.v_upper == 3


def test_cable_v0_even_p_of_unknot_is_torus_value():
    for p, q in [(2, 3), (2, 7), (4, 3), (4, 9)]:
        got = cable_inv_v0((p, q), UNKNOT)
        assert got.v_lower == got.v_upper == torus_vs(p, q)[0]


def test_cable_vseq_propagation_in_lspace_regime():
    # (2,7)-cable of the trefoil: 7 >= 2*(2*1 - 1), so the full sequence
    # carries through and must agree with the headline invariants
    got = cable_inv_v0((2, 7), torus_knot_invariants(2, 3))
    assert got.lspace and got.v_seq is not None
    assert got.v_seq[0] == got.v_lower == got.v_upper == 2
    assert got.genus3 == got.genus4 == len(got.v_seq) - 1

    # (2,1)-cable of the trefoil: 1 < 2*(2*1 - 1) leaves the regime,
    # so the sequence is dropped
    got = cable_inv_v0((2, 1), torus_knot_invariants(2, 3))
    assert got.v_seq is None and not got.lspace
    assert (got.v_lower, got.v_upper) == (1, 0)


def test_cable_vs_matches_alexander_route_on_custom_lspace_companions():
    """cable_inv_v0 against the Alexander-polynomial route on random custom
    L-space V-sequences with padded tails, for p = 1..5 and q at the
    L-space threshold p(2g - 1) (so (1, 2g - 1) too), just above it, and
    at random, where the cable often leaves the regime."""
    rng = random.Random(20241017)
    checked = 0
    for _ in range(300):
        vs = random_vseq(rng)
        g = sum(1 for v in vs if v > 0)
        companion = KnotInvariants(vs[0], vs[0], v_seq=vs, lspace=True)
        for p in range(1, 6):
            threshold = max(1, p * (2 * g - 1))
            for q in sorted({threshold, threshold + 1, rng.randint(1, 40)}):
                if gcd(p, q) != 1:
                    continue
                want = alexander_cable_vs(vs, p, q)
                got = cable_inv_v0((p, q), companion)
                assert got.v_seq == want, (vs, p, q)
                assert got.lspace is (want is not None)
                assert got.genus3 == got.genus4 == (None if want is None else len(want) - 1)
                checked += 1
    assert checked > 2000


def test_iterated_cable_of_unknot_is_torus_knot():
    got = iterated_cable(KnotSpec(UNKNOT, ((3, 2),)))
    assert (got.v_lower, got.v_upper) == (1, 1)


def test_iterated_cable_one_one_stages():
    base = KnotInvariants(1, 0)
    got = iterated_cable(KnotSpec(base, ((3, 1), (5, 1), (7, 1))))
    assert (got.v_lower, got.v_upper) == (1, 0)


def test_iterated_cable_unknot_absorbing():
    got = iterated_cable(KnotSpec(UNKNOT, ((3, 1), (5, 1), (9, 1))))
    assert (got.v_lower, got.v_upper) == (0, 0)
    assert slice_obstruction(got) == "no obstruction"


def test_iterated_cable_names_failing_stage():
    spec = KnotSpec(KnotInvariants(1, 0), ((3, 1), (2, 3)))
    with pytest.raises(InsufficientDataError, match=r"stage 2 of 2 \(2,3\)"):
        iterated_cable(spec)


# ---------------------------------------------------------------------------
# verdicts and bounds


def test_slice_obstruction_strings():
    assert slice_obstruction(KnotInvariants(1, 0)) == "obstructed (not smoothly slice)"
    assert slice_obstruction(KnotInvariants(0, -1)) == "obstructed (not smoothly slice)"
    assert slice_obstruction(KnotInvariants(0, 0)) == "no obstruction"


def test_genus_bounds():
    assert genus_bounds(KnotInvariants(0, 0)) == 0
    assert genus_bounds(KnotInvariants(3, 0)) == 4
    assert genus_bounds(KnotInvariants(0, -2)) == 2
    # g4 = 2V - 2 is attained: ceil((g+1)/2) = V holds at that genus,
    # so the bound must not be any larger
    assert genus_bounds(KnotInvariants(1, 1, v_seq=(1, 0))) == 0


def test_unknotting_bounds_report():
    companion = KnotInvariants(3, 0, v_seq=(0,))
    report = unknotting_bounds((3, 2), companion, v0_companion=0)
    assert report.entry("involutive-lower").value == 6
    assert report.entry("hlp").value == 3
    assert report.entry("v0-based").value == 1
    assert report.maximum == 6


def test_unknotting_bounds_unknot_companion():
    # the (3,2)-cable of the unknot is T(3,2), whose unknotting number is 1
    report = unknotting_bounds((3, 2), UNKNOT, v0_companion=0)
    assert report.entry("involutive-lower").value == 0
    assert report.entry("hlp").value is None
    assert "nontrivial companion" in report.entry("hlp").note
    assert report.maximum == 1


def test_hlp_needs_a_nonzero_companion_invariant():
    # an all-zero companion at (2,3) gives T(2,3), unknotting number 1
    assert unknotting_bounds((2, 3), UNKNOT, v0_companion=0).maximum == 1
    for inv in (KnotInvariants(0, 0, v_seq=(0,), genus3=1), KnotInvariants(0, 0, genus4=2),
                KnotInvariants(1, 0), KnotInvariants(0, -1), KnotInvariants(1, 1, v_seq=(1, 0))):
        assert unknotting_bounds((2, 3), inv, v0_companion=0).entry("hlp").value == 2


def test_unknotting_bounds_torsion_growth():
    # doubled torus companions with v_lower = n against an (n,2)-stage:
    # the involutive bound is 2n + 2*V0(T(n,2)) - 2 and beats the
    # torsion-order bound n strictly
    for n in (3, 5, 7):
        companion = KnotInvariants(n, 0, v_seq=(0,))
        report = unknotting_bounds((n, 2), companion)
        expected = 2 * n + 2 * torus_vs(2, n)[0] - 2
        assert report.entry("involutive-lower").value == expected
        assert report.entry("hlp").value == n
        assert expected > n


def test_unknotting_bounds_even_p_marks_not_applicable():
    report = unknotting_bounds((2, 3), KnotInvariants(1, 0, v_seq=(1, 0)))
    assert report.entry("involutive-lower").value is None
    assert "odd p" in report.entry("involutive-lower").note
    assert report.entry("hlp").value == 2
    assert report.maximum == 2


def test_unknotting_bounds_parity_refinement():
    companion = KnotInvariants(3, 0, v_seq=(0,))
    base = unknotting_bounds((3, 2), companion)
    odd = unknotting_bounds((3, 2), companion, g4_parity="odd")
    even = unknotting_bounds((3, 2), companion, g4_parity="even")
    assert base.entry("involutive-lower").value == 6
    assert odd.entry("involutive-lower-parity").value == 7
    assert even.entry("involutive-lower-parity").value == 6
    with pytest.raises(ValidationError):
        unknotting_bounds((3, 2), companion, g4_parity="unknown")
    assert all(e.name != "involutive-lower-parity" for e in base.entries)


def test_unknotting_bounds_v0_optional():
    report = unknotting_bounds((3, 2), KnotInvariants(3, 0))
    assert report.entry("v0-based").value is None
    assert report.maximum == 6


# ---------------------------------------------------------------------------
# JSON interface


def test_knot_spec_from_dict_torus_base():
    spec = knot_spec_from_dict({"base": {"type": "torus", "p": 2, "q": 3}, "stages": [[2, 7]]})
    assert spec.base.v_seq == (1, 0)
    assert spec.stages == (CableStage(2, 7),)


def test_knot_spec_from_dict_custom_base():
    spec = knot_spec_from_dict(
        {"base": {"type": "custom", "v_lower": 3, "v_upper": 0, "v_seq": [0]}, "stages": []}
    )
    assert spec.base.v_lower == 3
    assert spec.base.v_seq == (0,)


def test_knot_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        knot_spec_from_dict({"base": {"type": "torus", "p": 2, "q": 3}, "extra": 1})
    with pytest.raises(ValidationError):
        knot_spec_from_dict({"base": {"type": "torus", "p": 2, "q": 3, "spin": 1}, "stages": []})
    with pytest.raises(ValidationError):
        knot_spec_from_dict({"base": {"type": "mystery"}, "stages": []})
    with pytest.raises(ValidationError):
        knot_spec_from_dict({"base": {"type": "torus", "p": 2, "q": 3}, "stages": [[2, 3, 4]]})


def test_invariants_round_trip_through_json():
    inv = torus_knot_invariants(3, 5)
    data = json.loads(json.dumps(invariants_to_dict(inv)))
    assert data["v_lower"] == data["v_upper"] == 2
    assert data["v_seq"] == [2, 1, 1, 1, 0]
    assert data["lspace"] is True
