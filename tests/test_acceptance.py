"""End-to-end gates, one test per headline behavior.

Every numeric comparison here is exact (integer or Fraction equality,
zero tolerance); the library itself never produces floats.  The wall-time
assertions keep the sweeps honest about being desk-scale.
"""

import time
from fractions import Fraction
from math import gcd

from alexander_oracle import alexander_torus, torsion_coeff

from cablecalc.concordance import (
    KnotInvariants,
    KnotSpec,
    cable_inv_v0,
    iterated_cable,
    slice_obstruction,
    torus_knot_invariants,
    unknotting_bounds,
)
from cablecalc.iota import d_results
from cablecalc.lens import lens_d
from cablecalc.torus import gap_vs, torus_vs
from cablecalc.verify import (
    figure_eight_complex,
    moser_case,
    run_verify_engine,
    run_verify_identity13,
    swap_complex,
)


def test_surgery_identity_sweep_exact():
    """pq-surgery on T(p,q) computed two ways agrees for all odd coprime
    3 <= p < q <= 35, with the (3,5) spot value -1/2 on both sides."""
    start = time.perf_counter()
    report = run_verify_identity13(35)
    elapsed = time.perf_counter() - start

    expected_pairs = sum(
        1
        for p in range(3, 36, 2)
        for q in range(p + 2, 36, 2)
        if gcd(p, q) == 1
    )
    assert report.ok, report.failures
    assert report.checked == expected_pairs

    lhs = lens_d(15, 1, 0) - 2 * torsion_coeff(alexander_torus(3, 5), 0)
    rhs = lens_d(5, 3, 1) + lens_d(3, 5, 2)
    assert lhs == rhs == Fraction(-1, 2)
    assert elapsed < 1.0


def test_doubled_torus_companion_bound_report():
    """A companion with v_lower = 3 and V0 = 0 at stage (3,2): the
    involutive bound 6 beats both the torsion-order bound 3 and the
    V0-based bound 1, and the cable's v_lower is 4."""
    companion = KnotInvariants(3, 0, v_seq=(0,))
    report = unknotting_bounds((3, 2), companion, v0_companion=0)
    assert report.entry("involutive-lower").value == 6
    assert report.entry("hlp").value == 3
    assert report.entry("v0-based").value == 1
    assert report.maximum == 6
    assert cable_inv_v0((3, 2), companion).v_lower == 4


def test_involutive_bound_beats_torsion_bound_on_twist_family():
    """Companions with v_lower = n at stage (n,2), n in {3,5,7}: the
    involutive bound 2n + 2*V0(T(2,n)) - 2 strictly exceeds the
    torsion-order bound n.  V0(T(2,n)) is 1 for n = 3,5 (bound 2n) and
    2 for n = 7 (bound 16)."""
    expected = {3: 6, 5: 10, 7: 16}
    for n in (3, 5, 7):
        companion = KnotInvariants(n, 0, v_seq=(0,))
        report = unknotting_bounds((n, 2), companion)
        bound = report.entry("involutive-lower").value
        assert bound == 2 * n + 2 * torus_vs(2, n)[0] - 2
        assert bound == expected[n]
        assert report.entry("hlp").value == n
        assert bound > n


def test_vsequence_two_algorithms_agree_everywhere():
    """The torsion-coefficient route and the semigroup-gap route produce
    identical V-sequences for every coprime 2 <= p < q <= 30."""
    start = time.perf_counter()
    checked = 0
    for p in range(2, 31):
        for q in range(p + 1, 31):
            if gcd(p, q) != 1:
                continue
            assert torus_vs(p, q) == gap_vs(p, q), (p, q)
            checked += 1
    elapsed = time.perf_counter() - start

    assert checked == sum(
        1 for p in range(2, 31) for q in range(p + 1, 31) if gcd(p, q) == 1
    )
    assert torus_vs(2, 3) == (1, 0)
    assert torus_vs(3, 5) == (2, 1, 1, 1, 0)
    assert elapsed < 1.0


def sieve_tower_vs(a, b, stages):
    """V-sequence of an iterated L-space cable of T(a, b) (p >= 2 at every
    stage) by sieving the members of its semigroup p*S + q*N below 2g."""
    g = (a - 1) * (b - 1) // 2
    member = [any((n - a * x) % b == 0 for x in range(n // a + 1)) for n in range(2 * g)]
    for p, q in stages:
        g_new = p * g + (p - 1) * (q - 1) // 2
        new = [False] * (2 * g_new)
        for s in range(2 * g_new // p + 1):
            if s >= 2 * g or member[s]:
                for n in range(p * s, 2 * g_new, q):
                    new[n] = True
        member, g = new, g_new
    vs = [0] * (g + 1)
    for s in range(g - 1, -1, -1):
        vs[s] = vs[s + 1] + (not member[s + g])
    return tuple(vs)


def test_genus_5513_tower_is_linear_time():
    """The T(2,3) tower with stages (5,41), (3,1001), (2,6007) reaches genus
    5513; its V-sequence matches a semigroup sieve within 0.5 s (the
    Alexander-polynomial route took about 5 s)."""
    stages = ((5, 41), (3, 1001), (2, 6007))
    start = time.perf_counter()
    got = iterated_cable(KnotSpec(torus_knot_invariants(2, 3), stages))
    elapsed = time.perf_counter() - start
    assert (got.genus3, got.lspace) == (5513, True)
    assert got.v_seq == sieve_tower_vs(2, 3, stages)
    assert elapsed < 0.5


def test_connected_sum_surgery_consistency_pipeline():
    """pq-surgery on a cable of a torus knot, computed through the cabling
    formula, equals the connected-sum value at spin-c [0] for every
    in-regime stage (p <= 4, q <= 25) over four companions."""
    start = time.perf_counter()
    passes = 0
    for a, b in [(2, 3), (2, 5), (3, 4), (3, 5)]:
        for p in range(1, 5):
            for q in range(1, 26):
                if gcd(p, q) != 1:
                    continue
                status, detail = moser_case(a, b, p, q)
                assert status in ("pass", "skip"), detail
                if status == "pass":
                    passes += 1
    elapsed = time.perf_counter() - start
    assert passes > 100
    assert elapsed < 5.0


def test_engine_randomized_property_suite():
    """500 seeded random iota-complexes: the three invariants are ordered,
    the cycle/cocycle oracle agrees, the dual complex gives (-d, -d_upper,
    -d_lower), the identity involution collapses them, and tensor products
    of consecutive pairs satisfy additivity and the inequality chain."""
    start = time.perf_counter()
    report = run_verify_engine(500, seed=0)
    elapsed = time.perf_counter() - start
    assert report.ok, report.failures[:3]
    assert report.checked == 2 + 500 + 250
    assert elapsed < 60.0


def test_fixture_complex_invariants():
    """Hand-checked fixtures: the figure-eight-like complex has
    (d, d_lower, d_upper) = (0, -2, 0); the swap complex has (0, 0, 0)."""
    res = d_results(figure_eight_complex())
    assert (res.d, res.lower, res.upper) == (Fraction(0), Fraction(-2), Fraction(0))
    res = d_results(swap_complex())
    assert (res.d, res.lower, res.upper) == (Fraction(0), Fraction(0), Fraction(0))


def test_iterated_cable_slice_obstruction():
    """(p,1)-cabling stages change nothing: base invariants (1,0) survive
    [(3,1),(5,1)] and obstruct sliceness; a trivial base does not."""
    got = iterated_cable(KnotSpec(KnotInvariants(1, 0), ((3, 1), (5, 1))))
    assert (got.v_lower, got.v_upper) == (1, 0)
    assert slice_obstruction(got) == "obstructed (not smoothly slice)"

    trivial = iterated_cable(KnotSpec(KnotInvariants(0, 0), ((3, 1), (5, 1))))
    assert slice_obstruction(trivial) == "no obstruction"
