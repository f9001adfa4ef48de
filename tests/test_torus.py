from math import gcd

import pytest
from alexander_oracle import (
    AlexanderPoly,
    alexander_from_vs,
    alexander_torus,
    cable_alexander,
    gap_v,
    torsion_coeff,
    torsion_vs,
)

from cablecalc.errors import ValidationError
from cablecalc.torus import cable_vs, gap_vs, lspace_cable_check, torus_genus, torus_vs


def test_alexander_trefoil():
    assert alexander_torus(2, 3) == AlexanderPoly({1: 1, 0: -1, -1: 1})
    assert alexander_torus(3, 2) == alexander_torus(2, 3)


def test_alexander_unknot():
    assert alexander_torus(1, 1) == AlexanderPoly({0: 1})
    assert alexander_torus(1, 7) == AlexanderPoly({0: 1})
    assert alexander_torus(5, 1).degree == 0


def test_alexander_t34():
    a = alexander_torus(3, 4)
    assert a.degree == torus_genus(3, 4) == 3
    assert a.coeff(3) == 1 and a.coeff(2) == -1 and a.coeff(0) == 1
    assert a.coeff(1) == 0


def test_alexander_poly_validation():
    with pytest.raises(ValidationError):
        AlexanderPoly({1: 1, 0: -1})  # not symmetric
    with pytest.raises(ValidationError):
        AlexanderPoly({1: 1, -1: 1, 0: -2})  # value at t=1 is 0


def test_torsion_coeff_examples():
    assert torsion_coeff(alexander_torus(2, 3), 0) == 1
    assert torsion_coeff(alexander_torus(3, 4), 0) == 1
    assert torsion_coeff(alexander_torus(2, 3), 5) == 0
    with pytest.raises(ValidationError):
        torsion_coeff(alexander_torus(2, 3), -1)


def test_torus_vs_spots():
    assert torus_vs(3, 2) == (1, 0)
    assert torus_vs(2, 3) == (1, 0)
    assert torus_vs(3, 5) == (2, 1, 1, 1, 0)
    assert torus_vs(1, 1) == (0,)
    assert torus_vs(1, 9) == (0,)
    # V_0 of T(2, 2k+1) is ceil(k/2)
    for k in range(1, 12):
        assert torus_vs(2, 2 * k + 1)[0] == (k + 1) // 2


def test_torus_vs_matches_gap_count():
    for p in range(2, 13):
        for q in range(p + 1, 13):
            if gcd(p, q) != 1:
                continue
            vs = torus_vs(p, q)
            g = torus_genus(p, q)
            assert len(vs) == g + 1
            for s in range(g + 1):
                assert vs[s] == gap_v(p, q, s), (p, q, s)
            assert gap_v(p, q, g + 3) == 0


def test_gap_v_validation():
    with pytest.raises(ValidationError):
        gap_v(1, 5, 0)
    with pytest.raises(ValidationError):
        gap_v(2, 4, 0)


def test_cable_alexander():
    tref = alexander_torus(2, 3)
    cab = cable_alexander(tref, 2, 7)
    # degree is p*g + genus of the pattern torus knot
    assert cab.degree == 2 * 1 + torus_genus(2, 7) == 5
    assert torsion_coeff(cab, 0) == 2
    # cabling with (1, q) leaves the polynomial unchanged
    assert cable_alexander(tref, 1, 5) == tref


def test_lspace_cable_check():
    assert lspace_cable_check(1, 2, 7)
    assert not lspace_cable_check(1, 3, 1)
    assert lspace_cable_check(0, 3, 1)
    assert lspace_cable_check(0, 7, 2)
    assert lspace_cable_check(4, 3, 22)
    assert not lspace_cable_check(4, 3, 20)
    with pytest.raises(ValidationError):
        lspace_cable_check(4, 3, 21)


def test_alexander_from_vs_roundtrip():
    for p, q in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 11), (5, 6)]:
        assert alexander_from_vs(torus_vs(p, q)) == alexander_torus(p, q)
    assert alexander_from_vs((0,)) == AlexanderPoly({0: 1})
    with pytest.raises(ValidationError):
        alexander_from_vs((2, 1))


def test_cable_vs_semigroup_crosscheck():
    # V-sequence of the (2,7)-cable of T(2,3) via the cable Alexander
    # polynomial matches a direct gap count in the cable's semigroup
    cab = cable_alexander(alexander_torus(2, 3), 2, 7)
    g = cab.degree
    sg = {2 * s + 7 * m for s in (0, 2, 3, 4, 5, 6, 7, 8) for m in range(4)}
    gaps = [k for k in range(2 * g) if k not in sg]
    assert len(gaps) == g
    for s in range(g + 1):
        assert torsion_coeff(cab, s) == sum(1 for k in gaps if k > s + g - 1)


def test_torus_vs_matches_torsion_coefficients():
    """Gap counts against the Alexander polynomial for every coprime p, q <= 40."""
    for p in range(1, 41):
        for q in range(1, 41):
            if gcd(p, q) == 1:
                assert torus_vs(p, q) == torsion_vs(alexander_torus(p, q)) == gap_vs(p, q), (p, q)
    alex = alexander_torus(7, 9)
    assert tuple(torsion_coeff(alex, s) for s in range(25)) == torus_vs(7, 9)


def test_cable_vs_refuses_a_sequence_without_zero():
    for vs in ((1,), (), (2, 1)):
        with pytest.raises(ValidationError, match="never reaches 0"):
            cable_vs(vs, 2, 3)


def test_cable_vs_spots():
    trefoil = torus_vs(2, 3)
    # (2,7)-cable of the trefoil: semigroup <4, 6, 7>, gaps 1 2 3 5 9
    assert cable_vs(trefoil, 2, 7) == (2, 1, 1, 1, 1, 0)
    # padding zeros do not change the companion's genus
    assert cable_vs(trefoil + (0, 0, 0), 2, 7) == cable_vs(trefoil, 2, 7)
    # a (1, q) stage keeps the knot, padding dropped, even at q = 2g - 1
    assert cable_vs((2, 1, 1, 1, 0, 0), 1, 7) == (2, 1, 1, 1, 0)
    # below the L-space threshold q = p(2g - 1) there is no V-sequence
    assert cable_vs(trefoil, 2, 1) is None
    assert cable_vs(trefoil, 3, 2) is None
    assert cable_vs((0,), 3, 2) == torus_vs(3, 2)
    with pytest.raises(ValidationError):
        cable_vs(trefoil, 2, 4)
