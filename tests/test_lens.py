import random
from fractions import Fraction
from math import gcd

import pytest

from cablecalc.errors import ValidationError
from cablecalc.lens import conj_spinc, lens_d, lens_d_vector, selfconj_spinc


def test_base_cases():
    assert lens_d(1, 1, 0) == 0
    assert lens_d(1, 5, 0) == 0


def test_hand_values():
    assert lens_d(2, 1, 0) == Fraction(1, 4)
    assert lens_d(2, 1, 1) == Fraction(-1, 4)
    assert lens_d(3, 2, 1) == Fraction(1, 6)
    assert lens_d(3, 2, 2) == Fraction(-1, 2)
    assert lens_d(5, 3, 1) == 0


def test_q_reduced_mod_p():
    # label is kept while q is reduced
    assert lens_d(3, 5, 2) == lens_d(3, 2, 2) == Fraction(-1, 2)
    assert lens_d(2, 7, 1) == lens_d(2, 1, 1)


def test_integer_surgery_closed_form():
    # one recursion step gives d(L(p,1), i) = ((2i - p)^2 - p) / (4p)
    for p in range(1, 50):
        for i in range(p):
            expected = Fraction((2 * i - p) ** 2 - p, 4 * p)
            assert lens_d(p, 1, i) == expected


def test_validation_errors():
    with pytest.raises(ValidationError):
        lens_d(4, 2, 0)
    with pytest.raises(ValidationError):
        lens_d(0, 1, 0)
    with pytest.raises(ValidationError):
        lens_d(3, 2, 3)
    with pytest.raises(ValidationError):
        lens_d(3, 2, -1)
    with pytest.raises(ValidationError):
        conj_spinc(3, 2, 5)


def test_labels_must_be_ints():
    # 1.5 used to raise TypeError from lens_d and give conj_spinc 4.5, and
    # True passed as label 1
    for bad in (1.5, True, False, "1", None, Fraction(1)):
        for call in (lens_d, conj_spinc):
            with pytest.raises(ValidationError, match="spin-c label must be an integer"):
                call(5, 2, bad)


def test_conjugation_symmetry():
    for p in range(1, 13):
        for q in range(1, p + 5):
            if gcd(p, q) != 1:
                continue
            for i in range(p):
                j = conj_spinc(p, q, i)
                assert conj_spinc(p, q, j) == i
                assert lens_d(p, q, i) == lens_d(p, q, j)


def test_conj_examples():
    assert conj_spinc(3, 2, 1) == 0
    assert conj_spinc(2, 1, 0) == 0
    assert conj_spinc(2, 1, 1) == 1


def test_selfconj_matches_fixed_points():
    for p in range(1, 14):
        for q in range(1, 16):
            if gcd(p, q) != 1:
                continue
            fixed = sorted(i for i in range(p) if conj_spinc(p, q, i) == i)
            assert selfconj_spinc(p, q) == fixed


def test_selfconj_examples():
    assert selfconj_spinc(3, 5) == [2]
    assert selfconj_spinc(2, 1) == [0, 1]
    assert selfconj_spinc(3, 2) == [2]
    assert selfconj_spinc(1, 1) == [0]


def test_vector_shape():
    v = lens_d_vector(5, 2)
    assert len(v) == 5
    assert v[1] == lens_d(5, 2, 1)


def test_vector_shares_one_fraction_per_conjugate_pair():
    # d(i) = d(conj i): both labels of a conjugate pair hold the same object
    vec = lens_d_vector(2003, 45)
    assert len({id(v) for v in vec}) == len(set(vec)) == 1002
    vec = lens_d_vector(4, 1)
    assert vec[1] == 0 and vec[1] is vec[3]


def block_edge_cases(seed):
    """Coprime (p, q) at the edges of the two conjugation blocks 0..q-1 and
    q..p-1: p = 1 and 2, q = 1 and p - 1, every parity of (q, p - q) (odd
    blocks have a self-conjugate middle label, even ones none) and random p
    from 10^3 to 10^4."""
    cases = [(1, 1), (2, 1)]
    for p in range(3, 24):
        cases += [(p, 1), (p, p - 1)]
        cases += [(p, q) for q in range(2, p - 1) if gcd(p, q) == 1 and q in (2, 3, p // 2, p - 2)]
    rng = random.Random(seed)
    for _ in range(4):
        p = rng.randint(10**3, 10**4)
        q = rng.randrange(1, p)
        while gcd(p, q) != 1:
            q -= 1
        cases.append((p, q))
    assert {(q % 2, (p - q) % 2) for p, q in cases if q < p} == {(0, 1), (1, 0), (1, 1)}
    return cases


def test_vector_mirrors_each_block_exactly():
    for p, q in block_edge_cases(5):
        vec = lens_d_vector(p, q)
        assert vec == [lens_d(p, q, i) for i in range(p)], (p, q)
        assert all(vec[i] is vec[conj_spinc(p, q, i)] for i in range(p)), (p, q)


def old_lens_vector(p, q):
    """The per-label Fraction recursion the vector route replaced, memoized
    per (p, q, label) as it was."""
    memo = {}

    def d(p, q, i):
        if p == 1:
            return Fraction(0)
        key = (p, q, i)
        if key not in memo:
            q = q % p
            memo[key] = Fraction((2 * i + 1 - p - q) ** 2 - p * q, 4 * p * q) - d(q, p % q, i % q)
        return memo[key]

    return [d(p, q, i) for i in range(p)]


def test_vector_matches_per_label_and_old_recursion():
    rng = random.Random(3)
    cases = [(p, q) for p in range(1, 41) for q in range(1, p + 3) if gcd(p, q) == 1]
    for p in range(41, 301):
        cases += [(p, q) for q in (rng.randrange(2, p), p - 2) if gcd(p, q) == 1]
    cases += [(2999, 1234), (3001, 17), (3000, 7), (2048, 1023)]
    for p, q in cases:
        vec = lens_d_vector(p, q)
        assert vec == old_lens_vector(p, q), (p, q)
        assert vec == [lens_d(p, q, i) for i in range(p)], (p, q)
