import random
from fractions import Fraction

import pytest

from cablecalc.algebra import (
    BitMatrix,
    Echelon,
    format_rational,
    kernel,
    parse_rational,
)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("0") == 0
    assert parse_rational("  7 ") == 7
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_format_rational_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        r = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
        assert parse_rational(format_rational(r)) == r
        assert parse_rational(format_rational(r)).denominator > 0


def test_format_rational_of_int_and_fraction():
    # every caller passes a Fraction or an int; both print as Fraction(r) does
    for r in (0, 3, -7, Fraction(0), Fraction(-4, 6), Fraction(10, 5), Fraction(1, 3)):
        assert format_rational(r) == str(Fraction(r))
    assert format_rational(Fraction(-4, 6)) == "-2/3"
    assert format_rational(Fraction(10, 5)) == "2"


def test_solve_identity():
    rows = [0b001, 0b010, 0b100]
    assert BitMatrix(rows, 3).solve(0b101) == 0b101


def test_solve_inconsistent():
    # x0 = 0 and x0 = 1
    assert BitMatrix([0b1, 0b1], 1).solve(0b10) is None


def test_solve_random_systems():
    rng = random.Random(11)
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = [rng.getrandbits(n) for _ in range(m)]
        x_true = rng.getrandbits(n)
        b = 0
        for i, r in enumerate(rows):
            if bin(r & x_true).count("1") & 1:
                b |= 1 << i
        x = BitMatrix(rows, n).solve(b)
        assert x is not None
        for i, r in enumerate(rows):
            assert (bin(r & x).count("1") & 1) == (b >> i & 1)


def test_solve_sets_free_variables_to_zero():
    # each nullspace vector carries exactly one free column, its top bit;
    # solve must leave all of those columns at 0
    rng = random.Random(14)
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        mat = BitMatrix([rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)], n)
        free = 0
        for v in mat.nullspace():
            free |= 1 << (v.bit_length() - 1)
        assert bin(free).count("1") == n - mat.rank()
        x = mat.solve(0)
        assert x == 0
        x_true, b = rng.getrandbits(n), 0
        for i, r in enumerate(mat.rows):
            b |= (bin(r & x_true).count("1") & 1) << i
        x = mat.solve(b)
        assert x is not None and x & free == 0


def test_nullspace():
    rng = random.Random(12)
    for _ in range(200):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [rng.getrandbits(n) for _ in range(m)]
        mat = BitMatrix(rows, n)
        basis = mat.nullspace()
        assert len(basis) == n - mat.rank()
        for v in basis:
            for r in rows:
                assert bin(r & v).count("1") % 2 == 0
        # basis is independent
        assert Echelon(basis).rank == len(basis)


def test_kernel():
    # the dependencies among random columns: each picks columns summing to
    # 0, they are independent, and there are (columns - rank) of them
    rng = random.Random(13)
    for _ in range(300):
        k, n = rng.randint(0, 9), rng.randint(1, 7)
        cols = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(k)]
        basis = kernel(cols)
        for x in basis:
            acc = 0
            for j, c in enumerate(cols):
                if x >> j & 1:
                    acc ^= c
            assert x and acc == 0
        assert Echelon(basis).rank == len(basis) == k - Echelon(cols).rank
    assert kernel([0b01, 0b11, 0b10, 0]) == [0b0111, 0b1000]


def test_echelon_membership():
    ech = Echelon([0b110, 0b011])
    assert ech.contains(0b101)
    assert not ech.contains(0b100)
    assert ech.rank == 2

