import random
from fractions import Fraction

import pytest

from cablecalc.algebra import (
    format_rational,
    parse_rational,
)
from homotopy_oracle import Echelon  # the span eliminator the test oracles use


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
    # A x = b is solvable just when b lies in the span of A's columns
    assert Echelon([0b001, 0b010, 0b100]).contains(0b101)


def test_solve_random_systems():
    # b = A x lies in the span of A's columns, whatever x is, and a random
    # right side lies in it just when some x solves A x = b
    rng = random.Random(11)
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        cols = [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(n)]
        images = set()
        for x in range(1 << n):
            b = 0
            for j, c in enumerate(cols):
                if x >> j & 1:
                    b ^= c
            images.add(b)
        span = Echelon(cols)
        assert all(span.contains(b) for b in images)
        assert span.rank == len(images).bit_length() - 1
        b = rng.getrandbits(m)
        assert span.contains(b) == (b in images)


def test_echelon_rejects_inconsistent_system():
    # x0 = 0 and x0 = 1: the one column has both equations, the right side
    # only the second
    assert not Echelon([0b11]).contains(0b10)
    assert Echelon([0b11]).contains(0b11)


def test_echelon_membership():
    ech = Echelon([0b110, 0b011])
    assert ech.contains(0b101)
    assert not ech.contains(0b100)
    assert ech.rank == 2

