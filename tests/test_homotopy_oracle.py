"""The GF(2) span eliminator that the test oracles use."""

import random

from homotopy_oracle import Echelon


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

