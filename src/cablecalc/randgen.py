"""Seeded generator of random valid iota-complexes, for stress testing.

Complexes are built valid by construction: start from a direct sum of a free
generator and a few two-generator U^t-torsion pieces, pick an involution that
is honest on that split model (identity plus a square-zero perturbation, or a
swap of identical pieces), optionally perturb it by d G + G d, and finally
conjugate everything by random admissible transvections so the summand
structure is no longer visible in the basis.  The result is passed through
validate() as a postcondition before being returned.

The generator works in the engine's coordinates: integer gradings (g0 at 0,
a piece's generators at base and base - 2t + 1, so D = 1) and one bitmask
column per generator for each map (bit i: generator i occurs in the image),
which iota._built takes as they are.  A column stands for its map only when
every bit joins generators whose gradings differ by the map's degree plus
an even number >= 0, the twice U-exponent that the gradings then force.
Every bit set here does: the pieces of d by construction, the involution's
by the eligible targets' grading 0 or a swap of equal gradings, and G and
the transvections by their parity tests; sums and composites of such maps
keep it.  A transvection T: src -> src + U^k dst (T fixes every other
generator and is its own inverse) rewrites a map M as T M T on its columns:
src's column gains dst's, then every column that holds bit src toggles
bit dst.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InternalCheckError, check_int
from .iota import IotaComplex, _built, _image, validate

__all__ = ["random_iota_complex"]


def _split_model(rng: random.Random, n_extra_pairs: int, max_order: int):
    """Generator names, gradings, d's columns and the pieces of the split sum,
    as ((kind, t, base), top, bottom, cycle), the last three generator indices."""
    n = 1 + 2 * n_extra_pairs
    names, gr, dcols, pieces = ["g0"], [0] * n, [0] * n, []
    for i in range(n_extra_pairs):
        t = rng.randint(0, max_order)
        base = rng.randint(-3, 3)
        top, bot = 2 * i + 1, 2 * i + 2
        names += [f"p{i}", f"q{i}"]
        if rng.random() < 0.5:
            # dp = U^t q: q is the surviving cycle (t = 0 gives an acyclic pair)
            gr[top], gr[bot], dcols[top] = base - 2 * t + 1, base, 1 << bot
            pieces.append((("A", t, base), top, bot, bot))
        else:
            # dq = U^t p: p sits above its boundary partner
            gr[top], gr[bot], dcols[bot] = base, base - 2 * t + 1, 1 << top
            pieces.append((("B", t, base), top, bot, top))
    return names, gr, dcols, pieces


def _honest_involution(rng: random.Random, gr, pieces) -> list[int]:
    """id plus a perturbation phi with phi^2 = 0 and phi a chain map.

    phi sends the free generator (and nothing else) into cycle generators of
    the torsion pieces at matching gradings; no source of phi is ever a
    target, so (id + phi)^2 = id exactly.
    """
    icols = [1 << j for j in range(len(gr))]
    for *_, cyc in pieces:
        k2 = gr[cyc]  # iota has degree 0, so U^k cyc must sit at grading 0
        if k2 >= 0 and k2 % 2 == 0 and rng.random() < 0.5:
            icols[0] ^= 1 << cyc
    return icols


def _swap_involution(pieces) -> tuple[int, int] | None:
    """Indices of two identical pieces, if any pair exists."""
    seen: dict[tuple, int] = {}
    for i, (key, *_) in enumerate(pieces):
        if key in seen:
            return seen[key], i
        seen[key] = i
    return None


def _random_homotopy(rng: random.Random, gr) -> list[int]:
    """The columns of a random degree +1 map G (used to perturb iota by dG + Gd)."""
    cols = [0] * len(gr)
    for j, g_src in enumerate(gr):
        for i, g_dst in enumerate(gr):
            k2 = g_dst - g_src - 1
            if k2 >= 0 and k2 % 2 == 0 and rng.random() < 0.15:
                cols[j] |= 1 << i
    return cols


def _transvect(rng: random.Random, gr, maps: list[list[int]]) -> None:
    """Change basis by T: src -> src + U^k dst and rewrite every map M as
    T M T in place on its columns."""
    if len(gr) < 2:
        return
    src, dst = rng.sample(range(len(gr)), 2)
    k2 = gr[dst] - gr[src]
    if k2 < 0 or k2 % 2:
        return
    for cols in maps:
        cols[src] ^= cols[dst]
        for j, c in enumerate(cols):
            if c >> src & 1:
                cols[j] = c ^ 1 << dst


def random_iota_complex(
    seed: int,
    max_pairs: int = 2,
    max_order: int = 3,
    n_transvections: int = 6,
) -> IotaComplex:
    """A random valid iota-complex; the same seed always gives the same one.
    The three counts must be integers >= 0."""
    check_int(seed, "seed")
    check_int(max_pairs, "max_pairs", 0)
    check_int(max_order, "max_order", 0)
    check_int(n_transvections, "n_transvections", 0)
    rng = random.Random(seed)
    n_pairs = rng.randint(0, max_pairs)
    names, gr, dcols, pieces = _split_model(rng, n_pairs, max_order)

    icols = _honest_involution(rng, gr, pieces)
    if rng.random() < 0.3:
        pair = _swap_involution(pieces)
        if pair is not None:
            icols = [1 << j for j in range(len(gr))]
            for a, b in zip(pieces[pair[0]][1:3], pieces[pair[1]][1:3]):  # the tops, then the bottoms
                icols[a], icols[b] = icols[b], icols[a]

    # null-homotopic tweak of iota keeps the homotopy class
    if rng.random() < 0.5:
        g_cols = _random_homotopy(rng, gr)
        for j, (g, c) in enumerate(zip(g_cols, dcols)):
            icols[j] ^= _image(dcols, g) ^ _image(g_cols, c)

    for _ in range(n_transvections):
        _transvect(rng, gr, [dcols, icols])

    # the complex keeps the lists: gr and dcols were made at their size, icols is copied to it
    ic = _built(names, {name: Fraction(g) for name, g in zip(names, gr)}, 1, gr, dcols, list(icols))
    report = validate(ic)
    if not report.ok:
        raise InternalCheckError(
            f"random generator produced an invalid complex (seed {seed}): "
            + "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        )
    return ic
