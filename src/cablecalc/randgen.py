"""Seeded generator of random valid iota-complexes, for stress testing.

Complexes are built valid by construction: start from a direct sum of a free
generator and a few two-generator U^t-torsion pieces, pick an involution that
is honest on that split model (identity plus a square-zero perturbation, or a
swap of identical pieces), optionally perturb the differential by d G + G d,
and finally conjugate everything by random admissible transvections so the
summand structure is no longer visible in the basis.  The result is passed
through validate() as a postcondition before being returned.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InternalCheckError
from .iota import Element, GradedComplex, IotaComplex, ZERO, apply_map, elt_shift, validate

__all__ = ["random_iota_complex"]


def _split_model(rng: random.Random, n_extra_pairs: int, max_order: int):
    """Generators, gradings, differential and a cycle marker for the split sum."""
    gens: list[tuple[str, Fraction]] = [("g0", Fraction(0))]
    diff: dict[str, Element] = {}
    # cycle_gens collects generators that stay cycles, with their gradings,
    # so involution perturbations know safe targets
    pieces = []
    for i in range(n_extra_pairs):
        t = rng.randint(0, max_order)
        base = Fraction(rng.randint(-3, 3))
        top, bot = f"p{i}", f"q{i}"
        if rng.random() < 0.5:
            # dp = U^t q: q is the surviving cycle (t = 0 gives an acyclic pair)
            gens.append((top, base - 2 * t + 1))
            gens.append((bot, base))
            diff[top] = frozenset([(bot, t)])
            pieces.append(("A", t, top, bot, base))
        else:
            # dq = U^t p: p sits above its boundary partner
            gens.append((top, base))
            gens.append((bot, base - 2 * t + 1))
            diff[bot] = frozenset([(top, t)])
            pieces.append(("B", t, top, bot, base))
    return gens, diff, pieces


def _honest_involution(rng: random.Random, gens, diff, pieces) -> dict[str, Element]:
    """id plus a perturbation phi with phi^2 = 0 and phi a chain map.

    phi sends the free generator (and nothing else) into cycle generators of
    the torsion pieces at matching gradings; no source of phi is ever a
    target, so (id + phi)^2 = id exactly.
    """
    grading = dict(gens)
    iota = {name: frozenset([(name, 0)]) for name, _ in gens}
    targets: list[Element] = []
    for kind, t, top, bot, base in pieces:
        cyc = bot if kind == "A" else top
        k2 = grading[cyc]  # iota has degree 0, so U^k cyc must sit at grading 0
        if k2.denominator == 1 and k2 >= 0 and int(k2) % 2 == 0:
            targets.append(frozenset([(cyc, int(k2) // 2)]))
    add = ZERO
    for tgt in targets:
        if rng.random() < 0.5:
            add ^= tgt
    if add:
        iota["g0"] = iota["g0"] ^ add
    return iota


def _swap_involution(pieces) -> tuple[int, int] | None:
    """Indices of two identical pieces, if any pair exists."""
    seen: dict[tuple, int] = {}
    for i, (kind, t, _top, _bot, base) in enumerate(pieces):
        key = (kind, t, base)
        if key in seen:
            return seen[key], i
        seen[key] = i
    return None


def _apply_swap(iota: dict[str, Element], pieces, i: int, j: int) -> None:
    for a, b in ((pieces[i][2], pieces[j][2]), (pieces[i][3], pieces[j][3])):
        iota[a], iota[b] = frozenset([(b, 0)]), frozenset([(a, 0)])


def _random_homotopy(rng: random.Random, gens, grading) -> dict[str, Element]:
    """A random degree +1 map G (used to perturb d by dG + Gd, and iota)."""
    g_map: dict[str, Element] = {}
    names = [n for n, _ in gens]
    for src in names:
        img = ZERO
        for dst in names:
            k2 = grading[dst] - grading[src] - 1
            if k2.denominator == 1 and k2 >= 0 and int(k2) % 2 == 0 and rng.random() < 0.15:
                img ^= frozenset([(dst, int(k2) // 2)])
        if img:
            g_map[src] = img
    return g_map


def _compose_delta(diff, g_map, gens) -> dict[str, Element]:
    """dG + Gd on each generator."""
    out: dict[str, Element] = {}
    for name, _ in gens:
        v = apply_map(diff, g_map.get(name, ZERO)) ^ apply_map(g_map, diff.get(name, ZERO))
        if v:
            out[name] = v
    return out


def _transvect(rng: random.Random, gens, grading, maps: list[dict[str, Element]]) -> None:
    """Change basis by src -> src + U^k dst and rewrite every map in place.

    Every map becomes T o map o T, where T(src) = src + U^k dst (and T fixes
    the other generators) is its own inverse.
    """
    names = [n for n, _ in gens]
    if len(names) < 2:
        return
    src, dst = rng.sample(names, 2)
    k2 = grading[dst] - grading[src]
    if k2.denominator != 1 or k2 < 0 or int(k2) % 2:
        return
    k = int(k2) // 2

    def t_map(x: Element) -> Element:
        out = x
        for g, e in x:
            if g == src:
                out = out ^ frozenset([(dst, e + k)])
        return out

    for mp in maps:
        new = {}
        for name in names:
            img = t_map(apply_map(mp, t_map(frozenset([(name, 0)]))))
            if img:
                new[name] = img
        mp.clear()
        mp.update(new)


def random_iota_complex(
    seed: int,
    max_pairs: int = 2,
    max_order: int = 3,
    n_transvections: int = 6,
) -> IotaComplex:
    """A random valid iota-complex; the same seed always gives the same one."""
    rng = random.Random(seed)
    n_pairs = rng.randint(0, max_pairs)
    gens, diff, pieces = _split_model(rng, n_pairs, max_order)
    grading = dict(gens)

    iota = _honest_involution(rng, gens, diff, pieces)
    if rng.random() < 0.3:
        pair = _swap_involution(pieces)
        if pair is not None:
            iota = {name: frozenset([(name, 0)]) for name, _ in gens}
            _apply_swap(iota, pieces, *pair)

    # null-homotopic tweak of iota keeps the homotopy class
    if rng.random() < 0.5:
        g_map = _random_homotopy(rng, gens, grading)
        delta = _compose_delta(diff, g_map, gens)
        for name, v in delta.items():
            iota[name] = iota.get(name, ZERO) ^ v

    for _ in range(n_transvections):
        _transvect(rng, gens, grading, [diff, iota])

    ic = IotaComplex(GradedComplex(gens, diff), {k: v for k, v in iota.items() if v})
    report = validate(ic)
    if not report.ok:
        raise InternalCheckError(
            f"random generator produced an invalid complex (seed {seed}): "
            + "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        )
    return ic
