"""Seeded generator of random valid iota-complexes, for stress testing.

Complexes are built valid by construction: start from a direct sum of a free
generator and a few two-generator U^t-torsion pieces, pick an involution that
is honest on that split model (identity plus a square-zero perturbation, or a
swap of identical pieces), optionally perturb the differential by d G + G d,
and finally conjugate everything by random admissible transvections so the
summand structure is no longer visible in the basis.  The result is passed
through validate() as a postcondition before being returned.

Gradings are plain ints here (g0 at 0, a piece's generators at base and
base - 2t + 1), so a map of degree 0 can send x to U^k y exactly when
gr(y) - gr(x) = 2k >= 0; GradedComplex makes the Fractions, once per
generator.  A transvection T: src -> src + U^k dst (T fixes every other
generator and is its own inverse) rewrites a map M as T M T directly:
M(src) gains U^k M(dst), then every image that holds a term (src, e)
toggles (dst, e + k).  Maps are edited in place and handed over in
generator order.
"""

from __future__ import annotations

import random

from .errors import InternalCheckError, check_int
from .iota import Element, GradedComplex, IotaComplex, ZERO, apply_map, elt_shift, validate

__all__ = ["random_iota_complex"]


def _split_model(rng: random.Random, n_extra_pairs: int, max_order: int):
    """Generators, gradings, differential and the pieces of the split sum."""
    gens: list[tuple[str, int]] = [("g0", 0)]
    diff: dict[str, Element] = {}
    pieces = []
    for i in range(n_extra_pairs):
        t = rng.randint(0, max_order)
        base = rng.randint(-3, 3)
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


def _honest_involution(rng: random.Random, names, grading, pieces) -> dict[str, Element]:
    """id plus a perturbation phi with phi^2 = 0 and phi a chain map.

    phi sends the free generator (and nothing else) into cycle generators of
    the torsion pieces at matching gradings; no source of phi is ever a
    target, so (id + phi)^2 = id exactly.
    """
    iota = {name: frozenset([(name, 0)]) for name in names}
    targets: list[Element] = []
    for kind, t, top, bot, base in pieces:
        cyc = bot if kind == "A" else top
        k2 = grading[cyc]  # iota has degree 0, so U^k cyc must sit at grading 0
        if k2 >= 0 and k2 % 2 == 0:
            targets.append(frozenset([(cyc, k2 // 2)]))
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


def _random_homotopy(rng: random.Random, names, grading) -> dict[str, Element]:
    """A random degree +1 map G (used to perturb d by dG + Gd, and iota)."""
    g_map: dict[str, Element] = {}
    for src in names:
        img = ZERO
        for dst in names:
            k2 = grading[dst] - grading[src] - 1
            if k2 >= 0 and k2 % 2 == 0 and rng.random() < 0.15:
                img ^= frozenset([(dst, k2 // 2)])
        if img:
            g_map[src] = img
    return g_map


def _compose_delta(diff, g_map, names) -> dict[str, Element]:
    """dG + Gd on each generator."""
    out: dict[str, Element] = {}
    for name in names:
        v = apply_map(diff, g_map.get(name, ZERO)) ^ apply_map(g_map, diff.get(name, ZERO))
        if v:
            out[name] = v
    return out


def _transvect(rng: random.Random, names, grading, maps: list[dict[str, Element]]) -> None:
    """Change basis by T: src -> src + U^k dst and rewrite every map M as
    T M T in place (images may become empty)."""
    if len(names) < 2:
        return
    src, dst = rng.sample(names, 2)
    k2 = grading[dst] - grading[src]
    if k2 < 0 or k2 % 2:
        return
    k = k2 // 2
    for mp in maps:
        mp[src] = mp.get(src, ZERO) ^ elt_shift(mp.get(dst, ZERO), k)
        for name, img in list(mp.items()):
            hit = [(dst, e + k) for g, e in img if g == src]
            if hit:
                mp[name] = img ^ frozenset(hit)


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
    gens, diff, pieces = _split_model(rng, n_pairs, max_order)
    names = [n for n, _ in gens]
    grading = dict(gens)

    iota = _honest_involution(rng, names, grading, pieces)
    if rng.random() < 0.3:
        pair = _swap_involution(pieces)
        if pair is not None:
            iota = {name: frozenset([(name, 0)]) for name in names}
            _apply_swap(iota, pieces, *pair)

    # null-homotopic tweak of iota keeps the homotopy class
    if rng.random() < 0.5:
        g_map = _random_homotopy(rng, names, grading)
        for name, v in _compose_delta(diff, g_map, names).items():
            iota[name] = iota.get(name, ZERO) ^ v

    for _ in range(n_transvections):
        _transvect(rng, names, grading, [diff, iota])

    def in_order(mp: dict[str, Element]) -> dict[str, Element]:
        return {name: mp[name] for name in names if mp.get(name)}

    ic = IotaComplex(GradedComplex(gens, in_order(diff)), in_order(iota))
    report = validate(ic)
    if not report.ok:
        raise InternalCheckError(
            f"random generator produced an invalid complex (seed {seed}): "
            + "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        )
    return ic
