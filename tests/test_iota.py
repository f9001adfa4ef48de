"""Engine tests: validation, homology, d / d_lower / d_upper, tensor, JSON."""

import gc
import hashlib
import json
import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from cablecalc.errors import InternalCheckError, ValidationError
from cablecalc import iota
from cablecalc.iota import (
    DResults,
    GradedComplex,
    IotaComplex,
    brute_oracle,
    complex_from_dict,
    complex_to_dict,
    d_invariant,
    d_lower,
    d_results,
    d_upper,
    dual,
    homology_summary,
    shift,
    tensor,
    validate,
)
from cablecalc.randgen import random_iota_complex
from cablecalc.torus import torus_vs
from cablecalc.verify import figure_eight_complex, swap_complex
from test_staircase import TORUS_KNOTS, staircase_a0
import homotopy_oracle
from homotopy_oracle import Echelon, candidate_gradings, piece


def sphere_model() -> IotaComplex:
    """One free generator, trivial involution."""
    return IotaComplex(GradedComplex([("x0", 0)], {}), {"x0": [("x0", 0)]})


def torsion_model(t: int = 1) -> IotaComplex:
    """Free class at 0 plus an order-t torsion class that iota mixes in.

    The involution sends the free generator a to a + c, so (id+iota)a only
    becomes a boundary after multiplying by U^t: d_lower drops to -2t while
    d and d_upper stay 0.
    """
    cx = GradedComplex(
        [("a", 0), ("c", 0), ("b", 1 - 2 * t)],
        {"b": [("c", t)]},
    )
    return IotaComplex(
        cx,
        {"a": [("a", 0), ("c", 0)], "c": [("c", 0)], "b": [("b", 0)]},
    )


def dual_model() -> IotaComplex:
    """Mirror-image behavior: torsion above the free class pushes d_upper up.

    The triple (b, 0, c) with dz = U x realizes the value gr(b) + 1 = 2.
    """
    cx = GradedComplex([("a", 0), ("b", 1), ("c", 0)], {"c": [("b", 1)]})
    return IotaComplex(
        cx,
        {"a": [("a", 0)], "b": [("b", 0)], "c": [("c", 0), ("a", 0)]},
    )


def all_fixtures():
    return [sphere_model(), swap_complex(), torsion_model(1), torsion_model(2), dual_model()]


# ---------------------------------------------------------------------------
# validation


def test_validate_fixtures_all_pass():
    for ic in all_fixtures():
        report = validate(ic)
        assert report.ok, report.failures()


def test_validate_catches_differential_degree():
    cx = GradedComplex([("x", 0), ("y", 1)], {"y": [("x", 1)]})
    report = validate(IotaComplex(cx, {"x": [("x", 0)], "y": [("y", 0)]}))
    assert not report.ok
    assert any(c.name == "differential-degree" and not c.ok for c in report.checks)


def test_validate_catches_differential_squared():
    cx = GradedComplex(
        [("x", 0), ("y", 1), ("z", 2)],
        {"z": [("y", 0)], "y": [("x", 0)]},
    )
    ic = IotaComplex(cx, {g: [(g, 0)] for g in "xyz"})
    report = validate(ic)
    assert any(c.name == "differential-squared" and not c.ok for c in report.checks)


def test_validate_catches_non_chain_map():
    cx = GradedComplex([("e1", 0), ("e2", 0), ("f", 1)], {"f": [("e1", 0), ("e2", 0)]})
    ic = IotaComplex(
        cx,
        {"e1": [("e1", 0), ("e2", 0)], "e2": [("e2", 0)], "f": [("f", 0)]},
    )
    report = validate(ic)
    assert any(c.name == "iota-chain-map" and not c.ok for c in report.checks)


def test_validate_catches_iota_squared_not_homotopic_to_id():
    # iota = 0 is a chain map on the one-generator complex, but 0 is not
    # homotopic to the identity when the differential vanishes.
    ic = IotaComplex(GradedComplex([("x0", 0)], {}), {})
    report = validate(ic)
    names = {c.name: c.ok for c in report.checks}
    assert names["iota-chain-map"] is True
    assert names["iota-squared-homotopic-identity"] is False
    assert names["localized-rank-one"] is True


def test_validate_catches_rank_two():
    ic = IotaComplex(
        GradedComplex([("x", 0), ("y", 0)], {}),
        {"x": [("x", 0)], "y": [("y", 0)]},
    )
    report = validate(ic)
    assert any(c.name == "localized-rank-one" and not c.ok for c in report.checks)


def strict_model() -> IotaComplex:
    """The tensor square of torsion_model(1) with its involution perturbed
    by d G + G d (G: b.b -> a.c): it squares to id only up to homotopy,
    never on the nose."""
    ic = tensor(torsion_model(1), torsion_model(1), sep=".")
    return IotaComplex(ic.complex, {**ic.iota, "b.b": ic.iota["b.b"] ^ {("a.c", 1)}})


def squares_to_identity(ic) -> bool:
    return all(iota.apply_map(ic.iota, ic.iota.get(g, frozenset())) == {(g, 0)} for g in ic.complex.generators)


def test_validate_accepts_strict_homotopy_involution():
    ic = strict_model()
    assert not squares_to_identity(ic)
    report = validate(ic)
    assert report.ok, report.failures()
    res = d_results(ic, check=False)
    assert (res.d, res.lower, res.upper) == (0, -2, 0)


def test_validate_finds_the_homotopy_on_a_large_strict_product():
    # iota^2 != id on each product, so validate must decide the homotopy
    # from the cone's homology; a global system over the entries of H ran
    # out of memory on the last two
    cases = [
        (tensor(tensor(strict_model(), random_iota_complex(5, max_order=4)), random_iota_complex(6, max_order=4)),
         225, (0, -2, 0)),
        (tensor(strict_model(), _power(figure_eight_complex(), 5)), 2187, (0, -2, 0)),
        (tensor(staircase_a0(torus_vs(17, 19)), strict_model()), 1449, (-80, -82, -80)),
    ]
    for ic, size, expected in cases:
        assert len(ic.complex.generators) == size and not squares_to_identity(ic)
        report = validate(ic)
        assert report.ok, report.failures()
        res = d_results(ic, check=False)
        assert (res.d, res.lower, res.upper) == expected, size


def inconsistent_model() -> IotaComplex:
    """d q = g + p and iota: g -> g + p, p -> 0, q -> q, a chain map that
    kills the free class [g] = [p], so iota^2 is not homotopic to id."""
    cx = GradedComplex([("g", 0), ("p", 0), ("q", 1)], {"q": [("g", 0), ("p", 0)]})
    return IotaComplex(cx, {"g": [("g", 0), ("p", 0)], "q": [("q", 0)]})


def test_validate_rejects_an_inconsistent_homotopy_system(monkeypatch):
    # iota^2 + id (g -> p, p -> p) is itself a chain map, so the guard
    # does not fire: the homology of its cone must reject
    ic = inconsistent_model()
    answers, cones = [], []
    null_homotopic, cone_homology = iota._null_homotopic, iota._cone_homology

    def spy_null(cx, fcols):
        answers.append(null_homotopic(cx, fcols))
        return answers[-1]

    def spy_cone(cx, fcols):
        cones.append(cone_homology(cx, fcols))
        return cones[-1]

    monkeypatch.setattr(iota, "_null_homotopic", spy_null)
    monkeypatch.setattr(iota, "_cone_homology", spy_cone)
    names = {c.name: c.ok for c in validate(ic).checks}
    assert answers == [False] and len(cones) == 1
    assert names == {"differential-degree": True, "differential-squared": True, "iota-degree": True,
                     "iota-chain-map": True, "iota-squared-homotopic-identity": False,
                     "localized-rank-one": True}


def _torsion_sum(e0: int, e1: int, k: int) -> GradedComplex:
    """A free generator a plus two torsion summands d x_i = U^(e_i) y_i,
    placed so that x0 -> U^k y1 is a degree-0 map."""
    x0 = -2 * e0 + 1  # y0 at 0
    y1 = x0 + 2 * k
    return GradedComplex([("a", 0), ("y0", 0), ("x0", x0), ("y1", y1), ("x1", y1 - 2 * e1 + 1)],
                         {"x0": [("y0", e0)], "x1": [("y1", e1)]})


def _homotopy_sweep():
    """(complex, name, f's columns, whether f is null-homotopic or None when
    not known) for a fixed set of maps.  On iota-complexes: iota^2 + id
    (which is (id + iota)^2), id + iota, iota, dG + Gd and a random
    degree-0 map, most often not a chain map.  On torsion sums: x0 -> U^k y1, which has f_* = 0
    and is null-homotopic just when k >= min(e0, e1).  On a quarter of the
    iota-complexes and on every torsion sum: random chain maps."""
    rng = random.Random(19)
    ics = all_fixtures() + [strict_model(), figure_eight_complex(), inconsistent_model()]
    for seed in range(60):
        ic = random_iota_complex(seed, max_order=4)
        ics += [ic, dual(ic)]
    ics += [tensor(random_iota_complex(2 * j, max_order=4), random_iota_complex(2 * j + 1, max_order=4))
            for j in range(6)]
    ics += [tensor(strict_model(), random_iota_complex(seed, max_order=4)) for seed in range(4)]
    for ic in ics:
        cx = ic.complex
        icols = iota._columns(cx, ic.iota, 0)[0]
        maps = {"iota^2+id": [iota._image(icols, c) ^ 1 << j for j, c in enumerate(icols)],
                "id+iota": [c ^ 1 << j for j, c in enumerate(icols)], "iota": icols,
                "dG+Gd": homotopy_oracle.homotopy_image(cx, homotopy_oracle.random_map(cx, 1, rng)),
                "degree-0 map": homotopy_oracle.random_map(cx, 0, rng)}
        for name, fcols in maps.items():
            yield cx, name, fcols, None
    sums = [(e0, e1, k) for e0 in (1, 2, 3) for e1 in (1, 3) for k in range(min(e0, e1) + 1)]
    for e0, e1, k in sums:
        # generators a, y0, x0, y1, x1: column x0 holds y1
        yield _torsion_sum(e0, e1, k), f"x0 -> U^{k} y1", [0, 0, 1 << 3, 0, 0], k >= min(e0, e1)
    for cx in [ic.complex for ic in ics[::4]] + [_torsion_sum(*t) for t in sums]:
        basis = homotopy_oracle.chain_maps(cx)
        for r in range(3):
            fcols = [0] * len(cx.generators)
            for b in basis:
                if rng.random() < 0.5:
                    fcols = [c ^ d for c, d in zip(fcols, b)]
            yield cx, f"chain map {r}", fcols, None


def test_cone_criterion_matches_the_span_oracle():
    verdicts = []
    for cx, name, fcols, expected in _homotopy_sweep():
        slow = homotopy_oracle.null_homotopic(cx, fcols)
        assert iota._null_homotopic(cx, fcols) == slow, (cx.generators, name, fcols)
        assert expected in (None, slow), (cx.generators, name)
        verdicts.append(slow)
    assert 0 < sum(verdicts) < len(verdicts)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValidationError):
        GradedComplex([("x", 0), ("x", 1)], {})
    with pytest.raises(ValidationError):
        GradedComplex([], {})
    with pytest.raises(ValidationError):
        GradedComplex([("x", 0)], {"nope": [("x", 0)]})
    with pytest.raises(ValidationError):
        GradedComplex([("x", 0), ("y", 1)], {"y": [("x", -1)]})


def test_constructors_keep_normalized_inputs_and_still_check_them():
    q, img = Fraction(1, 3), frozenset({("x", 0)})
    ic = IotaComplex(GradedComplex([("x", q), ("y", Fraction(4, 3))], {"y": img}), {"x": img})
    assert ic.complex.grading["x"] is q and ic.complex.diff["y"] == img and ic.iota["x"] == img
    assert type(GradedComplex([("x", 2)], {}).grading["x"]) is Fraction
    # a frozenset image is read as given, but each of its terms is still checked
    for bad, detail in ((("z", 0), "unknown generator 'z'"), (("x", -1), "bad U-exponent -1"),
                        (("x", 1.0), "bad U-exponent 1.0")):
        with pytest.raises(ValidationError, match=detail):
            GradedComplex([("x", 0), ("y", 1)], {"y": frozenset({bad})})
        with pytest.raises(ValidationError, match=detail):
            IotaComplex(GradedComplex([("x", 0)], {}), {"x": frozenset({bad})})


def test_bool_u_exponents_are_refused_so_every_complex_loads_back(tmp_path):
    # False passes isinstance(e, int): a complex built with it was dumped
    # as "upow": false, which load_complex refuses
    for flag in (False, True):
        for terms in ([("x", flag)], frozenset({("x", flag)})):
            with pytest.raises(ValidationError, match=f"bad U-exponent {flag}"):
                GradedComplex([("x", 0), ("y", 1)], {"y": terms})
            with pytest.raises(ValidationError, match=f"bad U-exponent {flag}"):
                IotaComplex(GradedComplex([("x", 0)], {}), {"x": terms})
    path = tmp_path / "cx.json"
    cases = all_fixtures() + [strict_model(), shift(dual_model(), Fraction(-2, 3)),
                              tensor(random_iota_complex(5, max_order=4), random_iota_complex(6, max_order=4))]
    for ic in cases:
        iota.dump_complex(ic, str(path))
        back = iota.load_complex(str(path))
        assert back.complex.generators == ic.complex.generators
        assert back.complex.grading == ic.complex.grading
        assert back.complex.diff == ic.complex.diff and back.iota == ic.iota


def _one_generator_file(grading) -> dict:
    return {"generators": [{"name": "x", "grading": grading}], "iota": {"x": [{"gen": "x", "upow": 0}]}}


def test_library_and_file_read_gradings_alike():
    # a float grading used to be kept at its binary value (0.1 as
    # 3602879701896397/2^55), and True as 1, where the file route reads 0.1
    # as 1/10 and refuses True
    for raw, want in ((0.1, Fraction(1, 10)), (2.5, Fraction(5, 2)), ("1/3", Fraction(1, 3)), (True, None)):
        data = _one_generator_file(raw)
        if want is None:
            with pytest.raises(ValidationError, match="bad generator entry"):
                complex_from_dict(data)
            with pytest.raises(ValidationError, match="bad grading True of generator 'x'"):
                GradedComplex([("x", raw)], {})
            continue
        lib = IotaComplex(GradedComplex([("x", raw)], {}), {"x": [("x", 0)]})
        for ic in (lib, complex_from_dict(data)):
            assert ic.complex.grading == {"x": want} and type(ic.complex.grading["x"]) is Fraction
            assert d_results(ic) == DResults(want, want, want)
    for bad in ("sqrt2", float("nan"), None):
        with pytest.raises(ValidationError, match="bad grading"):
            GradedComplex([("x", bad)], {})


def test_grading_reader_parses_text():
    # both routes read a grading's text the same way, spaces around it included
    for text, want in (("3/4", Fraction(3, 4)), ("-1/2", Fraction(-1, 2)), ("0", 0), ("  7 ", 7)):
        assert GradedComplex([("x", text)], {}).grading == {"x": want}
        assert complex_from_dict(_one_generator_file(text)).complex.grading == {"x": want}
    for bad in ("x", "1/0", True, False):
        with pytest.raises(ValidationError, match="bad grading"):
            GradedComplex([("x", bad)], {})
        with pytest.raises(ValidationError, match="bad generator entry"):
            complex_from_dict(_one_generator_file(bad))


def test_grading_text_reads_back():
    rng = random.Random(7)
    for _ in range(200):
        r = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
        back = complex_from_dict(_one_generator_file(str(r))).complex.grading["x"]
        assert back == r and back.denominator > 0
        assert GradedComplex([("x", str(r))], {}).grading["x"] == r


def test_complex_file_writes_gradings_as_str():
    # an int grading and a Fraction one are both written as str(Fraction(r))
    def written(r) -> str:
        ic = IotaComplex(GradedComplex([("x", r)], {}), {"x": [("x", 0)]})
        return complex_to_dict(ic)["generators"][0]["grading"]

    for r in (0, 3, -7, Fraction(0), Fraction(-4, 6), Fraction(10, 5), Fraction(1, 3)):
        assert written(r) == str(Fraction(r))
    assert written(Fraction(-4, 6)) == "-2/3"
    assert written(Fraction(10, 5)) == "2"


# ---------------------------------------------------------------------------
# homology


def test_homology_sphere():
    s = homology_summary(sphere_model())
    assert s.free_grading == 0
    assert s.torsion == ()
    assert s.torsion_exponent == 0


def test_homology_swap_has_no_torsion():
    s = homology_summary(swap_complex())
    assert s.free_grading == 0
    assert s.torsion == ()


def test_homology_torsion_model():
    # the reduction visits only the levels that hold an entry, so U^(10^8)
    # costs no more than U
    for t in (1, 2, 3, 10**8):
        s = homology_summary(torsion_model(t))
        assert s.free_grading == 0
        assert s.torsion == ((Fraction(0), t),)
        assert s.torsion_exponent == t


def test_homology_dual_model():
    s = homology_summary(dual_model())
    assert s.free_grading == 0
    assert s.torsion == ((Fraction(1), 1),)


def test_homology_rejects_rank_two():
    with pytest.raises(ValidationError):
        homology_summary(GradedComplex([("x", 0), ("y", 2)], {}))


def test_homology_refuses_non_complexes():
    # a <- b <- c has d^2 != 0; y -> U x has the wrong degree
    not_square_zero = GradedComplex([("a", 0), ("b", 1), ("c", 2)], {"c": [("b", 0)], "b": [("a", 0)]})
    wrong_degree = GradedComplex([("x", 0), ("y", 1)], {"y": [("x", 1)]})
    for cx, detail in ((not_square_zero, "d(d(c)) != 0"), (wrong_degree, "breaks degree -1")):
        with pytest.raises(InternalCheckError) as exc:
            homology_summary(cx)
        assert detail in str(exc.value)
        assert cx.hom is None


def test_reduction_refuses_entries_off_its_levels():
    # entry (i, j) stands for U^e with e = (gr_i - gr_j + D) / 2D, so it
    # must be a whole e >= 0; the public calls check the degree first, so
    # only a direct call reaches this check.  Here D = 1.
    cases = [
        ([0, 1], [0, 3]),  # x1 -> U^-1 x0, on the first pass
        ([0, 1, 0, 1 << 2], [0, 1, 0, -2]),  # x3 -> U^1.5 x2, left after x1 -> x0 pivots
    ]
    for cols, gr in cases:
        with pytest.raises(InternalCheckError, match="homology reduction left a live entry of d"):
            iota._reduce_homology(cols, gr, 1)


def _predicted_dims(cx, free, torsion, gradings):
    """dim H_g for each scaled grading g, from free gradings and torsion pairs."""
    step = 2 * cx.D
    towers = [(cx.scaled(f), None) for f in free] + [(cx.scaled(s), e) for s, e in torsion]
    dims = dict.fromkeys(gradings, 0)
    for top, order in towers:
        for g in gradings:
            k, r = divmod(top - g, step)
            if not r and k >= 0 and (order is None or k < order):
                dims[g] += 1
    return dims


def _power(ic, k):
    """The k-fold tensor power of ic."""
    out = ic
    for _ in range(k - 1):
        out = tensor(out, ic)
    return out


def _cone(ic):
    """The mapping cone of Q(1+iota) as a complex: x at gr(x) with dx +
    Q(1+iota)x, and Qx at gr(x) - 1 with Q dx."""
    cx = ic.complex

    def q(elt):
        return [(f"Q({g})", e) for g, e in elt]

    gens = [(g, cx.grading[g]) for g in cx.generators] + [(f"Q({g})", cx.grading[g] - 1) for g in cx.generators]
    diff = {g: [*cx.diff.get(g, ()), *q(ic.iota.get(g, iota.ZERO) ^ {(g, 0)})] for g in cx.generators}
    diff.update({f"Q({g})": q(cx.diff.get(g, ())) for g in cx.generators})
    return GradedComplex(gens, diff)


def _check_homology_by_ranks(cx):
    free, torsion = iota._homology(cx)
    n_exp = max((e for _, e in torsion), default=0)
    gradings = candidate_gradings(cx, min(cx.gr) - 2 * cx.D * (n_exp + 2))
    predicted = _predicted_dims(cx, free, torsion, gradings)
    for g in gradings:
        cycles = len(piece(cx, g)) - Echelon(cx.dcols[j] for j in piece(cx, g)).rank
        boundaries = Echelon(cx.dcols[j] for j in piece(cx, g + cx.D)).rank
        assert cycles - boundaries == predicted[g], (cx, cx.unscaled(g))


def test_homology_matches_piece_ranks():
    # dim H_g = dim ker d - dim im d on each graded piece, with no reduction of d
    cases = []
    for seed in range(300):
        ic = random_iota_complex(seed)
        cases += [ic, shift(ic, Fraction(1, 3))]
    for j in range(40):
        a = random_iota_complex(2 * j, max_order=4)
        b = random_iota_complex(2 * j + 1, max_order=4)
        cases.append(tensor(a, b))
    cases += [tensor(dual_model(), random_iota_complex(seed)) for seed in range(10)]
    cases += [_power(figure_eight_complex(), 2), _power(figure_eight_complex(), 5)]
    # mid-size inputs, where a pivot may need a row that an earlier column
    # XOR moved: randgen triple products of 27 to 125 generators, and
    # staircases A_0 times the figure-eight complex with their duals, also
    # as the cones of Q(1+iota) that d_lower and d_upper reduce
    triples = [tuple(random_iota_complex(3 * j + k, max_order=4) for k in range(3)) for j in range(40)]
    cases += [tensor(tensor(a, b), c) for a, b, c in triples
              if 27 <= len(a.complex.generators) * len(b.complex.generators) * len(c.complex.generators) <= 125]
    staircases = [tensor(staircase_a0(torus_vs(p, q)), figure_eight_complex()) for p, q in ((2, 7), (3, 5), (4, 7))]
    staircases += [dual(ic) for ic in staircases]
    cxs = [ic.complex for ic in cases + staircases] + [_cone(ic) for ic in cases[-8:] + staircases]
    for cx in cxs:
        _check_homology_by_ranks(cx)


# ---------------------------------------------------------------------------
# the three correction terms


def test_sphere_invariants():
    res = d_results(sphere_model())
    assert (res.d, res.lower, res.upper) == (0, 0, 0)


def test_swap_invariants():
    res = d_results(swap_complex())
    assert (res.d, res.lower, res.upper) == (0, 0, 0)


def test_torsion_model_invariants():
    for t in (1, 2, 3):
        res = d_results(torsion_model(t))
        assert (res.d, res.lower, res.upper) == (0, -2 * t, 0)


def test_dual_model_invariants():
    res = d_results(dual_model())
    assert (res.d, res.lower, res.upper) == (0, 0, 2)


def test_window_slack_does_not_change_answers():
    for ic in all_fixtures():
        base = d_results(ic, check=False)
        wide = d_results(ic, check=False, window_slack=6, m_max=12)
        assert base == wide


def test_invariants_reject_invalid_complex():
    bad = IotaComplex(GradedComplex([("x0", 0)], {}), {})
    with pytest.raises(ValidationError):
        d_lower(bad)
    with pytest.raises(ValidationError):
        d_upper(bad)


def test_search_parameters_must_be_counts():
    # unchecked, m_max=-1 broke the invariant chain as an internal error
    # and m_max=1.5 went through; only d_results still takes them
    f8 = figure_eight_complex()
    with pytest.raises(ValidationError, match="m_max must be an integer >= 0, got -1"):
        d_results(f8, m_max=-1)
    for bad in (-1, 1.5, True, False, "2", None):
        calls = [lambda: d_results(f8, window_slack=bad)]
        if bad is not None:  # m_max=None asks for the default
            calls.append(lambda: d_results(f8, m_max=bad))
        for call in calls:
            with pytest.raises(ValidationError):
                call()
    assert d_results(f8, m_max=0, window_slack=0) == d_results(f8)


def test_d_upper_needs_a_positive_u_power_on_dual_model():
    # the top witness (b, 0, c) has d c = U b, a U-power m = 1; shifted by
    # 1/3 the engine works in thirds (D = 3)
    for r, scale in ((Fraction(0), 1), (Fraction(1, 3), 3)):
        ic = shift(dual_model(), r)
        assert ic.complex.D == scale
        assert d_upper(ic) == 2 + r
        assert brute_oracle(ic, truncation=4) == d_results(ic) == DResults(r, r, 2 + r)


def test_d_upper_needs_positive_u_powers_on_dual_products():
    # randgen complexes never need m > 0; dual_model times them mostly do,
    # and then d_upper is above d
    above = 0
    for seed in range(40):
        base = tensor(dual_model(), random_iota_complex(seed))
        ref = d_results(base)
        for r in (Fraction(0), Fraction(1, 3), Fraction(-5, 7)):
            ic = shift(base, r)
            res = d_results(ic)
            assert (res.d, res.lower, res.upper) == (ref.d + r, ref.lower + r, ref.upper + r)
            s = homology_summary(ic, check=False)
            span = s.torsion_exponent + len(ic.complex.generators)
            assert brute_oracle(ic, truncation=span, check=False) == res, (seed, r)
            wide = d_results(ic, check=False, m_max=2 * span, window_slack=2 * s.torsion_exponent + 2)
            assert wide == res, (seed, r)
        # the search knobs are inert: the cone has no U-power bound
        assert d_results(base, m_max=0) == d_results(base, window_slack=7) == ref
        above += ref.upper > ref.d
    assert above >= 30, above


def test_invariants_of_a_large_tensor_power():
    # 3^7 generators: the row index of the reduction carries both C and its
    # cone of Q(1+iota)
    ic = _power(figure_eight_complex(), 7)
    assert len(ic.complex.generators) == 2187
    assert d_results(ic) == DResults(0, -2, 0)
    assert d_results(dual(ic)) == DResults(0, 0, 2)


def test_class_search_matches_brute_oracle_on_fractional_gradings():
    # D = 3 and D = 2 from shifted randgen complexes, D = 6 from products of
    # a complex shifted by 1/2 with one shifted by 1/3
    cases = []
    for seed in range(60):
        ic = random_iota_complex(seed, max_order=4)
        cases += [shift(ic, Fraction(1, 3)), shift(ic, Fraction(1, 2))]
    small = [s for s in range(80) if len(random_iota_complex(s, max_order=4).complex.generators) <= 3]
    for a, b in zip(small[0:24:2], small[1:24:2]):
        prod = tensor(shift(random_iota_complex(a, max_order=4), Fraction(1, 2)),
                      shift(random_iota_complex(b, max_order=4), Fraction(1, 3)))
        assert prod.complex.D == 6
        cases.append(prod)
    for ic in cases:
        n = homology_summary(ic, check=False).torsion_exponent
        slow = brute_oracle(ic, truncation=n + len(ic.complex.generators), check=False)
        assert d_results(ic, check=False) == slow, complex_to_dict(ic)


def _product_terms(a, b, names):
    """The reference route to a product's maps: its diff and iota as
    name-keyed terms, made term by term from the factors' diff and iota,
    with terms that collide cancelling in pairs; names[x * nb + y] is the
    generator (x, y)."""
    ca, cb = a.complex, b.complex
    nb = len(cb.generators)
    # b's maps as index terms
    db = [[(cb.index[h], m) for h, m in cb.diff.get(gb, ())] for gb in cb.generators]
    ib = [[(cb.index[h], m) for h, m in b.iota.get(gb, ())] for gb in cb.generators]
    diff, iota_map = {}, {}
    for x, ga in enumerate(ca.generators):
        da = [(ca.index[g] * nb, k) for g, k in ca.diff.get(ga, ())]
        ia = [(ca.index[g] * nb, k) for g, k in a.iota.get(ga, ())]
        row = x * nb
        for y in range(nb):
            d_terms = [(names[p + y], k) for p, k in da] + [(names[row + q], m) for q, m in db[y]]
            iota_terms = [(names[p + q], k + m) for p, k in ia for q, m in ib[y]]
            for mp, terms in ((diff, d_terms), (iota_map, iota_terms)):
                val = frozenset(t for t, k in Counter(terms).items() if k % 2)
                if val:
                    mp[names[row + y]] = val
    return diff, iota_map


def _check_columns_against_terms(ic, diff, iota_map) -> int:
    """In every piece down to 2N + 4 below the lowest generator, the column
    images of each element U^k x under d, id+iota and U^m are the
    (generator, U-exponent) images that apply_map gives on the maps of terms
    diff and iota_map, and multiplying by U^m adds m to each exponent."""
    cx = ic.complex
    id_iota = iota._id_plus_iota(ic)
    step = 2 * cx.D
    n_exp = homology_summary(ic, check=False).torsion_exponent

    def element_at(mask, grading):
        # the element a generator mask stands for at a grading
        terms = []
        for i, g in enumerate(cx.generators):
            if mask >> i & 1:
                k, r = divmod(cx.gr[i] - grading, step)
                assert r == 0 and k >= 0, (g, grading)
                terms.append((g, k))
        return frozenset(terms)

    checked = 0
    for g in candidate_gradings(cx, min(cx.gr) - step * (n_exp + 2)):
        for j in piece(cx, g):
            x = element_at(1 << j, g)
            assert iota.apply_map(diff, x) == element_at(cx.dcols[j], g - cx.D), (ic, g, x)
            assert iota.apply_map(iota_map, x) ^ x == element_at(id_iota[j], g), (ic, g, x)
            for m in range(4):
                assert frozenset((h, e + m) for h, e in x) == element_at(1 << j, g - m * step), (ic, g, x)
            checked += 1
    return checked


def test_columns_match_term_images(monkeypatch):
    # a randgen complex, read back from its dict, and its shift, which has
    # the same maps, are checked on the maps the reading constructors were
    # given, as _clean_map returned them before the columns stood for them;
    # a product, which has columns from the start, on _product_terms
    given = []
    clean_map = iota._clean_map

    def recorded(generators, raw, what):
        given.append(clean_map(generators, raw, what))
        return given[-1]

    monkeypatch.setattr(iota, "_clean_map", recorded)
    cases = []
    for seed in range(200):
        ic = complex_from_dict(complex_to_dict(random_iota_complex(seed)))
        maps = given[-2:]
        cases += [(ic, *maps), (shift(ic, Fraction(1, 3)), *maps)]
    monkeypatch.undo()
    pairs = [(random_iota_complex(2 * j, max_order=4), random_iota_complex(2 * j + 1, max_order=4)) for j in range(40)]
    pairs += [(dual_model(), random_iota_complex(seed)) for seed in range(20)] + [(dual_model(), dual_model())]
    for a, b in pairs:
        prod = tensor(a, b)
        cases.append((prod, *_product_terms(a, b, list(prod.complex.generators))))
    assert sum(_check_columns_against_terms(*case) for case in cases) > 5000


# sha256 of _pinned_results(), recorded with the engine that searched for
# d_lower and d_upper witnesses grading by grading, tested against a free
# cocycle
PINNED_RESULTS_SHA256 = "791b14441cd310bb23ce42c03db90e5fda5cbd3f4fca117ee92f4457557817ef"


def _pinned_results() -> bytes:
    fixtures = all_fixtures() + [tensor(dual_model(), dual_model()), figure_eight_complex()]
    cases = [(f"fixture{i}", ic) for i, ic in enumerate(fixtures)]
    for seed in range(200):
        ic = random_iota_complex(seed)
        cases += [(f"seed{seed}", ic), (f"seed{seed}+1/3", shift(ic, Fraction(1, 3)))]
    for j in range(30):
        pair = random_iota_complex(2 * j, max_order=4), random_iota_complex(2 * j + 1, max_order=4)
        cases.append((f"product{j}", tensor(*pair)))
    cases += [(f"dual{seed}", tensor(dual_model(), random_iota_complex(seed))) for seed in range(10)]
    lines = []
    for name, ic in cases:
        s = homology_summary(ic, check=False)
        span = s.torsion_exponent + len(ic.complex.generators)
        searches = (("default", {}),
                    ("doubled", {"m_max": 2 * span, "window_slack": 2 * s.torsion_exponent + 2}))
        for search, kwargs in searches:
            r = d_results(ic, check=False, **kwargs)
            lines.append(f"{name} {search} {r.d} {r.lower} {r.upper}")
    return "\n".join(lines).encode()


def test_engine_results_match_pinned_digest():
    # any change to the engine must leave these 894 results byte-identical
    assert hashlib.sha256(_pinned_results()).hexdigest() == PINNED_RESULTS_SHA256


# sha256 of _oracle_results(), recorded with the brute oracle that built
# every graded piece as a generator list and tested spans with an echelon
# basis
PINNED_ORACLE_SHA256 = "a7f0c24bf14a9a1e5451aa193ca5362ae8e67829b55c6dffe9aded930b90fc75"


def _oracle_results() -> bytes:
    """brute_oracle at the least truncation and 3 above it, on randgen seeds
    plain, shifted by 1/3 and dualized, the fixtures, and randgen products
    of at most 9 generators."""
    cases = [(f"fixture{i}", ic) for i, ic in enumerate(all_fixtures())]
    for seed in range(200):
        ic = random_iota_complex(seed)
        cases += [(f"seed{seed}", ic), (f"seed{seed}+1/3", shift(ic, Fraction(1, 3))), (f"seed{seed}*", dual(ic))]
    for j in range(40):
        prod = tensor(random_iota_complex(2 * j, max_order=4), random_iota_complex(2 * j + 1, max_order=4))
        if len(prod.complex.generators) <= 9:
            cases.append((f"product{j}", prod))
    lines = []
    for name, ic in cases:
        low = homology_summary(ic, check=False).torsion_exponent + len(ic.complex.generators)
        for t in (low, low + 3):
            r = brute_oracle(ic, truncation=t, check=False)
            lines.append(f"{name} {t} {r.d} {r.lower} {r.upper}")
    return "\n".join(lines).encode()


def test_brute_oracle_results_match_pinned_digest():
    # 634 complexes, 29 of them products, each at two truncations
    out = _oracle_results()
    assert out.count(b"\n") + 1 == 1268 and b"product" in out
    assert hashlib.sha256(out).hexdigest() == PINNED_ORACLE_SHA256


def test_homology_computed_once_per_complex(monkeypatch):
    calls = []
    reduce_homology = iota._reduce_homology

    def counted(cols, gr, D):
        calls.append((cols, gr, D))
        return reduce_homology(cols, gr, D)

    monkeypatch.setattr(iota, "_reduce_homology", counted)
    ic = torsion_model(2)
    cx = ic.complex
    assert validate(ic).ok
    d_results(ic)
    homology_summary(ic)
    brute_oracle(ic, truncation=5)
    identity = IotaComplex(cx, {g: [(g, 0)] for g in cx.generators})
    d_results(identity)
    # C once, then one cone of 2 x 3 generators per d_results call
    assert [len(gr) for _, gr, _ in calls] == [3, 6, 6]
    assert calls[0][1] == cx.gr
    free, torsion = iota._homology(cx)
    assert isinstance(free, tuple) and isinstance(torsion, tuple)
    assert torsion and all(isinstance(t, tuple) for t in torsion)


def test_invariants_are_kept_on_each_iota_complex(monkeypatch):
    # d_results, d_lower and d_upper on one complex share one cone, and a
    # complex on the same GradedComplex with another iota gets its own
    cones = []
    cone_homology = iota._cone_homology

    def counted(cx, fcols):
        cones.append(len(cx.gr))
        return cone_homology(cx, fcols)

    monkeypatch.setattr(iota, "_cone_homology", counted)
    ic = torsion_model(2)
    identity = IotaComplex(ic.complex, {g: [(g, 0)] for g in ic.complex.generators})
    assert (d_results(ic), d_lower(ic), d_upper(ic)) == (DResults(0, -4, 0), -4, 0)
    assert d_results(identity) == DResults(0, 0, 0) and ic._values == (0, -4, 0)
    assert cones == [3, 3]
    # an unchecked call that finds the values builds no columns
    monkeypatch.setattr(iota, "_columns", lambda *args: pytest.fail("iota's columns were built"))
    assert d_results(ic, check=False) == DResults(0, -4, 0) and d_lower(identity, check=False) == 0
    monkeypatch.undo()
    # a product starts with none
    prod = tensor(ic, identity)
    assert prod._values is None and d_results(prod, check=False) == DResults(0, -4, 0)
    # an invalid complex still fails a checked call after an unchecked one
    bad = IotaComplex(swap_complex().complex, {"e1": [("e1", 0)], "e2": [("e1", 0)], "f": [("f", 0)]})
    assert d_results(bad, check=False) == DResults(0, 0, 0)
    for call in (d_results, d_lower, d_upper):
        with pytest.raises(ValidationError, match="iota-chain-map"):
            call(bad)


def _reachable(root) -> set[int]:
    """The ids of every object reachable from root through
    gc.get_referents, types left out."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen.add(id(obj))
            todo += gc.get_referents(obj)
    return seen


def test_oracle_reduces_nothing_and_keeps_nothing(monkeypatch):
    # once a complex's homology is there (the truncation check reads its
    # torsion exponent), the oracle solves its own systems on the columns:
    # it reduces neither C nor a cone, and leaves nothing on the complex
    cases = [strict_model(), tensor(dual_model(), random_iota_complex(3)), shift(torsion_model(2), Fraction(1, 3)),
             dual(figure_eight_complex())]
    expected = [d_results(ic) for ic in cases]

    def refuse(*args):
        raise AssertionError("the oracle ran one of the engine's reductions")

    monkeypatch.setattr(iota, "_reduce_homology", refuse)
    monkeypatch.setattr(iota, "_cone_homology", refuse)
    for ic, res in zip(cases, expected):
        cx = ic.complex
        before = _reachable(cx)
        # nor does it read or write the values d_results kept
        wrong = (res.d + 2, res.lower + 2, res.upper + 2)
        ic._values = wrong
        span = homology_summary(ic, check=False).torsion_exponent + len(ic.complex.generators)
        assert brute_oracle(ic, truncation=span, check=False) == res
        assert _reachable(cx) == before and ic._values is wrong


def _terms_of(data: dict, key: str) -> dict:
    """The map under key of a complex file's dict, as name-keyed terms."""
    return {src: frozenset((t["gen"], t["upow"]) for t in terms) for src, terms in data[key].items()}


def test_each_complex_holds_its_maps_once(monkeypatch):
    # iota's columns are built once per complex, when it is made, and none
    # for a product, which tensor gives its columns.  A map whose columns
    # pass their degree check is held as them alone: the first read remakes
    # the maps given, and keeps them
    files = [complex_to_dict(ic) for ic in (torsion_model(2), dual_model(),
                                            shift(figure_eight_complex(), Fraction(1, 3)))]
    pairs = [(dual_model(), random_iota_complex(3)),
             (random_iota_complex(5, max_order=4), random_iota_complex(6, max_order=4))]
    builds = []
    columns = iota._columns

    def counted(cx, mp, degree):
        builds.append(degree)
        return columns(cx, mp, degree)

    monkeypatch.setattr(iota, "_columns", counted)
    plain = []
    for data in files:
        builds.clear()
        plain.append(complex_from_dict(data))
        assert builds == [-1, 0]
    builds.clear()
    products = [tensor(a, b) for a, b in pairs]
    assert builds == []
    # no public call builds columns again, and none leaves terms behind
    monkeypatch.setattr(iota, "_columns", lambda *args: pytest.fail("columns were built again"))
    for ic in plain + products:
        span = homology_summary(ic, check=False).torsion_exponent + len(ic.complex.generators)
        calls = (d_results, d_lower, d_upper, d_invariant, homology_summary, validate,
                 lambda ic: brute_oracle(ic, truncation=span))
        assert ic.complex._diff is None and ic._iota is None
        for call in calls:
            call(ic)
            assert ic.complex._diff is None and ic._iota is None
    monkeypatch.undo()
    assert plain[2].complex.D == 3 and [len(p.complex.generators) for p in products] == [3, 25]
    for ic, data in zip(plain, files):
        assert (ic.complex.diff, ic.iota) == (_terms_of(data, "differential"), _terms_of(data, "iota"))
        assert ic.complex.diff is ic.complex.diff and ic.iota is ic.iota
    for prod, (a, b) in zip(products, pairs):
        assert (prod.complex.diff, prod.iota) == _product_terms(a, b, list(prod.complex.generators))
    # a map that fails its degree check keeps its terms, which validate reads
    models = ((([("x", 0), ("y", 1)], {"y": [("x", 1)]}), {"x": [("x", 0)], "y": [("y", 0)]}, "diff"),
              (([("e1", 0), ("e2", 0), ("f", 1)], {"f": [("e1", 0), ("e2", 0)]}),
               {"e1": [("e2", 1)], "e2": [("e1", 0)], "f": [("f", 0)]}, "iota"))
    for (gens, diff), iota_map, kept in models:
        ic = IotaComplex(GradedComplex(gens, diff), iota_map)
        assert (ic.complex._diff is not None, ic._iota is not None) == (kept == "diff", kept == "iota")
        report = validate(ic)
        assert not report.ok and report.checks[0 if kept == "diff" else 2].ok is False
        assert (ic.complex.diff, ic.iota) == tuple({src: frozenset(terms) for src, terms in mp.items()}
                                                   for mp in (diff, iota_map))


def _randgen_products(count: int):
    """(a, b, a x b, (a x b) x a) over consecutive randgen seed pairs."""
    for j in range(count):
        a, b = random_iota_complex(2 * j, max_order=4), random_iota_complex(2 * j + 1, max_order=4)
        p = tensor(a, b)
        yield a, b, p, tensor(p, a)


def test_product_maps_match_product_terms():
    # a product's maps, remade from its columns, are the ones _product_terms
    # builds from the factors' terms
    for a, b, p, t in _randgen_products(60):
        for prod, (x, y) in ((p, (a, b)), (t, (p, a))):
            d_results(prod)
            assert (prod.complex.diff, prod.iota) == _product_terms(x, y, list(prod.complex.generators))


# sha256 of _serialized_maps(), recorded with the engine that kept every
# complex's maps of terms as given
PINNED_MAPS_SHA256 = "5f18b5a29f17c9e5d7b2517aba3a095f949f3474ef229aa440c84571d1765158"


def _serialized_maps() -> list[str]:
    """complex_to_dict of each complex and of its dual, after a checked
    d_results: randgen seeds plain and shifted by 1/3 and by -5/7, products
    and triples of consecutive seed pairs, and the two verify fixtures."""
    cases = []
    for seed in range(400):
        ic = random_iota_complex(seed, max_order=4)
        cases += [ic, shift(ic, Fraction(1, 3)), shift(ic, Fraction(-5, 7))]
    for _, _, p, t in _randgen_products(60):
        cases += [p, t]
    cases += [figure_eight_complex(), swap_complex()]
    records = []
    for ic in cases:
        d_results(ic, check=True)
        records += [json.dumps(complex_to_dict(x), sort_keys=True) for x in (ic, dual(ic))]
    return records


def test_serialized_maps_match_pinned_digest():
    records = _serialized_maps()
    assert len(records) == 2644
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == PINNED_MAPS_SHA256


def test_randgen_complex_memory_after_d_results():
    # d's and iota's columns stand for their maps of terms, so a solved
    # randgen complex holds each map once, and solving its dual leaves
    # nothing on it
    random_iota_complex(0, max_order=4)  # one-time allocations stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = []
        for seed in range(2000):
            held.append(random_iota_complex(seed, max_order=4))
            d_results(held[-1], check=False)
            d_results(dual(held[-1]), check=False)
        gc.collect()
        per_complex = (tracemalloc.get_traced_memory()[0] - base) / len(held)
    finally:
        tracemalloc.stop()
    assert per_complex <= 2000, per_complex


def test_coordinates_are_kept_and_hold_no_reference_to_their_complex():
    # a complex holds its coordinates, and an iota-complex iota's columns,
    # in slots from construction on, and every call reads them there
    for ic in (dual_model(), tensor(dual_model(), random_iota_complex(3))):
        cx = ic.complex
        assert not hasattr(cx, "__dict__") and not hasattr(ic, "__dict__")
        coords = (cx.gr, cx.dcols, cx.index, ic.icols)
        res = d_results(ic)
        brute_oracle(ic, truncation=homology_summary(ic).torsion_exponent + len(cx.generators))
        assert d_results(ic) == res
        assert all(a is b for a, b in zip((cx.gr, cx.dcols, cx.index, ic.icols), coords))
        assert cx.diff and ic.iota  # the remade maps are kept, and searched too
        # nothing reachable from the complex's slots, or from those of ic,
        # leads back to either, so a dropped complex is freed at once rather
        # than by the cyclic GC
        seen = set().union(*(_reachable(getattr(cx, name)) for name in type(cx).__slots__),
                           *(_reachable(getattr(ic, name)) for name in type(ic).__slots__ if name != "complex"))
        assert id(cx) not in seen and id(ic) not in seen
        assert len(seen) > len(cx.generators)


def test_brute_oracle_does_not_depend_on_the_truncation():
    # the truncation is checked, but bounds nothing
    for seed in range(100):
        base = random_iota_complex(seed)
        for ic in (base, dual(base)):
            n = homology_summary(ic, check=False).torsion_exponent + len(ic.complex.generators)
            low = brute_oracle(ic, truncation=n, check=False)
            assert brute_oracle(ic, truncation=n + 20, check=False) == low == d_results(ic), seed


# ---------------------------------------------------------------------------
# shift and tensor


def _invalid_models():
    yield IotaComplex(GradedComplex([("x", 0), ("y", 1)], {"y": [("x", 1)]}), {"x": [("x", 0)], "y": [("y", 0)]})
    cx = GradedComplex([("e1", 0), ("e2", 0), ("f", 1)], {"f": [("e1", 0), ("e2", 0)]})
    yield IotaComplex(cx, {"e1": [("e1", 0), ("e2", 0)], "e2": [("e2", 0)], "f": [("f", 0)]})
    yield IotaComplex(GradedComplex([("x0", 0)], {}), {})
    yield IotaComplex(GradedComplex([("x", 0), ("y", 0)], {}), {"x": [("x", 0)], "y": [("y", 0)]})
    yield IotaComplex(cx, {"e1": [("e2", 1)], "e2": [("e1", 0)], "f": [("f", 0)]})


def _report(ic):
    return [(c.name, c.ok, c.detail) for c in validate(ic).checks]


def _broken_variants(ic, k):
    """Three one-term edits of ic, keyed by k: a term of the right degree
    toggled in d, one toggled in iota, and one with its U-exponent off by one
    toggled in iota or d.  Source and target run over the generators."""
    cx = ic.complex
    gens = cx.generators
    n = len(gens)
    src, dst = gens[k % n], gens[(3 * k + 1) % n]
    out = []
    for degree, into_iota, slip in ((-1, False, 0), (0, True, 0), (-1 + (k % 2), k % 2 == 1, 1)):
        e = (cx.grading[dst] - cx.grading[src] - degree) / 2
        e = (int(e) if e.denominator == 1 and e >= 0 else 0) + slip
        diff, inv = dict(cx.diff), dict(ic.iota)
        mp = inv if into_iota else diff
        mp[src] = mp.get(src, frozenset()) ^ {(dst, e)}
        out.append(IotaComplex(GradedComplex([(g, cx.grading[g]) for g in gens], diff), inv))
    return out


def _validate_sweep():
    # x -> y + U z, y -> w, z -> w: d fails its degree check, and d^2 = w + U w
    # is nonzero only when the U-exponents are kept
    degree_and_square = GradedComplex(
        [("x", 1), ("y", 0), ("z", 0), ("w", -1)],
        {"x": [("y", 0), ("z", 1)], "y": [("w", 0)], "z": [("w", 0)]},
    )
    not_square_zero = GradedComplex([("a", 0), ("b", 1), ("c", 2)], {"c": [("b", 0)], "b": [("a", 0)]})
    cases = all_fixtures() + [tensor(dual_model(), dual_model()), figure_eight_complex(), strict_model()]
    cases += list(_invalid_models())
    cases += [IotaComplex(cx, {g: [(g, 0)] for g in cx.generators}) for cx in (degree_and_square, not_square_zero)]
    for seed in range(120):
        ic = random_iota_complex(seed, max_order=4)
        cases += [ic, shift(ic, Fraction(1, 3))] + _broken_variants(ic, seed)
    for j in range(12):
        a, b = random_iota_complex(2 * j, max_order=4), random_iota_complex(2 * j + 1, max_order=4)
        prod = tensor(a, b)
        cases += [prod] + _broken_variants(prod, j)
    return cases


def _validate_reports() -> bytes:
    lines = []
    for i, ic in enumerate(_validate_sweep()):
        lines += [f"{i} {name} {ok} {detail}" for name, ok, detail in _report(ic)]
    return "\n".join(lines).encode()


# sha256 of _validate_reports(), recorded with the engine that checked
# degrees and d^2 on (generator, U-exponent) terms and solved for a homotopy
# H with dH + Hd = iota^2 + id on every complex whose structure checks pass
PINNED_VALIDATE_SHA256 = "d94873b77a58e35d4703931aa24b8f61bc88bad9f87f2c7ec3e102cfa7263512"


def test_validate_reports_match_pinned_digest():
    cases = _validate_sweep()
    reports = [validate(ic) for ic in cases]
    failing = {c.name for r in reports for c in r.checks if not c.ok and "not checked" not in c.detail}
    names = {c.name for c in reports[0].checks}
    assert failing == names, names - failing
    exact = [ic for ic, r in zip(cases, reports) if r.ok and squares_to_identity(ic)]
    assert 0 < len(exact) < sum(r.ok for r in reports)
    assert hashlib.sha256(_validate_reports()).hexdigest() == PINNED_VALIDATE_SHA256


def test_unchecked_calls_refuse_an_iota_of_the_wrong_degree():
    # dual_model with iota(a) = U a (an exponent one too high) and with
    # iota(a) = a + b (b lies in the other grading class mod 2): each call
    # with check=False must raise, not return an answer for a non-complex
    base = dual_model()
    for src, terms in (("a", [("a", 1)]), ("a", [("a", 0), ("b", 0)])):
        ic = IotaComplex(base.complex, {**base.iota, src: terms})
        assert any(c.name == "iota-degree" and not c.ok for c in validate(ic).checks)
        calls = (d_results, d_lower, d_upper, lambda ic, check: brute_oracle(ic, truncation=5, check=check))
        for call in calls:
            with pytest.raises(InternalCheckError):
                call(ic, check=False)


def test_shift_covariance():
    cases = all_fixtures() + [random_iota_complex(s, max_order=4) for s in range(50)]
    cases += [
        tensor(random_iota_complex(2 * j, max_order=4), random_iota_complex(2 * j + 1, max_order=4))
        for j in range(10)
    ]
    for ic in cases:
        res = d_results(ic)
        report = _report(ic)
        for r in (Fraction(1, 3), Fraction(-5, 7), Fraction(7, 6)):
            moved = shift(ic, r)
            assert _report(moved) == report
            sres = d_results(moved)
            assert sres.d == res.d + r
            assert sres.lower == res.lower + r
            assert sres.upper == res.upper + r
    # an invalid complex shifts to one with the same report, unless a map
    # fails its degree check, when shift refuses it
    for ic in _invalid_models():
        report = _report(ic)
        assert not validate(ic).ok
        fault = ic.complex.d_degree or ic.i_degree
        for r in (Fraction(2), Fraction(1, 2), Fraction(-5, 7)):
            if fault is None:
                assert _report(shift(ic, r)) == report
            else:
                with pytest.raises(ValidationError, match=re.escape(fault)):
                    shift(ic, r)
                assert _report(ic) == report
    # A shifted by 1/2 times B shifted by 1/3: gradings in sixths (D = 6)
    for j in range(10):
        a = random_iota_complex(2 * j, max_order=4)
        b = random_iota_complex(2 * j + 1, max_order=4)
        base = tensor(a, b)
        prod = tensor(shift(a, Fraction(1, 2)), shift(b, Fraction(1, 3)))
        assert {q.denominator for q in prod.complex.grading.values()} == {6}
        assert prod.complex.D == 6
        assert _report(prod) == _report(base)
        res, pres = d_results(base), d_results(prod)
        r = Fraction(5, 6)
        assert (pres.d, pres.lower, pres.upper) == (res.d + r, res.lower + r, res.upper + r)
        n = homology_summary(prod).torsion_exponent
        assert brute_oracle(prod, truncation=n + len(prod.complex.generators)) == pres


def test_tensor_unit():
    unit = sphere_model()
    for ic in (swap_complex(), torsion_model(2), dual_model()):
        prod = tensor(ic, unit)
        assert validate(prod).ok
        assert d_results(prod) == d_results(ic)


def test_tensor_torsion_square():
    # two copies of the figure-eight-like model: the lower invariant does
    # not add (stays at -2), matching connected-sum behavior.
    prod = tensor(torsion_model(1), torsion_model(1))
    assert validate(prod).ok
    res = d_results(prod, check=False)
    assert (res.d, res.lower, res.upper) == (0, -2, 0)


def test_tensor_inequalities():
    # d_lower(A)+d_lower(B) <= d_lower(A@B) <= d_lower(A)+d_upper(B)
    #                       <= d_upper(A@B) <= d_upper(A)+d_upper(B)
    pairs = [
        (torsion_model(1), dual_model()),
        (torsion_model(2), swap_complex()),
        (dual_model(), dual_model()),
    ]
    for a, b in pairs:
        ra, rb = d_results(a), d_results(b)
        rp = d_results(tensor(a, b), check=False)
        assert ra.lower + rb.lower <= rp.lower <= ra.lower + rb.upper
        assert ra.lower + rb.upper <= rp.upper <= ra.upper + rb.upper
        assert rp.d == ra.d + rb.d


def test_constructions_refuse_an_ill_graded_map():
    # no columns stand for a map that fails its degree check, so dual, shift
    # and tensor (on either side) refuse the complex, naming the term; its
    # validate report is the one it had before
    good = dual_model()
    d_fault = IotaComplex(GradedComplex([("x", 0), ("y", 1)], {"y": [("x", 1)]}), {"x": [("x", 0)], "y": [("y", 0)]})
    cx = GradedComplex([("e1", 0), ("e2", 0), ("f", 1)], {"f": [("e1", 0), ("e2", 0)]})
    i_fault = IotaComplex(cx, {"e1": [("e2", 1)], "e2": [("e1", 0)], "f": [("f", 0)]})
    cases = ((d_fault, "differential", "term U^1*x in image of y breaks degree -1"),
             (i_fault, "iota", "term U^1*e2 in image of e1 breaks degree 0"))
    for bad, name, term in cases:
        report = _report(bad)
        calls = (("dual", lambda: dual(bad)), ("shift", lambda: shift(bad, Fraction(1, 3))),
                 ("tensor", lambda: tensor(bad, good)), ("tensor", lambda: tensor(good, bad)))
        for what, call in calls:
            with pytest.raises(ValidationError) as caught:
                call()
            assert str(caught.value) == f"{what} needs well-graded maps: the {name} fails its degree check: {term}"
        assert _report(bad) == report
    # d^2 != 0 is no degree fault: it is built, and checked on the columns
    cx = GradedComplex([("a", 0), ("b", 1), ("c", 2)], {"c": [("b", 0)], "b": [("a", 0)]})
    not_square_zero = IotaComplex(cx, {g: [(g, 0)] for g in cx.generators})
    built = (dual(not_square_zero), shift(not_square_zero, Fraction(1, 3)), tensor(good, not_square_zero))
    assert [x.complex.d_square for x in built] == ["d(d(a)) != 0", "d(d(c)) != 0", "d(d(a|c)) != 0"]


def test_tensor_name_collisions_get_renamed():
    # "p" x "q|r" and "p|q" x "r" would both be called "p|q|r"
    a = IotaComplex(GradedComplex([("p", 0), ("p|q", 0)], {}), {})
    b = IotaComplex(GradedComplex([("q|r", 0), ("r", 0)], {}), {})
    prod = tensor(a, b)
    assert len(prod.complex.generators) == 4
    assert len(set(prod.complex.generators)) == 4


# sha256 of _tensor_outputs(), recorded with the tensor that added Fraction
# gradings and XORed in one singleton set per term; re-recorded when the
# renaming case got a well-graded iota (the other six lines kept their
# bytes) and the cancelling case, which tensor refuses, moved to the
# reference route
PINNED_TENSOR_SHA256 = "249d3e74bbabba40a57021bf4f908b870e3d09dd44499b902d4c277aa16ab819"


def _tensor_outputs() -> bytes:
    """complex_to_dict of fixed products, each with its grading dict (whose
    repr pins the type and the order of the gradings)."""
    def r(seed):
        return random_iota_complex(seed, max_order=4)

    c, d = r(0), r(7)  # 3 generators each
    # "p" x "q|r" and "p|q" x "r" would both be called "p|q|r"
    renamed_a = IotaComplex(GradedComplex([("p", 0), ("p|q", 1)], {"p|q": [("p", 0)]}),
                            {"p": [("p", 0)], "p|q": [("p|q", 0)]})
    renamed_b = IotaComplex(GradedComplex([("q|r", 0), ("r", 1)], {"r": [("q|r", 0)]}),
                            {"q|r": [("q|r", 0)], "r": [("r", 0)]})
    cases = [
        ("pair1", tensor(r(1), r(2)), 1),
        ("pair9", tensor(c, d), 9),
        ("pair25", tensor(r(5), r(6)), 25),
        ("triple27", tensor(tensor(c, d), c), 27),
        ("third", tensor(shift(r(5), Fraction(1, 3)), r(6)), 25),
        ("sixths", tensor(shift(c, Fraction(1, 2)), shift(d, Fraction(-1, 3)), sep="."), 9),
        ("renamed", tensor(renamed_a, renamed_b), 4),
    ]
    lines = []
    for name, prod, size in cases:
        assert len(prod.complex.generators) == size
        lines.append(f"{name} {json.dumps(complex_to_dict(prod))} {prod.complex.grading!r}")
    return "\n".join(lines).encode()


def test_tensor_output_is_pinned():
    out = _tensor_outputs()
    assert b"t3" in out and b"Fraction(1, 6)" in out
    assert hashlib.sha256(out).hexdigest() == PINNED_TENSOR_SHA256


def test_colliding_product_terms_cancel_on_the_reference_route():
    # d z = z and iota z = z + U z fail their degree checks, so tensor
    # refuses them; on the terms, d(z|z) = z|z + z|z = 0 and
    # iota(z|z) = (1 + U)^2 z|z = z|z + U^2 z|z
    loop = IotaComplex(GradedComplex([("z", 0)], {"z": [("z", 0)]}), {"z": [("z", 0), ("z", 1)]})
    assert _product_terms(loop, loop, ["z|z"]) == ({}, {"z|z": frozenset({("z|z", 0), ("z|z", 2)})})
    with pytest.raises(ValidationError, match="differential fails its degree check"):
        tensor(loop, loop)


# ---------------------------------------------------------------------------
# oracle agreement


def test_brute_oracle_matches_engine_on_fixtures():
    for ic in all_fixtures():
        fast = d_results(ic, check=False)
        n = homology_summary(ic, check=False).torsion_exponent
        slow = brute_oracle(ic, truncation=n + len(ic.complex.generators) + 1, check=False)
        assert fast == slow, ic


def test_brute_oracle_matches_engine_on_large_complexes():
    # strict x 4_1^k up to 729 generators, the staircases x 4_1 of
    # test_staircase.py, and randgen products of 25 and 27 generators with
    # their duals
    cases = [strict_model()]
    for _ in range(4):
        cases.append(tensor(cases[-1], figure_eight_complex()))
    cases += [tensor(staircase_a0(torus_vs(p, q)), figure_eight_complex()) for p, q in TORUS_KNOTS
              if p <= 4 and q <= 9]
    by_size = {3: [], 5: []}
    for seed in range(60):
        ic = random_iota_complex(seed, max_order=4)
        by_size.get(len(ic.complex.generators), []).append(ic)
    fives, threes = by_size[5][:8], by_size[3][:8]
    products = [tensor(a, b) for a, b in zip(fives[0::2], fives[1::2])]
    products += [tensor(tensor(c, d), c) for c, d in zip(threes[0::2], threes[1::2])]
    cases += products + [dual(ic) for ic in products]
    # wide grading ranges, where every candidate grading once cost a solve
    wide = [tensor(staircase_a0(torus_vs(17, 19)), strict_model()),
            tensor(staircase_a0(torus_vs(11, 13)), figure_eight_complex())]
    assert d_results(wide[0], check=False) == DResults(-80, -82, -80)
    cases += wide
    sizes = [len(ic.complex.generators) for ic in cases]
    assert (sizes[4], len(cases), sorted(set(sizes[-10:-2])), sizes[-2]) == (729, 34, [25, 27], 1449)
    for ic in cases:
        span = homology_summary(ic, check=False).torsion_exponent + len(ic.complex.generators)
        assert brute_oracle(ic, truncation=span, check=False) == d_results(ic, check=False), len(ic.complex.generators)


def test_brute_oracle_rejects_small_truncation():
    ic = torsion_model(2)  # needs 2 + 3 = 5
    with pytest.raises(ValidationError):
        brute_oracle(ic, truncation=4, check=False)
    assert brute_oracle(ic, truncation=5, check=False) == d_results(ic, check=False)
    # a float passed the bare comparison, and a string raised TypeError
    for bad in (4.5, 5.0, "9", True, None):
        with pytest.raises(ValidationError, match="truncation must be an integer >= 5"):
            brute_oracle(ic, truncation=bad, check=False)


def test_brute_oracle_reaches_high_u_powers_at_the_least_truncation():
    # d g = p and d q = U^3 p: the free class is q + U^3 g at -6, which
    # needs U^3 of a generator 6 above it, while N + generators is only 3
    cx = GradedComplex([("g", 0), ("p", -1), ("q", -6)], {"g": [("p", 0)], "q": [("p", 3)]})
    ic = IotaComplex(cx, {g: [(g, 0)] for g in cx.generators})
    assert homology_summary(ic).torsion_exponent == 0
    assert d_results(ic) == DResults(-6, -6, -6)
    assert brute_oracle(ic, truncation=3) == d_results(ic)
    with pytest.raises(ValidationError):
        brute_oracle(ic, truncation=2)


def test_dual_complex_swaps_and_negates_the_invariants():
    # d(C^dual) = -d(C) and d_lower(C^dual) = -d_upper(C): duality reverses
    # orientation and exchanges the two involutive invariants
    plain = [random_iota_complex(seed, max_order=4) for seed in range(400)]
    cases = plain + [shift(ic, Fraction(1, 3)) for ic in plain]
    cases += [tensor(random_iota_complex(2 * j, max_order=4), random_iota_complex(2 * j + 1, max_order=4))
              for j in range(60)]
    for ic in cases:
        mirror = dual(ic)
        assert validate(mirror).ok, complex_to_dict(ic)
        res = d_results(ic)
        assert d_results(mirror, check=False) == DResults(-res.d, -res.upper, -res.lower), complex_to_dict(ic)
    for ic in plain:
        mirror = dual(ic)
        dres = d_results(mirror, check=False)
        span = homology_summary(mirror, check=False).torsion_exponent + len(mirror.complex.generators)
        assert brute_oracle(mirror, truncation=span, check=False) == dres, complex_to_dict(ic)
    # the search knobs are inert on the duals of products too
    for prod in cases[-60:]:
        mirror = dual(prod)
        assert d_results(mirror, m_max=0) == d_results(mirror, window_slack=7) == d_results(mirror)


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip():
    for ic in all_fixtures():
        data = complex_to_dict(ic)
        back = complex_from_dict(data)
        assert back.complex.generators == ic.complex.generators
        assert back.complex.grading == ic.complex.grading
        assert back.complex.diff == ic.complex.diff
        assert back.iota == ic.iota


def test_json_file_roundtrip(tmp_path):
    path = tmp_path / "cx.json"
    ic = dual_model()
    iota.dump_complex(ic, str(path))
    back = iota.load_complex(str(path))
    assert d_results(back) == d_results(ic)


def test_from_dict_rejects_garbage():
    with pytest.raises(ValidationError):
        complex_from_dict([])
    with pytest.raises(ValidationError):
        complex_from_dict({"generators": []})
    with pytest.raises(ValidationError):
        complex_from_dict({"generators": [{"name": "x", "grading": "sqrt2"}]})
    with pytest.raises(ValidationError):
        complex_from_dict(
            {
                "generators": [{"name": "x", "grading": "0"}],
                "differential": {"x": [{"gen": "x", "upow": -1}]},
            }
        )
    with pytest.raises(ValidationError):
        complex_from_dict(
            {"generators": [{"name": "x", "grading": "0"}], "iota": {"x": "x"}}
        )


def test_a_decimal_exponent_past_the_digit_limit_is_refused_at_once():
    # Fraction("1e10000000") builds 10^10000000, which took seconds, before
    # str refused to write it; the exponent alone now refuses it
    limit = sys.get_int_max_str_digits()
    for grading in ("1e10000000", "1e-10000000", "1E+10000000", f"1e{limit}", f"1e-{limit}"):
        t0 = time.perf_counter()
        with pytest.raises(ValidationError, match="bad generator entry"):
            complex_from_dict({"generators": [{"name": "x", "grading": grading}]})
        assert time.perf_counter() - t0 < 0.5, grading
    for exponent in (4000, limit - 1):
        ic = complex_from_dict({"generators": [{"name": "x", "grading": f"1e{exponent}"}]})
        assert ic.complex.grading["x"] == 10 ** exponent


def test_to_dict_uses_rational_strings():
    data = complex_to_dict(shift(sphere_model(), Fraction(-1, 2)))
    assert data["generators"][0]["grading"] == "-1/2"
