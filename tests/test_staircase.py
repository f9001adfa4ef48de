"""Cross-layer check: the concordance layer against the complex engine.

An L-space knot's knot Floer complex is a staircase, read off its
V-sequence.  Its A_0 with the involution x_k -> x_(2m-k) has d = d_lower =
d_upper = -2 V_0 (Hendricks-Manolescu, Involutive Heegaard Floer homology,
2017), so torus knots and L-space cables from cable_inv_v0 give the engine
checks against values known in closed form.
"""

from math import gcd

from cablecalc.concordance import cable_inv_v0, torus_knot_invariants
from cablecalc.iota import DResults, GradedComplex, IotaComplex, d_results, dual, tensor, validate
from cablecalc.torus import torus_genus, torus_vs
from cablecalc.verify import figure_eight_complex


def staircase_a0(v_seq) -> IotaComplex:
    """A_0 of the L-space knot with this V-sequence, with its involution.

    The Alexander exponents n_0 > ... > n_2m are the s where the coefficient
    V_(s-1) - 2 V_s + V_(s+1) of t^s in the Alexander polynomial is nonzero
    (V_(-s) = V_s + s).  Generator x_k has Alexander grading n_k, and each
    odd x_k has a horizontal arrow to x_(k-1) and a vertical arrow to
    x_(k+1), which fixes the Maslov gradings from M(x_0) = 0.  A_0 is
    generated over F2[U] by [x_k, i_k, i_k + n_k] with i_k = min(0, -n_k),
    at grading M(x_k) + 2 i_k, and an arrow's U-power is the target's i
    minus the i the arrow lands on.
    """
    g = sum(1 for v in v_seq if v > 0)

    def V(s):
        if s < 0:
            return V(-s) - s
        return v_seq[s] if s < len(v_seq) else 0

    n = [s for s in range(g, -g - 1, -1) if V(s - 1) - 2 * V(s) + V(s + 1)]
    top = len(n) - 1
    maslov = [0] * len(n)
    for k in range(1, top, 2):
        maslov[k] = maslov[k - 1] - 2 * (n[k - 1] - n[k]) + 1
        maslov[k + 1] = maslov[k] - 1
    i = [min(0, -a) for a in n]
    gens = [(f"x{k}", maslov[k] + 2 * i[k]) for k in range(len(n))]
    # the horizontal arrow lands at i_k - (n_(k-1) - n_k), the vertical at i_k
    diff = {f"x{k}": [(f"x{k - 1}", i[k - 1] - i[k] + n[k - 1] - n[k]), (f"x{k + 1}", i[k + 1] - i[k])]
            for k in range(1, top, 2)}
    return IotaComplex(GradedComplex(gens, diff), {f"x{k}": [(f"x{top - k}", 0)] for k in range(len(n))})


TORUS_KNOTS = [(p, q) for p in range(2, 14) for q in range(p + 1, 30) if gcd(p, q) == 1]


def test_torus_knot_staircases_give_minus_twice_v0():
    sizes = []
    for p, q in TORUS_KNOTS:
        a0 = staircase_a0(torus_vs(p, q))
        v0 = torus_vs(p, q)[0]
        assert validate(a0).ok, (p, q)
        assert d_results(a0, check=False) == DResults(-2 * v0, -2 * v0, -2 * v0), (p, q)
        assert d_results(dual(a0)) == DResults(2 * v0, 2 * v0, 2 * v0), (p, q)
        sizes.append(len(a0.complex.generators))
    assert (len(TORUS_KNOTS), max(sizes)) == (163, 181)


def test_figure_eight_moves_only_d_lower_of_a_staircase():
    # Hendricks-Manolescu-Zemke (2018): # 4_1 lowers d_lower by 2
    checked = 0
    for p, q in TORUS_KNOTS:
        if p <= 4 and q <= 9:
            v0 = torus_vs(p, q)[0]
            prod = tensor(staircase_a0(torus_vs(p, q)), figure_eight_complex())
            assert d_results(prod) == DResults(-2 * v0, -2 * v0 - 2, -2 * v0), (p, q)
            checked += 1
    assert checked == 11


def test_lspace_cable_stages_match_their_staircases():
    # each L-space (p, q)-cable of a torus knot, from cable_inv_v0's
    # V-sequence, against -2 v_lower of the same record
    stages = 0
    for kp, kq in ((2, 3), (2, 5), (3, 4), (3, 5)):
        inv, g = torus_knot_invariants(kp, kq), torus_genus(kp, kq)
        for p in (2, 3):
            for q in range(2 * p * g - 1, 2 * p * g + 12):
                if gcd(p, q) != 1:
                    continue
                out = cable_inv_v0((p, q), inv)
                if out.v_seq is None:
                    continue
                v = -2 * out.v_lower
                assert d_results(staircase_a0(out.v_seq)) == DResults(v, v, v), (kp, kq, p, q)
                stages += 1
    assert stages == 64
