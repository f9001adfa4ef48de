import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from alexander_oracle import alexander_torus, torsion_coeff

import cablecalc
from cablecalc import verify
from cablecalc.concordance import niwu_d
from cablecalc.errors import InternalCheckError, ValidationError
from cablecalc.iota import d_results
from cablecalc.lens import lens_d
from cablecalc.verify import (
    figure_eight_complex,
    moser_case,
    run_verify_engine,
    run_verify_identity13,
    run_verify_moser,
    swap_complex,
    thread_cap,
)


def test_fixture_values():
    res = d_results(figure_eight_complex())
    assert (res.d, res.lower, res.upper) == (Fraction(0), Fraction(-2), Fraction(0))
    res = d_results(swap_complex())
    assert (res.d, res.lower, res.upper) == (Fraction(0), Fraction(0), Fraction(0))


def test_identity13_small_sweep():
    report = run_verify_identity13(15)
    assert report.ok
    assert report.checked == 17
    assert not report.skipped


def test_identity13_spot_value():
    lhs = lens_d(15, 1, 0) - 2 * torsion_coeff(alexander_torus(3, 5), 0)
    rhs = lens_d(5, 3, 1) + lens_d(3, 5, 2)
    assert lhs == rhs == Fraction(-1, 2)


def test_identity13_empty_sweep_warns():
    report = run_verify_identity13(3)
    assert report.ok
    assert report.checked == 0
    assert any("empty sweep" in note for note in report.notes)


def test_identity13_rejects_tiny_bound():
    with pytest.raises(ValidationError):
        run_verify_identity13(2)
    with pytest.raises(ValidationError):
        run_verify_identity13("15")


def test_moser_sweep_records_skips():
    report = run_verify_moser(7)
    assert report.ok
    assert report.checked == 66
    assert len(report.skipped) == 354
    assert all("L-space regime" in s for s in report.skipped)


def test_moser_case_spots():
    status, _ = moser_case(2, 3, 2, 7)
    assert status == "pass"
    status, detail = moser_case(2, 3, 3, 1)
    assert status == "skip"
    assert "L-space regime" in detail
    # unknot companion is always in regime
    status, _ = moser_case(1, 2, 3, 2)
    assert status == "pass"


def test_moser_rejects_tiny_bound():
    with pytest.raises(ValidationError):
        run_verify_moser(1)


def test_engine_suite_small():
    report = run_verify_engine(24, seed=7)
    assert report.ok
    # fixtures + singles + tensor pairs
    assert report.checked == 2 + 24 + 12
    assert any("seed 7" in note for note in report.notes)


def test_engine_suite_is_deterministic():
    a = run_verify_engine(10, seed=3)
    b = run_verify_engine(10, seed=3)
    assert a == b


def test_engine_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        run_verify_engine(0)
    with pytest.raises(ValidationError):
        run_verify_engine(10, seed="3")


def test_thread_cap_is_one_whatever_the_env(monkeypatch):
    # the benchmark's worker still imports thread_cap; sweeps are serial
    monkeypatch.delenv("CABLECALC_THREADS", raising=False)
    assert thread_cap() == 1
    for raw in ("1", "4", "0", "many"):
        monkeypatch.setenv("CABLECALC_THREADS", raw)
        assert thread_cap() == 1


def test_sweeps_start_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setenv("CABLECALC_THREADS", "4")
    assert run_verify_engine(12, seed=5).ok
    assert run_verify_identity13(15).ok
    assert run_verify_moser(5).ok


def test_engine_generates_each_complex_once(monkeypatch):
    seeds = []
    generate = verify.random_iota_complex

    def counted(seed, **kwargs):
        seeds.append(seed)
        return generate(seed, **kwargs)

    monkeypatch.setattr(verify, "random_iota_complex", counted)
    for n in (1, 2, 7):
        seeds.clear()
        report = run_verify_engine(n, seed=40)
        assert report.ok
        assert seeds == list(range(40, 40 + n))


def test_engine_reports_a_product_whose_factor_failed(monkeypatch):
    # the marked complexes stay referenced here, so no other complex can
    # reuse the id of one after it is freed
    bad = {}
    generate, solve = verify.random_iota_complex, verify.d_results

    def generate_marked(seed, **kwargs):
        ic = generate(seed, **kwargs)
        if seed in (3, 4, 5):
            bad[id(ic)] = (ic, seed)
        return ic

    def failing(ic, *args, **kwargs):
        if id(ic) in bad:
            raise InternalCheckError(f"injected failure for seed {bad[id(ic)][1]}")
        return solve(ic, *args, **kwargs)

    monkeypatch.setattr(verify, "random_iota_complex", generate_marked)
    monkeypatch.setattr(verify, "d_results", failing)
    report = run_verify_engine(8, seed=0)
    assert not report.ok
    assert report.checked == 2 + 8 + 4
    singles = [f for f in report.failures if f.startswith("seed ")]
    products = [f for f in report.failures if f.startswith("seeds ")]
    assert [f.split(":")[0] for f in singles] == ["seed 3", "seed 4", "seed 5"]
    assert all("injected failure" in f and "complex {" in f for f in singles)
    assert products == ["seeds 2,3: product not checked, a factor failed",
                        "seeds 4,5: product not checked, a factor failed"]
    assert report.failures == tuple(singles + products)


def test_moser_single_labels_match_niwu_vectors(monkeypatch):
    # each side of moser_case is one Ni-Wu label; the vector route must agree
    labels = []
    niwu_v = verify._niwu_v

    def recorded(vs, p, q, s):
        labels.append((vs, p, q, s))
        return niwu_v(vs, p, q, s)

    monkeypatch.setattr(verify, "_niwu_v", recorded)
    report = run_verify_moser(7)
    assert report.ok
    assert len(labels) == 2 * report.checked
    for vs, p, q, s in labels:
        assert lens_d(p, q, s) - 2 * niwu_v(vs, p, q, s) == niwu_d(p, q, vs)[s], (vs, p, q, s)


def test_import_does_not_load_concurrent_futures():
    src = str(Path(cablecalc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, cablecalc; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_report_lines_truncate_long_skip_lists():
    report = run_verify_moser(7)
    lines = report.lines()
    assert lines[0].startswith("verify moser: ok")
    assert sum(1 for ln in lines if ln.strip().startswith("skipped:")) == 12
    assert any("more skipped" in ln for ln in lines)
    assert len(report.lines(max_skipped=-1)) == 1 + 354
