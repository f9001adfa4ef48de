from fractions import Fraction

import pytest
from alexander_oracle import alexander_torus, torsion_coeff

from cablecalc.errors import UsageError, ValidationError
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


def test_thread_cap_env(monkeypatch):
    monkeypatch.delenv("CABLECALC_THREADS", raising=False)
    assert thread_cap() >= 1
    monkeypatch.setenv("CABLECALC_THREADS", "3")
    assert thread_cap() == 3
    monkeypatch.setenv("CABLECALC_THREADS", "0")
    with pytest.raises(UsageError):
        thread_cap()
    monkeypatch.setenv("CABLECALC_THREADS", "many")
    with pytest.raises(UsageError):
        thread_cap()


def test_reports_identical_across_thread_counts(monkeypatch):
    monkeypatch.setenv("CABLECALC_THREADS", "1")
    serial = run_verify_engine(12, seed=5)
    serial_id = run_verify_identity13(15)
    monkeypatch.setenv("CABLECALC_THREADS", "4")
    threaded = run_verify_engine(12, seed=5)
    threaded_id = run_verify_identity13(15)
    assert serial == threaded
    assert serial_id == threaded_id


def test_report_lines_truncate_long_skip_lists():
    report = run_verify_moser(7)
    lines = report.lines()
    assert lines[0].startswith("verify moser: ok")
    assert sum(1 for ln in lines if ln.strip().startswith("skipped:")) == 12
    assert any("more skipped" in ln for ln in lines)
    assert len(report.lines(max_skipped=-1)) == 1 + 354
