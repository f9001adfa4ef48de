"""The package's public names, its records, what importing it loads, and a
rule on its source: no assert."""

import ast
import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cablecalc
from cablecalc import concordance, errors, iota, lens, torus, verify
from cablecalc.concordance import BoundEntry, BoundsReport, CableStage, KnotInvariants, KnotSpec, ProjectionPair
from cablecalc.iota import DResults, HomologySummary, ValidationCheck, ValidationReport
from cablecalc.verify import VerifyReport

REEXPORTED = (concordance, errors, iota, lens, torus, verify)

PUBLIC = {
    "BoundsReport", "CableStage", "CablecalcError", "DResults", "GradedComplex", "InsufficientDataError",
    "InternalCheckError", "IotaComplex", "KnotInvariants", "KnotSpec", "UsageError", "ValidationError",
    "VerifyReport", "brute_oracle", "cable_inv_v0", "conj_spinc", "d_invariant", "d_lower", "d_results",
    "d_upper", "dual", "dump_complex", "gap_vs", "genus_bounds", "homology_summary", "invariants_to_dict",
    "involutive_surgery_d", "iterated_cable", "knot_spec_from_dict", "lens_d", "lens_d_vector",
    "load_complex", "load_knot_spec", "lspace_cable_check", "niwu_d", "run_verify_engine",
    "run_verify_identity13", "run_verify_moser", "selfconj_spinc", "shift", "slice_obstruction",
    "spinc_projection_zero", "tensor", "torus_knot_invariants", "torus_vs", "unknotting_bounds", "validate",
}


def test_public_names_have_one_owner():
    assert len(PUBLIC) == 47 and sorted(cablecalc.__all__) == sorted(PUBLIC)
    seen: dict[str, str] = {}
    for mod in REEXPORTED:
        assert set(mod.__all__) <= PUBLIC, mod.__name__
        for name in mod.__all__:
            assert name not in seen, (name, seen.get(name), mod.__name__)
            seen[name] = mod.__name__
            obj = getattr(mod, name)
            assert getattr(cablecalc, name) is obj and obj.__module__ == mod.__name__, (mod.__name__, name)
    assert set(seen) == PUBLIC


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and internal checks must still fire
    found = []
    for path in sorted(Path(cablecalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


NOT_LOADED = {"dataclasses", "inspect", "typing", "traceback", "ast", "dis", "tokenize"}


def test_import_loads_no_unused_stdlib_machinery():
    # a query process loads only what the package computes with
    src = str(Path(cablecalc.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import cablecalc, cablecalc.cli; "
            f"print(sorted({sorted(NOT_LOADED)!r} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


# one sample of each record class, with the repr its dataclass form printed
RECORDS = [
    (KnotInvariants(2, 1, [2, 1, 0], genus3=3, genus4=2),
     "KnotInvariants(v_lower=2, v_upper=1, v_seq=(2, 1, 0), genus3=3, genus4=2, lspace=False)"),
    (CableStage(3, 2), "CableStage(p=3, q=2)"),
    (KnotSpec(KnotInvariants(1, 1, (1, 0), 1, 1, True), [(3, 2), CableStage(5, 7)]),
     "KnotSpec(base=KnotInvariants(v_lower=1, v_upper=1, v_seq=(1, 0), genus3=1, genus4=1, lspace=True), "
     "stages=(CableStage(p=3, q=2), CableStage(p=5, q=7)))"),
    (ProjectionPair(1, 2), "ProjectionPair(pi1=1, pi2=2)"),
    (BoundEntry("tau", 3, "note 'x'"), "BoundEntry(name='tau', value=3, note=\"note 'x'\")"),
    (BoundsReport((BoundEntry("a", None), BoundEntry("b", 2, "n"))),
     "BoundsReport(entries=(BoundEntry(name='a', value=None, note=''), BoundEntry(name='b', value=2, note='n')))"),
    (ValidationCheck("d squared", False, "d^2 != 0"),
     "ValidationCheck(name='d squared', ok=False, detail='d^2 != 0')"),
    (ValidationReport((ValidationCheck("a", True), ValidationCheck("b", False, "why"))),
     "ValidationReport(checks=(ValidationCheck(name='a', ok=True, detail=''), "
     "ValidationCheck(name='b', ok=False, detail='why')))"),
    (HomologySummary(Fraction(-2), ((Fraction(1, 2), 3),), 3),
     "HomologySummary(free_grading=Fraction(-2, 1), torsion=((Fraction(1, 2), 3),), torsion_exponent=3)"),
    (DResults(Fraction(0), Fraction(-2), Fraction(2)),
     "DResults(d=Fraction(0, 1), lower=Fraction(-2, 1), upper=Fraction(2, 1))"),
    (VerifyReport("engine", 4, ("f1",), ("s1", "s2"), ("n",)),
     "VerifyReport(name='engine', checked=4, failures=('f1',), skipped=('s1', 's2'), notes=('n',))"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_contract(record, text):
    cls, names = type(record), type(record).__slots__
    values = tuple(getattr(record, f) for f in names)
    assert repr(record) == text
    twin = cls(**dict(zip(names, values)))
    assert twin is not record and twin == record and hash(twin) == hash(record) == hash(values)
    assert record != values and all((r == record) == (r is record) for r, _ in RECORDS)
    for f in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, f, None)
        with pytest.raises(AttributeError):
            delattr(record, f)
    assert repr(record) == text
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record and repr(copied) == text


def test_records_across_classes_and_keywords():
    assert ProjectionPair(1, 2) != CableStage(1, 2) and CableStage(1, 2) != ProjectionPair(1, 2)
    assert ValidationCheck("a", True) != BoundEntry("a", True)
    inv = KnotInvariants(1, 0, [1, 0])
    for copied in (pickle.loads(pickle.dumps(inv)), copy.copy(inv), copy.deepcopy(inv)):
        assert type(copied.v_seq) is tuple and copied.v_seq == (1, 0)
    assert KnotInvariants(v_lower=1, v_upper=0) == KnotInvariants(1, 0, None, None, None, False)
    assert BoundEntry(name="u", value=None) == BoundEntry("u", None, "")
    assert ValidationCheck(name="c", ok=True) == ValidationCheck("c", True, "")
    assert KnotSpec(base=inv) == KnotSpec(inv, ())
    assert VerifyReport(name="x", checked=0) == VerifyReport("x", 0, (), (), ())
