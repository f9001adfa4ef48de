"""The package's public names, and a rule on its source: no assert."""

import ast
from pathlib import Path

import cablecalc
from cablecalc import concordance, errors, iota, lens, torus, verify

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
