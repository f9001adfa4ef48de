"""Exact involutive correction-term calculator for cables, surgeries and
lens spaces.

The package computes, in exact rational arithmetic:

* d-invariants of lens spaces and of p/q-surgeries on knots (`lens`,
  `concordance.niwu_d`),
* the involutive invariants v_lower / v_upper of iterated cables and the
  slice-genus / unknotting-number bounds they feed (`concordance`),
* V-sequences of torus knots and L-space cables from their semigroups
  (`torus`),
* d, d_lower, d_upper of finite iota-complexes over F2[U] (`iota`),

plus self-checking sweeps that cross-validate the pieces against each
other (`verify`) and a command-line front end (`cli`).
"""

from .concordance import (
    BoundsReport,
    CableStage,
    KnotInvariants,
    KnotSpec,
    cable_inv_v0,
    genus_bounds,
    invariants_to_dict,
    involutive_surgery_d,
    iterated_cable,
    knot_spec_from_dict,
    load_knot_spec,
    niwu_d,
    slice_obstruction,
    spinc_projection_zero,
    torus_knot_invariants,
    unknotting_bounds,
)
from .errors import (
    CablecalcError,
    InsufficientDataError,
    InternalCheckError,
    UsageError,
    ValidationError,
)
from .iota import (
    DResults,
    GradedComplex,
    IotaComplex,
    brute_oracle,
    d_invariant,
    d_lower,
    d_results,
    d_upper,
    dual,
    dump_complex,
    homology_summary,
    load_complex,
    shift,
    tensor,
    validate,
)
from .lens import conj_spinc, lens_d, lens_d_vector, selfconj_spinc
from .torus import gap_vs, lspace_cable_check, torus_vs
from .verify import (
    VerifyReport,
    run_verify_engine,
    run_verify_identity13,
    run_verify_moser,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "CableStage",
    "CablecalcError",
    "DResults",
    "GradedComplex",
    "InsufficientDataError",
    "InternalCheckError",
    "IotaComplex",
    "KnotInvariants",
    "KnotSpec",
    "UsageError",
    "ValidationError",
    "VerifyReport",
    "brute_oracle",
    "cable_inv_v0",
    "conj_spinc",
    "d_invariant",
    "d_lower",
    "d_results",
    "d_upper",
    "dual",
    "dump_complex",
    "gap_vs",
    "genus_bounds",
    "homology_summary",
    "invariants_to_dict",
    "involutive_surgery_d",
    "iterated_cable",
    "knot_spec_from_dict",
    "lens_d",
    "lens_d_vector",
    "load_complex",
    "load_knot_spec",
    "lspace_cable_check",
    "niwu_d",
    "run_verify_engine",
    "run_verify_identity13",
    "run_verify_moser",
    "selfconj_spinc",
    "shift",
    "slice_obstruction",
    "spinc_projection_zero",
    "tensor",
    "torus_knot_invariants",
    "torus_vs",
    "unknotting_bounds",
    "validate",
]
