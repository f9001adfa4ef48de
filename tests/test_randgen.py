"""Random-complex generator: determinism, validity, engine-vs-oracle agreement."""

import hashlib
import json

import pytest

from cablecalc import randgen
from cablecalc.errors import InternalCheckError, ValidationError
from cablecalc.iota import (
    ValidationCheck,
    ValidationReport,
    brute_oracle,
    complex_from_dict,
    complex_to_dict,
    d_results,
    homology_summary,
    validate,
)
from cablecalc.randgen import random_iota_complex

# sha256 of the generator's output for seeds 0-499 under each parameter set
# of test_output_is_pinned: a change to the draw sequence, the maps or the
# gradings shows here.
PINNED_OUTPUT_SHA256 = "a6a0503f1bca5c080147f97bffcb33c08c0321c386f1eb5ebf4ee07be8777bef"


def test_deterministic_per_seed():
    a = random_iota_complex(1234)
    b = random_iota_complex(1234)
    assert complex_to_dict(a) == complex_to_dict(b)
    c = random_iota_complex(1235)
    assert complex_to_dict(a) != complex_to_dict(c)


def test_generated_complexes_are_valid():
    for seed in range(60):
        ic = random_iota_complex(seed)
        assert validate(ic).ok  # also re-checked inside the generator


def test_engine_matches_brute_on_random_complexes():
    for seed in range(40):
        ic = random_iota_complex(seed)
        fast = d_results(ic, check=False)
        n = homology_summary(ic, check=False).torsion_exponent
        slow = brute_oracle(ic, truncation=n + len(ic.complex.generators), check=False)
        assert fast == slow, (seed, complex_to_dict(ic))


def test_invariant_chain_on_random_complexes():
    for seed in range(100, 140):
        res = d_results(random_iota_complex(seed), check=False)
        assert res.lower <= res.d <= res.upper


PINNED_PARAMETER_SETS = ({}, {"max_order": 4}, {"max_pairs": 4, "max_order": 5},
                         {"max_pairs": 6, "n_transvections": 12})


def test_output_is_pinned():
    digest = hashlib.sha256()
    for kw in PINNED_PARAMETER_SETS:
        for seed in range(500):
            text = json.dumps(complex_to_dict(random_iota_complex(seed, **kw)), sort_keys=True)
            digest.update((text + "\n").encode())
    assert digest.hexdigest() == PINNED_OUTPUT_SHA256


def test_columns_survive_the_round_trip_through_terms():
    # the generator hands its columns to the constructor without a degree
    # check; read back from their terms, they pass it and stand for the
    # same maps
    for kw in PINNED_PARAMETER_SETS:
        for seed in range(500):
            ic = random_iota_complex(seed, **kw)
            back = complex_from_dict(complex_to_dict(ic))
            cx, bx = ic.complex, back.complex
            assert bx.d_degree is None and back.i_degree is None, (kw, seed)
            assert (bx.D, bx.gr, bx.dcols, back.icols) == (cx.D, cx.gr, cx.dcols, ic.icols), (kw, seed)
            assert d_results(back, check=False) == d_results(ic, check=False), (kw, seed)


def test_arguments_must_be_ints():
    # random.Random took 1.5 as a seed, and True acted as 1; a negative
    # max_pairs raised a bare ValueError, and a negative max_order or
    # n_transvections returned a complex
    for kw in ({"seed": 1.5}, {"seed": True}, {"seed": "3"}, {"seed": None}, {"seed": 3, "max_pairs": 2.0},
               {"seed": 3, "max_order": True}, {"seed": 3, "n_transvections": False}, {"seed": 3, "max_order": "4"},
               {"seed": 3, "max_pairs": -1}, {"seed": 3, "max_order": -1}, {"seed": 3, "n_transvections": -3}):
        name = next(k for k, v in kw.items() if type(v) is not int or v < 0)
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            random_iota_complex(**kw)


def test_invalid_output_raises_with_the_seed(monkeypatch):
    failing = ValidationReport((ValidationCheck("d-squared", False, "d(d(g0)) != 0"),))
    monkeypatch.setattr(randgen, "validate", lambda ic: failing)
    with pytest.raises(InternalCheckError, match=r"seed 77\b.*d-squared: d\(d\(g0\)\) != 0"):
        random_iota_complex(77)
