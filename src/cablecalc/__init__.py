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
other (`verify`) and a command-line front end (`cli`).  The package
exports each module's `__all__`; other names are importable from their
module.
"""

from . import concordance, errors, iota, lens, torus, verify
from .concordance import *  # noqa: F403
from .errors import *  # noqa: F403
from .iota import *  # noqa: F403
from .lens import *  # noqa: F403
from .torus import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for mod in (concordance, errors, iota, lens, torus, verify) for name in mod.__all__]
