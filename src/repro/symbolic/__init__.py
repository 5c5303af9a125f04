"""Symbolic (BDD-based) reachability and coding checks.

The third engine beside the explicit packed and tuple explorers: state
sets are reduced ordered BDDs (:mod:`repro.symbolic.bdd`), an STG is
encoded with one boolean variable per place and per signal
(:mod:`repro.symbolic.encode`), reachability is a budgeted image
fixpoint (:mod:`repro.symbolic.reach`) and CSC/USC/consistency are
products of the reachable set with itself (:mod:`repro.symbolic.csc`)
-- no state is ever enumerated, so the cost follows the *structure* of
the state space, not its cardinality.  See ``docs/symbolic.md``.
"""

from .bdd import FALSE, TRUE, BDD
from .csc import (DEFAULT_WITNESS_LIMIT, CodingReport, canonical_conflict,
                  canonical_pair, check_coding_symbolic, sort_conflicts,
                  sort_pairs)
from .encode import (SymbolicDepthError, SymbolicEncoding,
                     SymbolicEncodingError, SymbolicMemoryError,
                     SymbolicOverflowError, SymbolicTransition, encode_stg)
from .reach import SymbolicReachability, symbolic_reach

__all__ = [
    "BDD", "FALSE", "TRUE",
    "SymbolicDepthError", "SymbolicEncoding", "SymbolicEncodingError",
    "SymbolicMemoryError", "SymbolicOverflowError",
    "SymbolicTransition", "encode_stg",
    "SymbolicReachability", "symbolic_reach",
    "DEFAULT_WITNESS_LIMIT", "CodingReport", "canonical_conflict",
    "canonical_pair", "check_coding_symbolic", "sort_conflicts",
    "sort_pairs",
]
