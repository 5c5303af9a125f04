"""Symbolic CSC/USC/consistency checks, without enumerating states.

The classic formulation: a USC conflict is two distinct reachable states
with equal binary codes, a CSC conflict one whose non-input excitation
also differs.  Explicitly that is a pairwise scan inside code buckets
(:mod:`repro.sg.properties`); symbolically it is one product of the
reachable set with itself::

    U(p, p', s) = R(p, s) AND R(p', s) AND (p != p')        -- USC pairs
    C           = U AND (exists sd . X_sd(p) XOR X_sd(p'))   -- CSC pairs

where ``p`` / ``p'`` are the unprimed / primed place variables, the
*shared* signal variables force the two codes equal by construction, and
``X_sd`` is the excitation predicate of non-input event ``(signal,
direction)`` -- a disjunction of transition enabling cubes over the
unprimed places, renamed for the primed half.  Every unordered pair
appears in both orientations, so pair counts are half the model counts.
Consistency is two symbolic conditions: no reachable state enables a
rise (fall) of an already-high (already-low) signal, and no marking
carries two distinct signal-value vectors (a model-count comparison,
not an enumeration).

Both engines render their verdicts into one :class:`CodingReport` whose
:meth:`~CodingReport.to_payload` is engine-free and canonical: witness
pairs are decoded into (code, marking, excitation) records, ordered
pair-internally by marking and globally by (code, markings).  The
cross-engine parity suite byte-compares these payloads between the
packed, tuple and symbolic engines; witness lists above
``witness_limit`` are dropped (``truncated``) on *every* engine by the
same rule, so equality still holds when only the counts are practical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..explore.budget import ExplorationBudget
from ..obs.trace import span as obs_span
from ..petri.stg import STG
from .bdd import FALSE
from .encode import SymbolicEncoding, encode_stg
from .reach import SymbolicReachability, metered, symbolic_reach

__all__ = ["DEFAULT_WITNESS_LIMIT", "CodingReport",
           "canonical_conflict", "canonical_pair",
           "check_coding_symbolic", "sort_conflicts", "sort_pairs"]

#: Above this many conflicts the witness lists are dropped (counts and
#: verdicts stay); one shared rule so every engine truncates alike.
DEFAULT_WITNESS_LIMIT = 64


@dataclass
class CodingReport:
    """One engine-comparable verdict record for coding properties.

    ``conflicts`` / ``usc_pairs`` hold canonical witness payloads (see
    :func:`canonical_conflict` / :func:`canonical_pair`); ``engine``
    and ``bdd_nodes`` are diagnostics excluded from :meth:`to_payload`,
    which is the byte-compared projection.
    """

    name: str
    engine: str
    states: int
    consistent: bool
    usc: bool
    csc: bool
    usc_pair_count: int
    csc_conflict_count: int
    conflicts: List[dict] = field(default_factory=list)
    usc_pairs: List[dict] = field(default_factory=list)
    truncated: bool = False
    bdd_nodes: Optional[int] = None

    def to_payload(self) -> dict:
        """The canonical, engine-independent projection."""
        return {
            "name": self.name,
            "states": self.states,
            "consistent": self.consistent,
            "usc": self.usc,
            "csc": self.csc,
            "usc_pair_count": self.usc_pair_count,
            "csc_conflict_count": self.csc_conflict_count,
            "conflicts": self.conflicts,
            "usc_pairs": self.usc_pairs,
            "truncated": self.truncated,
        }


def _code_string(values: Sequence[int]) -> str:
    return "".join(str(v) for v in values)


def canonical_pair(code: Sequence[int], marking_a: Sequence[int],
                   marking_b: Sequence[int]) -> dict:
    """The canonical USC-pair payload (marking order fixed)."""
    first, second = sorted((tuple(marking_a), tuple(marking_b)))
    return {"code": _code_string(code),
            "a": list(first), "b": list(second)}


def canonical_conflict(code: Sequence[int],
                       marking_a: Sequence[int], excited_a,
                       marking_b: Sequence[int], excited_b) -> dict:
    """The canonical CSC-conflict payload.

    ``excited_*`` are iterables of ``(signal, direction_value)`` pairs;
    the conflict sides are ordered by marking so both engines emit the
    identical record for one conflict.
    """
    sides = sorted(((tuple(marking_a), excited_a),
                    (tuple(marking_b), excited_b)),
                   key=lambda side: side[0])
    return {"code": _code_string(code),
            "a": {"marking": list(sides[0][0]),
                  "excited": [list(item) for item in sorted(sides[0][1])]},
            "b": {"marking": list(sides[1][0]),
                  "excited": [list(item) for item in sorted(sides[1][1])]}}


def sort_pairs(pairs: List[dict]) -> List[dict]:
    """Global canonical order of USC-pair payloads."""
    return sorted(pairs, key=lambda p: (p["code"], p["a"], p["b"]))


def sort_conflicts(conflicts: List[dict]) -> List[dict]:
    """Global canonical order of CSC-conflict payloads."""
    return sorted(conflicts, key=lambda c: (c["code"], c["a"]["marking"],
                                            c["b"]["marking"]))


def _excitation_of(encoding: SymbolicEncoding,
                   marking: Sequence[int]) -> List[Tuple[str, str]]:
    """Non-input (signal, direction value) excitation at one marking."""
    excited = set()
    for transition in encoding.transitions:
        if transition.is_input:
            continue
        if all(marking[p] for p in transition.pre_places):
            excited.add((transition.signal, transition.direction.value))
    return sorted(excited)


def _pair_products(encoding: SymbolicEncoding, reached: int
                   ) -> Tuple[int, int]:
    """The USC pair relation ``U`` and the CSC conflict relation ``C``."""
    bdd = encoding.bdd
    mapping = encoding.prime_mapping()
    primed = bdd.rename(reached, mapping)
    pair = bdd.apply_and(reached, primed)
    marking_diff = FALSE
    for var, primed_var in zip(encoding.place_vars,
                               encoding.primed_place_vars):
        marking_diff = bdd.apply_or(
            marking_diff, bdd.apply_xor(bdd.var(var), bdd.var(primed_var)))
    usc_pairs = bdd.apply_and(pair, marking_diff)
    excitation_diff = FALSE
    for key in sorted(encoding.excitation):
        predicate = encoding.excitation[key]
        excitation_diff = bdd.apply_or(
            excitation_diff,
            bdd.apply_xor(predicate, bdd.rename(predicate, mapping)))
    csc_pairs = bdd.apply_and(usc_pairs, excitation_diff)
    return usc_pairs, csc_pairs


def _consistency(encoding: SymbolicEncoding, reached: int,
                 state_count: int) -> bool:
    """Symbolic consistency: no wrong-phase firing, one code per marking."""
    bdd = encoding.bdd
    has_toggle = False
    for transition in encoding.transitions:
        if transition.wrong is None:
            has_toggle = True
            continue
        offending = bdd.apply_and(reached, transition.enabled)
        if bdd.apply_and(offending, transition.wrong) != FALSE:
            return False
    if has_toggle:
        # Toggle (2-phase) specs are unfolded: a marking legitimately
        # recurs with different signal values, and toggles cannot fire
        # wrong-phase, so the wrong-literal sweep is the whole check.
        return True
    markings = bdd.exists(reached, encoding.signal_vars)
    return bdd.count(markings, encoding.place_vars) == state_count


def _decode_pairs(encoding: SymbolicEncoding, relation: int,
                  conflicts: bool, limit: int) -> List[dict]:
    """Enumerate a pair relation into canonical payloads (deduplicated)."""
    bdd = encoding.bdd
    care = tuple(sorted(encoding.place_vars + encoding.primed_place_vars
                        + tuple(encoding.signal_vars)))
    seen = set()
    payloads: List[dict] = []
    for model in bdd.models(relation, care):
        assignment = dict(model)
        marking_a = encoding.decode_marking(assignment)
        marking_b = encoding.decode_marking(assignment, primed=True)
        values = encoding.decode_values(assignment)
        key = (values, *sorted((marking_a, marking_b)))
        if key in seen:
            continue
        seen.add(key)
        if conflicts:
            payloads.append(canonical_conflict(
                values, marking_a, _excitation_of(encoding, marking_a),
                marking_b, _excitation_of(encoding, marking_b)))
        else:
            payloads.append(canonical_pair(values, marking_a, marking_b))
        if len(payloads) > limit:  # safety net; callers pre-check counts
            break
    return sort_conflicts(payloads) if conflicts else sort_pairs(payloads)


def check_coding_symbolic(stg: STG,
                          budget: Optional[ExplorationBudget] = None,
                          witness_limit: int = DEFAULT_WITNESS_LIMIT,
                          name: Optional[str] = None,
                          run: Optional[SymbolicReachability] = None
                          ) -> CodingReport:
    """Check consistency/USC/CSC of ``stg`` without enumerating states.

    ``run`` reuses an existing reachability result (its encoding must be
    for the same STG); otherwise the STG is encoded and explored under
    ``budget``.  Either way the run's budget meter keeps charging BDD
    nodes and seconds through the pair product.  Raises
    :class:`~repro.explore.budget.BudgetExceeded` /
    :class:`~repro.symbolic.encode.SymbolicEncodingError` (its
    ``SymbolicDepthError`` naming this stage when the pair product
    recurses too deep) like :func:`~repro.symbolic.reach.symbolic_reach`.
    """
    if run is None:
        encoding = encode_stg(stg, name=name)
        run = symbolic_reach(encoding, budget=budget)
    else:
        encoding = run.encoding
    bdd = encoding.bdd
    with obs_span("symbolic:coding", spec=encoding.name) as check_span, \
            metered(bdd, run.meter, "symbolic coding check", encoding.name):
        consistent = _consistency(encoding, run.reached, run.state_count)
        usc_relation, csc_relation = _pair_products(encoding, run.reached)
        pair_count_vars = tuple(sorted(
            encoding.place_vars + encoding.primed_place_vars
            + tuple(encoding.signal_vars)))
        usc_pair_count = bdd.count(usc_relation, pair_count_vars) // 2
        csc_conflict_count = bdd.count(csc_relation, pair_count_vars) // 2
        truncated = (usc_pair_count > witness_limit
                     or csc_conflict_count > witness_limit)
        conflicts: List[dict] = []
        usc_pairs: List[dict] = []
        if not truncated:
            usc_pairs = _decode_pairs(encoding, usc_relation,
                                      conflicts=False, limit=witness_limit)
            conflicts = _decode_pairs(encoding, csc_relation,
                                      conflicts=True, limit=witness_limit)
        if check_span is not None:
            check_span.set(states=run.state_count,
                           usc_pairs=usc_pair_count,
                           csc_conflicts=csc_conflict_count,
                           bdd_nodes=bdd.node_count)
    return CodingReport(
        name=encoding.name,
        engine="symbolic",
        states=run.state_count,
        consistent=consistent,
        usc=usc_pair_count == 0,
        csc=csc_conflict_count == 0,
        usc_pair_count=usc_pair_count,
        csc_conflict_count=csc_conflict_count,
        conflicts=conflicts,
        usc_pairs=usc_pairs,
        truncated=truncated,
        bdd_nodes=bdd.node_count)
