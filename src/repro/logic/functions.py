"""Next-state function extraction from a state graph.

For each non-input signal ``a`` the next-state function is::

    F_a(s) = 1  iff  a+ is enabled in s, or v_a(s) = 1 and a- is not enabled

States whose code appears in both the ON and OFF sets witness a CSC conflict
for that signal; the extractor reports them instead of silently producing an
unimplementable cover.  Unreachable codes form the don't-care set exploited
by minimization (this is exactly how concurrency reduction helps logic:
fewer reachable states, larger DC set).  The DC set is never built on the
way to a cover: both minimizers take the packed ON and OFF sets, whose
sizes are bounded by the reachable states, and treat every other code as a
don't care.  ``dc_ints`` enumerates the ``2^n`` code space only when read.

Extraction runs on packed integer codes (bit i = signal i, shared with
:meth:`repro.sg.graph.StateGraph.code_int` and the minimizers); the
tuple-minterm views ``on``/``off``/``dc``/``conflicts`` are materialized
lazily for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..petri.net import bit_tuple
from ..petri.stg import Direction, SignalKind
from ..sg.graph import StateGraph
from .cube import Cover
# The exact core keeps this module's historic ``minimize`` name: perfbench's
# ``logic.minimize`` layer times the calls made through it.
from .minimize import minimize_ints as minimize

Minterm = Tuple[int, ...]


class NextStateFunction:
    """ON/OFF/DC characterisation of one signal's next-state function.

    The authoritative representation is packed integers (``on_ints``,
    ``off_ints`` and ``conflict_ints``); the DC set and the tuple-set views
    are computed on first access.
    """

    __slots__ = ("signal", "variables", "on_ints", "off_ints",
                 "conflict_ints", "_dc_ints", "_tuple_views")

    def __init__(self, signal: str, variables: List[str],
                 on_ints: FrozenSet[int], off_ints: FrozenSet[int],
                 conflict_ints: FrozenSet[int]) -> None:
        self.signal = signal
        self.variables = variables
        self.on_ints = on_ints
        self.off_ints = off_ints
        self.conflict_ints = conflict_ints
        self._dc_ints: Optional[FrozenSet[int]] = None
        self._tuple_views: Dict[str, Set[Minterm]] = {}

    @property
    def dc_ints(self) -> FrozenSet[int]:
        """Every code outside ON, OFF and the conflicts (``2^n`` work)."""
        if self._dc_ints is None:
            care = self.on_ints | self.off_ints | self.conflict_ints
            self._dc_ints = frozenset(m for m in range(1 << self.num_vars)
                                      if m not in care)
        return self._dc_ints

    def _view(self, name: str, ints: FrozenSet[int]) -> Set[Minterm]:
        view = self._tuple_views.get(name)
        if view is None:
            n = len(self.variables)
            view = {bit_tuple(m, n) for m in ints}
            self._tuple_views[name] = view
        return view

    @property
    def on(self) -> Set[Minterm]:
        return self._view("on", self.on_ints)

    @property
    def off(self) -> Set[Minterm]:
        return self._view("off", self.off_ints)

    @property
    def dc(self) -> Set[Minterm]:
        return self._view("dc", self.dc_ints)

    @property
    def conflicts(self) -> Set[Minterm]:
        return self._view("conflicts", self.conflict_ints)

    @property
    def has_csc_conflict(self) -> bool:
        return bool(self.conflict_ints)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def resolved_on(self, conflict_policy: str = "on") -> FrozenSet[int]:
        """ON with conflicting codes folded in per the policy.

        ``"on"`` adds them to ON, ``"dc"`` leaves them don't care; OFF is
        the same either way.
        """
        if not self.conflict_ints:
            return self.on_ints
        if conflict_policy == "on":
            return self.on_ints | self.conflict_ints
        if conflict_policy == "dc":
            return self.on_ints
        raise ValueError(f"unknown conflict policy {conflict_policy!r}")

    def minimized(self, exact: bool = False,
                  conflict_policy: str = "on") -> Cover:
        """Minimal cover of the function.

        With conflicts present an exact cover does not exist; the policy
        decides how conflicting codes are treated for *estimation*:
        ``"on"`` treats them as ON (optimistic), ``"dc"`` as don't care.
        """
        return minimize(self.num_vars, self.resolved_on(conflict_policy),
                        self.off_ints, exact=exact)


def _reject_toggles(sg: StateGraph, signal: str) -> None:
    for label in sg.labels_of_signal(signal):
        if sg.events[label].direction not in (Direction.RISE, Direction.FALL):
            raise ValueError(
                f"toggle event {label!r}: derive logic from a 4-phase refinement")


def _targets(sg: StateGraph) -> List[str]:
    """The output and internal signals in code order; toggles rejected."""
    targets = [signal for signal in sg.signals
               if sg.kinds[signal] in (SignalKind.OUTPUT, SignalKind.INTERNAL)]
    for signal in targets:
        _reject_toggles(sg, signal)
    return targets


def _rows(sg: StateGraph) -> List[Tuple[int, int, int]]:
    """Per state: (code, rising-signal bitmask, falling-signal bitmask).

    One pass over the graph's rows serves the extraction of every signal
    at once.  A toggle label contributes to neither mask: extraction
    rejects the toggled signal itself up front (:func:`_targets`), and a
    toggle on an *input* signal never blocks extracting the others.
    """
    rise_bits, fall_bits = sg.freeze().rise, sg.fall
    rows = []
    # code_ints raises StateGraphError on a state without a code.
    for code, out in zip(sg.code_ints, sg.succ):
        rise = fall = 0
        for label in out:
            rise |= rise_bits[label]
            fall |= fall_bits[label]
        rows.append((code, rise, fall))
    return rows


def _extract_from_masks(signal: str, bit: int, variables: List[str],
                        rows: List[Tuple[int, int, int]]) -> NextStateFunction:
    """Split ``rows`` into the ON/OFF/conflict codes of the signal at ``bit``."""
    on: Set[int] = set()
    off: Set[int] = set()
    for code, rise, fall in rows:
        if rise & bit or (code & bit and not fall & bit):
            on.add(code)
        else:
            off.add(code)
    conflicts = on & off
    return NextStateFunction(signal=signal, variables=variables,
                             on_ints=frozenset(on - conflicts),
                             off_ints=frozenset(off - conflicts),
                             conflict_ints=frozenset(conflicts))


def extract_function(sg: StateGraph, signal: str) -> NextStateFunction:
    """Build the next-state function of one non-input signal."""
    if sg.kinds[signal] == SignalKind.INPUT:
        raise ValueError(f"signal {signal!r} is an input; nothing to implement")
    _reject_toggles(sg, signal)
    return _extract_from_masks(signal, 1 << sg.signal_index(signal),
                               list(sg.signals), _rows(sg))


def extract_all_functions(sg: StateGraph) -> Dict[str, NextStateFunction]:
    """Next-state functions for every output and internal signal."""
    targets = _targets(sg)
    if not targets:
        return {}
    rows = _rows(sg)
    return {signal: _extract_from_masks(signal, 1 << sg.signal_index(signal),
                                        list(sg.signals), rows)
            for signal in targets}


@dataclass
class SetResetFunctions:
    """Excitation (set/reset) covers for a generalized C-element implementation."""

    signal: str
    variables: List[str]
    set_cover: Cover
    reset_cover: Cover


def extract_set_reset(sg: StateGraph, signal: str,
                      exact: bool = False) -> SetResetFunctions:
    """Covers of ER(a+) and ER(a-) with quiescent states as don't care.

    Valid only when the signal has no CSC conflict; raises otherwise.
    """
    function = extract_function(sg, signal)
    if function.has_csc_conflict:
        raise ValueError(f"signal {signal!r} has CSC conflicts; resolve first")
    bit = 1 << sg.signal_index(signal)
    set_on: Set[int] = set()
    reset_on: Set[int] = set()
    stable_high: Set[int] = set()
    stable_low: Set[int] = set()
    for code, rise, fall in _rows(sg):
        if rise & bit:
            set_on.add(code)
        elif fall & bit:
            reset_on.add(code)
        elif code & bit:
            stable_high.add(code)
        else:
            stable_low.add(code)
    # The set network may stay high while the signal is high (the C element
    # holds), but must be low in the reset region and at stable 0; dually for
    # the reset network.  Unreachable codes are free for both.  Without a
    # CSC conflict on the signal no code falls in two of the four classes.
    num_vars = len(sg.signals)
    set_cover = minimize(num_vars, frozenset(set_on),
                         frozenset(reset_on | stable_low), exact=exact)
    reset_cover = minimize(num_vars, frozenset(reset_on),
                           frozenset(set_on | stable_high), exact=exact)
    return SetResetFunctions(signal=signal, variables=list(sg.signals),
                             set_cover=set_cover, reset_cover=reset_cover)
