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

from ..petri.stg import Direction, SignalKind
from ..sg.graph import StateGraph
from .cube import Cover
# The exact core keeps this module's historic ``minimize`` name: perfbench's
# ``logic.minimize`` layer times the calls made through it.
from .minimize import minimize_ints as minimize
from .minimize import minimize_fast_ints, _unpack_cube, unpack_minterm

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
            view = {unpack_minterm(m, n) for m in ints}
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

    def minimized(self, exact: bool = False, conflict_policy: str = "on",
                  fast: bool = False) -> Cover:
        """Minimal cover of the function.

        With conflicts present an exact cover does not exist; the policy
        decides how conflicting codes are treated for *estimation*:
        ``"on"`` treats them as ON (optimistic), ``"dc"`` as don't care.
        ``fast=True`` uses the expand-and-cover heuristic minimizer (for the
        exploration cost function).
        """
        on_ints = self.resolved_on(conflict_policy)
        n = self.num_vars
        if fast:
            if not on_ints:
                return Cover.zero(n)
            if not self.off_ints:
                return Cover.one(n)
            chosen = minimize_fast_ints(n, on_ints, self.off_ints)
            return Cover(n, [_unpack_cube(p, n) for p in chosen])
        return minimize(n, on_ints, self.off_ints, exact=exact)


def _reject_toggles(sg: StateGraph, signal: str) -> None:
    for label in sg.labels_of_signal(signal):
        if sg.events[label].direction not in (Direction.RISE, Direction.FALL):
            raise ValueError(
                f"toggle event {label!r}: derive logic from a 4-phase refinement")


def _excitation_masks(sg: StateGraph) -> List[Tuple[int, int, int]]:
    """Per state: (code, rising-signal bitmask, falling-signal bitmask).

    One pass over the compiled adjacency serves the extraction of every
    signal at once.
    """
    compiled = sg.compiled()
    label_bits_rise = []
    label_bits_fall = []
    for lid in range(len(compiled.labels)):
        direction = compiled.event_direction[lid]
        bit = 1 << compiled.event_signal[lid]
        # Toggle labels contribute to neither mask; extraction rejects the
        # toggled signal itself up front (_reject_toggles), and a
        # toggle on an *input* signal never blocks extracting the others.
        label_bits_rise.append(bit if direction == Direction.RISE else 0)
        label_bits_fall.append(bit if direction == Direction.FALL else 0)
    rows = []
    for sid, out in enumerate(compiled.succ):
        code = compiled.code_ints[sid]
        if code < 0:
            sg.code_of(compiled.states[sid])  # raises StateGraphError
        rise = fall = 0
        for lid in out:
            rise |= label_bits_rise[lid]
            fall |= label_bits_fall[lid]
        rows.append((code, rise, fall))
    return rows


def _extract_from_masks(sg: StateGraph, signal: str,
                        rows: List[Tuple[int, int, int]]) -> NextStateFunction:
    bit = 1 << sg.signal_index(signal)
    on: Set[int] = set()
    off: Set[int] = set()
    for code, rise, fall in rows:
        if rise & bit or (code & bit and not fall & bit):
            on.add(code)
        else:
            off.add(code)
    conflicts = on & off
    return NextStateFunction(signal=signal, variables=list(sg.signals),
                             on_ints=frozenset(on - conflicts),
                             off_ints=frozenset(off - conflicts),
                             conflict_ints=frozenset(conflicts))


def extract_function(sg: StateGraph, signal: str) -> NextStateFunction:
    """Build the next-state function of one non-input signal."""
    if sg.kinds[signal] == SignalKind.INPUT:
        raise ValueError(f"signal {signal!r} is an input; nothing to implement")
    _reject_toggles(sg, signal)
    return _extract_from_masks(sg, signal, _excitation_masks(sg))


def extract_all_functions(sg: StateGraph) -> Dict[str, NextStateFunction]:
    """Next-state functions for every output and internal signal."""
    targets = [signal for signal in sg.signals
               if sg.kinds[signal] in (SignalKind.OUTPUT, SignalKind.INTERNAL)]
    if not targets:
        return {}
    for signal in targets:
        _reject_toggles(sg, signal)
    rows = _excitation_masks(sg)
    return {signal: _extract_from_masks(sg, signal, rows) for signal in targets}


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
    for code, rise, fall in _excitation_masks(sg):
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
