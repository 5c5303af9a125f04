"""Forward reduction -- the elementary operation of the paper (Section 6).

``FwdRed(a, b)`` reduces the concurrency of event ``a`` with respect to
event ``b``: in every execution where both are enabled, ``a`` now waits for
``b``.  Following Fig. 7::

    ER_red(a) = ER(a) - (ER(b)  U  back_reach(ER(a) /\\ ER(b)))

where the backward reachability stays inside ER(a) (leaving the region would
mean ``a`` has fired).  Arcs labelled ``a`` leaving the truncated states are
removed, unreachable states are pruned, and the result is validated per
Definition 5.1.  At the STG level this corresponds to adding a causal place
from ``b`` to ``a``.

FwdRed only ever removes arcs, so every configuration a reduction search
reaches is a subgraph of the root SG.  A :class:`ReductionSpace` reads
the root's :class:`~repro.sg.graph.GraphIndex` (dense state, label and arc
ids in root order) and adds per-state in-arcs and one arc mask per label;
a configuration is a :class:`Config`: the int mask of its arcs plus the
int mask of its reachable states.  For one root, equal arc masks mean equal
:meth:`~repro.sg.graph.StateGraph.signature`\\ s, so searches deduplicate
on the mask and a :class:`~repro.sg.graph.StateGraph` is built only where
a caller needs one (:meth:`ReductionSpace.materialize`).

The space also stores each unordered label pair's root diamonds (Definition
2.1), each as the mask of its four arcs.  Every masked arc has a reachable
source -- a step drops the arcs of the states it loses -- so a diamond of a
configuration is a root diamond inside its mask, and
:meth:`ReductionSpace.concurrent` (the search's Keep_Conc check) and
:meth:`ReductionSpace.reducible` test diamond masks without scanning a
state.  The FwdRed step itself walks a :class:`_View`, the configuration
decoded into per-state adjacency, since a dict lookup costs less than a
bit test on masks of hundreds of arcs.

The Section 7 cost terms are measured on the masks too
(:meth:`ReductionSpace.measure`), from the index's packed codes and the
rise, fall and non-input excitation bits of every label.  One pass over a
configuration's reachable states and live arcs yields the ``(code, rise,
fall)`` rows that the next-state extraction splits into ON/OFF sets, and
its codes with their excitation masks count the CSC conflict pairs
through :func:`~repro.sg.properties.conflict_pairs`, the counter the
property checks and the insertion walk share.  So a search scores every
configuration without building a graph, and spaces built for
:func:`forward_reduction` or :func:`reducible_pairs` never read a code:
the index packs them on first read.

Definition 5.1 is checked on the masks.  Surviving states keep every arc
except the removed ones, so no input event can be delayed (``delayed`` is
non-input) and new deadlocks can only appear at truncated survivors; what
remains is lost events, those deadlocks and the initial state.  Output
persistency needs no check: a witness ``s --b--> t`` with ``t`` truncated
and ``delayed`` enabled at ``s`` puts ``s`` in ER(delayed), and ``s``
reaches ``t`` inside it, so ``s`` is truncated too and loses ``delayed``.

The process-global ``reduction-space`` cache keeps one space per root
signature together with its transition table ``(mask, delayed, before)
-> child | None`` and the weight-independent cost terms per mask, so a
sweep re-running the search on the same root re-measures nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .. import engine
from ..logic.functions import _extract_from_masks, _targets
from ..logic.minimize import fast_literal_count
from ..obs.metrics import registry as obs_registry
from ..sg.graph import StateGraph
from ..sg.properties import conflict_pairs


class ReductionError(Exception):
    """Raised on misuse of the reduction operation (not on invalid results)."""


@dataclass
class ReductionResult:
    """Outcome of a forward reduction attempt."""

    sg: Optional[StateGraph]
    valid: bool
    reason: str = ""
    removed_arcs: int = 0
    removed_states: int = 0

    def __bool__(self) -> bool:
        return self.valid


class Config:
    """One configuration of a reduction search: arc and state masks.

    Bit ``i`` of ``mask`` is arc ``i`` of the root (arcs whose source is
    reachable, minus the removed ones); bit ``i`` of ``reach`` is root
    state ``i``.  The arc mask alone identifies the configuration.
    """

    __slots__ = ("mask", "reach")

    def __init__(self, mask: int, reach: int) -> None:
        self.mask = mask
        self.reach = reach

    @property
    def states(self) -> int:
        """The number of reachable states."""
        return self.reach.bit_count()


def _ids(mask: int) -> List[int]:
    """The set bits of ``mask``, lowest first."""
    return [i for i, bit in enumerate(reversed(f"{mask:b}")) if bit == "1"]


class _View:
    """A configuration decoded for expansion: adjacency and ERs by label."""

    __slots__ = ("config", "reachable", "adj", "er")

    def __init__(self, space: "ReductionSpace", config: Config) -> None:
        self.config = config
        self.reachable = _ids(config.reach)
        bits = f"{config.mask:b}"[::-1]
        top = len(bits)
        adj: List[Optional[Dict[int, int]]] = [None] * len(space.states)
        er: Dict[int, List[int]] = {}
        out = space.out
        for state in self.reachable:
            row: Dict[int, int] = {}
            for label, (arc, target) in out[state].items():
                if arc < top and bits[arc] == "1":
                    row[label] = target
                    er.setdefault(label, []).append(state)
            adj[state] = row
        #: ``adj[s]`` is ``{label id: target id}`` for reachable ``s``.
        self.adj = adj
        #: Excitation regions of the live labels, states in root order.
        self.er = er


@dataclass(frozen=True)
class _Step:
    """One FwdRed step on masks; ``child`` is None when it is invalid."""

    child: Optional[Config]
    reason: str = ""
    truncated: int = 0
    lost_states: int = 0


class ReductionSpace:
    """The arc masks of one root SG that FwdRed steps work on.

    Masks index the root through :meth:`~repro.sg.graph.StateGraph.index`,
    so building a space freezes it.
    """

    #: Transition-table entries kept per space before it starts over.
    MAX_TRANSITIONS = 200_000

    def __init__(self, root: StateGraph) -> None:
        self.sg = root
        index = self.index = root.index()
        self.states, self.labels = index.states, index.labels
        self.label_index, self.is_input = index.label_id, index.is_input
        #: ``out[s]`` is ``{label id: (arc id, target id)}`` in root order.
        self.out: List[Dict[int, Tuple[int, int]]] = []
        #: ``inn[t]`` lists the ``(label id, source id)`` arcs entering ``t``.
        self.inn: List[List[Tuple[int, int]]] = [[] for _ in self.states]
        self.label_arcs = [0] * len(self.labels)
        arc = 0
        for source, succ in enumerate(index.succ):
            row: Dict[int, Tuple[int, int]] = {}
            for label, target in succ.items():
                row[label] = (arc, target)
                self.inn[target].append((label, source))
                self.label_arcs[label] |= 1 << arc
                arc += 1
            self.out.append(row)
        #: ``diamonds[a, b]`` (label ids, ``a < b``) lists the root's
        #: ``a``/``b`` diamonds, each the mask of its four arcs.
        self.diamonds: Dict[Tuple[int, int], List[int]] = {}
        for row in self.out:
            enabled = sorted(row)
            for i, label_a in enumerate(enabled):
                arc_a, via_a = row[label_a]
                for label_b in enabled[i + 1:]:
                    arc_b, via_b = row[label_b]
                    end_b = self.out[via_a].get(label_b)
                    end_a = self.out[via_b].get(label_a)
                    if (end_a is not None and end_b is not None
                            and end_a[1] == end_b[1]):
                        self.diamonds.setdefault((label_a, label_b), []).append(
                            1 << arc_a | 1 << arc_b | 1 << end_a[0]
                            | 1 << end_b[0])
        self.root = Config((1 << arc) - 1, (1 << len(self.states)) - 1)
        self.transitions: Dict[Tuple[int, str, str], Optional[Config]] = {}
        #: ``mask -> (literals, CSC pairs, states)``.
        self.terms: Dict[int, Tuple[int, int, int]] = {}

    def view(self, config: Config) -> _View:
        return _View(self, config)

    def reducible(self, config: Config,
                  keep_conc: FrozenSet[FrozenSet[str]] = frozenset()
                  ) -> Set[Tuple[str, str]]:
        """:func:`reducible_pairs` of ``config``: pairs with a diamond in it."""
        labels, is_input, mask = self.labels, self.is_input, config.mask
        pairs: Set[Tuple[str, str]] = set()
        for (label_a, label_b), diamonds in self.diamonds.items():
            if not any(mask & diamond == diamond for diamond in diamonds):
                continue
            names = (labels[label_a], labels[label_b])
            if frozenset(names) in keep_conc:
                continue
            for before, delayed in ((label_a, label_b), (label_b, label_a)):
                if not is_input[delayed]:
                    pairs.add((labels[before], labels[delayed]))
        return pairs

    def step(self, view: _View, delayed: int, before: int) -> _Step:
        """``FwdRed(delayed, before)`` on ``view``'s configuration."""
        names = self.labels
        adj = view.adj
        region = view.er.get(delayed, ())
        intersection = [state for state in region if before in adj[state]]
        if not intersection:
            return _Step(None, f"{names[delayed]} and {names[before]} "
                               f"are not concurrent")

        members = set(region)
        truncated = set(intersection)
        stack = list(intersection)
        inn = self.inn
        while stack:
            state = stack.pop()
            for label, source in inn[state]:
                if (source in members and source not in truncated
                        and adj[source].get(label) == state):
                    truncated.add(source)
                    stack.append(source)
        if len(truncated) == len(members):
            return _Step(None, f"reduction would remove every occurrence of "
                               f"{names[delayed]}")

        initial = self.index.initial
        reached: Set[int] = set()
        deadlock: Optional[int] = None
        if initial is not None:
            reached.add(initial)
            stack = [initial]
            while stack:
                state = stack.pop()
                row = adj[state]
                if state in truncated:
                    kept = False
                    for label, target in row.items():
                        if label == delayed:
                            continue
                        kept = True
                        if target not in reached:
                            reached.add(target)
                            stack.append(target)
                    if not kept:
                        deadlock = state
                else:
                    for target in row.values():
                        if target not in reached:
                            reached.add(target)
                            stack.append(target)

        out = self.out
        drop = 0
        for state in truncated:
            drop |= 1 << out[state][delayed][0]
        reach = view.config.reach
        lost_states = 0
        for state in view.reachable:
            if state not in reached:
                lost_states += 1
                reach ^= 1 << state
                row = out[state]
                for label in adj[state]:
                    drop |= 1 << row[label][0]
        mask = view.config.mask & ~drop

        reasons = []
        lost = sorted(names[label] for label in view.er
                      if not mask & self.label_arcs[label])
        if lost:
            reasons.append(f"events disappeared: {lost}")
        if deadlock is not None:
            reasons.append(f"new deadlock at state {self.states[deadlock]!r}")
        if initial is None or initial not in reached:
            reasons.append("initial state changed")
        if reasons:
            return _Step(None, "; ".join(reasons), len(truncated), lost_states)
        return _Step(Config(mask, reach), "", len(truncated), lost_states)

    def child(self, view: _View, delayed: str, before: str) -> Optional[Config]:
        """The valid ``FwdRed(delayed, before)`` child of ``view``, memoized."""
        key = (view.config.mask, delayed, before)
        transitions = self.transitions
        if key in transitions:
            return transitions[key]
        child = self.step(view, self.label_index[delayed],
                          self.label_index[before]).child
        if len(transitions) >= self.MAX_TRANSITIONS:
            transitions.clear()
        transitions[key] = child
        return child

    def concurrent(self, config: Config, label_a: str, label_b: str) -> bool:
        """:func:`~repro.sg.regions.are_concurrent` on ``config``.

        A diamond whose four arcs are all in the mask is a diamond of the
        configuration: a masked arc has a reachable source.
        """
        a, b = sorted((self.label_index[label_a], self.label_index[label_b]))
        mask = config.mask
        return any(mask & diamond == diamond
                   for diamond in self.diamonds.get((a, b), ()))

    @cached_property
    def targets(self) -> List[Tuple[str, int]]:
        """The output and internal signals with their code bits; raises
        ``ValueError`` on a toggled one, as extraction does."""
        return [(signal, 1 << self.sg.signal_index(signal))
                for signal in _targets(self.sg)]

    def measure(self, config: Config) -> Tuple[int, int, int]:
        """The weight-independent cost terms of ``config``, on the masks.

        ``(literal estimate, CSC conflict pairs, state count)``, equal to
        what the literal estimate and :func:`~repro.sg.properties.csc_conflicts`
        give on :meth:`materialize`'s graph.  Raises
        :class:`~repro.sg.graph.StateGraphError` when a root state has no
        code.
        """
        targets, index = self.targets, self.index
        codes, rise_bits, fall_bits = index.codes, index.rise, index.fall
        excites = index.excites
        bits = f"{config.mask:b}"[::-1]
        top = len(bits)
        rows: List[Tuple[int, int, int]] = []
        excitations: List[int] = []
        for state in _ids(config.reach):
            rise = fall = excited = 0
            for label, (arc, _) in self.out[state].items():
                if arc < top and bits[arc] == "1":
                    rise |= rise_bits[label]
                    fall |= fall_bits[label]
                    excited |= excites[label]
            rows.append((codes[state], rise, fall))
            excitations.append(excited)
        literals = 0
        variables = self.sg.signals
        for signal, bit in targets:
            function = _extract_from_masks(signal, bit, variables, rows)
            literals += fast_literal_count(len(variables),
                                           function.resolved_on("on"),
                                           function.off_ints)
        _, pairs = conflict_pairs([row[0] for row in rows], excitations)
        return literals, pairs, config.states

    def materialize(self, root: StateGraph, config: Config) -> StateGraph:
        """The configuration as a frozen graph derived from ``root``.

        ``root`` is this space's root or a graph with the same signature;
        states and arcs keep its order, exactly as a chain of FwdRed
        copies would.
        """
        states, labels, out = self.states, self.labels, self.out
        mask = config.mask
        removed = []
        reachable = set()
        for state in _ids(config.reach):
            node = states[state]
            reachable.add(node)
            for label, (arc, _) in out[state].items():
                if not mask >> arc & 1:
                    removed.append((node, labels[label]))
        return root.copy_without_arcs(removed, reachable=reachable)


#: One :class:`ReductionSpace` per root signature; each carries its
#: transition table and cost terms, which are pure functions of the root.
_SPACES: Dict[tuple, ReductionSpace] = (
    engine.register_cache({}, name="reduction-space"))


def reduction_space(sg: StateGraph) -> ReductionSpace:
    """The space rooted at ``sg`` (shared while the engine memo is on)."""
    if not engine.packed_memo_enabled():
        return ReductionSpace(sg)
    key = sg.signature()
    space = _SPACES.get(key)
    if space is None:
        if len(_SPACES) >= 64:
            _SPACES.clear()
        space = _SPACES[key] = ReductionSpace(sg)
    return space


_OUTCOMES = ("valid", "invalid", "duplicate")


def record_work(valid: int = 0, invalid: int = 0, duplicate: int = 0,
                materialized: int = 0, scored: int = 0) -> None:
    """Fold FwdRed step outcomes, graphs built and scorings into the registry.

    ``valid`` steps reached a new configuration, ``duplicate`` ones a
    configuration the search had already generated; ``scored`` counts the
    configurations measured on masks (:meth:`ReductionSpace.measure`).
    """
    reg = obs_registry()
    for outcome, count in zip(_OUTCOMES, (valid, invalid, duplicate)):
        reg.counter("repro_reduction_steps_total",
                    "FwdRed steps taken by reductions, by outcome.",
                    outcome=outcome).inc(count)
    reg.counter("repro_reduction_materialized_total",
                "Reduction configurations built as state graphs.").inc(
                    materialized)
    reg.counter("repro_reduction_scored_total",
                "Reduction configurations scored on masks.").inc(scored)


def reduction_work() -> Dict[str, int]:
    """The reduction counters of the default registry.

    ``steps`` taken, graphs built (``materialized``) and configurations
    ``scored``.
    """
    reg = obs_registry()
    steps = sum(reg.value("repro_reduction_steps_total", outcome=outcome) or 0
                for outcome in _OUTCOMES)
    built = reg.value("repro_reduction_materialized_total") or 0
    scored = reg.value("repro_reduction_scored_total") or 0
    return {"steps": int(steps), "materialized": int(built),
            "scored": int(scored)}


def forward_reduction(sg: StateGraph, delayed: str,
                      before: str) -> ReductionResult:
    """Apply ``FwdRed(delayed, before)``: make ``delayed`` wait for ``before``.

    ``delayed`` must be a non-input event (inputs cannot be delayed by the
    circuit, condition 2a of Definition 5.1).  Returns an invalid result --
    never raises -- when the events are not concurrent or the reduction
    violates validity, so the exploration loop can just skip it.
    """
    if delayed not in sg.events or before not in sg.events:
        raise ReductionError(f"unknown event: {delayed!r} or {before!r}")
    if delayed == before:
        raise ReductionError("cannot reduce an event against itself")
    if sg.is_input_label(delayed):
        return ReductionResult(None, False,
                               f"{delayed} is an input event and cannot be delayed")
    space = reduction_space(sg)
    step = space.step(space.view(space.root), space.label_index[delayed],
                      space.label_index[before])
    if step.child is None:
        record_work(invalid=1)
        return ReductionResult(None, False, step.reason,
                               removed_arcs=step.truncated,
                               removed_states=step.lost_states)
    record_work(valid=1, materialized=1)
    return ReductionResult(space.materialize(sg, step.child), True, "",
                           removed_arcs=step.truncated,
                           removed_states=step.lost_states)


def reducible_pairs(sg: StateGraph,
                    keep_conc: FrozenSet[FrozenSet[str]] = frozenset()) -> Set[Tuple[str, str]]:
    """All ordered pairs ``(before, delayed)`` eligible for FwdRed.

    ``delayed`` ranges over non-input events concurrent with ``before``;
    pairs whose unordered form appears in ``keep_conc`` are excluded (they
    are the designer's performance-critical concurrency, Fig. 9).
    """
    space = ReductionSpace(sg)
    return space.reducible(space.root, keep_conc)
