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
the root's own ints (dense state, label and arc ids in root order) and
in-arcs, and adds one arc mask per label;
a configuration is a :class:`Config`: the int mask of its arcs, the int
mask of its reachable states and the mask of every root arc out of those.
For one root, equal arc masks mean equal
:meth:`~repro.sg.graph.StateGraph.signature`\\ s, so searches deduplicate
on the mask and a :class:`~repro.sg.graph.StateGraph` is built only where
a caller needs one (:meth:`ReductionSpace.materialize`).  A state's root
arcs have consecutive ids, so its live arcs are one slice of the mask:
masks are decoded a state at a time from the reachable-state mask (read
a byte at a time), never as binary strings.

The space also stores each unordered label pair's root diamonds (Definition
2.1), each as the mask of its four arcs.  Every masked arc has a reachable
source -- a step drops the arcs of the states it loses -- so a diamond of a
configuration is a root diamond inside its mask, and
:meth:`ReductionSpace.concurrent` (the search's Keep_Conc check) and
:meth:`ReductionSpace.reducible` test diamond masks without scanning a
state.  A child's diamonds are among its parent's, so
:meth:`ReductionSpace.live_pairs` can test only the parent's live pairs,
each on the parent's witness diamond first.  The FwdRed step walks a
:class:`_View`, the configuration decoded into per-state adjacency, since
a dict lookup costs less than a bit test on masks of hundreds of arcs.
It first finds the truncated states, a walk local to ER(delayed); a
caller that expects a certain child passes it as a hint, and the step
accepts it without the reachability walk when the kept arcs, restricted
to the hint's states, are exactly the hint's arcs (see
:meth:`ReductionSpace.step`).

The Section 7 cost terms are measured on the masks too
(:meth:`ReductionSpace.measure`), from the root's packed codes and the
rise, fall and non-input excitation bits of every label.  The space
numbers the root's distinct codes once, in ascending order, and keeps one
column bitset per signal over those ids (:attr:`ReductionSpace.coding`).
One pass over a configuration's reachable states ORs, per code, the
signals whose next value is 1 (a state keeping all its root arcs reads a
precomputed row); each target's ON set and the set of codes present come
from that as plain int bitsets, and the target's literal count from the
space's memo keyed by ``(on, present)`` (:attr:`ReductionSpace.covers`),
whose misses run :func:`~repro.logic.minimize.expand_and_cover` on the
space's columns.  The codes with their excitation masks count the CSC
conflict pairs through :func:`~repro.sg.properties.conflict_pairs`, the
counter the property checks and the insertion walk share.  So a search
scores every configuration without building a graph or a set of codes,
and spaces built for :func:`forward_reduction` or
:func:`reducible_pairs` never read a code, so FwdRed runs on graphs
without codes.

Definition 5.1 is checked on the masks.  Surviving states keep every arc
except the removed ones, so no input event can be delayed (``delayed`` is
non-input) and new deadlocks can only appear at truncated survivors; what
remains is lost events, those deadlocks and the initial state.  Output
persistency needs no check: a witness ``s --b--> t`` with ``t`` truncated
and ``delayed`` enabled at ``s`` puts ``s`` in ER(delayed), and ``s``
reaches ``t`` inside it, so ``s`` is truncated too and loses ``delayed``.

The process-global ``reduction-space`` cache keeps one space per root
signature together with its transition table ``(mask, delayed, before)
-> child | None``, the weight-independent cost terms per mask and the
cover memo, so a sweep re-running the search on the same root
re-measures nothing, and ``engine.clear_caches()`` drops all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .. import engine
from ..logic.functions import _targets
from ..logic.minimize import code_columns, expand_and_cover
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
    ``arcs`` is the mask of every root arc out of a reachable state; when
    it is not given, :meth:`ReductionSpace.out_arcs` derives it on first
    use.
    """

    __slots__ = ("mask", "reach", "arcs")

    def __init__(self, mask: int, reach: int,
                 arcs: Optional[int] = None) -> None:
        self.mask = mask
        self.reach = reach
        self.arcs = arcs

    @property
    def states(self) -> int:
        """The number of reachable states."""
        return self.reach.bit_count()

    def ids(self) -> List[int]:
        """The reachable state ids, lowest first, read a byte at a time."""
        ids: List[int] = []
        reach = self.reach
        for base, byte in enumerate(reach.to_bytes(
                (reach.bit_length() + 7) >> 3, "little")):
            if byte:
                base <<= 3
                ids += [base + bit for bit in _BYTE_BITS[byte]]
        return ids


#: Label pairs with a diamond in a configuration, one witness diamond each
#: (see :meth:`ReductionSpace.live_pairs`).
LivePairs = Tuple[Tuple[Tuple[int, int], int], ...]

#: The set bit positions of every byte value, lowest first.
_BYTE_BITS = [tuple(bit for bit in range(8) if byte >> bit & 1)
              for byte in range(256)]


class _View:
    """A configuration decoded for expansion: adjacency and ERs by label.

    Each reachable state's arcs are read from the arc mask as one slice
    of bits (a state's root arcs have consecutive ids); a state that keeps
    all of them shares the space's full row.
    """

    __slots__ = ("config", "reachable", "adj", "er")

    def __init__(self, space: "ReductionSpace", config: Config,
                 reachable: Optional[List[int]] = None) -> None:
        self.config = config
        self.reachable = config.ids() if reachable is None else reachable
        mask = config.mask
        adj: List[Optional[Dict[int, int]]] = [None] * len(space.states)
        er: Dict[int, List[int]] = {}
        first, span, local = space.first, space.span, space.local
        full = space.full
        for state in self.reachable:
            live = mask >> first[state] & span[state]
            if live == span[state]:
                row = full[state]
            else:
                row = {label: target for bit, label, target in local[state]
                       if live & bit}
            adj[state] = row
            for label in row:
                er.setdefault(label, []).append(state)
        #: ``adj[s]`` is ``{label id: target id}`` for reachable ``s``.
        self.adj = adj
        #: Excitation regions of the live labels, states in root order.
        self.er = er


@dataclass(frozen=True)
class _Step:
    """One FwdRed step on masks; ``child`` is None when it is invalid.

    ``walked`` tells whether the step ran the reachability walk, rather
    than stopping early or accepting a hint.
    """

    child: Optional[Config]
    reason: str = ""
    truncated: int = 0
    lost_states: int = 0
    walked: bool = False


class ReductionSpace:
    """The arc masks of one root SG that FwdRed steps work on.

    Masks index the root's state and label ids, so building a space
    freezes it.
    """

    #: Transition-table and cover-memo entries kept per space before each
    #: starts over.
    MAX_TRANSITIONS = 200_000

    def __init__(self, root: StateGraph) -> None:
        self.sg = root.freeze()
        self.states, self.labels = root.states, root.labels()
        self.label_index = root.label_id
        #: ``out[s]`` is ``{label id: (arc id, target id)}`` in root order.
        self.out: List[Dict[int, Tuple[int, int]]] = []
        self.label_arcs = [0] * len(self.labels)
        #: A state's root arcs have consecutive ids from ``first[s]``:
        #: ``span[s]`` is their bits shifted down to bit 0, ``local[s]``
        #: lists ``(bit, label id, target id)`` per arc and ``full[s]`` is
        #: the root's ``{label id: target id}`` row, all of them live.
        self.first: List[int] = []
        self.span: List[int] = []
        self.local: List[List[Tuple[int, int, int]]] = []
        self.full: List[Dict[int, int]] = root.succ
        arc = 0
        for succ in root.succ:
            row: Dict[int, Tuple[int, int]] = {}
            self.first.append(arc)
            self.local.append([(1 << offset, label, target) for offset,
                               (label, target) in enumerate(succ.items())])
            self.span.append((1 << len(succ)) - 1)
            for label, target in succ.items():
                row[label] = (arc, target)
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
        self.root = Config((1 << arc) - 1, (1 << len(self.states)) - 1,
                           (1 << arc) - 1)
        self.transitions: Dict[Tuple[int, str, str], Optional[Config]] = {}
        #: ``mask -> (literals, CSC pairs, states)``.
        self.terms: Dict[int, Tuple[int, int, int]] = {}
        #: ``(on, present) -> literals`` of a target's fast cover, both
        #: bitsets of :attr:`coding` ids (see :meth:`measure`).
        self.covers: Dict[Tuple[int, int], int] = {}

    def view(self, config: Config,
             reachable: Optional[List[int]] = None) -> _View:
        """``config`` decoded; ``reachable`` is its :meth:`Config.ids`
        when the caller has them."""
        return _View(self, config, reachable)

    def out_arcs(self, config: Config) -> int:
        """``config.arcs``: every root arc out of a reachable state."""
        if config.arcs is None:
            first, span = self.first, self.span
            arcs = 0
            for state in config.ids():
                arcs |= span[state] << first[state]
            config.arcs = arcs
        return config.arcs

    def live_pairs(self, config: Config,
                   inherited: Optional[LivePairs] = None) -> LivePairs:
        """The label pairs with a diamond in ``config``, each with one
        diamond as its witness: ``((a, b), diamond)`` in the order of
        :attr:`diamonds`.

        ``inherited`` is the result for a configuration whose mask holds
        ``config``'s -- the one it was reduced from -- and only its pairs
        are tested, each on its witness first; an entry whose witness
        stays is shared, not copied.  Without it every pair is scanned.
        """
        mask, diamonds = config.mask, self.diamonds
        live = []
        for entry in (inherited if inherited is not None
                      else [(pair, 0) for pair in diamonds]):
            pair, witness = entry
            if witness and mask & witness == witness:
                live.append(entry)
                continue
            for diamond in diamonds[pair]:
                if mask & diamond == diamond:
                    live.append((pair, diamond))
                    break
        return tuple(live)

    def reducible(self, config: Config,
                  keep_conc: FrozenSet[FrozenSet[str]] = frozenset(),
                  live: Optional[LivePairs] = None) -> Set[Tuple[str, str]]:
        """:func:`reducible_pairs` of ``config``: pairs with a diamond in it.

        ``live`` is ``config``'s :meth:`live_pairs` when the caller has it.
        """
        labels, is_input = self.labels, self.sg.is_input
        pairs: Set[Tuple[str, str]] = set()
        for (label_a, label_b), _ in (self.live_pairs(config)
                                      if live is None else live):
            names = (labels[label_a], labels[label_b])
            if frozenset(names) in keep_conc:
                continue
            for before, delayed in ((label_a, label_b), (label_b, label_a)):
                if not is_input[delayed]:
                    pairs.add((labels[before], labels[delayed]))
        return pairs

    def step(self, view: _View, delayed: int, before: int,
             hint: Optional[Config] = None) -> _Step:
        """``FwdRed(delayed, before)`` on ``view``'s configuration.

        ``hint`` is a configuration the caller expects the child to be,
        one a step produced (so its arcs reach exactly its states from the
        initial state).  It is accepted without the reachability walk when
        the arcs the step keeps, restricted to the hint's states, are
        exactly the hint's mask: then the hint's states are closed under
        the kept arcs and reached through them, so the walk would find
        them.  It must also lose no live event and leave no truncated
        state without arcs; a hint that fails any test is ignored.
        """
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
        inn = self.sg.in_arcs()
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

        out = self.out
        drop = 0
        for state in truncated:
            drop |= 1 << out[state][delayed][0]
        config = view.config
        if hint is not None and self._fits(view, config.mask & ~drop,
                                           truncated, hint):
            return _Step(hint, "", len(truncated), config.states - hint.states)

        initial = self.sg.initial_id
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

        first, span = self.first, self.span
        reach = config.reach
        lost_states = gone = 0
        for state in view.reachable:
            if state not in reached:
                lost_states += 1
                reach ^= 1 << state
                gone |= span[state] << first[state]
        mask = config.mask & ~drop & ~gone

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
            return _Step(None, "; ".join(reasons), len(truncated),
                         lost_states, walked=True)
        return _Step(Config(mask, reach, self.out_arcs(config) & ~gone), "",
                     len(truncated), lost_states, walked=True)

    def _fits(self, view: _View, kept: int, truncated: Set[int],
              hint: Config) -> bool:
        """Whether ``hint`` is the valid child whose kept arcs are ``kept``."""
        mask = hint.mask
        if kept & self.out_arcs(hint) != mask:
            return False
        label_arcs = self.label_arcs
        for label in view.er:
            if not mask & label_arcs[label]:
                return False
        first, span, reach = self.first, self.span, hint.reach
        return all(mask >> first[state] & span[state]
                   for state in truncated if reach >> state & 1)

    def child(self, view: _View, delayed: str, before: str,
              hint: Optional[Config] = None) -> Tuple[Optional[Config], bool]:
        """The valid ``FwdRed(delayed, before)`` child of ``view``, memoized,
        and whether finding it ran the reachability walk (see :meth:`step`
        for ``hint``)."""
        key = (view.config.mask, delayed, before)
        transitions = self.transitions
        if key in transitions:
            return transitions[key], False
        step = self.step(view, self.label_index[delayed],
                         self.label_index[before], hint)
        if len(transitions) >= self.MAX_TRANSITIONS:
            transitions.clear()
        transitions[key] = step.child
        return step.child, step.walked

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

    @cached_property
    def coding(self) -> Tuple[List[int], List[int], Dict[int, int]]:
        """The root's distinct codes in ascending order, their
        :func:`~repro.logic.minimize.code_columns` and ``{code: bit}``.

        A code's id is its position: bit ``1 << id`` stands for it in
        every scoring bitset.
        """
        codes = sorted(set(self.sg.code_ints))
        return (codes, code_columns(len(self.sg.signals), codes),
                {code: 1 << i for i, code in enumerate(codes)})

    def _scoring_row(self, state: int, labels) -> Tuple[int, int, int]:
        """``(code bit, high, excitation)`` of ``state`` with arcs ``labels``.

        ``high`` has the bit of every signal whose next value is 1:
        rising, or high and not falling.
        """
        sg = self.sg
        code = sg.packed[state]  # self.coding checks every code
        rise = fall = excited = 0
        for label in labels:
            rise |= sg.rise[label]
            fall |= sg.fall[label]
            excited |= sg.excites[label]
        return self.coding[2][code], rise | code & ~fall, excited

    @cached_property
    def full_rows(self) -> List[Tuple[int, int, int]]:
        """Every state's scoring row with all its root arcs live.  Reads
        the packed codes, so it raises
        :class:`~repro.sg.graph.StateGraphError` when a state has none."""
        return [self._scoring_row(state, row)
                for state, row in enumerate(self.full)]

    def measure(self, config: Config,
                reachable: Optional[List[int]] = None) -> Tuple[int, int, int]:
        """The weight-independent cost terms of ``config``, on the masks.

        ``(literal estimate, CSC conflict pairs, state count)``, equal to
        what the literal estimate and :func:`~repro.sg.properties.csc_conflicts`
        give on :meth:`materialize`'s graph.  One pass over the reachable
        states ORs each code's next values; a state that keeps all its
        root arcs takes its precomputed row.  A target's ON set is then
        the bitset of the codes with its bit high in that OR (a
        conflicting code counts as ON, as in the estimate), and its OFF
        set the other codes present.  Literal counts come from
        :attr:`covers`, keyed by ``(on, present)``; a miss runs the fast
        cover on the space's :attr:`coding`.  ``reachable`` is
        ``config``'s :meth:`Config.ids` when the caller has them.  Raises
        :class:`~repro.sg.graph.StateGraphError` when a root state has no
        code.
        """
        targets, full = self.targets, self.full_rows
        first, span, local = self.first, self.span, self.local
        mask = config.mask
        high_by_code: Dict[int, int] = {}
        codes: List[int] = []
        excitations: List[int] = []
        for state in config.ids() if reachable is None else reachable:
            live = mask >> first[state] & span[state]
            if live == span[state]:
                code, high, excited = full[state]
            else:
                code, high, excited = self._scoring_row(
                    state, [label for bit, label, _ in local[state]
                            if live & bit])
            high_by_code[code] = high_by_code.get(code, 0) | high
            codes.append(code)
            excitations.append(excited)
        # Code bits are distinct powers of two: their sum is their union.
        present = sum(high_by_code)
        items = high_by_code.items()
        covers = self.covers
        literals = misses = 0
        for _, signal in targets:
            on = sum([code for code, high in items if high & signal])
            if not on or on == present:
                continue
            count = covers.get((on, present))
            if count is None:
                ordered, columns, _ = self.coding
                count = sum(cube_mask.bit_count() for cube_mask, _ in
                            expand_and_cover(ordered, columns, on,
                                             present ^ on))
                if len(covers) >= self.MAX_TRANSITIONS:
                    covers.clear()
                covers[on, present] = count
                misses += 1
            literals += count
        if misses:
            obs_registry().counter(
                "repro_reduction_covers_total",
                "Fast covers computed by reduction scoring.").inc(misses)
        _, pairs = conflict_pairs(codes, excitations)
        return literals, pairs, config.states

    def materialize(self, root: StateGraph, config: Config) -> StateGraph:
        """The configuration as a frozen graph derived from ``root``.

        ``root`` is this space's root or a graph with the same signature;
        states and arcs keep its order, exactly as a chain of FwdRed
        copies would.
        """
        view = self.view(config)
        states, labels = self.states, self.labels
        return root.copy_without_arcs(
            [(states[state], labels[label]) for state in view.reachable
             for label in self.out[state] if label not in view.adj[state]],
            reachable={states[state] for state in view.reachable})


#: One :class:`ReductionSpace` per root signature; each carries its
#: transition table and cost terms, which are pure functions of the root.
_SPACES: Dict[tuple, ReductionSpace] = (
    engine.register_cache({}, name="reduction-space"))


def reduction_space(sg: StateGraph) -> ReductionSpace:
    """The space rooted at ``sg``, shared by every search on its signature."""
    key = sg.signature()
    space = _SPACES.get(key)
    if space is None:
        if len(_SPACES) >= 64:
            _SPACES.clear()
        space = _SPACES[key] = ReductionSpace(sg)
    return space


_OUTCOMES = ("valid", "invalid", "duplicate")


def record_work(valid: int = 0, invalid: int = 0, duplicate: int = 0,
                materialized: int = 0, scored: int = 0, walks: int = 0) -> None:
    """Fold FwdRed step outcomes, graphs built and scorings into the registry.

    ``valid`` steps reached a new configuration, ``duplicate`` ones a
    configuration the search had already generated; ``walks`` counts the
    steps that ran the reachability walk (the others stopped early, were
    answered by a hint or came from the transition table); ``scored``
    counts the configurations measured on masks
    (:meth:`ReductionSpace.measure`).
    """
    reg = obs_registry()
    for outcome, count in zip(_OUTCOMES, (valid, invalid, duplicate)):
        reg.counter("repro_reduction_steps_total",
                    "FwdRed steps taken by reductions, by outcome.",
                    outcome=outcome).inc(count)
    reg.counter("repro_reduction_walks_total",
                "FwdRed steps that ran the reachability walk.").inc(walks)
    reg.counter("repro_reduction_materialized_total",
                "Reduction configurations built as state graphs.").inc(
                    materialized)
    reg.counter("repro_reduction_scored_total",
                "Reduction configurations scored on masks.").inc(scored)


def reduction_work() -> Dict[str, int]:
    """The reduction counters of the default registry.

    ``steps`` taken, the ``walks`` among them, graphs built
    (``materialized``), configurations ``scored`` and the fast ``covers``
    their scoring computed (misses of :attr:`ReductionSpace.covers`).
    """
    reg = obs_registry()
    steps = sum(reg.value("repro_reduction_steps_total", outcome=outcome) or 0
                for outcome in _OUTCOMES)
    walks = reg.value("repro_reduction_walks_total") or 0
    built = reg.value("repro_reduction_materialized_total") or 0
    scored = reg.value("repro_reduction_scored_total") or 0
    covers = reg.value("repro_reduction_covers_total") or 0
    return {"steps": int(steps), "walks": int(walks),
            "materialized": int(built), "scored": int(scored),
            "covers": int(covers)}


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
        record_work(invalid=1, walks=int(step.walked))
        return ReductionResult(None, False, step.reason,
                               removed_arcs=step.truncated,
                               removed_states=step.lost_states)
    record_work(valid=1, materialized=1, walks=1)
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
