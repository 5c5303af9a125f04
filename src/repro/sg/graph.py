"""State graphs.

A State Graph (SG) is the reachability graph of an STG: nodes are markings
labelled with a vector of binary signal values, arcs are labelled with the
fired transition.  The SG is the model on which the paper performs
concurrency reduction (Sections 5-6).  Like the paper's FwdRed and
state-signal insertion, every transformation derives a *new* graph from
its parent (:meth:`StateGraph.copy_without_arcs`,
:mod:`repro.encoding.insertion`); no graph is edited after construction.

States are opaque hashable objects (marking tuples when generated from an
STG, strings when built by hand in tests).  Arc labels are transition names;
``events`` maps each label to its :class:`~repro.petri.stg.SignalEvent`
(dummy labels are not allowed in an SG used for synthesis).

Freeze rule: a graph grows through :meth:`~StateGraph.declare_signal`,
:meth:`~StateGraph.declare_event`, :meth:`~StateGraph.add_state`,
:meth:`~StateGraph.add_arc` and ``initial`` until the first derived view
is read -- :meth:`~StateGraph.signature`, :meth:`~StateGraph.code_int`,
:meth:`~StateGraph.live_labels`, :meth:`~StateGraph.index` or the
predecessor map -- or :meth:`~StateGraph.freeze` is called.  From then on
every builder call raises :class:`StateGraphError`, so each derived view
is computed at most once and never goes stale.  Graphs from
:meth:`~StateGraph.copy_without_arcs` are frozen from the start and build
their own views.

Binary codes are tuples (:meth:`code_of`, the read-only ``codes`` mapping)
and packed integers where bit ``i`` is the value of signal ``i``
(:meth:`code_int`), the same convention the logic minimizer uses for
minterms.  The analyses (the property checks, function extraction, the
reduction space, the insertion walk, the conformance product) read the
graph through its one :class:`GraphIndex` (:meth:`StateGraph.index`), so
a graph is closed to builder calls once anything has analysed it, and is
numbered once however many analyses read it.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import (Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple)

from ..petri.stg import Direction, SignalEvent, SignalKind

State = Hashable
Code = Tuple[int, ...]


class StateGraphError(Exception):
    """Raised for invalid state-graph operations."""


def _pack(code: Code) -> int:
    """A code tuple as one integer, bit ``i`` = signal ``i``."""
    packed = 0
    for i, value in enumerate(code):
        if value:
            packed |= 1 << i
    return packed


class StateGraph:
    """A finite, deterministic-by-construction labelled transition system.

    Built incrementally, then frozen by the first derived read (see the
    module docstring).
    """

    def __init__(self, name: str = "sg") -> None:
        self.name = name
        self.signals: List[str] = []
        self.kinds: Dict[str, SignalKind] = {}
        self.events: Dict[str, SignalEvent] = {}
        self._initial: Optional[State] = None
        self._succ: Dict[State, Dict[str, State]] = {}
        self._pred_store: Optional[Dict[State, Set[Tuple[str, State]]]] = None
        self._codes: Dict[State, Code] = {}
        self._signal_pos: Dict[str, int] = {}
        self._signature: Optional[Tuple] = None
        self._live_labels: Optional[FrozenSet[str]] = None
        self._index: Optional[GraphIndex] = None
        self._frozen = False

    # ------------------------------------------------------------------
    # construction (until frozen)
    # ------------------------------------------------------------------
    def freeze(self) -> "StateGraph":
        """Close the graph to builder calls; returns ``self``.

        The first derived read freezes implicitly; memo tables keyed on the
        graph object call this so a caller cannot change a graph after its
        payload or digest was cached.
        """
        self._frozen = True
        return self

    def _check_open(self) -> None:
        if self._frozen:
            raise StateGraphError(
                f"state graph {self.name!r} is frozen: derive a new graph "
                f"instead of editing this one")

    @property
    def initial(self) -> Optional[State]:
        """The initial state (defaults to the first state added)."""
        return self._initial

    @initial.setter
    def initial(self, state: Optional[State]) -> None:
        self._check_open()
        self._initial = state

    @property
    def codes(self) -> Mapping[State, Code]:
        """Read-only ``{state: code}``; codes are written by :meth:`add_state`."""
        return MappingProxyType(self._codes)

    def declare_signal(self, name: str, kind: SignalKind) -> None:
        """Register a signal; order defines the code bit positions."""
        self._check_open()
        if name in self.kinds:
            if self.kinds[name] != kind:
                raise StateGraphError(f"signal {name!r} redeclared with different kind")
            return
        self._signal_pos[name] = len(self.signals)
        self.signals.append(name)
        self.kinds[name] = kind

    def declare_event(self, label: str, event: Optional[SignalEvent] = None) -> None:
        """Register an arc label and its signal event.

        When ``event`` is omitted, the label itself is parsed as an event.
        """
        self._check_open()
        if event is None:
            event = SignalEvent.parse(label)
        if event.signal not in self.kinds:
            raise StateGraphError(f"undeclared signal {event.signal!r}")
        existing = self.events.get(label)
        if existing is not None and existing != event:
            raise StateGraphError(f"label {label!r} redeclared with different event")
        self.events[label] = event

    def add_state(self, state: State, code: Optional[Code] = None) -> None:
        """Add a state (idempotent), optionally with (or rewriting) its code."""
        if self._frozen:  # inlined guard: generation calls this per state
            self._check_open()
        if state not in self._succ:
            self._succ[state] = {}
        if code is not None:
            if len(code) != len(self.signals):
                raise StateGraphError("code length does not match signal count")
            self._codes[state] = tuple(code)
        if self._initial is None:
            self._initial = state

    def add_arc(self, source: State, label: str, target: State) -> None:
        """Add ``source --label--> target``; labels must be declared events."""
        if self._frozen:
            self._check_open()
        if label not in self.events:
            raise StateGraphError(f"undeclared event label {label!r}")
        self.add_state(source)
        self.add_state(target)
        existing = self._succ[source].get(label)
        if existing is not None and existing != target:
            raise StateGraphError(
                f"nondeterminism: {source!r} --{label}--> both {existing!r} and {target!r}")
        self._succ[source][label] = target

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def states(self) -> List[State]:
        """Every state, in insertion order."""
        return list(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, state: State) -> bool:
        return state in self._succ

    def successors(self, state: State) -> Dict[str, State]:
        """Outgoing arcs of a state as ``{label: target}``."""
        if state not in self._succ:
            raise StateGraphError(f"unknown state {state!r}")
        return dict(self._succ[state])

    def predecessors(self, state: State) -> Set[Tuple[str, State]]:
        """Incoming arcs of a state as ``{(label, source)}`` (freezes)."""
        pred = self._pred
        if state not in pred:
            raise StateGraphError(f"unknown state {state!r}")
        return set(pred[state])

    def arcs(self) -> Iterator[Tuple[State, str, State]]:
        """Iterate over all arcs as (source, label, target)."""
        for source, outgoing in self._succ.items():
            for label, target in outgoing.items():
                yield source, label, target

    def arc_count(self) -> int:
        """Total number of labelled arcs."""
        return sum(len(out) for out in self._succ.values())

    def enabled(self, state: State) -> List[str]:
        """Labels enabled at a state."""
        return list(self._succ[state])

    def target(self, state: State, label: str) -> Optional[State]:
        """The state reached by firing ``label``, or None if not enabled."""
        return self._succ.get(state, {}).get(label)

    def labels(self) -> List[str]:
        """All declared arc labels."""
        return list(self.events)

    def labels_of_signal(self, signal: str) -> List[str]:
        """The rise/fall labels of ``signal``, e.g. ``["a+", "a-"]``."""
        return [label for label, event in self.events.items() if event.signal == signal]

    def is_input_label(self, label: str) -> bool:
        """Whether ``label`` is an event of an input signal."""
        return self.kinds[self.events[label].signal] == SignalKind.INPUT

    def code_of(self, state: State) -> Code:
        """The binary code tuple of ``state``."""
        try:
            return self._codes[state]
        except KeyError:
            raise StateGraphError(f"state {state!r} has no binary code") from None

    def value_of(self, state: State, signal: str) -> int:
        """The value of ``signal`` in ``state``."""
        return self.code_of(state)[self.signal_index(signal)]

    def signal_index(self, signal: str) -> int:
        """The code bit position of ``signal``."""
        try:
            return self._signal_pos[signal]
        except KeyError:
            raise StateGraphError(f"undeclared signal {signal!r}") from None

    # ------------------------------------------------------------------
    # derived views: each freezes the graph and is computed at most once
    # ------------------------------------------------------------------
    @property
    def _pred(self) -> Dict[State, Set[Tuple[str, State]]]:
        """Predecessor map, built on the first backward query.

        Reduction candidates are built by the thousands and most are
        discarded before anything ever walks backwards, so no graph pays
        for this up front.
        """
        pred = self._pred_store
        if pred is None:
            self._frozen = True
            pred = {state: set() for state in self._succ}
            for state, out in self._succ.items():
                for label, target in out.items():
                    pred[target].add((label, state))
            self._pred_store = pred
        return pred

    def live_labels(self) -> FrozenSet[str]:
        """Labels appearing on at least one arc (events with a non-empty ER)."""
        live = self._live_labels
        if live is None:
            self._frozen = True
            live = frozenset(label for out in self._succ.values()
                             for label in out)
            self._live_labels = live
        return live

    def code_int(self, state: State) -> int:
        """The state's binary code packed into one integer (bit i = signal i).

        :meth:`index` packs every state's code at once for the analyses.
        """
        self._frozen = True
        return _pack(self.code_of(state))

    def index(self) -> "GraphIndex":
        """The graph in dense ints (:class:`GraphIndex`), built once.

        Not handed to :meth:`copy_without_arcs` children, and not part of
        :meth:`signature` or the graph's payload.
        """
        index = self._index
        if index is None:
            self._frozen = True
            index = self._index = GraphIndex(self)
        return index

    def signature(self) -> Tuple:
        """Hashable identity of the graph.

        Covers everything the analyses depend on -- the arc set, the
        initial state, signal declarations and the binary codes -- so two
        graphs with equal signatures are interchangeable for cost
        evaluation and reduction.  It keys the in-process reduction-space
        memo exactly, state spelling included; the content name that
        crosses processes is :func:`repro.pipeline.hashing.graph_digest`.
        """
        if self._signature is None:
            self._frozen = True
            self._signature = (
                frozenset(self.arcs()),
                self._initial,
                tuple((signal, self.kinds[signal]) for signal in self.signals),
                frozenset(self._codes.items()),
            )
        return self._signature

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def copy_without_arcs(self, removed_arcs: Iterable[Tuple[State, str]],
                          name: Optional[str] = None,
                          reachable: Optional[Set[State]] = None) -> "StateGraph":
        """Frozen copy of the reachable part of the graph minus the given arcs.

        Built in one forward pass, which is what the reduction engine does
        for every candidate it generates.  ``reachable`` may supply the
        post-removal reachable set when the caller has already computed it
        (states keep their declaration order); otherwise it is discovered by
        BFS from the initial state.
        """
        dropped: Dict[State, Set[str]] = {}
        for state, label in removed_arcs:
            dropped.setdefault(state, set()).add(label)
        clone = StateGraph(name or self.name)
        clone.signals = list(self.signals)
        clone.kinds = dict(self.kinds)
        clone.events = dict(self.events)
        clone._signal_pos = dict(self._signal_pos)
        clone._frozen = True
        initial = self._initial
        if initial is None:
            return clone
        succ = self._succ
        codes = self._codes
        new_succ = clone._succ
        if reachable is not None:
            for state in succ:
                if state not in reachable:
                    continue
                bad = dropped.get(state)
                new_succ[state] = {
                    label: target for label, target in succ[state].items()
                    if bad is None or label not in bad}
        else:
            queue = deque([initial])
            new_succ[initial] = {}
            while queue:
                state = queue.popleft()
                bad = dropped.get(state)
                out = {label: target for label, target in succ[state].items()
                       if bad is None or label not in bad}
                new_succ[state] = out
                for target in out.values():
                    if target not in new_succ:
                        new_succ[target] = {}
                        queue.append(target)
        clone._initial = initial
        code_map = clone._codes
        for state in new_succ:
            code = codes.get(state)
            if code is not None:
                code_map[state] = code
        return clone

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def code_string(self, state: State) -> str:
        """Human-readable code with ``*`` marking excited signals (as in Fig. 1d)."""
        code = self.code_of(state)
        enabled_signals = {self.events[label].signal for label in self._succ[state]}
        parts = []
        for signal, value in zip(self.signals, code):
            parts.append(f"{value}*" if signal in enabled_signals else str(value))
        return "".join(parts)

    def to_dot(self) -> str:
        """GraphViz rendering for debugging and documentation."""
        lines = [f'digraph "{self.name}" {{', '  node [shape=box];']
        ids = self.index().state_id
        for state, sid in ids.items():
            label = self.code_string(state) if state in self.codes else str(state)
            shape = ' peripheries=2' if state == self.initial else ''
            lines.append(f'  s{sid} [label="{label}"{shape}];')
        for source, label, target in self.arcs():
            lines.append(f'  s{ids[source]} -> s{ids[target]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"StateGraph({self.name!r}, |S|={len(self._succ)}, "
                f"|A|={self.arc_count()})")


class GraphIndex:
    """One frozen graph in dense ints, read by every analysis of it.

    States are numbered in ``succ`` order, labels in ``events`` order;
    ``initial`` is the initial state's id.  ``succ[s]`` maps each label id
    enabled at ``s`` to its target id; read in state order, these arcs are
    numbered ``0, 1, ...``.  Per label: ``is_input``, ``signal`` (its code
    bit position), ``rise``/``fall`` (that bit when it rises/falls, else 0)
    and ``excites`` (0 for an input, else the bit of its ``(signal,
    direction)`` class in ``classes``).  ``codes`` -- packed, by state id --
    is built on first read and raises :class:`StateGraphError` for a state
    without a code, since FwdRed runs on graphs without codes.
    """

    def __init__(self, sg: StateGraph) -> None:
        succ = sg._succ
        self.states = list(succ)
        ids = self.state_id = {state: i for i, state in enumerate(self.states)}
        self.initial = ids.get(sg.initial)
        self.labels = list(sg.events)
        label_id = self.label_id = {label: i
                                    for i, label in enumerate(self.labels)}
        self.succ = [{label_id[label]: ids[target]
                      for label, target in out.items()}
                     for out in succ.values()]
        events = list(sg.events.values())
        self.is_input = [sg.is_input_label(label) for label in self.labels]
        self.signal = [sg.signal_index(event.signal) for event in events]
        self.rise = [1 << bit if event.direction == Direction.RISE else 0
                     for bit, event in zip(self.signal, events)]
        self.fall = [1 << bit if event.direction == Direction.FALL else 0
                     for bit, event in zip(self.signal, events)]
        classes: Dict[Tuple[str, str], int] = {}
        self.excites = [0 if is_input else 1 << classes.setdefault(
            (event.signal, event.direction.value), len(classes))
            for is_input, event in zip(self.is_input, events)]
        self.classes = list(classes)
        # The graph's code map, not the graph: no reference cycle.
        self._tuples = sg._codes
        self._codes: Optional[List[int]] = None

    @property
    def codes(self) -> List[int]:
        """The packed code of every state, by state id."""
        if self._codes is None:
            try:
                self._codes = [_pack(self._tuples[state])
                               for state in self.states]
            except KeyError as missing:
                raise StateGraphError(f"state {missing.args[0]!r} has no "
                                      f"binary code") from None
        return self._codes
