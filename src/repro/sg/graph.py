"""State graphs.

A State Graph (SG) is the reachability graph of an STG: nodes are markings
labelled with a vector of binary signal values, arcs are labelled with the
fired transition.  The SG is the model on which the paper performs
concurrency reduction (Sections 5-6).  Like the paper's FwdRed and
state-signal insertion, every transformation derives a *new* graph from
its parent; no graph is edited after construction.

A graph is its dense integer numbering.  ``states`` holds the state names
by id (marking tuples when generated, ints when decoded from a payload,
strings when built by hand), ``succ[s]`` maps each label id enabled at
state ``s`` to its target id (labels are numbered in ``events`` order,
``label_id``), and ``packed[s]`` is the state's code as one integer, bit
``i`` = signal ``i`` as in the logic minimizer, or None.  The analyses
read these fields and the per-label tables (``is_input``, ``signal``,
``rise``, ``fall``, ``excites``, ``classes``) and decode only the
witnesses they report; the name views (:meth:`~StateGraph.successors`,
:meth:`~StateGraph.predecessors`, :meth:`~StateGraph.arcs`, ``codes``
and the like) are derived from the ids for printouts and tests.

Freeze rule: a graph grows through :meth:`~StateGraph.declare_signal`,
:meth:`~StateGraph.declare_event`, :meth:`~StateGraph.add_state`,
:meth:`~StateGraph.add_arc` and ``initial`` until the first derived view
is read (:meth:`~StateGraph.signature`, :meth:`~StateGraph.code_int`,
:meth:`~StateGraph.live_labels`, the predecessors), an analysis reads it,
or :meth:`~StateGraph.freeze` builds the per-label tables; from then on
every builder call raises :class:`StateGraphError`, so no derived view
goes stale.  A producer that numbers its own states hands the graph over
whole (:meth:`~StateGraph.adopt`), frozen from the start.
"""
from __future__ import annotations

from collections.abc import Mapping
from typing import (Dict, FrozenSet, Hashable, Iterable, Iterator, List,
                    Optional, Set, Tuple)

from ..petri.net import bit_tuple, pack_bits
from ..petri.stg import Direction, SignalEvent, SignalKind

State = Hashable
Code = Tuple[int, ...]


class StateGraphError(Exception):
    """Raised for invalid state-graph operations."""


class StateGraph:
    """A finite, deterministic-by-construction labelled transition system.

    Built incrementally or adopted whole, then frozen (see the module
    docstring).
    """

    def __init__(self, name: str = "sg") -> None:
        self.name = name
        self.signals: List[str] = []
        self.kinds: Dict[str, SignalKind] = {}
        self.events: Dict[str, SignalEvent] = {}
        #: Each label's id: its position in ``events``.
        self.label_id: Dict[str, int] = {}
        #: State names by id.
        self.states: List[State] = []
        #: ``succ[s]`` is ``{label id: target id}`` for state ``s``.
        self.succ: List[Dict[int, int]] = []
        #: The packed code of every state by id, None where it has none.
        self.packed: List[Optional[int]] = []
        #: The initial state's id.
        self.initial_id: Optional[int] = None
        # Per label, built by freeze(): input or not, its code bit, that bit
        # when it rises/falls, and its (signal, direction) class bit or 0.
        self.is_input: List[bool] = []
        self.signal: List[int] = []
        self.rise: List[int] = []
        self.fall: List[int] = []
        self.excites: List[int] = []
        self.classes: List[Tuple[str, str]] = []
        self._signal_pos: Dict[str, int] = {}
        self._ids: Optional[Dict[State, int]] = {}
        self._pred: Optional[List[List[Tuple[int, int]]]] = None
        self._signature: Optional[Tuple] = None
        #: (name, content digest) once a frozen graph was digested
        #: (:func:`repro.pipeline.hashing.graph_digest`).
        self._digest: Optional[Tuple[str, str]] = None
        self._live_labels: Optional[FrozenSet[str]] = None
        self._frozen = False

    # ------------------------------------------------------------------
    # construction (until frozen)
    # ------------------------------------------------------------------
    def freeze(self) -> "StateGraph":
        """Close the graph to builder calls and build its per-label
        tables; returns ``self``.

        Every analysis and derived read calls this first; memo tables
        keyed on the graph object call it so a caller cannot change a
        graph after its payload or digest was cached.
        """
        if not self._frozen:
            self._frozen = True
            events = list(self.events.values())
            self.is_input = [self.kinds[event.signal] == SignalKind.INPUT
                             for event in events]
            self.signal = [self._signal_pos[event.signal] for event in events]
            self.rise = [1 << bit if event.direction == Direction.RISE else 0
                         for bit, event in zip(self.signal, events)]
            self.fall = [1 << bit if event.direction == Direction.FALL else 0
                         for bit, event in zip(self.signal, events)]
            classes: Dict[Tuple[str, str], int] = {}
            self.excites = [0 if is_input else 1 << classes.setdefault(
                (event.signal, event.direction.value), len(classes))
                for is_input, event in zip(self.is_input, events)]
            self.classes = list(classes)
        return self

    def _check_open(self) -> None:
        if self._frozen:
            raise StateGraphError(
                f"state graph {self.name!r} is frozen: derive a new graph "
                f"instead of editing this one")

    @property
    def initial(self) -> Optional[State]:
        """The initial state (defaults to the first state added)."""
        return None if self.initial_id is None else self.states[self.initial_id]

    @initial.setter
    def initial(self, state: Optional[State]) -> None:
        self._check_open()
        self.initial_id = None if state is None else self._id(state)

    @property
    def state_id(self) -> Dict[State, int]:
        """Each state's id, by name (built on first read once adopted)."""
        ids = self._ids
        if ids is None:
            ids = self._ids = {state: i for i, state in enumerate(self.states)}
        return ids

    @property
    def codes(self) -> Mapping[State, Code]:
        """Read-only ``{state: code}``; codes are written by :meth:`add_state`."""
        return _Codes(self)

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
        self.label_id.setdefault(label, len(self.label_id))
        self.events[label] = event

    def add_state(self, state: State, code: Optional[Code] = None) -> int:
        """Add a state (idempotent), optionally with (or rewriting) its
        code; returns its id."""
        self._check_open()
        ids = self.state_id
        sid = ids.get(state)
        if sid is None:
            sid = ids[state] = len(self.states)
            self.states.append(state)
            self.succ.append({})
            self.packed.append(None)
        if self.initial_id is None:
            self.initial_id = sid
        if code is not None:
            if len(code) != len(self.signals):
                raise StateGraphError("code length does not match signal count")
            self.packed[sid] = pack_bits(code)
        return sid

    def add_arc(self, source: State, label: str, target: State) -> None:
        """Add ``source --label--> target``; labels must be declared events."""
        self._check_open()
        lid = self.label_id.get(label)
        if lid is None:
            raise StateGraphError(f"undeclared event label {label!r}")
        row = self.succ[self.add_state(source)]
        tid = self.add_state(target)
        existing = row.get(lid)
        if existing is not None and existing != tid:
            raise StateGraphError(
                f"nondeterminism: {source!r} --{label}--> both "
                f"{self.states[existing]!r} and {target!r}")
        row[lid] = tid

    def adopt(self, states: List[State], succ: List[Dict[int, int]],
              packed: List[Optional[int]],
              initial: Optional[int] = 0) -> "StateGraph":
        """Take the whole graph in ids, as its producer numbered it, and
        freeze it; returns ``self``.  The lists are kept, not copied, and
        must hold by construction what :meth:`add_arc` checks."""
        self._check_open()
        self.states, self.succ, self.packed = states, succ, packed
        self.initial_id = initial if states else None
        self._ids = None
        return self.freeze()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, state: State) -> bool:
        return state in self.state_id

    def _id(self, state: State) -> int:
        try:
            return self.state_id[state]
        except KeyError:
            raise StateGraphError(f"unknown state {state!r}") from None

    def successors(self, state: State) -> Dict[str, State]:
        """Outgoing arcs of a state as ``{label: target}``."""
        labels, states = self.labels(), self.states
        return {labels[label]: states[target]
                for label, target in self.succ[self._id(state)].items()}

    def predecessors(self, state: State) -> Set[Tuple[str, State]]:
        """Incoming arcs of a state as ``{(label, source)}`` (freezes)."""
        labels, states = self.labels(), self.states
        return {(labels[label], states[source])
                for label, source in self.in_arcs()[self._id(state)]}

    def in_arcs(self) -> List[List[Tuple[int, int]]]:
        """Every state's incoming ``(label id, source id)`` arcs, by id, in
        arc order; built on the first read (which freezes the graph), as
        most derived graphs are discarded before anything walks back."""
        pred = self._pred
        if pred is None:
            self.freeze()
            pred = [[] for _ in self.states]
            for source, out in enumerate(self.succ):
                for label, target in out.items():
                    pred[target].append((label, source))
            self._pred = pred
        return pred

    def arcs(self) -> Iterator[Tuple[State, str, State]]:
        """Iterate over all arcs as (source, label, target)."""
        labels, states = self.labels(), self.states
        for source, out in enumerate(self.succ):
            for label, target in out.items():
                yield states[source], labels[label], states[target]

    def arc_count(self) -> int:
        """Total number of labelled arcs."""
        return sum(map(len, self.succ))

    def enabled(self, state: State) -> List[str]:
        """Labels enabled at a state."""
        labels = self.labels()
        return [labels[label] for label in self.succ[self._id(state)]]

    def target(self, state: State, label: str) -> Optional[State]:
        """The state reached by firing ``label``, or None if not enabled."""
        sid = self.state_id.get(state)
        target = None if sid is None else self.succ[sid].get(
            self.label_id.get(label))
        return None if target is None else self.states[target]

    def labels(self) -> List[str]:
        """All declared arc labels, by id."""
        return list(self.events)

    def labels_of_signal(self, signal: str) -> List[str]:
        """The rise/fall labels of ``signal``, e.g. ``["a+", "a-"]``."""
        return [label for label, event in self.events.items() if event.signal == signal]

    def is_input_label(self, label: str) -> bool:
        """Whether ``label`` is an event of an input signal."""
        return self.kinds[self.events[label].signal] == SignalKind.INPUT

    def code_of(self, state: State) -> Code:
        """The binary code tuple of ``state``."""
        code = self.packed[self._id(state)]
        if code is None:
            raise StateGraphError(f"state {state!r} has no binary code")
        return bit_tuple(code, len(self.signals))

    def value_of(self, state: State, signal: str) -> int:
        """The value of ``signal`` in ``state``."""
        return self.code_of(state)[self.signal_index(signal)]

    def signal_index(self, signal: str) -> int:
        """The code bit position of ``signal``."""
        try:
            return self._signal_pos[signal]
        except KeyError:
            raise StateGraphError(f"undeclared signal {signal!r}") from None

    @property
    def code_ints(self) -> List[int]:
        """Every state's packed code, by id; raises :class:`StateGraphError`
        when a state has none (FwdRed runs on graphs without codes)."""
        packed = self.packed
        if None in packed:
            raise StateGraphError(f"state {self.states[packed.index(None)]!r} "
                                  "has no binary code")
        return packed

    # ------------------------------------------------------------------
    # derived views: each freezes the graph and is computed at most once
    # ------------------------------------------------------------------
    def live_labels(self) -> FrozenSet[str]:
        """Labels appearing on at least one arc (events with a non-empty ER)."""
        live = self._live_labels
        if live is None:
            self.freeze()
            live = frozenset(map(self.labels().__getitem__,
                                 set().union(*self.succ)))
            self._live_labels = live
        return live

    def code_int(self, state: State) -> int:
        """The state's binary code packed into one integer (bit i = signal i)."""
        self.freeze()
        code = self.packed[self._id(state)]
        if code is None:
            raise StateGraphError(f"state {state!r} has no binary code")
        return code

    def signature(self) -> Tuple:
        """Hashable identity of the graph.

        Covers everything the analyses depend on -- the arc set, the
        initial state, signal declarations and the binary codes -- so two
        graphs with equal signatures are interchangeable for cost
        evaluation and reduction, whatever their state order.  It keys
        the in-process reduction-space memo exactly, state spelling
        included; the content name that crosses processes is
        :func:`repro.pipeline.hashing.graph_digest`.
        """
        if self._signature is None:
            self.freeze()
            states = self.states
            self._signature = (
                frozenset(self.arcs()),
                self.initial,
                tuple((signal, self.kinds[signal]) for signal in self.signals),
                frozenset((states[i], code)
                          for i, code in enumerate(self.packed)
                          if code is not None),
            )
        return self._signature

    def pair_states(self, other: "StateGraph"
                    ) -> Tuple[List[int], List[Optional[int]], Optional[str]]:
        """``other``'s states paired with this graph's by one walk from
        both initial states (an SG fires each label at most once per
        state): the ids of ``other`` reached, in BFS order, the paired id
        of each (None where unreached), and why the pairing failed -- an
        arc the paired state lacks, or a state reached as two -- or None.
        """
        labels, label_id = other.labels(), self.label_id
        paired: List[Optional[int]] = [None] * len(other)
        paired[other.initial_id] = self.initial_id
        order = [other.initial_id]
        for state in order:  # grows as the walk reaches states
            here = self.succ[paired[state]]
            for label, target in other.succ[state].items():
                mate = here.get(label_id.get(labels[label]))
                if mate is None:
                    return order, paired, (
                        f"language not contained: {labels[label]} fires at "
                        f"{other.states[state]!r}, not at "
                        f"{self.states[paired[state]]!r}")
                if paired[target] is None:
                    paired[target] = mate
                    order.append(target)
                elif paired[target] != mate:
                    return order, paired, (
                        f"states do not pair: {other.states[target]!r} is "
                        f"{self.states[paired[target]]!r} and "
                        f"{self.states[mate]!r}")
        return order, paired, None

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def copy_without_arcs(self, removed_arcs: Iterable[Tuple[State, str]],
                          name: Optional[str] = None,
                          reachable: Optional[Set[State]] = None) -> "StateGraph":
        """Frozen copy of the reachable part of the graph minus the given
        arcs, states in declaration order.  ``reachable`` may supply the
        post-removal reachable set when the caller has already computed
        it; otherwise it is discovered from the initial state.
        """
        ids, label_id = self.state_id, self.label_id
        dropped = {(ids.get(state), label_id.get(label))
                   for state, label in removed_arcs}
        rows = [{label: target for label, target in out.items()
                 if (state, label) not in dropped}
                for state, out in enumerate(self.succ)]
        if reachable is not None:
            reached = {ids[state] for state in reachable}
        else:
            reached = set() if self.initial_id is None else {self.initial_id}
            stack = list(reached)
            while stack:
                for target in rows[stack.pop()].values():
                    if target not in reached:
                        reached.add(target)
                        stack.append(target)
        clone = StateGraph(name or self.name)
        for signal in self.signals:
            clone.declare_signal(signal, self.kinds[signal])
        for label, event in self.events.items():
            clone.declare_event(label, event)
        keep = sorted(reached)
        renumber = {state: i for i, state in enumerate(keep)}
        return clone.adopt(
            [self.states[state] for state in keep],
            [{label: renumber[target] for label, target in rows[state].items()}
             for state in keep],
            [self.packed[state] for state in keep], renumber.get(self.initial_id))

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def code_string(self, state: State) -> str:
        """Human-readable code with ``*`` marking excited signals (as in Fig. 1d)."""
        code = self.code_of(state)
        enabled_signals = {self.events[label].signal for label in self.enabled(state)}
        parts = []
        for signal, value in zip(self.signals, code):
            parts.append(f"{value}*" if signal in enabled_signals else str(value))
        return "".join(parts)

    def to_dot(self) -> str:
        """GraphViz rendering for debugging and documentation."""
        lines = [f'digraph "{self.name}" {{', '  node [shape=box];']
        for sid, state in enumerate(self.states):
            label = (str(state) if self.packed[sid] is None
                     else self.code_string(state))
            shape = ' peripheries=2' if sid == self.initial_id else ''
            lines.append(f'  s{sid} [label="{label}"{shape}];')
        labels = self.labels()
        for source, out in enumerate(self.succ):
            for label, target in out.items():
                lines.append(f'  s{source} -> s{target} '
                             f'[label="{labels[label]}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"StateGraph({self.name!r}, |S|={len(self.states)}, "
                f"|A|={self.arc_count()})")


class _Codes(Mapping):
    """A graph's read-only ``{state: code}``, decoded per lookup."""

    def __init__(self, sg: StateGraph) -> None:
        self._sg = sg

    def __getitem__(self, state: State) -> Code:
        try:
            return self._sg.code_of(state)
        except StateGraphError:
            raise KeyError(state) from None

    def __iter__(self) -> Iterator[State]:
        return (state for state, code in zip(self._sg.states, self._sg.packed)
                if code is not None)

    def __len__(self) -> int:
        return len(self._sg.packed) - self._sg.packed.count(None)
