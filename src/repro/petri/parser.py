"""Reader and writer for the astg-style ``.g`` STG text format.

The format is the one used by petrify / SIS::

    .model lr
    .inputs li ri
    .outputs lo ro
    .graph
    li+ ro+
    ro+ ri+
    p0 li+
    ri+ p0
    .marking { p0 <li+,ro+> }
    .initial_state !li !lo ri ro
    .end

Lines under ``.graph`` list one source node followed by its successor nodes.
Nodes that parse as signal events become transitions; anything else becomes
an explicit place.  Transition-to-transition arcs create implicit places,
which the ``.marking`` section can reference as ``<t1,t2>``.
``.initial_state`` (an extension also accepted by several async tools) lists
signals prefixed with ``!`` for initially-low.  Signal directives may
repeat; signals are declared in the order they first appear.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from .net import PetriNetError
from .stg import STG, SignalEvent, SignalKind


class ParseError(Exception):
    """Raised when ``.g`` input is malformed."""

    def __init__(self, message: str, line_no: Optional[int] = None) -> None:
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


_MARKING_TOKEN = re.compile(r"<[^>]*>|[^\s{}]+")


def _is_event(token: str) -> bool:
    try:
        SignalEvent.parse(token)
        return True
    except ValueError:
        return False


def parse_stg(text: str, name: Optional[str] = None) -> STG:
    """Parse ``.g`` text into an :class:`~repro.petri.stg.STG`."""
    stg = STG(name or "stg")
    graph_lines: List[Tuple[int, List[str]]] = []
    marking_tokens: List[str] = []
    initial_state_tokens: List[str] = []
    in_graph = False
    declared: Dict[str, SignalKind] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            in_graph = False
            parts = line.split()
            directive, args = parts[0], parts[1:]
            if directive == ".model" or directive == ".name":
                if args:
                    stg.name = args[0]
            elif directive == ".inputs":
                for signal in args:
                    declared[signal] = SignalKind.INPUT
            elif directive == ".outputs":
                for signal in args:
                    declared[signal] = SignalKind.OUTPUT
            elif directive in (".internal", ".internals"):
                for signal in args:
                    declared[signal] = SignalKind.INTERNAL
            elif directive == ".dummy":
                for signal in args:
                    declared[signal] = SignalKind.DUMMY
            elif directive == ".graph":
                in_graph = True
            elif directive == ".marking":
                marking_tokens.extend(_MARKING_TOKEN.findall(" ".join(args)))
            elif directive == ".initial_state":
                initial_state_tokens.extend(args)
            elif directive == ".end":
                break
            elif directive in (".capacity", ".slowenv", ".coords"):
                continue  # tolerated, ignored
            else:
                raise ParseError(f"unknown directive {directive!r}", line_no)
        elif in_graph:
            graph_lines.append((line_no, line.split()))
        else:
            raise ParseError(f"unexpected content outside .graph: {line!r}", line_no)

    for signal, kind in declared.items():
        stg.declare_signal(signal, kind)

    # First pass: create nodes so arcs can distinguish places from transitions.
    def ensure_node(token: str, line_no: int) -> str:
        base = token.split("/", 1)[0]
        if declared.get(base) == SignalKind.DUMMY:
            if not stg.net.has_transition(token):
                stg.add_dummy(token)
            return token
        if _is_event(token):
            event = SignalEvent.parse(token)
            if event.signal not in declared:
                # Undeclared names that look like events are treated as places
                # only when they carry no +/- sign ambiguity; the astg format
                # requires declaration, so reject instead of guessing.
                raise ParseError(f"event {token!r} uses undeclared signal "
                                 f"{event.signal!r}", line_no)
            return stg.add_event(event)
        if not stg.net.has_place(token):
            stg.net.add_place(token)
        return token

    for line_no, tokens in graph_lines:
        for token in tokens:
            ensure_node(token, line_no)
    for line_no, tokens in graph_lines:
        source = tokens[0]
        for target in tokens[1:]:
            try:
                stg.net.add_arc(source, target)
            except PetriNetError as exc:
                raise ParseError(str(exc), line_no) from exc

    marking: Dict[str, int] = {}
    for token in marking_tokens:
        weight = 1
        if "=" in token and not token.startswith("<"):
            token, _, count = token.partition("=")
            weight = int(count)
        if not stg.net.has_place(token):
            raise ParseError(f"marking references unknown place {token!r}")
        marking[token] = marking.get(token, 0) + weight
    if marking:
        stg.net.set_initial(marking)

    for token in initial_state_tokens:
        if token.startswith("!"):
            stg.set_initial_value(token[1:], 0)
        else:
            stg.set_initial_value(token, 1)

    return stg


def read_stg(path: str) -> STG:
    """Parse a ``.g`` file from disk."""
    with open(path) as handle:
        return parse_stg(handle.read())


_DIRECTIVES = {SignalKind.INPUT: ".inputs", SignalKind.OUTPUT: ".outputs",
               SignalKind.INTERNAL: ".internal", SignalKind.DUMMY: ".dummy"}


def write_stg(stg: STG) -> str:
    """Render an STG back to ``.g`` text.

    Signals are declared in ``stg.signals`` order, one directive line per
    run of same-kind signals, so parsing the text back gives the same
    signal order (and so the same state codes).  Implicit places (created
    for transition-to-transition arcs) are folded back into direct arcs;
    explicit places are emitted as nodes.
    """
    lines = [f".model {stg.name}"]
    for kind, run in groupby(stg.signals, key=stg.signals.get):
        lines.append(f"{_DIRECTIVES[kind]} {' '.join(run)}")
    lines.append(".graph")

    net = stg.net
    initial = net.marking_dict(net.initial_marking())
    adjacency: Dict[str, List[str]] = {}

    def add_edge(src: str, dst: str) -> None:
        adjacency.setdefault(src, []).append(dst)

    implicit_marked: List[str] = []
    for place in net.places:
        preset = sorted(net.preset_of_place(place.name))
        postset = sorted(net.postset_of_place(place.name))
        foldable = (place.auto and len(preset) == 1 and len(postset) == 1)
        if foldable:
            add_edge(preset[0], postset[0])
            if initial.get(place.name):
                implicit_marked.append(f"<{preset[0]},{postset[0]}>")
        else:
            for transition in preset:
                add_edge(transition, place.name)
            for transition in postset:
                add_edge(place.name, transition)

    for source in list(net.transition_names) + [p.name for p in net.places]:
        if source in adjacency:
            lines.append(f"{source} {' '.join(adjacency[source])}")

    marking_parts = []
    for place, count in initial.items():
        if net.place(place).auto and f"<{','.join(sorted(net.preset_of_place(place)))}" :
            preset = sorted(net.preset_of_place(place))
            postset = sorted(net.postset_of_place(place))
            if len(preset) == 1 and len(postset) == 1:
                continue  # emitted via implicit_marked below
        marking_parts.append(place if count == 1 else f"{place}={count}")
    marking_parts.extend(implicit_marked)
    lines.append(".marking { " + " ".join(sorted(marking_parts)) + " }")

    if stg.initial_values:
        tokens = []
        for signal in stg.signals:
            if signal in stg.initial_values:
                tokens.append(signal if stg.initial_values[signal] else f"!{signal}")
        lines.append(".initial_state " + " ".join(tokens))
    lines.append(".end")
    return "\n".join(lines) + "\n"
