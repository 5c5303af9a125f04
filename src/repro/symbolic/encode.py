"""Boolean encoding of an STG for the symbolic engine.

One BDD variable per Petri place plus one per signal (the signal-coded
view), laid out for locality:

* Places keep the net's declaration order -- for composed chains
  (:mod:`repro.specs.families`) that order is stage-local, which is what
  makes pipeline-shaped reachable sets near-linear as BDDs.
* Each place variable is immediately followed by its *primed* copy (the
  second half of the CSC self-product), so the unprimed -> primed shift
  is an order-preserving :meth:`~repro.symbolic.bdd.BDD.rename` and the
  pair relation ``R(p, s) AND R(p', s)`` stays close to ``|R|`` instead
  of exploding across a split order.
* Each signal variable is placed right after the *home* place of the
  transitions that switch it (the lowest-indexed place any of them
  touches).  A signal's value is a function of nearby stage places;
  parking all signals below every place -- the obvious layout -- makes
  the BDD track each signal across the whole net and blows up
  exponentially in the chain length (measured: ~2.4x nodes per stage on
  ``fifo_chain_N``; with home placement the same sets are linear).

Signals are shared between the two halves of the self-product (a
USC/CSC conflict is two markings with equal codes), so they need no
primed copies -- conjoining the renamed half automatically constrains
the codes equal.

A state is an assignment to (places, signals): the marking bits come
from the token game, the signal bits are propagated forward from the
STG's declared initial values (``.initial_state``; absent signals
default to 0).  When every initial value is declared, this forward
propagation reproduces the codes the explicit engine assigns, which is
what the cross-engine parity suite pins.  The explicit engine instead
*infers* an undeclared initial value from the signal's first rise/fall
arc, so a spec that leaves out a signal that starts high (its first
event is a fall) is consistent there and inconsistent here; toggle
(2-phase) events are handled uniformly because the signal bit is
genuinely part of the state, exactly like the explicit engine's
unfolded ``(marking, values)`` states.

Transitions are *not* folded into one monolithic relation.  Each
transition keeps an enabling cube over the unprimed place variables
(built from the packed pre/post masks of
:meth:`repro.petri.net.PetriNet.compile_packed`) and a *plan*: its
support variables in BDD order, each with one action of
:meth:`repro.symbolic.bdd.BDD.fire` --

* a preset-only place must be 1 and becomes 0 (``TAKE``);
* a postset-only place becomes 1, and a 1 there is an overflow (``PUT``);
* a place in both preset and postset (a read arc) must be 1 and stays 1
  (``READ``);
* the signal variable is set for a rise (``SET``), cleared for a fall
  (``CLEAR``) and flipped for a toggle (``FLIP``).

The image step fires a plan in one memoized pass over the frontier
(:mod:`repro.symbolic.reach`), so no intermediate BDD is built and the
op sequence (hence node ids, hence every rendering) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..petri.stg import STG, Direction, SignalEvent, SignalKind
from .bdd import BDD, CLEAR, FLIP, PUT, READ, SET, TAKE

__all__ = ["SymbolicEncodingError", "SymbolicOverflowError",
           "SymbolicDepthError", "SymbolicMemoryError",
           "SymbolicTransition", "SymbolicEncoding", "encode_stg"]


class SymbolicEncodingError(Exception):
    """The STG cannot be encoded for the symbolic engine."""


class SymbolicOverflowError(SymbolicEncodingError):
    """A symbolic image step left the 1-safe regime.

    The symbolic analogue of
    :class:`repro.petri.net.PackedOverflowError`: one variable per place
    can only represent 1-safe behaviour, and the image computation
    detects the violation the moment some reachable state enables a
    transition whose firing would stack a second token.
    """


class SymbolicDepthError(SymbolicEncodingError):
    """``stage``'s BDD operations, recursing once per variable level, are
    too deep for the Python stack on ``variables`` BDD variables."""

    def __init__(self, stage: str, name: str, variables: int) -> None:
        super().__init__(f"{stage} of {name!r} recurses deeper than the "
                         f"interpreter allows ({variables} BDD variables)")
        self.stage, self.variables = stage, variables


class SymbolicMemoryError(SymbolicEncodingError):
    """``stage`` ran out of memory after allocating ``nodes`` BDD nodes."""

    def __init__(self, stage: str, name: str, nodes: int) -> None:
        super().__init__(f"{stage} of {name!r} ran out of memory after "
                         f"allocating {nodes} BDD nodes")
        self.stage, self.nodes = stage, nodes


@dataclass(frozen=True)
class SymbolicTransition:
    """The image pieces of one transition.

    ``enabled`` is the cube of unprimed place variables the transition
    consumes from (the excitation and consistency checks read it);
    ``plan`` the ``(variable, action)`` steps :meth:`BDD.fire
    <repro.symbolic.bdd.BDD.fire>` applies to fire it (see the module
    docstring).
    """

    index: int
    name: str
    signal: str
    direction: Direction
    is_input: bool
    #: Input-place indices (net order) -- the witness decoder re-derives
    #: per-marking excitation from these without touching the BDD.
    pre_places: Tuple[int, ...]
    enabled: int
    plan: Tuple[Tuple[int, int], ...]
    #: For rise/fall: the literal of the *pre*-state signal value that
    #: would witness an inconsistency (rise while already high, fall
    #: while already low); ``None`` for toggles, which cannot clash.
    wrong: Optional[int] = None


@dataclass
class SymbolicEncoding:
    """An STG encoded over one BDD manager, ready for reachability.

    ``place_vars[i]`` / ``primed_place_vars[i]`` / ``signal_vars[j]``
    hold the BDD variable index of place *i* (net order), its primed
    copy and signal *j* (declaration order) under the locality layout
    described in the module docstring.
    """

    name: str
    bdd: BDD
    place_names: Tuple[str, ...]
    signals: Tuple[str, ...]
    kinds: Dict[str, SignalKind]
    initial_values: Tuple[int, ...]
    place_vars: Tuple[int, ...]
    primed_place_vars: Tuple[int, ...]
    signal_vars: Tuple[int, ...]
    initial: int
    transitions: Tuple[SymbolicTransition, ...]
    #: (signal, direction value) -> excitation predicate over unprimed
    #: place variables, non-input signals only (the CSC side condition).
    excitation: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @property
    def state_vars(self) -> Tuple[int, ...]:
        """The variables one state assigns: places and signals."""
        return tuple(sorted(self.place_vars + self.signal_vars))

    def prime_mapping(self) -> Dict[int, int]:
        """The order-preserving unprimed -> primed place variable map."""
        return dict(zip(self.place_vars, self.primed_place_vars))

    # -- decoding -------------------------------------------------------
    def decode_marking(self, assignment: Dict[int, int],
                       primed: bool = False) -> Tuple[int, ...]:
        """The marking tuple of one model (primed half on request)."""
        source = self.primed_place_vars if primed else self.place_vars
        return tuple(assignment[var] for var in source)

    def decode_values(self, assignment: Dict[int, int]) -> Tuple[int, ...]:
        """The signal-value tuple of one model."""
        return tuple(assignment[var] for var in self.signal_vars)


def _mask_places(mask: int) -> List[int]:
    places = []
    while mask:
        low = mask & -mask
        places.append(low.bit_length() - 1)
        mask ^= low
    return places


def _layout(packed, stg: STG, signals: Tuple[str, ...]
            ) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """Assign BDD levels: stage-local places, primed interleave, homed
    signals (see the module docstring)."""
    place_count = len(packed.place_names)
    home: Dict[str, int] = {}
    for t, name in enumerate(packed.transition_names):
        event = stg.event_of(name)
        if not isinstance(event, SignalEvent):
            continue
        touched = _mask_places(packed.pre_masks[t] | packed.post_masks[t])
        anchor = min(touched) if touched else place_count - 1
        current = home.get(event.signal)
        home[event.signal] = anchor if current is None \
            else min(current, anchor)
    by_home: Dict[int, List[int]] = {}
    for j, signal in enumerate(signals):
        by_home.setdefault(home.get(signal, place_count - 1), []).append(j)
    place_vars = [0] * place_count
    primed_vars = [0] * place_count
    signal_vars = [0] * len(signals)
    level = 0
    for p in range(place_count):
        place_vars[p] = level
        primed_vars[p] = level + 1
        level += 2
        for j in by_home.get(p, ()):
            signal_vars[j] = level
            level += 1
    return tuple(place_vars), tuple(primed_vars), tuple(signal_vars)


def encode_stg(stg: STG, name: Optional[str] = None) -> SymbolicEncoding:
    """Encode ``stg`` into a fresh BDD manager.

    Raises :class:`SymbolicEncodingError` when the net falls outside the
    packed (structurally 1-safe) regime, contains dummy transitions, or
    labels a transition with an unknown signal -- the same preconditions
    the packed explicit engine enforces, reported up front.
    """
    packed = stg.net.compile_packed()
    if packed is None:
        raise SymbolicEncodingError(
            f"STG {stg.name!r} is outside the packed regime (weighted arcs "
            "or multi-token places); the symbolic engine needs one boolean "
            "variable per place")
    signals = tuple(s for s, kind in stg.signals.items()
                    if kind != SignalKind.DUMMY)
    signal_index = {s: j for j, s in enumerate(signals)}
    place_count = len(packed.place_names)
    place_vars, primed_vars, signal_vars = _layout(packed, stg, signals)
    bdd = BDD(2 * place_count + len(signals))

    encoding = SymbolicEncoding(
        name=name or stg.name,
        bdd=bdd,
        place_names=packed.place_names,
        signals=signals,
        kinds={s: stg.signals[s] for s in signals},
        initial_values=tuple(stg.initial_values.get(s, 0) for s in signals),
        place_vars=place_vars,
        primed_place_vars=primed_vars,
        signal_vars=signal_vars,
        initial=0,
        transitions=())

    transitions: List[SymbolicTransition] = []
    excitation: Dict[Tuple[str, str], int] = {}
    for t, transition_name in enumerate(packed.transition_names):
        event = stg.event_of(transition_name)
        if not isinstance(event, SignalEvent):
            raise SymbolicEncodingError(
                f"STG contains dummy transition {transition_name!r}; "
                "symbolic analysis needs dummy-free specifications")
        if event.signal not in signal_index:
            raise SymbolicEncodingError(
                f"transition {transition_name!r} is labelled with "
                f"undeclared signal {event.signal!r}")
        pre = packed.pre_masks[t]
        post = packed.post_masks[t]
        enabled = bdd.cube([(place_vars[p], 1)
                            for p in _mask_places(pre)])
        steps = [(place_vars[p], TAKE) for p in _mask_places(pre & ~post)] \
            + [(place_vars[p], PUT) for p in _mask_places(post & ~pre)] \
            + [(place_vars[p], READ) for p in _mask_places(pre & post)]
        sig_var = signal_vars[signal_index[event.signal]]
        wrong: Optional[int] = None
        if event.direction == Direction.RISE:
            steps.append((sig_var, SET))
            wrong = bdd.var(sig_var)
        elif event.direction == Direction.FALL:
            steps.append((sig_var, CLEAR))
            wrong = bdd.nvar(sig_var)
        else:
            steps.append((sig_var, FLIP))
        transitions.append(SymbolicTransition(
            index=t, name=transition_name,
            signal=event.signal, direction=event.direction,
            is_input=stg.signals[event.signal] == SignalKind.INPUT,
            pre_places=tuple(_mask_places(pre)),
            enabled=enabled, plan=tuple(sorted(steps)), wrong=wrong))
        if stg.signals[event.signal] != SignalKind.INPUT:
            key = (event.signal, event.direction.value)
            excitation[key] = bdd.apply_or(excitation.get(key, 0), enabled)

    initial_assignment = [(place_vars[p], packed.initial >> p & 1)
                          for p in range(place_count)]
    initial_assignment += [(signal_vars[j], value)
                           for j, value in enumerate(encoding.initial_values)]
    encoding.initial = bdd.cube(initial_assignment)
    encoding.transitions = tuple(transitions)
    encoding.excitation = excitation
    return encoding
