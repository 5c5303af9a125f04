"""Petri net kernel.

This module provides the untyped Petri-net substrate used by the rest of the
library: places, transitions, arcs, markings and the token game.  Signal
Transition Graphs (:mod:`repro.petri.stg`) are built on top of it by labelling
transitions with signal events.

The nets manipulated by the synthesis flow are small control specifications,
so the implementation favours clarity and checkability over raw speed:
markings are immutable tuples of token counts and every mutation validates
its arguments.  Reachability lives in :mod:`repro.explore`.

The token game compiles per-transition pre/post arcs into place-index
arrays on first use (rebuilt lazily after structural edits), and
:meth:`PetriNet.fire_incremental` maintains the enabled set across a firing
by rechecking only the transitions that touch a place whose token count
changed -- the state-graph generator leans on this to avoid rescanning
every transition per reachable marking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


class PetriNetError(Exception):
    """Raised for structurally invalid Petri-net operations."""


@dataclass(frozen=True)
class Place:
    """A place of a Petri net.

    Places are identified by name; ``auto`` marks places created implicitly
    (e.g. by the STG parser for transition-to-transition arcs), which writers
    may render back in the implicit ``<t1,t2>`` form.
    """

    name: str
    auto: bool = False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Transition:
    """A transition of a Petri net.

    ``name`` is unique within the net.  ``label`` is an opaque payload; STGs
    store a :class:`repro.petri.stg.SignalEvent` there.  Unlabelled
    transitions behave as dummy (lambda) events.
    """

    name: str
    label: object = None

    def __str__(self) -> str:
        return self.name


Marking = Tuple[int, ...]
"""A marking is a tuple of token counts indexed by place index."""


@dataclass(frozen=True)
class _CompiledNet:
    """Index-array form of the token game (see :meth:`PetriNet._compile`).

    ``pre``/``post`` map each transition to ``((place_index, weight), ...)``;
    ``affected`` maps each transition to the transitions whose enabledness
    must be rechecked after it fires; ``order`` is the net declaration order
    used to keep results deterministic.
    """

    pre: Dict[str, Tuple[Tuple[int, int], ...]]
    post: Dict[str, Tuple[Tuple[int, int], ...]]
    affected: Dict[str, Tuple[str, ...]]
    order: Dict[str, int]


class PetriNet:
    """A finite, weighted Petri net with an initial marking.

    The net keeps places and transitions in insertion order; markings are
    tuples aligned with the place order, which makes them hashable and cheap
    to store in reachability sets.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._places: Dict[str, Place] = {}
        self._transitions: Dict[str, Transition] = {}
        self._place_index: Dict[str, int] = {}
        # arcs: weight maps keyed by (place_name, transition_name)
        self._pre: Dict[str, Dict[str, int]] = {}   # transition -> {place: weight}
        self._post: Dict[str, Dict[str, int]] = {}  # transition -> {place: weight}
        self._place_post: Dict[str, Set[str]] = {}  # place -> transitions consuming
        self._place_pre: Dict[str, Set[str]] = {}   # place -> transitions producing
        self._initial: Dict[str, int] = {}
        self._compiled: Optional["_CompiledNet"] = None

    def _invalidate(self) -> None:
        self._compiled = None

    def _compile(self) -> "_CompiledNet":
        """Build (or reuse) the index-array form of the token game."""
        compiled = self._compiled
        if compiled is not None:
            return compiled
        index = self._place_index
        pre = {t: tuple(sorted((index[p], w) for p, w in arcs.items()))
               for t, arcs in self._pre.items()}
        post = {t: tuple(sorted((index[p], w) for p, w in arcs.items()))
                for t, arcs in self._post.items()}
        order = {t: i for i, t in enumerate(self._transitions)}
        # affected[t]: transitions whose enabling can change when t fires,
        # i.e. the consumers of every place t consumes from or produces into.
        affected: Dict[str, Tuple[str, ...]] = {}
        for t in self._transitions:
            touched: Set[str] = set()
            for place in self._pre[t]:
                touched.update(self._place_post[place])
            for place in self._post[t]:
                touched.update(self._place_post[place])
            affected[t] = tuple(sorted(touched, key=order.__getitem__))
        compiled = _CompiledNet(pre=pre, post=post, affected=affected, order=order)
        self._compiled = compiled
        return compiled

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_place(self, name: str, tokens: int = 0, auto: bool = False) -> Place:
        """Add a place; returns the existing place if the name is known.

        Re-adding a known place is idempotent: a ``tokens`` value on re-add
        must match the existing initial marking (or the place must still be
        unmarked), otherwise :class:`PetriNetError` is raised.  Tokens are
        never accumulated across re-adds.
        """
        if name in self._places:
            place = self._places[name]
            if tokens:
                existing = self._initial.get(name, 0)
                if existing and existing != tokens:
                    raise PetriNetError(
                        f"place {name!r} re-added with {tokens} token(s) but "
                        f"already marked with {existing}")
                self._initial[name] = tokens
            return place
        if name in self._transitions:
            raise PetriNetError(f"name {name!r} already used by a transition")
        self._invalidate()
        place = Place(name, auto=auto)
        self._places[name] = place
        self._place_index[name] = len(self._place_index)
        self._place_post[name] = set()
        self._place_pre[name] = set()
        if tokens:
            self._initial[name] = tokens
        return place

    def add_transition(self, name: str, label: object = None) -> Transition:
        """Add a transition with an optional label."""
        if name in self._transitions:
            existing = self._transitions[name]
            if label is not None and existing.label != label:
                raise PetriNetError(f"transition {name!r} already exists with a different label")
            return existing
        if name in self._places:
            raise PetriNetError(f"name {name!r} already used by a place")
        self._invalidate()
        transition = Transition(name, label)
        self._transitions[name] = transition
        self._pre[name] = {}
        self._post[name] = {}
        return transition

    def add_arc(self, source: str, target: str, weight: int = 1) -> None:
        """Add an arc place->transition or transition->place.

        Adding an arc between two transitions inserts an implicit place
        (named ``<t1,t2>``), matching STG notation.  Arcs between two places
        are rejected.
        """
        if weight < 1:
            raise PetriNetError("arc weight must be positive")
        src_is_place = source in self._places
        dst_is_place = target in self._places
        src_is_trans = source in self._transitions
        dst_is_trans = target in self._transitions
        if src_is_trans and dst_is_trans:
            implicit = f"<{source},{target}>"
            self.add_place(implicit, auto=True)
            self.add_arc(source, implicit, weight)
            self.add_arc(implicit, target, weight)
            return
        if src_is_place and dst_is_trans:
            self._invalidate()
            self._pre[target][source] = self._pre[target].get(source, 0) + weight
            self._place_post[source].add(target)
            return
        if src_is_trans and dst_is_place:
            self._invalidate()
            self._post[source][target] = self._post[source].get(target, 0) + weight
            self._place_pre[target].add(source)
            return
        if src_is_place and dst_is_place:
            raise PetriNetError(f"arc between two places: {source!r} -> {target!r}")
        missing = source if not (src_is_place or src_is_trans) else target
        raise PetriNetError(f"unknown node {missing!r}")

    def remove_arc(self, source: str, target: str) -> None:
        """Remove an arc previously added with :meth:`add_arc`."""
        self._invalidate()
        if source in self._places and target in self._transitions:
            self._pre[target].pop(source, None)
            self._place_post[source].discard(target)
        elif source in self._transitions and target in self._places:
            self._post[source].pop(target, None)
            self._place_pre[target].discard(source)
        else:
            raise PetriNetError(f"no such arc {source!r} -> {target!r}")

    def set_initial(self, marking: Dict[str, int]) -> None:
        """Set the initial marking from a place-name -> tokens mapping."""
        for place in marking:
            if place not in self._places:
                raise PetriNetError(f"unknown place {place!r} in marking")
        self._initial = {p: n for p, n in marking.items() if n > 0}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def places(self) -> List[Place]:
        """Every place, in insertion order."""
        return list(self._places.values())

    @property
    def transitions(self) -> List[Transition]:
        """Every transition, in insertion order."""
        return list(self._transitions.values())

    @property
    def place_names(self) -> List[str]:
        """Place names, in insertion order."""
        return list(self._places)

    @property
    def transition_names(self) -> List[str]:
        """Transition names, in insertion order."""
        return list(self._transitions)

    def has_place(self, name: str) -> bool:
        """Whether a place named ``name`` exists."""
        return name in self._places

    def has_transition(self, name: str) -> bool:
        """Whether a transition named ``name`` exists."""
        return name in self._transitions

    def place(self, name: str) -> Place:
        """The place named ``name``; raises :class:`PetriNetError` if unknown."""
        try:
            return self._places[name]
        except KeyError:
            raise PetriNetError(f"unknown place {name!r}") from None

    def transition(self, name: str) -> Transition:
        """The transition named ``name``; raises :class:`PetriNetError` if unknown."""
        try:
            return self._transitions[name]
        except KeyError:
            raise PetriNetError(f"unknown transition {name!r}") from None

    def label_of(self, transition: str) -> object:
        """The label attached to ``transition``."""
        return self.transition(transition).label

    def preset_of_transition(self, name: str) -> Dict[str, int]:
        """Input places of a transition with arc weights."""
        if name not in self._transitions:
            raise PetriNetError(f"unknown transition {name!r}")
        return dict(self._pre[name])

    def postset_of_transition(self, name: str) -> Dict[str, int]:
        """Output places of a transition with arc weights."""
        if name not in self._transitions:
            raise PetriNetError(f"unknown transition {name!r}")
        return dict(self._post[name])

    def preset_of_place(self, name: str) -> Set[str]:
        """Transitions producing into a place."""
        if name not in self._places:
            raise PetriNetError(f"unknown place {name!r}")
        return set(self._place_pre[name])

    def postset_of_place(self, name: str) -> Set[str]:
        """Transitions consuming from a place."""
        if name not in self._places:
            raise PetriNetError(f"unknown place {name!r}")
        return set(self._place_post[name])

    # ------------------------------------------------------------------
    # token game
    # ------------------------------------------------------------------
    def initial_marking(self) -> Marking:
        """The initial marking as a tuple aligned with ``place_names``."""
        return tuple(self._initial.get(p, 0) for p in self._places)

    def marking_dict(self, marking: Marking) -> Dict[str, int]:
        """Expand a tuple marking into a place-name -> tokens mapping."""
        return {p: n for p, n in zip(self._places, marking) if n > 0}

    def is_enabled(self, transition: str, marking: Marking) -> bool:
        """True when every input place holds enough tokens."""
        if transition not in self._transitions:
            raise PetriNetError(f"unknown transition {transition!r}")
        pre = self._compile().pre[transition]
        return all(marking[i] >= w for i, w in pre)

    def enabled_transitions(self, marking: Marking) -> List[str]:
        """Names of all transitions enabled at ``marking`` (net order)."""
        pre = self._compile().pre
        return [t for t in self._transitions
                if all(marking[i] >= w for i, w in pre[t])]

    def fire(self, transition: str, marking: Marking) -> Marking:
        """Fire an enabled transition; returns the successor marking."""
        if not self.is_enabled(transition, marking):
            raise PetriNetError(f"transition {transition!r} not enabled")
        compiled = self._compile()
        counts = list(marking)
        for i, weight in compiled.pre[transition]:
            counts[i] -= weight
        for i, weight in compiled.post[transition]:
            counts[i] += weight
        return tuple(counts)

    def fire_incremental(self, transition: str, marking: Marking,
                         enabled: FrozenSet[str]) -> Tuple[Marking, FrozenSet[str]]:
        """Fire ``transition`` and update the enabled set incrementally.

        ``enabled`` must be the exact enabled set of ``marking`` (for the
        initial marking, seed it with ``frozenset(enabled_transitions(m))``).
        Only the transitions consuming from a place whose token count just
        changed are rechecked, so repeated firings over a large net cost
        O(local fan-out) instead of O(|T|) per step.
        """
        if transition not in enabled:
            raise PetriNetError(f"transition {transition!r} not enabled")
        compiled = self._compile()
        counts = list(marking)
        for i, weight in compiled.pre[transition]:
            counts[i] -= weight
        for i, weight in compiled.post[transition]:
            counts[i] += weight
        successor = tuple(counts)
        pre = compiled.pre
        updated = set(enabled)
        for other in compiled.affected[transition]:
            if all(successor[i] >= w for i, w in pre[other]):
                updated.add(other)
            else:
                updated.discard(other)
        return successor, frozenset(updated)

    def compile_packed(self) -> Optional["PackedNet"]:
        """Compile the net into the packed-marking form, if representable.

        Returns ``None`` when the net cannot use single-bit-per-place
        markings up front: some arc weight exceeds 1, or some place starts
        with more than one token.  A net that *passes* this test can still
        reach a marking with two tokens in a place; the packed token game
        detects that at fire time (:class:`PackedOverflowError`) and the
        caller falls back to tuple markings.
        """
        index = self._place_index
        initial = 0
        for place, tokens in self._initial.items():
            if tokens > 1:
                return None
            if tokens:
                initial |= 1 << index[place]
        pre_masks: List[int] = []
        post_masks: List[int] = []
        pre_places: List[Tuple[int, ...]] = []
        for t in self._transitions:
            mask = 0
            places: List[int] = []
            for place, weight in self._pre[t].items():
                if weight != 1:
                    return None
                places.append(index[place])
                mask |= 1 << index[place]
            pre_masks.append(mask)
            pre_places.append(tuple(sorted(places)))
            mask = 0
            for place, weight in self._post[t].items():
                if weight != 1:
                    return None
                mask |= 1 << index[place]
            post_masks.append(mask)
        t_index = {t: i for i, t in enumerate(self._transitions)}
        conflicts: List[int] = []
        for t in self._transitions:
            mask = 0
            for place in self._pre[t]:
                for other in self._place_post[place]:
                    mask |= 1 << t_index[other]
            conflicts.append(mask)
        producers = tuple(
            sum(1 << t_index[t] for t in self._place_pre[place])
            for place in self._places)
        return PackedNet(
            place_names=tuple(self._places),
            transition_names=tuple(self._transitions),
            pre_masks=tuple(pre_masks),
            post_masks=tuple(post_masks),
            pre_places=tuple(pre_places),
            initial=initial,
            conflicts=tuple(conflicts),
            producers=producers)

    # ------------------------------------------------------------------
    # utilities
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "PetriNet":
        """A structural deep copy of the net (labels shared, structure new)."""
        clone = PetriNet(name or self.name)
        for place in self._places.values():
            clone.add_place(place.name, auto=place.auto)
        for transition in self._transitions.values():
            clone.add_transition(transition.name, transition.label)
        for transition, places in self._pre.items():
            for place, weight in places.items():
                clone.add_arc(place, transition, weight)
        for transition, places in self._post.items():
            for place, weight in places.items():
                clone.add_arc(transition, place, weight)
        clone.set_initial(dict(self._initial))
        return clone

    def fresh_place_name(self, stem: str = "p") -> str:
        """A place name not yet used in the net."""
        i = len(self._places)
        while f"{stem}{i}" in self._places or f"{stem}{i}" in self._transitions:
            i += 1
        return f"{stem}{i}"

    def __contains__(self, name: str) -> bool:
        return name in self._places or name in self._transitions

    def __repr__(self) -> str:
        return (f"PetriNet({self.name!r}, |P|={len(self._places)}, "
                f"|T|={len(self._transitions)})")


class PackedOverflowError(PetriNetError):
    """A packed firing would put a second token into a place.

    Packed markings carry one bit per place, so they can only represent
    1-safe behaviour; the packed token game raises this the moment a
    firing leaves that regime, and callers fall back to tuple markings.
    """


@dataclass(frozen=True)
class PackedNet:
    """Bit-packed form of a (structurally 1-safe-capable) net.

    A marking is one int with bit *p* set iff place *p* holds a token --
    the place-side analogue of the state graph's per-state ``code_int``.
    Enabledness is ``marking & pre == pre`` and firing is two bitwise
    ops, so the token game runs on machine words instead of per-place
    Python loops.  The batch methods extend this across a whole frontier
    level: a level of *n* markings is transposed into per-place columns
    (bit *j* of column *p* = "slot *j* marks place *p*"), and the enabled
    set of every state in the level for one transition is a single
    int-wide AND over its input-place columns.

    ``conflicts``/``producers`` are transition bitmasks (bit *t* set)
    serving the stubborn-set selector: transitions competing for any
    input place of *t*, and the transitions producing into each place.
    """

    place_names: Tuple[str, ...]
    transition_names: Tuple[str, ...]
    pre_masks: Tuple[int, ...]
    post_masks: Tuple[int, ...]
    pre_places: Tuple[Tuple[int, ...], ...]
    initial: int
    conflicts: Tuple[int, ...]
    producers: Tuple[int, ...]

    # -- single markings ------------------------------------------------

    def unpack(self, packed: int) -> Marking:
        """Expand a packed marking back into the tuple form."""
        return tuple((packed >> i) & 1 for i in range(len(self.place_names)))

    def enabled_bits(self, packed: int) -> int:
        """Transition bitmask of everything enabled at one marking."""
        mask = 0
        for t, pre in enumerate(self.pre_masks):
            if packed & pre == pre:
                mask |= 1 << t
        return mask

    def fire_bits(self, transition: int, packed: int) -> int:
        """Fire transition index ``transition`` from a packed marking.

        The caller guarantees enabledness; a firing that would stack two
        tokens raises :class:`PackedOverflowError`.
        """
        cleared = packed & ~self.pre_masks[transition]
        post = self.post_masks[transition]
        if cleared & post:
            raise PackedOverflowError(
                f"firing {self.transition_names[transition]!r} leaves "
                f"the 1-safe regime")
        return cleared | post

    # -- frontier levels ------------------------------------------------
    def level_columns(self, rows: Sequence[int]) -> List[int]:
        """Transpose a level of packed markings into per-place columns."""
        columns = [0] * len(self.place_names)
        for slot, row in enumerate(rows):
            bit = 1 << slot
            remaining = row
            while remaining:
                low = remaining & -remaining
                columns[low.bit_length() - 1] |= bit
                remaining ^= low
        return columns

    def enabled_columns(self, rows: Sequence[int]) -> List[int]:
        """Batch enabled sets: per-transition slot masks over a level.

        Bit *j* of entry *t* is set iff ``rows[j]`` enables transition
        *t* -- each entry is computed with one AND per input place,
        covering the whole level at once.
        """
        columns = self.level_columns(rows)
        full = (1 << len(rows)) - 1
        masks: List[int] = []
        for places in self.pre_places:
            mask = full
            for place in places:
                mask &= columns[place]
                if not mask:
                    break
            masks.append(mask)
        return masks
