"""Seeded random live-safe STG generator.

Every generated spec is the value of a **derivation trace**: a list of
JSON step records, first the handshake fragments chained by
:func:`~repro.petri.compose.compose_all`, then correctness-preserving
mutations applied to the composed net.  :func:`build_from_trace` is the
deterministic ground truth -- the seeded RNG only *samples* a trace, it
never touches the net -- so a :class:`GenSpec` (seed, knobs, trace) is
reproducible from one line of JSON, the shrinker can edit the trace
instead of the net, and the canonical digest of the trace names the spec.

The three mutations preserve liveness, 1-safety and consistency by a
token-flow argument.  Each targets a place ``p`` with exactly one
producer ``u``, one consumer ``v`` and at most one initial token; in the
mutated net the affected path gains tokens only on ``u`` and loses them
only on ``v``, so its total token count equals the old count of ``p``
(at most one) in every reachable marking:

* ``insert`` subdivides ``u -> p -> v`` into
  ``u -> p -> x+ -> x- -> v`` (a fresh output signal in series);
* ``widen`` adds a parallel branch ``u -> x+ -> x- -> v`` next to ``p``,
  token-matched with ``p``'s initial marking (fresh concurrency);
* ``choice`` turns ``p`` into a free-choice place between two fresh
  input-signal bubbles ``p -> c+ -> c- -> merge -> v`` -- an input
  choice, which every downstream persistency check permits, whose
  branches return to all-low before merging so one marking still means
  one code.

Signal values follow the same flow (a mutation signal is high exactly
while its bubble holds the token), so alternation and
marking-determines-code both survive every step.
"""

from __future__ import annotations

import json
import random as _random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ...petri.compose import compose_all
from ...petri.net import PetriNetError
from ...petri.stg import STG, SignalKind
from ...pipeline.hashing import digest_payload
from ..fragments import FRAGMENT_SHAPES, build_fragment

__all__ = ["GenKnobs", "GenSpec", "TraceError", "apply_step",
           "build_from_trace", "eligible_places", "generate_spec",
           "spec_name", "trace_digest"]

#: Shape sampling order -- fixed, so traces are hash-seed independent.
SHAPE_NAMES = tuple(sorted(FRAGMENT_SHAPES))

#: How many fresh signals each mutation op consumes.
MUTATION_SIGNAL_COST = {"insert": 1, "widen": 1, "choice": 2}


class TraceError(PetriNetError):
    """A derivation trace that does not replay (unknown place, bad op).

    Raised by :func:`build_from_trace`; the shrinker treats it as "this
    candidate edit is invalid", never as a failure of the spec.
    """


@dataclass(frozen=True)
class GenKnobs:
    """Size knobs of one generator draw (part of the spec's identity)."""

    max_fragments: int = 3
    max_mutations: int = 4
    max_signals: int = 12

    def to_payload(self) -> Dict[str, int]:
        return {"max_fragments": self.max_fragments,
                "max_mutations": self.max_mutations,
                "max_signals": self.max_signals}

    @classmethod
    def from_payload(cls, payload: Mapping[str, int]) -> "GenKnobs":
        return cls(max_fragments=int(payload["max_fragments"]),
                   max_mutations=int(payload["max_mutations"]),
                   max_signals=int(payload["max_signals"]))


def trace_digest(trace: Sequence[Mapping[str, object]]) -> str:
    """The canonical digest naming a derivation trace."""
    return digest_payload({"trace": list(trace)})


def spec_name(trace: Sequence[Mapping[str, object]]) -> str:
    """The model name of the spec a trace derives (digest-based)."""
    return f"gen_{trace_digest(trace)[:12]}"


@dataclass(frozen=True)
class GenSpec:
    """One reproducible generated spec: seed, knobs, derivation trace."""

    seed: int
    knobs: GenKnobs
    trace: Tuple[Mapping[str, object], ...]

    @property
    def digest(self) -> str:
        """Canonical digest of the derivation trace (the spec identity)."""
        return trace_digest(self.trace)

    @property
    def name(self) -> str:
        return spec_name(self.trace)

    def build(self) -> STG:
        """Replay the derivation trace into the concrete STG."""
        return build_from_trace(self.trace)

    def to_json(self) -> str:
        """One reproducing line of JSON."""
        return json.dumps({"seed": self.seed,
                           "knobs": self.knobs.to_payload(),
                           "trace": list(self.trace)},
                          sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "GenSpec":
        payload = json.loads(text)
        return cls(seed=int(payload["seed"]),
                   knobs=GenKnobs.from_payload(payload["knobs"]),
                   trace=tuple(payload["trace"]))


# ----------------------------------------------------------------------
# trace replay
# ----------------------------------------------------------------------

def eligible_places(stg: STG) -> List[str]:
    """Places a mutation may target, in net declaration order.

    Exactly one producer, one consumer and at most one initial token --
    the shape the correctness argument in the module docstring needs.
    """
    net = stg.net
    marking = net.marking_dict(net.initial_marking())
    result = []
    for place in net.place_names:
        if (len(net.preset_of_place(place)) == 1
                and len(net.postset_of_place(place)) == 1
                and marking.get(place, 0) <= 1):
            result.append(place)
    return result


def _endpoints(stg: STG, place: str) -> Tuple[str, str]:
    if not stg.net.has_place(place):
        raise TraceError(f"mutation targets unknown place {place!r}")
    producers = stg.net.preset_of_place(place)
    consumers = stg.net.postset_of_place(place)
    if len(producers) != 1 or len(consumers) != 1:
        raise TraceError(
            f"mutation target {place!r} is not a 1-producer/1-consumer "
            f"place ({len(producers)} producers, {len(consumers)} "
            f"consumers)")
    return next(iter(producers)), next(iter(consumers))


def _declare_fresh(stg: STG, signal: str, kind: SignalKind) -> None:
    if signal in stg.signals:
        raise TraceError(f"mutation signal {signal!r} already declared")
    stg.declare_signal(signal, kind)
    stg.set_initial_value(signal, 0)


def _apply_insert(stg: STG, place: str, signal: str) -> None:
    _, consumer = _endpoints(stg, place)
    _declare_fresh(stg, signal, SignalKind.OUTPUT)
    rise = stg.add_event(f"{signal}+")
    fall = stg.add_event(f"{signal}-")
    stg.net.remove_arc(place, consumer)
    stg.net.add_arc(place, rise)
    stg.connect(rise, fall)
    stg.connect(fall, consumer)


def _apply_widen(stg: STG, place: str, signal: str) -> None:
    producer, consumer = _endpoints(stg, place)
    _declare_fresh(stg, signal, SignalKind.OUTPUT)
    rise = stg.add_event(f"{signal}+")
    fall = stg.add_event(f"{signal}-")
    stg.connect(producer, rise)
    stg.connect(rise, fall)
    stg.connect(fall, consumer)
    marking = stg.net.marking_dict(stg.net.initial_marking())
    if marking.get(place, 0):
        # Token-match the new branch so every cycle through it keeps
        # exactly the token count of the cycle it parallels.
        stg.mark(f"<{producer},{rise}>")


def _apply_choice(stg: STG, place: str, signals: Sequence[str]) -> None:
    _, consumer = _endpoints(stg, place)
    if len(signals) != 2:
        raise TraceError(f"choice expects 2 signals, got {list(signals)}")
    merge = f"merge_{signals[0]}"
    if stg.net.has_place(merge) or stg.net.has_transition(merge):
        raise TraceError(f"choice merge place {merge!r} already exists")
    stg.net.add_place(merge)
    stg.net.remove_arc(place, consumer)
    for signal in signals:
        _declare_fresh(stg, signal, SignalKind.INPUT)
        rise = stg.add_event(f"{signal}+")
        fall = stg.add_event(f"{signal}-")
        stg.net.add_arc(place, rise)
        stg.connect(rise, fall)
        stg.net.add_arc(fall, merge)
    stg.net.add_arc(merge, consumer)


_MUTATION_OPS = {
    "insert": lambda stg, step: _apply_insert(stg, step["place"],
                                              step["signal"]),
    "widen": lambda stg, step: _apply_widen(stg, step["place"],
                                            step["signal"]),
    "choice": lambda stg, step: _apply_choice(stg, step["place"],
                                              step["signals"]),
}


def apply_step(stg: STG, step: Mapping[str, object]) -> None:
    """Apply one mutation step record to ``stg`` in place.

    Raises :class:`TraceError` when the step does not replay (unknown
    op, missing or ineligible place, clashing signal).
    """
    apply = _MUTATION_OPS.get(str(step.get("op")))
    if apply is None:
        raise TraceError(f"unknown derivation op {step.get('op')!r}")
    try:
        apply(stg, step)
    except PetriNetError as exc:
        if isinstance(exc, TraceError):
            raise
        raise TraceError(str(exc)) from None


def build_from_trace(trace: Sequence[Mapping[str, object]],
                     name: Optional[str] = None) -> STG:
    """Deterministically replay a derivation trace into an STG.

    Fragment steps must form a non-empty prefix; mutation steps follow
    and reference places of the net built so far by name.  Any step that
    does not replay raises :class:`TraceError` -- the contract the
    shrinker relies on to discard invalid trace edits.
    """
    steps = list(trace)
    fragments: List[Mapping[str, object]] = []
    while steps and steps[0].get("op") == "fragment":
        fragments.append(steps.pop(0))
    if not fragments:
        raise TraceError("derivation trace has no leading fragment steps")
    try:
        cells = [build_fragment(str(step["shape"]), index)
                 for index, step in enumerate(fragments)]
    except KeyError as exc:
        raise TraceError(str(exc)) from None
    stg = compose_all(cells)
    for step in steps:
        apply_step(stg, step)
    stg.name = name or spec_name(trace)
    return stg


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def _rng_for(seed: int, knobs: GenKnobs) -> _random.Random:
    # String seeding hashes the bytes, so draws are PYTHONHASHSEED- and
    # platform-independent (same device as the spec families).
    return _random.Random(
        ("genspec", seed, knobs.max_fragments, knobs.max_mutations,
         knobs.max_signals).__repr__())


def generate_spec(seed: int, knobs: Optional[GenKnobs] = None) -> GenSpec:
    """Sample one live-safe spec; same (seed, knobs) -> same trace."""
    knobs = knobs or GenKnobs()
    rng = _rng_for(seed, knobs)
    trace: List[Dict[str, object]] = [
        {"op": "fragment", "shape": rng.choice(SHAPE_NAMES)}
        for _ in range(rng.randint(1, max(1, knobs.max_fragments)))]
    stg = build_from_trace(trace)
    fresh = 0
    for _ in range(rng.randint(0, max(0, knobs.max_mutations))):
        headroom = knobs.max_signals - len(stg.signals)
        ops = sorted(op for op, cost in MUTATION_SIGNAL_COST.items()
                     if cost <= headroom)
        targets = eligible_places(stg)
        if not ops or not targets:
            break
        op = rng.choice(ops)
        place = rng.choice(targets)
        step: Dict[str, object] = {"op": op, "place": place}
        if op == "choice":
            step["signals"] = [f"c{fresh}", f"c{fresh + 1}"]
            fresh += 2
        else:
            step["signal"] = f"x{fresh}"
            fresh += 1
        _MUTATION_OPS[op](stg, step)
        trace.append(step)
    return GenSpec(seed=seed, knobs=knobs, trace=tuple(trace))
