"""References for the symbolic engine, and the BDD ops only they use.

The engine computes the reachable set by saturation
(:meth:`repro.symbolic.bdd.BDD.saturate`).  This module keeps what it
replaced, for the tests to compare against:

* :func:`fire`, the plain image of one plan (the same walk with no
  closing);
* :func:`reference_reach`, the frontier fixpoint in both of its former
  modes -- the chained sweep (forward then backward over the whole
  reached set, folding each image straight back in) and strict
  breadth-first levels;
* :func:`composed_image`, the chain of generic BDD ops one image is made
  of -- conjoin the enabling cube, check the 1-safety guard, quantify
  the rewritten variables, conjoin the effect cube, splitting toggles on
  their signal bit -- built from the net's packed pre/post masks, not
  from the plan, so the tests can check every fired image against it.
"""

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.petri.stg import STG, Direction
from repro.symbolic import FALSE, TRUE, BDD, SymbolicOverflowError
from repro.symbolic.bdd import GuardError, _Saturation
from repro.symbolic.encode import SymbolicEncoding, SymbolicTransition

Image = Callable[[BDD, int, SymbolicTransition], int]


def diff(bdd: BDD, f: int, g: int) -> int:
    """``f AND NOT g`` (the frontier-minus-reached step)."""
    return bdd.apply_and(f, bdd.negate(g))


def fire(bdd: BDD, f: int, plan: Tuple[Tuple[int, int], ...]) -> int:
    """The plain image of ``f`` under ``plan`` (raises ``GuardError``):
    the engine's walk with no events to close."""
    return bdd._image(f, plan, 0, 0, bdd._memo(plan),
                      _Saturation(bdd, (), None))


def plan_image(bdd: BDD, frontier: int, transition: SymbolicTransition
               ) -> int:
    """One transition's successor set, overflow named as the engine does."""
    try:
        return fire(bdd, frontier, transition.plan)
    except GuardError:
        raise SymbolicOverflowError(
            f"firing {transition.name!r} leaves the 1-safe regime") from None


def reference_reach(encoding: SymbolicEncoding, chaining: bool = True,
                    met: Optional[Dict[int, None]] = None) -> Tuple[int, int]:
    """The reached set and pass count of the former frontier fixpoint.

    ``chaining=True`` sweeps the transitions forward then backward over
    the whole reached set per pass; ``chaining=False`` unions the
    one-step images of the last BFS level, so its pass count is the BFS
    depth plus the empty closing level.  ``met`` collects every set a
    transition is fired on, in first-met order.
    """
    bdd = encoding.bdd
    forward = encoding.transitions
    sweep = forward + tuple(reversed(forward)) if chaining else forward
    reached = frontier = encoding.initial
    passes = 0
    while True:
        passes += 1
        working = reached if chaining else FALSE
        source = reached if chaining else frontier
        for transition in sweep:
            if met is not None:
                met[source] = None
            step = plan_image(bdd, source, transition)
            if step != FALSE:
                working = bdd.apply_or(working, step)
            if chaining:
                source = working
        if chaining:
            if working == reached:
                return reached, passes
            reached = working
        else:
            frontier = diff(bdd, working, reached)
            if frontier == FALSE:
                return reached, passes
            reached = bdd.apply_or(reached, frontier)


def literal(bdd: BDD, index: int, value: int) -> int:
    """``var(index)`` when ``value`` is truthy, else ``nvar(index)``."""
    return bdd.var(index) if value else bdd.nvar(index)


def disjoin(bdd: BDD, terms: Sequence[int]) -> int:
    """OR over a term sequence (left fold; FALSE for empty)."""
    result = FALSE
    for term in terms:
        result = bdd.apply_or(result, term)
    return result


def restrict(bdd: BDD, f: int, index: int, value: int) -> int:
    """The cofactor of ``f`` with variable ``index`` fixed."""
    memo = bdd._memo("restrict")
    value = 1 if value else 0

    def walk(f: int) -> int:
        var = bdd._var[f]
        if var > index:  # terminals included: variable absent
            return f
        key = (f, index, value)
        found = memo.get(key)
        if found is None:
            if var == index:
                found = bdd._high[f] if value else bdd._low[f]
            else:
                found = bdd.node(var, walk(bdd._low[f]), walk(bdd._high[f]))
            memo[key] = found
        return found

    return walk(f)


def ite(bdd: BDD, f: int, g: int, h: int) -> int:
    """``if f then g else h`` -- the classic three-way connective."""
    if f == TRUE:
        return g
    if f == FALSE:
        return h
    if g == h:
        return g
    if g == TRUE and h == FALSE:
        return f
    if g == FALSE and h == TRUE:
        return bdd.negate(f)
    memo = bdd._memo("ite")
    key = (f, g, h)
    found = memo.get(key)
    if found is not None:
        return found
    top = min(bdd._var[f], bdd._var[g], bdd._var[h])
    f0, f1 = (bdd._low[f], bdd._high[f]) if bdd._var[f] == top else (f, f)
    g0, g1 = (bdd._low[g], bdd._high[g]) if bdd._var[g] == top else (g, g)
    h0, h1 = (bdd._low[h], bdd._high[h]) if bdd._var[h] == top else (h, h)
    result = bdd.node(top, ite(bdd, f0, g0, h0), ite(bdd, f1, g1, h1))
    memo[key] = result
    return result


def _places(mask: int):
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def composed_image(stg: STG, encoding: SymbolicEncoding) -> Image:
    """A drop-in for :func:`plan_image` on ``encoding``.

    The returned ``image(bdd, frontier, transition)`` computes::

        S  = frontier AND enabled_t          -- states that fire t
        --  S AND overflow_t must be empty   -- else not 1-safe
        T  = exists (rewritten vars) . S     -- forget the old values
        R' = T AND effect_t                  -- fix the new ones

    and for a toggle splits ``S`` on the signal bit and flips it.
    """
    bdd = encoding.bdd
    packed = stg.net.compile_packed()
    var_of = encoding.place_vars
    pieces = {}
    for transition in encoding.transitions:
        pre = packed.pre_masks[transition.index]
        post = packed.post_masks[transition.index]
        sig = encoding.signal_vars[encoding.signals.index(transition.signal)]
        assignment = [(var_of[p], 0) for p in _places(pre & ~post)] \
            + [(var_of[p], 1) for p in _places(post & ~pre)]
        if transition.direction == Direction.RISE:
            assignment.append((sig, 1))
        elif transition.direction == Direction.FALL:
            assignment.append((sig, 0))
        pieces[transition.index] = (
            bdd.cube([(var_of[p], 1) for p in _places(pre)]),
            disjoin(bdd, [bdd.var(var_of[p]) for p in _places(post & ~pre)]),
            tuple(sorted(var for var, _ in assignment)),
            bdd.cube(assignment), sig)

    def image(bdd: BDD, frontier: int, transition: SymbolicTransition) -> int:
        enabled, overflow, quant, effect, sig = pieces[transition.index]
        fires = bdd.apply_and(frontier, enabled)
        if fires == FALSE:
            return FALSE
        if overflow != FALSE and bdd.apply_and(fires, overflow) != FALSE:
            raise SymbolicOverflowError(
                f"firing {transition.name!r} leaves the 1-safe regime")
        if transition.direction == Direction.TOGGLE:
            result = FALSE
            for value in (0, 1):
                half = restrict(bdd, fires, sig, value)
                if half == FALSE:
                    continue
                moved = bdd.apply_and(bdd.exists(half, quant), effect)
                result = bdd.apply_or(
                    result,
                    bdd.apply_and(moved, literal(bdd, sig, 1 - value)))
            return result
        # Rise/fall: the rewritten variables always include the signal bit.
        return bdd.apply_and(bdd.exists(fires, quant), effect)

    return image
