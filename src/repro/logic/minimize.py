"""Two-level logic minimization.

Two engines:

* :func:`minimize_ints` (tuple wrapper :func:`minimize`) -- the exact core.
  It generates the primes that cover an ON minterm straight from the OFF
  set, then extracts essential primes and covers the rest greedily or by
  branch and bound.  Used for final synthesis where cover quality matters.
  A cube through ON minterm ``m`` with literal mask ``M`` misses the OFF
  set exactly when ``M`` hits every difference ``m ^ o`` (``o`` in OFF),
  so the primes through ``m`` are the minimal hitting sets of those
  differences -- the blocking-matrix view of Espresso's expand (Brayton,
  Hachtel, McMullen and Sangiovanni-Vincentelli, *Logic Minimization
  Algorithms for VLSI Synthesis*, 1984).  The work is per ON minterm,
  against the OFF set, and never touches the don't-care space, which for a
  state graph is every unreachable code.
* :func:`expand_and_cover` -- an espresso-flavoured heuristic (greedily
  raise literals of each ON code against the OFF set, then greedy set
  cover), the one fast-cover core.  The reduction search's cost runs it
  thousands of times (:meth:`repro.reduction.fwdred.ReductionSpace.measure`).
  It works on position bitsets over a numbered list of codes, ascending:
  ON and OFF are bitsets of positions, and the ``on & column`` and ``off
  & column`` of each variable's :func:`code_columns` give its agreeing ON
  and differing OFF positions, so a literal trial is one OR test rather
  than a scan of OFF, a cube's coverage is an AND of columns, and the
  greedy cover counts gains with ``bit_count``.  A reduction space
  numbers its root's codes once and memoizes literal counts itself.
  ``tests/fast_cover_oracle.py`` keeps the OFF-scanning derivation that
  the core reproduces cube for cube.

Cubes are packed as ``(mask, value)`` integer pairs internally -- bit i of
``mask`` set means variable i is a literal, whose polarity is bit i of
``value`` -- and converted to :class:`~repro.logic.cube.Cube` at the API
boundary.  Minterms are packed as single integers (bit i = variable i, the
same convention the state-graph layer uses for state codes).  Both engines
take packed ON and OFF sets (:func:`minimize_ints`; the fast cover on
positions of a numbered code list); the tuple API :func:`minimize` takes
ON and DC and derives OFF by enumerating the code space, which only it
does.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs.metrics import registry as obs_registry
from ..petri.net import pack_bits
from .cube import DC, Cube, Cover

Minterm = Tuple[int, ...]
PackedCube = Tuple[int, int]  # (mask, value)


class MinimizationError(Exception):
    """Raised on contradictory ON/DC input."""


def _normalise(num_vars: int, minterms: Iterable[Sequence[int]]) -> Set[Minterm]:
    result: Set[Minterm] = set()
    for minterm in minterms:
        term = tuple(minterm)
        if len(term) != num_vars or any(v not in (0, 1) for v in term):
            raise MinimizationError(f"bad minterm {term!r} for {num_vars} variables")
        result.add(term)
    return result


def _unpack_cube(packed: PackedCube, num_vars: int) -> Cube:
    mask, value = packed
    positions = []
    for i in range(num_vars):
        bit = 1 << i
        if mask & bit:
            positions.append(1 if value & bit else 0)
        else:
            positions.append(DC)
    return Cube(tuple(positions))


def _contains(packed: PackedCube, minterm_int: int) -> bool:
    mask, value = packed
    return (minterm_int ^ value) & mask == 0


def _packed_sets(num_vars: int, on: Iterable[Sequence[int]],
                 dc: Iterable[Sequence[int]]) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Packed (ON, OFF) of a tuple-minterm function; OFF is everything else."""
    on_ints = frozenset(pack_bits(m) for m in _normalise(num_vars, on))
    care = on_ints | {pack_bits(m) for m in _normalise(num_vars, dc)}
    return on_ints, frozenset(m for m in range(1 << num_vars) if m not in care)


def _minimal_blocks(minterm: int, off_ints: Iterable[int]) -> List[int]:
    """The inclusion-minimal differences ``minterm ^ o`` over OFF.

    A literal mask hits every difference iff it hits every minimal one, so
    these are the rows of the blocking matrix that matter.
    """
    kept: List[int] = []
    for diff in sorted({minterm ^ o for o in off_ints}, key=int.bit_count):
        if all(block & diff != block for block in kept):
            kept.append(diff)
    return kept


def _minimal_hitting_sets(blocks: List[int]) -> List[int]:
    """Every minimal bitmask that intersects each block.

    Branches on the smallest block not yet hit.  A branch bans the bits its
    earlier siblings took, so each set is reached once, and it is cut as
    soon as a chosen bit no longer hits some block on its own (adding bits
    never makes it necessary again).
    """
    found: List[int] = []

    def minimal(chosen: int) -> bool:
        bits = chosen
        while bits:
            bit = bits & -bits
            bits ^= bit
            if not any(block & chosen == bit for block in blocks):
                return False
        return True

    def grow(chosen: int, banned: int, open_blocks: List[int]) -> None:
        if not open_blocks:
            found.append(chosen)
            return
        free = min(open_blocks, key=int.bit_count) & ~banned
        while free:
            bit = free & -free
            free ^= bit
            if minimal(chosen | bit):
                grow(chosen | bit, banned,
                     [block for block in open_blocks if not block & bit])
            banned |= bit

    grow(0, 0, blocks)
    return found


def _prime_order(prime: PackedCube, num_vars: int) -> Tuple[int, str]:
    """``(literal_count, to_string)`` of the cube, without building it."""
    mask, value = prime
    text = "".join("-" if not mask >> i & 1 else "1" if value >> i & 1 else "0"
                   for i in range(num_vars))
    return mask.bit_count(), text


def _primes_through(num_vars: int, on_ints: Iterable[int],
                    off_ints: FrozenSet[int]) -> List[PackedCube]:
    """The primes of NOT OFF that contain an ON minterm, in prime order.

    Prime order is ``(literal_count, to_string)``, the order the covering
    steps break ties in.  Primes that would cover only don't cares are never
    generated: no covering step could pick them.
    """
    primes: Set[PackedCube] = set()
    for minterm in on_ints:
        for mask in _minimal_hitting_sets(_minimal_blocks(minterm, off_ints)):
            primes.add((mask, minterm & mask))
    obs_registry().counter(
        "repro_logic_primes_total",
        "Primes generated by the exact two-level minimizer.").inc(len(primes))
    return sorted(primes, key=lambda p: _prime_order(p, num_vars))


def logic_work() -> Dict[str, int]:
    """The logic counters of the default registry: primes generated."""
    return {"primes": int(obs_registry().value("repro_logic_primes_total") or 0)}


def _essential_and_greedy(primes: List[PackedCube], on_ints: Set[int],
                          num_vars: int) -> List[PackedCube]:
    """Essential primes first, then greedy largest-coverage selection.

    ``primes`` must arrive in the deterministic prime order produced by
    :func:`_primes_through`; minterms are processed in sorted order and
    ``max`` ties resolve to the earliest prime in that order, so the chosen
    cover is identical across runs.
    """
    minterms = sorted(on_ints)
    coverage: Dict[int, List[PackedCube]] = {
        m: [p for p in primes if _contains(p, m)] for m in minterms}
    for minterm, covering in coverage.items():
        if not covering:
            raise MinimizationError(f"minterm {minterm:b} not covered by any prime")
    selected: List[PackedCube] = []
    selected_set: Set[PackedCube] = set()
    for minterm in minterms:
        covering = coverage[minterm]
        if len(covering) == 1 and covering[0] not in selected_set:
            selected.append(covering[0])
            selected_set.add(covering[0])
    uncovered = {m for m in minterms
                 if not any(_contains(p, m) for p in selected)}
    while uncovered:
        def gain(prime: PackedCube) -> Tuple[int, int]:
            return (sum(1 for m in uncovered if _contains(prime, m)),
                    -bin(prime[0]).count("1"))
        best = max(primes, key=gain)
        gained = {m for m in uncovered if _contains(best, m)}
        if not gained:
            raise MinimizationError("greedy covering stalled")
        selected.append(best)
        uncovered -= gained
    return selected


def _exact_cover(primes: List[PackedCube], on_ints: Set[int],
                 budget: int = 200_000) -> Optional[List[PackedCube]]:
    """Branch-and-bound minimum-literal covering; None when budget exceeded."""
    minterms = sorted(on_ints)
    cover_sets = [frozenset(m for m in minterms if _contains(p, m)) for p in primes]
    literal_cost = [bin(p[0]).count("1") for p in primes]
    order = sorted(range(len(primes)),
                   key=lambda i: (literal_cost[i], -len(cover_sets[i])))
    best_cost = float("inf")
    best: Optional[List[int]] = None
    steps = 0

    def recurse(uncovered: FrozenSet[int], chosen: List[int], cost: int) -> None:
        nonlocal best_cost, best, steps
        steps += 1
        if steps > budget:
            raise TimeoutError
        if cost >= best_cost:
            return
        if not uncovered:
            best_cost, best = cost, list(chosen)
            return
        target = min(uncovered)
        for i in order:
            if target in cover_sets[i]:
                chosen.append(i)
                recurse(uncovered - cover_sets[i], chosen, cost + literal_cost[i])
                chosen.pop()

    try:
        recurse(frozenset(minterms), [], 0)
    except TimeoutError:
        return None
    return [primes[i] for i in best] if best is not None else None


def minimize_ints(num_vars: int, on_ints: FrozenSet[int],
                  off_ints: FrozenSet[int], exact: bool = False) -> Cover:
    """Minimal (or near-minimal) SOP cover of packed ON against packed OFF.

    Every code in neither set is a don't care.  ``exact=True`` attempts
    branch-and-bound minimum-literal covering over the primes and falls
    back to the greedy heuristic on blow-up.
    """
    if not on_ints:
        return Cover.zero(num_vars)
    if not off_ints:
        return Cover.one(num_vars)
    if not on_ints.isdisjoint(off_ints):
        raise MinimizationError("ON and OFF sets overlap")
    primes = _primes_through(num_vars, on_ints, off_ints)
    chosen: Optional[List[PackedCube]] = None
    if exact:
        chosen = _exact_cover(primes, on_ints)
    if chosen is None:
        chosen = _essential_and_greedy(primes, on_ints, num_vars)
    cubes = [_unpack_cube(p, num_vars) for p in chosen]
    return Cover(num_vars, cubes).remove_redundant()


def minimize(num_vars: int, on: Iterable[Sequence[int]],
             dc: Iterable[Sequence[int]] = (), exact: bool = False) -> Cover:
    """Minimal (or near-minimal) SOP cover of ON with DC flexibility.

    Tuple-minterm front end of :func:`minimize_ints`; a minterm in both ON
    and DC counts as ON.
    """
    on_ints, off_ints = _packed_sets(num_vars, on, dc)
    return minimize_ints(num_vars, on_ints, off_ints, exact=exact)


def code_columns(num_vars: int, codes: Sequence[int]) -> List[int]:
    """``columns[i]``: the positions in ``codes`` whose variable ``i`` is high."""
    return [sum(1 << position for position, code in enumerate(codes)
                if code >> i & 1) for i in range(num_vars)]


def expand_and_cover(codes: Sequence[int], columns: Sequence[int], on: int,
                     off: int) -> Tuple[PackedCube, ...]:
    """Greedy expand of each ON code against OFF, then greedy set cover.

    ``codes`` are numbered by position in ascending order, ``columns`` is
    their :func:`code_columns`, and ``on`` and ``off`` are disjoint
    position bitsets: every other position is a don't care.  For a start
    code, a variable's differing OFF positions are ``off & column`` or
    ``off & ~column``; a cube through the start keeps literal set ``L``
    clear of OFF exactly when the OR of those over ``L`` is ``off``.
    Literals are raised in a fixed order, so raising one leaves the
    literals kept so far plus every later one: one test per trial.  A
    cube's coverage is the AND of its kept literals' agreeing ON columns,
    and the greedy cover counts gains with ``bit_count``.
    """
    num_vars = len(columns)
    total = on.bit_count()
    # Per variable and start polarity: (rank, variable, agreeing ON
    # positions, differing OFF positions).  Raise most-shared literals
    # first: a literal shared by many ON codes is cheap to give up (few
    # codes lie on the other side), so trying it first keeps the
    # expansion free to absorb the rarely-shared directions later.  Ties
    # go to the lower variable: a rank is ``(total - shared) * n + i``.
    high, low = [], []
    for i, column in enumerate(columns):
        on_high, off_high = on & column, off & column
        shared = on_high.bit_count()
        high.append(((total - shared) * num_vars + i, i, on_high,
                     off ^ off_high))
        low.append((shared * num_vars + i, i, on ^ on_high, off_high))
    expanded: List[PackedCube] = []
    literals: List[int] = []
    covers: List[int] = []
    covered = 0
    rest = on
    while rest:
        bit = rest & -rest
        rest ^= bit
        # Codes swallowed by an earlier expansion would mostly re-derive
        # the same cube; skipping them is the standard espresso shortcut.
        # A start outside every earlier cube expands to a new cube, since
        # the cube contains the start.
        if covered & bit:
            continue
        start = codes[bit.bit_length() - 1]
        trials = sorted([high[i] if start >> i & 1 else low[i]
                         for i in range(num_vars)])
        suffix = [0] * (num_vars + 1)
        for k in range(num_vars - 1, -1, -1):
            suffix[k] = suffix[k + 1] | trials[k][3]
        mask = rejected = 0
        cover = on
        for k, (_, i, agree, differ) in enumerate(trials):
            if rejected == off:
                break
            if rejected | suffix[k + 1] != off:
                mask |= 1 << i
                rejected |= differ
                cover &= agree
        expanded.append((mask, start & mask))
        literals.append(-mask.bit_count())
        covers.append(cover)
        covered |= cover
    uncovered = on
    chosen: List[PackedCube] = []
    while uncovered:
        best = max(range(len(expanded)),
                   key=lambda c: ((covers[c] & uncovered).bit_count(),
                                  literals[c]))
        gained = covers[best] & uncovered
        if not gained:
            raise MinimizationError("fast covering stalled")
        chosen.append(expanded[best])
        uncovered ^= gained
    return tuple(chosen)
