"""OFF-scanning reference for the fast cover's tests.

The fast cover (:func:`repro.logic.minimize.expand_and_cover`) expands
each ON code against per-variable bitsets of OFF positions and covers
on bitsets of ON positions.  This module keeps the direct derivation:
each literal trial scans the whole OFF set, coverage is tested minterm by
minterm.  The greedy order and tie-breaks are the ones the bitmap version
must keep, so the tests can compare the two cube for cube.
"""

from typing import FrozenSet, List, Set, Tuple

from repro.logic.minimize import MinimizationError, _contains

PackedCube = Tuple[int, int]


def scan_expand_and_cover(num_vars: int, on_ints: FrozenSet[int],
                          off_ints: FrozenSet[int]) -> Tuple[PackedCube, ...]:
    """Greedy expand of each ON minterm against OFF, then greedy set cover."""
    full_mask = (1 << num_vars) - 1
    on_sorted = sorted(on_ints)
    # Literal-sharing ranks: ones[i] = ON minterms with variable i high, so a
    # minterm with bit i set shares that literal with ones[i] - 1 others.
    ones = [0] * num_vars
    for m in on_sorted:
        for i in range(num_vars):
            if m & (1 << i):
                ones[i] += 1
    total = len(on_sorted)
    expanded: List[PackedCube] = []
    seen: Set[PackedCube] = set()
    for start in on_sorted:
        # Minterms swallowed by an earlier expansion would mostly re-derive
        # the same cube; skipping them is the standard espresso shortcut.
        if any((start ^ v) & m == 0 for m, v in expanded):
            continue
        mask, value = full_mask, start
        # Raise most-shared literals first: variables whose literal appears
        # in many other ON minterms are cheap to give up (few minterms lie
        # on the other side), so trying them first keeps the expansion free
        # to absorb the rarely-shared directions later.
        order = sorted(
            range(num_vars),
            key=lambda i: (-((ones[i] if start & (1 << i) else total - ones[i]) - 1), i))
        for i in order:
            bit = 1 << i
            trial_mask = mask & ~bit
            trial_value = value & ~bit
            if not any((m ^ trial_value) & trial_mask == 0 for m in off_ints):
                mask, value = trial_mask, trial_value
        cube = (mask, value)
        if cube not in seen:
            seen.add(cube)
            expanded.append(cube)
    uncovered = set(on_ints)
    chosen: List[PackedCube] = []
    while uncovered:
        best = max(expanded,
                   key=lambda c: (sum(1 for m in uncovered if _contains(c, m)),
                                  -bin(c[0]).count("1")))
        gained = {m for m in uncovered if _contains(best, m)}
        if not gained:
            raise MinimizationError("fast covering stalled")
        chosen.append(best)
        uncovered -= gained
    return tuple(chosen)
