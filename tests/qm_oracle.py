"""Quine-McCluskey reference for the exact minimizer's tests.

The exact core generates primes from the OFF set (see
:mod:`repro.logic.minimize`).  This module keeps the classic merge over
ON + DC, which enumerates every prime including those lying wholly inside
DC, so the tests can check the new generator and the covers built from it
against an independent derivation.  It also holds the tuple-minterm
front ends the tests state their properties on: packed ON and OFF sets of
tuple ON and DC lists, the OFF-generated primes of ON + DC, and a cover
check by minterm.
"""

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.logic.cube import Cover, Cube
from repro.logic.minimize import (_essential_and_greedy, _exact_cover,
                                  _prime_order, _primes_through, _unpack_cube)
from repro.petri.net import pack_bits as _pack

PackedCube = Tuple[int, int]


def packed_sets(num_vars: int, on: Iterable[Sequence[int]],
                dc: Iterable[Sequence[int]] = ()
                ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Packed (ON, OFF) of a tuple-minterm function; OFF is every code
    outside ON and DC, and a minterm in both counts as ON."""
    on_ints = frozenset(_pack(m) for m in on)
    care = on_ints | {_pack(m) for m in dc}
    return on_ints, frozenset(m for m in range(1 << num_vars) if m not in care)


def qm_primes(num_vars: int, care_ints: Iterable[int]) -> Set[PackedCube]:
    """Every prime implicant of the packed minterm set (ON + DC)."""
    current: Set[PackedCube] = {((1 << num_vars) - 1, m) for m in care_ints}
    primes: Set[PackedCube] = set()
    while current:
        merged: Set[PackedCube] = set()
        used: Set[PackedCube] = set()
        by_mask: Dict[int, Set[int]] = {}
        for mask, value in current:
            by_mask.setdefault(mask, set()).add(value)
        for mask, values in by_mask.items():
            for value in values:
                bits = mask & ~value
                while bits:
                    bit = bits & -bits
                    bits ^= bit
                    if value | bit in values:
                        merged.add((mask & ~bit, value))
                        used.add((mask, value))
                        used.add((mask, value | bit))
        primes.update(current - used)
        current = merged
    return primes


def qm_minimize(num_vars: int, on_ints: Iterable[int],
                dc_ints: Iterable[int] = (), exact: bool = False) -> Cover:
    """The cover the minimizer built from the full QM prime list, for
    packed ON and DC."""
    on_ints = set(on_ints)
    care = on_ints | set(dc_ints)
    if not on_ints:
        return Cover.zero(num_vars)
    if len(care) == 1 << num_vars:
        return Cover.one(num_vars)
    primes: List[PackedCube] = sorted(qm_primes(num_vars, care),
                                      key=lambda p: _prime_order(p, num_vars))
    chosen = _exact_cover(primes, on_ints) if exact else None
    if chosen is None:
        chosen = _essential_and_greedy(primes, on_ints, num_vars)
    return Cover(num_vars, [_unpack_cube(p, num_vars)
                            for p in chosen]).remove_redundant()


def prime_implicants(num_vars: int, on: Iterable[Sequence[int]],
                     dc: Iterable[Sequence[int]] = ()) -> List[Cube]:
    """The exact core's primes of ON + DC, in prime order.

    Primes lying wholly inside DC are left out; no cover of ON uses them.
    """
    on_ints, off_ints = packed_sets(num_vars, on, dc)
    return [_unpack_cube(p, num_vars)
            for p in _primes_through(num_vars, on_ints, off_ints)]


def verify_cover(cover: Cover, on: Iterable[Sequence[int]],
                 off: Iterable[Sequence[int]]) -> bool:
    """The cover contains every ON minterm and no OFF minterm."""
    return (all(cover.contains(m) for m in on)
            and not any(cover.contains(m) for m in off))
