"""Unit and property tests for logic minimization (repro.logic.minimize)."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cost_oracle import minimize_fast_ints
from fast_cover_oracle import scan_expand_and_cover
from qm_oracle import prime_implicants, qm_minimize, qm_primes, verify_cover
from repro.logic.cube import Cube, Cover
from repro.logic.minimize import (MinimizationError, _packed_sets,
                                  _primes_through, _unpack_cube, code_columns,
                                  expand_and_cover, logic_work, minimize,
                                  minimize_ints)
from repro.petri.net import pack_bits as _pack


def all_minterms(n):
    return list(product((0, 1), repeat=n))


def minimize_fast(num_vars, on, dc=()):
    """:func:`minimize_fast_ints` over minterm tuples, as a :class:`Cover`;
    OFF is every code outside ON and DC."""
    on_ints, off_ints = _packed_sets(num_vars, on, dc)
    return Cover(num_vars, [_unpack_cube(cube, num_vars) for cube in
                            minimize_fast_ints(num_vars, on_ints, off_ints)])


class TestPrimeImplicants:
    def test_single_minterm(self):
        primes = prime_implicants(2, [(1, 1)])
        assert primes == [Cube.parse("11")]

    def test_pair_merges(self):
        primes = prime_implicants(2, [(0, 0), (0, 1)])
        assert primes == [Cube.parse("0-")]

    def test_xor_has_no_merges(self):
        primes = prime_implicants(2, [(0, 1), (1, 0)])
        assert sorted(str(p) for p in primes) == ["01", "10"]

    def test_full_function(self):
        primes = prime_implicants(2, all_minterms(2))
        assert primes == [Cube.full(2)]

    def test_dc_enables_merging(self):
        primes = prime_implicants(2, [(1, 1)], dc=[(1, 0)])
        assert Cube.parse("1-") in primes

    def test_classic_4var_example(self):
        # f = sum m(4,8,10,11,12,15), dc(9,14): standard textbook QM case.
        def bits(x):
            return tuple(int(b) for b in f"{x:04b}")
        on = [bits(m) for m in (4, 8, 10, 11, 12, 15)]
        dc = [bits(m) for m in (9, 14)]
        primes = {str(p) for p in prime_implicants(4, on, dc)}
        assert "1-1-" in primes  # the textbook prime AC (bit order MSB first)

    def test_bad_minterm_rejected(self):
        with pytest.raises(MinimizationError):
            prime_implicants(2, [(0, 2)])

    def test_dc_only_primes_left_out(self):
        # QM over ON + DC also finds "00", which covers no ON minterm.
        primes = prime_implicants(2, [(1, 1)], dc=[(0, 0)])
        assert primes == [Cube.parse("11")]

    def test_work_counter_counts_generated_primes(self):
        before = logic_work()["primes"]
        primes = prime_implicants(2, [(0, 1), (1, 0)])
        assert logic_work()["primes"] - before == len(primes) == 2


class TestMinimize:
    def test_constants(self):
        assert minimize(2, []).is_constant_zero
        assert minimize(2, all_minterms(2)).is_constant_one

    def test_dc_fills_to_constant_one(self):
        cover = minimize(2, [(0, 0)], dc=[(0, 1), (1, 0), (1, 1)])
        assert cover.is_constant_one

    def test_single_literal_found(self):
        on = [m for m in all_minterms(3) if m[1] == 1]
        cover = minimize(3, on)
        assert cover.single_literal() == (1, 1)
        assert cover.literal_count == 1

    def test_wire_through_dc(self):
        # ON = {10}, OFF = {01}, rest DC: minimizes to a single literal.
        cover = minimize(2, [(1, 0)], dc=[(0, 0), (1, 1)])
        assert cover.literal_count == 1

    def test_xor_needs_four_literals(self):
        cover = minimize(2, [(0, 1), (1, 0)], exact=True)
        assert cover.literal_count == 4
        assert len(cover.cubes) == 2

    def test_majority(self):
        on = [m for m in all_minterms(3) if sum(m) >= 2]
        cover = minimize(3, on, exact=True)
        assert cover.literal_count == 6
        assert len(cover.cubes) == 3

    def test_exact_not_worse_than_greedy(self):
        on = [m for m in all_minterms(4) if sum(m) in (1, 3)]
        greedy = minimize(4, on, exact=False)
        exact = minimize(4, on, exact=True)
        assert exact.literal_count <= greedy.literal_count

    def test_on_overlapping_dc_wins(self):
        cover = minimize(1, [(1,)], dc=[(1,)])
        assert cover.contains((1,))

    def test_packed_core_matches_tuple_front_end(self):
        # Variable i is bit i of a packed minterm.
        cover = minimize_ints(2, frozenset({0b01}), frozenset({0b10}))
        assert cover.literal_count == 1
        assert cover.contains((1, 0)) and not cover.contains((0, 1))

    def test_packed_core_rejects_overlap(self):
        with pytest.raises(MinimizationError):
            minimize_ints(2, frozenset({1}), frozenset({1, 2}))

    def test_packed_fast_cover_rejects_overlap(self):
        with pytest.raises(MinimizationError):
            minimize_fast_ints(2, frozenset({1}), frozenset({1, 2}))


class TestMinimizeFast:
    def test_matches_simple_cases(self):
        on = [m for m in all_minterms(3) if m[0] == 1]
        cover = minimize_fast(3, on)
        assert cover.single_literal() == (0, 1)

    def test_valid_on_xor(self):
        on = [(0, 1), (1, 0)]
        cover = minimize_fast(2, on)
        assert verify_cover(cover, on, [(0, 0), (1, 1)])

    def test_constants(self):
        assert minimize_fast(2, []).is_constant_zero
        assert minimize_fast(2, all_minterms(2)).is_constant_one


@st.composite
def on_dc_sets(draw, num_vars=4):
    universe = all_minterms(num_vars)
    labels = draw(st.lists(st.sampled_from(["on", "dc", "off"]),
                           min_size=len(universe), max_size=len(universe)))
    on = [m for m, l in zip(universe, labels) if l == "on"]
    dc = [m for m, l in zip(universe, labels) if l == "dc"]
    off = [m for m, l in zip(universe, labels) if l == "off"]
    return on, dc, off


class TestProperties:
    @given(on_dc_sets())
    @settings(max_examples=60, deadline=None)
    def test_minimize_produces_valid_cover(self, sets):
        on, dc, off = sets
        cover = minimize(4, on, dc)
        assert verify_cover(cover, on, off)

    @given(on_dc_sets())
    @settings(max_examples=60, deadline=None)
    def test_minimize_fast_produces_valid_cover(self, sets):
        on, dc, off = sets
        cover = minimize_fast(4, on, dc)
        assert verify_cover(cover, on, off)

    @given(on_dc_sets())
    @settings(max_examples=30, deadline=None)
    def test_exact_never_beaten_by_greedy(self, sets):
        on, dc, off = sets
        exact = minimize(4, on, dc, exact=True)
        greedy = minimize(4, on, dc, exact=False)
        assert exact.literal_count <= greedy.literal_count

    @given(on_dc_sets())
    @settings(max_examples=30, deadline=None)
    def test_primes_cover_every_on_minterm(self, sets):
        on, dc, off = sets
        primes = prime_implicants(4, on, dc)
        for minterm in on:
            assert any(p.contains(minterm) for p in primes)

    @given(on_dc_sets())
    @settings(max_examples=30, deadline=None)
    def test_primes_avoid_off_minterms(self, sets):
        on, dc, off = sets
        for prime in prime_implicants(4, on, dc):
            assert not any(prime.contains(m) for m in off)


@st.composite
def split_functions(draw):
    """A random ON/DC/OFF split of 1-8 variables, skewed per draw."""
    num_vars = draw(st.integers(min_value=1, max_value=8))
    universe = all_minterms(num_vars)
    weights = draw(st.sampled_from(
        [("on", "dc", "off"), ("on", "off", "off"), ("on", "dc", "dc"),
         ("on", "on", "dc", "off")]))
    labels = draw(st.lists(st.sampled_from(weights),
                           min_size=len(universe), max_size=len(universe)))
    on = [m for m, label in zip(universe, labels) if label == "on"]
    dc = [m for m, label in zip(universe, labels) if label == "dc"]
    return num_vars, on, dc


class TestQuineMcCluskeyOracle:
    """The OFF-set prime generator against the classic QM merge."""

    @given(split_functions())
    @settings(max_examples=120, deadline=None)
    def test_primes_are_qm_primes_through_on(self, function):
        num_vars, on, dc = function
        on_ints = {_pack(m) for m in on}
        care = on_ints | {_pack(m) for m in dc}
        off_ints = frozenset(set(range(1 << num_vars)) - care)
        expected = {(mask, value) for mask, value in qm_primes(num_vars, care)
                    if any((m ^ value) & mask == 0 for m in on_ints)}
        assert set(_primes_through(num_vars, on_ints, off_ints)) == expected

    @given(split_functions())
    @settings(max_examples=30, deadline=None)
    def test_covers_match_the_qm_path(self, function):
        num_vars, on, dc = function
        for exact in (False, True):
            ours = minimize(num_vars, on, dc, exact=exact)
            oracle = qm_minimize(num_vars, on, dc, exact=exact)
            assert [str(c) for c in ours.cubes] == [str(c) for c in oracle.cubes]


def _fast_cover_instances():
    """Seeded ``(num_vars, ON, OFF)`` instances for the differential test.

    Random splits for every width from 1 to 22, a single ON minterm
    against a random OFF set, fully specified functions (ON is the
    complement of OFF), OFF sets of about a thousand minterms and an
    empty OFF set.
    """
    rng = random.Random(26)

    def codes(num_vars, count):
        if num_vars < 16:
            return rng.sample(range(1 << num_vars), min(count, 1 << num_vars))
        return list({rng.getrandbits(num_vars) for _ in range(count)})

    for num_vars in range(1, 23):
        for _ in range(6):
            pool = codes(num_vars, rng.randint(2, 120))
            split = rng.randint(1, len(pool) - 1)
            yield num_vars, pool[:split], pool[split:]
        pool = codes(num_vars, rng.randint(2, 100))
        yield num_vars, pool[:1], pool[1:]
    for num_vars in range(1, 9):
        for _ in range(3):
            universe = list(range(1 << num_vars))
            rng.shuffle(universe)
            split = rng.randint(1, len(universe) - 1)
            yield num_vars, universe[:split], universe[split:]
    for num_vars in (10, 11, 12):
        pool = codes(num_vars, 1200)
        yield num_vars, pool[:rng.randint(5, 40)], pool[40:]
    yield 3, [1, 6], []


class TestFastCoverOracle:
    """The bitmap fast cover against the OFF-scanning reference."""

    def test_covers_match_the_scan(self):
        checked = 0
        for num_vars, on, off in _fast_cover_instances():
            on_ints, off_ints = frozenset(on), frozenset(off)
            cover = minimize_fast_ints(num_vars, on_ints, off_ints)
            assert cover == scan_expand_and_cover(num_vars, on_ints,
                                                  off_ints), (num_vars, on, off)
            assert all(any((m ^ value) & mask == 0 for mask, value in cover)
                       for m in on_ints)
            assert not any((m ^ value) & mask == 0
                           for mask, value in cover for m in off_ints)
            checked += 1
        assert checked == 22 * 7 + 8 * 3 + 3 + 1

    def test_core_on_sparse_code_universes(self):
        """The core on a universe with unused codes, as a reduction space
        numbers its root's codes: positions in neither ON nor OFF are
        don't cares, and ``on == present`` and an empty ON are the edges."""
        rng = random.Random(31)
        checked = 0
        for num_vars in range(3, 9):
            for _ in range(12):
                codes = sorted(rng.sample(range(1 << num_vars),
                                          rng.randint(2, 1 << num_vars)))
                columns = code_columns(num_vars, codes)
                positions = list(range(len(codes)))
                rng.shuffle(positions)
                present = positions[:rng.randint(1, len(codes))]
                split = rng.randint(0, len(present))
                for on_at, off_at in ((present[:split], present[split:]),
                                      (present, []), ([], present)):
                    on = sum(1 << p for p in on_at)
                    off = sum(1 << p for p in off_at)
                    on_ints = frozenset(codes[p] for p in on_at)
                    off_ints = frozenset(codes[p] for p in off_at)
                    assert expand_and_cover(codes, columns, on, off) == \
                        scan_expand_and_cover(num_vars, on_ints, off_ints), \
                        (num_vars, codes, on_at, off_at)
                    checked += 1
        assert checked == 6 * 12 * 3
