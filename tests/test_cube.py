"""Unit and property tests for cube/cover algebra (repro.logic.cube)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.cube import DC, Cube, Cover


def cubes(num_vars=4):
    return st.tuples(*[st.sampled_from((0, 1, DC))] * num_vars).map(Cube)


def minterms(num_vars=4):
    return st.tuples(*[st.sampled_from((0, 1))] * num_vars)


class TestCube:
    def test_parse_and_str(self):
        cube = Cube.parse("10-1")
        assert str(cube) == "10-1"
        assert cube.literal_count == 3
        assert cube.num_vars == 4

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Cube.parse("10z")

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            Cube((0, 3))

    def test_full_cube(self):
        cube = Cube.full(3)
        assert cube.literal_count == 0
        assert cube.size() == 8

    def test_contains(self):
        cube = Cube.parse("1-0")
        assert cube.contains((1, 0, 0))
        assert cube.contains((1, 1, 0))
        assert not cube.contains((0, 0, 0))

    def test_covers(self):
        assert Cube.parse("1--").covers(Cube.parse("10-"))
        assert not Cube.parse("10-").covers(Cube.parse("1--"))

    def test_merge_adjacent(self):
        assert Cube.parse("10-").merge(Cube.parse("11-")) == Cube.parse("1--")

    def test_merge_non_adjacent(self):
        assert Cube.parse("10-").merge(Cube.parse("01-")) is None
        assert Cube.parse("10-").merge(Cube.parse("1--")) is None

    def test_minterms_enumeration(self):
        cube = Cube.parse("1-0")
        assert set(cube.minterms()) == {(1, 0, 0), (1, 1, 0)}
        assert cube.size() == 2

    def test_expression(self):
        assert Cube.parse("10-").to_expression(["a", "b", "c"]) == "a b'"
        assert Cube.full(2).to_expression(["a", "b"]) == "1"

    @given(cubes(), minterms())
    def test_contains_agrees_with_minterms(self, cube, minterm):
        assert cube.contains(minterm) == (minterm in set(cube.minterms()))

    @given(cubes(), cubes())
    def test_merge_is_exact_union(self, a, b):
        merged = a.merge(b)
        if merged is not None:
            assert set(merged.minterms()) == \
                set(a.minterms()) | set(b.minterms())

    @given(cubes(), cubes())
    def test_covers_agrees_with_minterms(self, a, b):
        assert a.covers(b) == (set(b.minterms()) <= set(a.minterms()))


class TestCover:
    def test_constants(self):
        assert Cover.zero(3).is_constant_zero
        assert Cover.one(3).is_constant_one
        assert not Cover.zero(3).contains((0, 0, 0))
        assert Cover.one(3).contains((1, 1, 1))

    def test_from_minterms(self):
        cover = Cover(2, [Cube((0, 0)), Cube((1, 1))])
        assert cover.contains((0, 0))
        assert not cover.contains((0, 1))
        assert cover.literal_count == 4

    def test_arity_mismatch_rejected(self):
        cover = Cover(3)
        with pytest.raises(ValueError):
            cover.add(Cube.parse("10"))

    def test_single_literal(self):
        cover = Cover(3, [Cube.parse("-1-")])
        assert cover.single_literal() == (1, 1)
        assert Cover(3, [Cube.parse("-0-")]).single_literal() == (1, 0)
        assert Cover(3, [Cube.parse("11-")]).single_literal() is None

    def test_support(self):
        cover = Cover(3, [Cube.parse("1--"), Cube.parse("-0-")])
        assert cover.support() == {0, 1}

    def test_remove_redundant(self):
        cover = Cover(3, [Cube.parse("1--"), Cube.parse("10-")])
        cleaned = cover.remove_redundant()
        assert len(cleaned.cubes) == 1
        assert cleaned.cubes[0] == Cube.parse("1--")

    def test_expression(self):
        cover = Cover(2, [Cube.parse("10"), Cube.parse("01")])
        assert cover.to_expression(["x", "y"]) == "x y' + x' y"
        assert Cover.zero(2).to_expression(["x", "y"]) == "0"
        assert Cover.one(2).to_expression(["x", "y"]) == "1"

    @given(st.lists(cubes(), max_size=5), minterms())
    def test_cover_contains_iff_some_cube_contains(self, cube_list, minterm):
        cover = Cover(4, cube_list)
        assert cover.contains(minterm) == \
            any(c.contains(minterm) for c in cube_list)
