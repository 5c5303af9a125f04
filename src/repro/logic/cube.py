"""Cube and cover algebra for two-level logic.

A *cube* is a product term over an ordered set of variables; each position
holds 0 (negative literal), 1 (positive literal) or DC (variable absent).
A *cover* is a set of cubes representing their disjunction.  This small
algebra is all the synthesis flow needs: next-state functions of
asynchronous controllers have a handful of variables, so the emphasis is on
correctness and debuggability rather than on BDD-grade performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

DC = 2  # "don't care" position value


@dataclass(frozen=True)
class Cube:
    """A product term; ``values[i]`` in {0, 1, DC} for variable ``i``."""

    values: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v not in (0, 1, DC) for v in self.values):
            raise ValueError(f"cube positions must be 0, 1 or DC: {self.values}")

    @staticmethod
    def full(num_vars: int) -> "Cube":
        """The universal cube (tautology) over ``num_vars`` variables."""
        return Cube((DC,) * num_vars)

    @staticmethod
    def parse(text: str) -> "Cube":
        """Parse ``"10-"``-style positional cubes (``-`` = don't care)."""
        mapping = {"0": 0, "1": 1, "-": DC, "x": DC, "X": DC, "2": DC}
        try:
            return Cube(tuple(mapping[ch] for ch in text.strip()))
        except KeyError as exc:
            raise ValueError(f"bad cube character in {text!r}") from exc

    @property
    def num_vars(self) -> int:
        return len(self.values)

    @property
    def literal_count(self) -> int:
        """Number of literals (non-DC positions)."""
        return sum(1 for v in self.values if v != DC)

    def contains(self, minterm: Sequence[int]) -> bool:
        """True when the minterm lies inside this cube."""
        return all(v == DC or v == m for v, m in zip(self.values, minterm))

    def covers(self, other: "Cube") -> bool:
        """True when ``other`` is contained in this cube."""
        return all(v == DC or v == o for v, o in zip(self.values, other.values))

    def merge(self, other: "Cube") -> Optional["Cube"]:
        """Consensus merge for QM: combine two cubes differing in one literal."""
        if self.values == other.values:
            return self
        diff = -1
        for i, (a, b) in enumerate(zip(self.values, other.values)):
            if a == b:
                continue
            if a == DC or b == DC or diff >= 0:
                return None
            diff = i
        merged = list(self.values)
        merged[diff] = DC
        return Cube(tuple(merged))

    def minterms(self) -> Iterator[Tuple[int, ...]]:
        """Enumerate all minterms inside the cube."""
        choices = [(0, 1) if v == DC else (v,) for v in self.values]
        return product(*choices)

    def size(self) -> int:
        """Number of minterms inside the cube."""
        return 1 << sum(1 for v in self.values if v == DC)

    def to_string(self) -> str:
        return "".join("-" if v == DC else str(v) for v in self.values)

    def to_expression(self, names: Sequence[str]) -> str:
        """Render as a product of named literals, e.g. ``a b' c``."""
        parts = []
        for value, name in zip(self.values, names):
            if value == 1:
                parts.append(name)
            elif value == 0:
                parts.append(f"{name}'")
        return " ".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.to_string()


class Cover:
    """A disjunction of cubes over a fixed variable count."""

    def __init__(self, num_vars: int, cubes: Iterable[Cube] = ()) -> None:
        self.num_vars = num_vars
        self.cubes: List[Cube] = []
        for cube in cubes:
            self.add(cube)

    @staticmethod
    def zero(num_vars: int) -> "Cover":
        """The empty (constant-0) cover."""
        return Cover(num_vars)

    @staticmethod
    def one(num_vars: int) -> "Cover":
        """The universal (constant-1) cover."""
        return Cover(num_vars, [Cube.full(num_vars)])

    def add(self, cube: Cube) -> None:
        if cube.num_vars != self.num_vars:
            raise ValueError("cube arity mismatch")
        self.cubes.append(cube)

    def contains(self, minterm: Sequence[int]) -> bool:
        return any(cube.contains(minterm) for cube in self.cubes)

    @property
    def is_constant_zero(self) -> bool:
        return not self.cubes

    @property
    def is_constant_one(self) -> bool:
        return any(cube.literal_count == 0 for cube in self.cubes)

    @property
    def literal_count(self) -> int:
        """Total SOP literals, the classic area estimate."""
        return sum(cube.literal_count for cube in self.cubes)

    def single_literal(self) -> Optional[Tuple[int, int]]:
        """If the cover is exactly one literal, return ``(var, polarity)``."""
        if len(self.cubes) != 1 or self.cubes[0].literal_count != 1:
            return None
        for var, value in enumerate(self.cubes[0].values):
            if value != DC:
                return var, value
        return None

    def support(self) -> Set[int]:
        """Variables appearing in at least one cube."""
        return {i for cube in self.cubes for i, v in enumerate(cube.values) if v != DC}

    def remove_redundant(self) -> "Cover":
        """Drop cubes contained in single other cubes (cheap irredundancy)."""
        kept: List[Cube] = []
        for cube in sorted(self.cubes, key=lambda c: -c.size()):
            if not any(other.covers(cube) for other in kept):
                kept.append(cube)
        return Cover(self.num_vars, kept)

    def to_expression(self, names: Sequence[str]) -> str:
        if self.is_constant_zero:
            return "0"
        if self.is_constant_one:
            return "1"
        return " + ".join(cube.to_expression(names) for cube in self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def __str__(self) -> str:
        return " + ".join(str(c) for c in self.cubes) if self.cubes else "0"
