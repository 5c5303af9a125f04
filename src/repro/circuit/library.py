"""Gate library.

The paper reports area "in units" of the authors' standard-cell library
after decomposition into 2-input gates.  We define an equivalent library
with conventional relative sizes; absolute numbers differ from the paper,
but ratios between design points (which is what Tables 1 and 2 compare) are
preserved by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Cell:
    """A library cell: a gate type with fixed fan-in, area and delay."""

    name: str
    fanin: int
    area: float
    delay: float
    sequential: bool = False

    def __str__(self) -> str:
        return self.name


class Library:
    """A named collection of cells, looked up by cell name."""

    def __init__(self, name: str, cells: Dict[str, Cell]) -> None:
        self.name = name
        self._cells = dict(cells)

    def cell(self, name: str) -> Cell:
        """The cell named ``name``; raises ``KeyError`` if absent."""
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"no cell {name!r} in library {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    @property
    def cells(self) -> Dict[str, Cell]:
        """Every cell, keyed by name."""
        return dict(self._cells)


def _default_cells() -> Dict[str, Cell]:
    cells = [
        Cell("INV", 1, 8.0, 1.0),
        Cell("BUF", 1, 8.0, 1.0),
        Cell("AND2", 2, 16.0, 1.0),
        Cell("OR2", 2, 16.0, 1.0),
        Cell("NAND2", 2, 12.0, 1.0),
        Cell("NOR2", 2, 12.0, 1.0),
        Cell("XOR2", 2, 24.0, 1.0),
        # Muller C element: the canonical sequential cell of SI design.
        Cell("C2", 2, 24.0, 1.5, sequential=True),
        Cell("C3", 3, 32.0, 1.5, sequential=True),
        # Asymmetric C / set-reset latch used when set and reset networks
        # are separate (the "gC" implementation style).
        Cell("SRLATCH", 2, 28.0, 1.5, sequential=True),
    ]
    return {cell.name: cell for cell in cells}


#: Library used by default throughout the flow and the benchmarks.
DEFAULT_LIBRARY = Library("repro-2in", _default_cells())
