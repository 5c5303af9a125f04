"""The shared exploration core.

One budgeted level loop, `explore_levels`, under every explicit walk:
state-graph generation (`repro.sg.generator`), fed by two engines,
packed (`explore_packed`) and tuples (`explore_tuples`), each of which
also unfolds 2-phase specs; and the conformance product
(`repro.verify.conformance`), which expands its own moves.  See
`docs/architecture.md` ("The exploration core") for the design.
"""

from .budget import (BudgetExceedance, BudgetExceeded, BudgetMeter,
                     ExplorationBudget)
from .frontier import (ExplorationRun, explore_levels, explore_packed,
                       explore_tuples)
from .reduce import ample_internal_moves, stubborn_reducer
from .trace import minimal_trace

__all__ = [
    "BudgetExceedance",
    "BudgetExceeded",
    "BudgetMeter",
    "ExplorationBudget",
    "ExplorationRun",
    "ample_internal_moves",
    "explore_levels",
    "explore_packed",
    "explore_tuples",
    "minimal_trace",
    "stubborn_reducer",
]
