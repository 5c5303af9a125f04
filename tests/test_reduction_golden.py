"""Byte-for-byte pins on the reduction searches.

``tests/data/golden_reduction.json`` was captured from the code whose
Keep_Conc check and ``reducible`` scanned every reachable state and whose
fast cover scanned the OFF set per literal trial.  For every registry spec
it pins the ``best-first``, ``beam`` and ``full`` searches at their
defaults, and beside them the searches the paper's tables run: Table 1's
Keep_Conc rows on ``lr``, Table 2's searched and Keep_Conc rows on
``mmu`` and Fig. 10's automatic row on ``par``.  Each entry holds the
digest of the returned graph, the costs, the :class:`ExplorationStats`
fields and the history, so a change that keeps the best graph but moves
the search's path still fails.

Regenerate (only for a deliberate change) with
``PYTHONPATH=src python tests/test_reduction_golden.py``.
"""

import functools
import json
from pathlib import Path

from repro.pipeline.hashing import graph_digest
from repro.reduction.cost import CostFunction
from repro.reduction.explore import (full_reduction_with_stats,
                                     reduce_concurrency)
from repro.sg.generator import generate_sg
from repro.specs.lr import TABLE1_KEEP_CONC
from repro.specs.mmu import TABLE2_KEEP_CONC, keep_conc_for
from repro.specs.par import PAR_KEEP_CONC
from repro.specs.registry import load_spec, spec_names

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_reduction.json"


@functools.lru_cache(maxsize=None)
def _root(spec):
    return generate_sg(load_spec(spec))


def _search(spec, **kwargs):
    result = reduce_concurrency(_root(spec), **kwargs)
    stats = result.stats
    return {"best": graph_digest(result.best),
            "best_cost": result.best_cost,
            "initial_cost": result.initial_cost,
            "explored": stats.explored, "expanded": stats.expanded,
            "levels": stats.levels, "capped": stats.capped,
            "history": [[step.level, step.before, step.delayed, step.cost,
                         step.states] for step in result.history]}


def _full(spec, **kwargs):
    best, stats = full_reduction_with_stats(_root(spec), **kwargs)
    return {"best": graph_digest(best), "explored": stats.explored,
            "expanded": stats.expanded, "levels": stats.levels,
            "capped": stats.capped}


def reduction_runs():
    """``{name: thunk}`` for every pinned search, in name order."""
    runs = {}
    for spec in spec_names():
        runs[f"{spec}/best-first"] = functools.partial(_search, spec)
        runs[f"{spec}/beam"] = functools.partial(_search, spec,
                                                 strategy="beam")
        runs[f"{spec}/full"] = functools.partial(_full, spec)
    for name, keep in TABLE1_KEEP_CONC.items():
        runs[f"table1/{name}"] = functools.partial(_full, "lr",
                                                   keep_conc=keep)
    runs["table2/original reduced"] = functools.partial(
        _search, "mmu", max_explored=400, patience=200)
    runs["table2/csc reduced"] = functools.partial(
        _search, "mmu",
        cost_function=CostFunction(weight=0.05, csc_scale=100.0),
        max_explored=1200, patience=10**9)
    for name, channels in TABLE2_KEEP_CONC.items():
        runs[f"table2/{name}"] = functools.partial(
            _full, "mmu", keep_conc=keep_conc_for(channels), size_frontier=3)
    runs["fig10/automatic"] = functools.partial(
        _search, "par", keep_conc=PAR_KEEP_CONC, max_explored=4000,
        patience=10**9)
    return dict(sorted(runs.items()))


def reduction_results():
    """The golden file's content, recomputed from the current code."""
    return {name: run() for name, run in reduction_runs().items()}


def test_reduction_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(reduction_runs())
    for name, run in reduction_runs().items():
        assert run() == golden[name], name


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(reduction_results(), indent=1,
                                      sort_keys=True) + "\n")
