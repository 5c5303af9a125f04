"""The spec registry: which names are specs and how a name becomes a graph.

The CLI, the sweep and the service all resolve spec names here, so one
name means one ``.g`` text and one state graph on every surface.  The
registry holds the paper's specifications (Fig. 1 and the HSE-expanded
LR, MMU and PAR) and the classic suite (:mod:`repro.specs.suite`);
:func:`load_spec` and :func:`spec_sg` also build parametric family
members (:mod:`repro.specs.families`) by name, which stay out of the
registry because members can dwarf the suite by orders of magnitude.

A registry name's canonical text (:func:`spec_text`) is the suite's own
source, or ``write_stg`` of the paper factory.  The writer keeps the
declaration order, so that text parses back to the factory's graph: a
design point run from the text (the service) and one run from the
generated graph (the sweep, the bench) share every stage digest past
``generate``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List

from .. import engine
from ..petri.parser import write_stg
from ..petri.stg import STG
from ..sg.generator import generate_sg
from ..sg.graph import StateGraph
from . import families, suite
from .fig1 import fig1_stg
from .lr import lr_expanded
from .mmu import mmu_expanded
from .par import par_expanded

__all__ = ["SPEC_GRAPHS", "load_spec", "spec_names", "spec_sg", "spec_text"]

_PAPER = {"fig1": fig1_stg, "lr": lr_expanded, "mmu": mmu_expanded,
          "par": par_expanded}

#: Per-process memo: spec name -> generated state graph.  Module-global,
#: so it survives across the chunks a sweep worker runs, and registered
#: with the engine so ``engine.clear_caches()`` resets it like every other
#: pure memo (the benchmarks rely on that for honest cold-phase timings).
SPEC_GRAPHS: Dict[str, StateGraph] = engine.register_cache(
    {}, name="spec-sg")


def spec_names() -> List[str]:
    """Every registry name, sorted: the paper specs and the suite."""
    return sorted([*_PAPER, *suite.suite_names()])


@lru_cache(maxsize=None)
def spec_text(name: str) -> str:
    """The canonical ``.g`` text of registry spec ``name`` (memoized).

    Raises ``KeyError`` for any other name, family members included.
    """
    if name in _PAPER:
        return write_stg(_PAPER[name]())
    if name in suite.suite_names():
        return suite.source_text(name)
    raise KeyError(f"unknown spec {name!r}; available: {spec_names()}")


def load_spec(name: str) -> STG:
    """The STG of a registry spec or of a family member (``fifo_chain_8``)."""
    if name in _PAPER:
        return _PAPER[name]()
    if name in suite.suite_names():
        return suite.load(name)
    try:
        return families.load_family(name)
    except KeyError:
        raise KeyError(
            f"{name!r} is neither a registry spec ({spec_names()}) nor a "
            f"family member (<kind>_<stages>[_s<seed>] with kind in "
            f"{families.family_names()})") from None


def spec_sg(name: str) -> StateGraph:
    """The generated state graph of :func:`load_spec` ``(name)``, memoized."""
    sg = SPEC_GRAPHS.get(name)
    if sg is None:
        sg = SPEC_GRAPHS[name] = generate_sg(load_spec(name))
    return sg
