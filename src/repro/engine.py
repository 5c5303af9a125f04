"""The registry of the engine's process-global memo tables.

The hot exploration loop leans on memo tables keyed by packed integer
masks (see :mod:`repro.reduction.fwdred`).  Pure caches must never change
results, so the scaling benchmark and the work-counter tests compare a
cold search (every table cleared first) with a warm one and require
byte-identical outputs.

Caches register themselves here (optionally under a name) so that
:func:`clear_caches` drops them all and ``repro cache stats`` can report
the in-process memo tables next to the on-disk artifact store.
"""

from __future__ import annotations

from typing import Dict, List, MutableMapping, Optional, Tuple

_registered_caches: List[Tuple[str, MutableMapping]] = []


def register_cache(cache: MutableMapping,
                   name: Optional[str] = None) -> MutableMapping:
    """Register a memo table so :func:`clear_caches` clears it; returns it.

    ``name`` labels the table in :func:`cache_stats`; anonymous tables get
    a positional label.
    """
    label = name or f"cache-{len(_registered_caches)}"
    _registered_caches.append((label, cache))
    return cache


def clear_caches() -> None:
    """Drop all memoized results (used between benchmark phases)."""
    for _, cache in _registered_caches:
        cache.clear()


def cache_stats() -> Dict[str, int]:
    """Entry count of every registered memo table, by label."""
    return {label: len(cache) for label, cache in _registered_caches}
