"""Global switches for the packed-bitvector engine.

The hot exploration loop leans on memo tables keyed by packed integer
masks (see :mod:`repro.reduction.fwdred`).  Pure caches must never change results, so
the scaling benchmark runs the same workload with the caches enabled and
disabled and asserts byte-identical synthesis outputs; this module is the
single point of control for that ablation.

Caches register themselves here (optionally under a name) so that
disabling the engine also clears them (a stale entry surviving a toggle
would defeat the comparison) and so ``repro cache stats`` can report the
in-process memo tables next to the on-disk artifact store.
"""

from __future__ import annotations

from typing import Dict, List, MutableMapping, Optional, Tuple

_packed_memo_enabled = True
_registered_caches: List[Tuple[str, MutableMapping]] = []


def register_cache(cache: MutableMapping,
                   name: Optional[str] = None) -> MutableMapping:
    """Register a memo table so toggling the engine clears it; returns it.

    ``name`` labels the table in :func:`cache_stats`; anonymous tables get
    a positional label.
    """
    label = name or f"cache-{len(_registered_caches)}"
    _registered_caches.append((label, cache))
    return cache


def packed_memo_enabled() -> bool:
    return _packed_memo_enabled


def set_packed_memo(enabled: bool) -> None:
    """Enable or disable every registered memo table (clearing them all)."""
    global _packed_memo_enabled
    _packed_memo_enabled = bool(enabled)
    clear_caches()


def clear_caches() -> None:
    """Drop all memoized results (used between benchmark phases)."""
    for _, cache in _registered_caches:
        cache.clear()


def cache_stats() -> Dict[str, int]:
    """Entry count of every registered memo table, by label."""
    return {label: len(cache) for label, cache in _registered_caches}
