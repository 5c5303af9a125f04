"""Sharded execution of a sweep grid over ``multiprocessing``.

The parent process resolves store hits, partitions the remaining points
into deterministic spec-coherent chunks, and hands chunks to a worker pool
(``jobs=1`` runs the very same chunk function in-process).  Workers read
each spec's generated state graph from the spec registry's per-process
memo (:data:`repro.specs.registry.SPEC_GRAPHS`) -- and, through the
process-global engine memos, everything downstream of it -- so a chunk of
same-spec points shares work the way a serial run does.  Each point is evaluated through
the staged pipeline (:func:`repro.pipeline.run_pipeline`); with a store,
workers share the same artifact directory, so stages whose content-derived
keys coincide (across points, strategies and even concurrent runs) are
computed once and served from disk everywhere else.  Completed rows live
in that same :class:`~repro.pipeline.store.ArtifactStore` as
``sweep-point`` entries keyed by :func:`point_key`, the digest of the
point's spec, its :class:`~repro.pipeline.FlowConfig` payload and the
generated graph.  A row's identity columns (strategy, weight, frontier,
keep, verify cap) are read off that config.  Results come back
tagged with their grid index and are merged in grid order, which makes
parallel output byte-identical to serial output regardless of scheduling;
all wall-clock numbers and cache accounting live on the
:class:`SweepOutcome`, never in the rows.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..pipeline.config import STAGE_ORDER
from ..pipeline.hashing import digest_payload
from ..pipeline.jobs import summary_row
from ..pipeline.stages import graph_digest, run_pipeline
from ..pipeline.store import ArtifactStore
from ..specs.registry import SPEC_GRAPHS, spec_sg
from .grid import SweepGrid, SweepPoint

__all__ = ["SweepOutcome", "evaluate_with_status", "make_chunks",
           "point_key", "run_sweep"]

#: Bump when the row layout or key derivation changes; old entries are
#: simply never looked up again.  Version 4: the key binds the spec and the
#: point's whole ``FlowConfig`` payload.
STORE_VERSION = 4

#: Store stage name of a completed sweep row.
_ROW_STAGE = "sweep-point"

def point_key(point: SweepPoint, graph: str) -> str:
    """Store key of ``point`` evaluated on graph ``graph``.

    Binding the graph digest means a changed spec (another state graph)
    can never serve a stale row.
    """
    return digest_payload({"version": STORE_VERSION, "spec": point.spec,
                           "config": point.config.to_payload(),
                           "graph": graph})


def _stored_row(store: ArtifactStore,
                key: str) -> Optional[Dict[str, object]]:
    """The row stored under ``key``, or ``None`` when absent or unreadable."""
    entry = store.get_entry(key, stage=_ROW_STAGE)
    if entry is None:
        return None
    payload = entry["payload"]
    if not isinstance(payload, dict) or "row" not in payload:
        return None
    return payload["row"]


def evaluate_with_status(point: SweepPoint,
                         store: Optional[ArtifactStore]
                         ) -> Tuple[Dict[str, object], Dict[str, str]]:
    """Run one design point through the pipeline.

    Returns ``(row, stage_status)``.  Rows contain only reproducible
    quantities (no timings, no cache provenance): the point's identity
    columns plus :func:`repro.pipeline.jobs.summary_row` -- everything here
    must be byte-identical between serial and parallel runs and between
    cold and warm store reads.  The stage status feeds the outcome's cache
    accounting only.  The serving layer evaluates sweep-point tasks through
    this same function, so service rows can never drift from CLI rows.
    """
    config = point.config
    result = run_pipeline(config, initial_sg=spec_sg(point.spec),
                          name=point.label(), store=store)
    # The reduce slice holds exactly the search knobs the strategy reads.
    searched = config.slice_for("reduce")
    row = {
        "spec": point.spec,
        "variant": point.variant,
        "strategy": config.strategy,
        "weight": searched.get("weight"),
        "frontier": searched.get("size_frontier"),
        "keep": ";".join(",".join(pair) for pair in config.keep_conc),
    }
    row.update(summary_row(result))
    row["verify_max_states"] = (config.verify_max_states if config.verify
                                else None)
    return row, result.stage_status()


def _run_chunk(store: Union[ArtifactStore, str, None],
               chunk: List[Tuple[int, SweepPoint]]
               ) -> List[Tuple[int, Dict[str, object], Dict[str, str]]]:
    """Evaluate one chunk of (grid index, point) work items.

    ``store`` is the caller's store in-process and its root directory in a
    pool worker, which opens its own handle: a handle holds a lock and does
    not pickle, and directory-backed handles are cheap and process-safe.
    """
    if isinstance(store, str):
        store = ArtifactStore(store)
    return [(index, *evaluate_with_status(point, store))
            for index, point in chunk]


def make_chunks(items: Sequence[Tuple[int, object]],
                jobs: int,
                chunk_size: Optional[int] = None,
                group_key: Optional[Callable[[object], str]] = None
                ) -> List[List[Tuple[int, object]]]:
    """Deterministic spec-coherent partitioning of pending work.

    Points of one spec land in contiguous chunks (so a worker's SG and memo
    caches get reuse), but each spec's run is split into at most ``jobs``
    pieces (so one heavyweight spec cannot serialize the whole sweep).
    Chunks are ordered heaviest-spec-first as a cheap longest-processing-time
    heuristic for the pool's dynamic scheduling; "heavy" means the SG size
    when the parent happens to have it cached (store runs compute digests),
    else the group's point count.  Ordering only shapes scheduling -- rows
    are merged by grid index, so it never affects results.

    ``group_key`` generalizes the grouping beyond grid points (default: the
    point's ``spec``); the serving layer batches heterogeneous queued tasks
    through the same partitioner by keying synthesis tasks on their spec
    text digest.
    """
    if group_key is None:
        group_key = lambda work: work.spec  # noqa: E731 - default accessor
    groups: Dict[str, List[Tuple[int, object]]] = {}
    for item in items:
        groups.setdefault(group_key(item[1]), []).append(item)

    def weight(group: List[Tuple[int, object]]) -> tuple:
        spec = group_key(group[0][1])
        cached = SPEC_GRAPHS.get(spec)
        return (-(len(cached) if cached is not None else 0),
                -len(group), spec)

    sized = sorted(groups.values(), key=weight)
    chunks: List[List[Tuple[int, SweepPoint]]] = []
    for group in sized:
        size = chunk_size or max(1, math.ceil(len(group) / max(1, jobs)))
        for start in range(0, len(group), size):
            chunks.append(group[start:start + size])
    return chunks


@dataclass
class SweepOutcome:
    """Everything one sweep run produced, rows in grid order.

    ``stage_computed``/``stage_reused`` count pipeline-stage evaluations
    across all computed points; store-served rows never touch the stages,
    and without a store nothing is ever reused.
    """

    points: List[SweepPoint]
    rows: List[Dict[str, object]]
    computed: int
    cached: int
    jobs: int
    seconds: float
    stage_computed: Dict[str, int] = field(default_factory=dict)
    stage_reused: Dict[str, int] = field(default_factory=dict)

    @property
    def points_per_second(self) -> float:
        """Sweep throughput over this run's wall-clock time."""
        return len(self.points) / self.seconds if self.seconds > 0 else 0.0

    def stage_summary(self) -> str:
        """Deterministic one-line stage-cache accounting for CLI/CI use."""
        def render(counts: Dict[str, int]) -> str:
            parts = [f"{stage}={counts[stage]}" for stage in STAGE_ORDER
                     if counts.get(stage)]
            return ",".join(parts)

        computed = sum(self.stage_computed.values())
        reused = sum(self.stage_reused.values())
        text = f"stages: {computed} computed"
        if computed:
            text += f" ({render(self.stage_computed)})"
        text += f", {reused} reused"
        if reused:
            text += f" ({render(self.stage_reused)})"
        return text


def run_sweep(grid: SweepGrid,
              jobs: int = 1,
              store: Optional[ArtifactStore] = None,
              chunk_size: Optional[int] = None) -> SweepOutcome:
    """Evaluate every point of ``grid``; returns rows in grid order.

    With a ``store``, completed points are read back instead of recomputed,
    fresh results are persisted, and every pipeline stage evaluated along
    the way lands in the same store -- so a warm re-run (or an overlapping
    grid) does zero exploration, and a re-run with changed downstream knobs
    (e.g. another delay model) recomputes only the invalidated stages.
    ``jobs > 1`` shards the pending points over a process pool; the merged
    rows are byte-identical to ``jobs=1``.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    started = time.perf_counter()
    points = grid.points
    rows: List[Optional[Dict[str, object]]] = [None] * len(points)
    keys: List[Optional[str]] = [None] * len(points)
    pending: List[Tuple[int, SweepPoint]] = []
    cached = 0
    stage_computed: Dict[str, int] = {}
    stage_reused: Dict[str, int] = {}

    if store is not None:
        for index, point in enumerate(points):
            # A spec's graph is memoized and frozen, so it keeps its digest.
            keys[index] = point_key(point, graph_digest(spec_sg(point.spec)))
            stored = _stored_row(store, keys[index])
            if stored is not None:
                # The display name is not part of the key: re-label the
                # stored row so overlapping grids that spell the same
                # config with another variant name stay byte-identical.
                row = dict(stored)
                row["variant"] = point.variant
                rows[index] = row
                cached += 1
            else:
                pending.append((index, point))
    else:
        pending = list(enumerate(points))

    def merge(chunk_result) -> None:
        # Persist as results arrive, not after the whole sweep: an
        # interrupted run keeps every point completed so far.
        for index, row, status in chunk_result:
            rows[index] = row
            for stage, state in status.items():
                counts = (stage_reused if state == "cached"
                          else stage_computed)
                counts[stage] = counts.get(stage, 0) + 1
            if store is not None:
                point = points[index]
                store.put_entry(keys[index], _ROW_STAGE, {
                    "spec": point.spec,
                    "config": point.config.to_payload(),
                    "variant": point.variant,
                    "row": row,
                })

    if pending:
        chunks = make_chunks(pending, jobs, chunk_size)
        if jobs == 1 or len(chunks) == 1:
            for chunk in chunks:
                merge(_run_chunk(store, chunk))
        else:
            root = None if store is None else str(store.root)
            with multiprocessing.Pool(min(jobs, len(chunks))) as pool:
                for chunk_result in pool.imap_unordered(
                        functools.partial(_run_chunk, root), chunks):
                    merge(chunk_result)

    assert all(row is not None for row in rows)
    return SweepOutcome(points=points, rows=rows, computed=len(pending),
                        cached=cached, jobs=jobs,
                        seconds=time.perf_counter() - started,
                        stage_computed=stage_computed,
                        stage_reused=stage_reused)
