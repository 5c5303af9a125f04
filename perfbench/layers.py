"""Per-layer accounting for traced runs.

A traced run times the calls into each layer's public functions.  The
hooks below wrap those functions at the module attribute their callers
look up, so every call opens a ``layer:<name>`` span on the program's own
:mod:`repro.obs.trace` recorder.  In-process workloads install a recorder
around their measured loop; the service runs every job under a recorder
already, so the same spans come back in ``GET /jobs/<id>/trace``.

Wrappers only read what a call returns, never change it, so a traced run
computes the same bytes as an untraced one.  A hook whose target is gone
(after a refactor) is skipped; its time then shows up as uncovered
``pipeline.overhead_s`` and in a lower ``trace.coverage``.

Run as a script, this module installs the hooks and hands its arguments
to the ``repro`` command line::

    python3 perfbench/layers.py serve --workers 1 --port 0 --store DIR

Pool workers are forked from the hooked server and inherit the hooks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

from repro.obs.trace import current


def _stats_counts(out) -> Dict[str, float]:
    stats = out[1] if isinstance(out, tuple) else out.stats
    return {"n_explored": stats.explored, "n_expanded": stats.expanded}


def _graph_counts(sg) -> Dict[str, float]:
    return {"n_states": len(sg), "n_arcs": sg.arc_count()}


def _run_counts(run) -> Dict[str, float]:
    return {"n_states": len(run.states)}


def _resolve_counts(result) -> Dict[str, float]:
    return {"n_runs": 1, "n_resolved": int(result.resolved),
            "n_csc_signals": len(result.insertions)}


def _cover_counts(cover) -> Dict[str, float]:
    return {"n_literals": cover.literal_count}


def _product_counts(report) -> Dict[str, float]:
    return {"n_product_states": report.product_states}


def _coding_counts(report) -> Dict[str, float]:
    return {"max_nodes": report.bdd_nodes or 0}


def _reach_counts(reach) -> Dict[str, float]:
    return {"max_nodes": reach.node_count}


#: (module, attribute, layer, counts-from-result).  ``Class.method``
#: attributes patch the class.  The module named is the one whose
#: attribute the caller resolves at call time; the workloads call layer
#: functions through their modules so that the hooks see those calls too.
HOOKS = (
    ("repro.pipeline", "run_pipeline", "pipeline.stages", None),
    ("repro.pipeline.jobs", "run_pipeline", "pipeline.stages", None),
    ("repro.hse.expansion", "expand", "hse.expand", None),
    ("repro.pipeline.stages", "parse_stg", "petri.parse", None),
    ("repro.pipeline.stages", "generate_sg", "sg.generate", _graph_counts),
    ("repro.sg.generator", "generate_sg", "sg.generate", _graph_counts),
    ("repro.sg.generator", "explore_packed", "explore.reach", _run_counts),
    ("repro.sg.generator", "explore_tuples", "explore.reach", _run_counts),
    ("repro.pipeline.stages", "reduce_concurrency", "reduction.search",
     _stats_counts),
    ("repro.pipeline.stages", "full_reduction_with_stats",
     "reduction.search", _stats_counts),
    ("repro.reduction.explore", "reduce_concurrency", "reduction.search",
     _stats_counts),
    ("repro.pipeline.stages", "resolve_csc", "encoding.resolve",
     _resolve_counts),
    ("repro.pipeline.stages", "synthesize_circuit", "circuit.synthesize",
     None),
    ("repro.pipeline.stages", "estimate_circuit_area", "circuit.synthesize",
     None),
    ("repro.logic.functions", "minimize", "logic.minimize", _cover_counts),
    ("repro.pipeline.stages", "critical_cycle", "timing.cycle", None),
    ("repro.verify.certificate", "verify_netlist", "verify.conformance",
     None),
    ("repro.verify.conformance", "check_conformance", "verify.conformance",
     _product_counts),
    ("repro.pipeline.stages", "sg_to_payload", "pipeline.encode", None),
    ("repro.pipeline.stages", "circuit_payload", "pipeline.encode", None),
    ("repro.pipeline.jobs", "synth_job_payload", "pipeline.encode", None),
    ("repro.pipeline.config", "FlowConfig.from_payload", "pipeline.decode",
     None),
    ("repro.pipeline.stages", "sg_from_payload", "pipeline.decode", None),
    ("repro.pipeline.stages", "netlist_from_payload", "pipeline.decode",
     None),
    ("repro.pipeline.stages", "circuit_from_payload", "pipeline.decode",
     None),
    ("repro.pipeline.stages", "digest_payload", "pipeline.digest", None),
    ("repro.pipeline.stages", "graph_digest", "pipeline.digest", None),
    ("repro.pipeline.stages", "text_digest", "pipeline.digest", None),
    ("repro.verify.certificate", "graph_digest", "pipeline.digest", None),
    ("repro.verify.certificate", "digest_payload", "pipeline.digest", None),
    ("repro.pipeline.store", "digest_payload", "pipeline.digest", None),
    ("repro.pipeline.config", "digest_payload", "pipeline.digest", None),
    ("repro.pipeline.config", "FlowConfig.slice_for", "pipeline.digest",
     None),
    ("repro.pipeline.store", "ArtifactStore.put_entry", "pipeline.store_put",
     None),
    ("repro.pipeline.store", "ArtifactStore.get_entry", "pipeline.store_get",
     None),
    ("repro.sg.properties", "check_implementability", "sg.check", None),
    ("repro.symbolic.csc", "check_coding_symbolic", "symbolic.coding",
     _coding_counts),
    ("repro.symbolic.csc", "symbolic_reach", "symbolic.reach",
     _reach_counts),
)


def _wrap(function: Callable, layer: str,
          counts: Optional[Callable]) -> Callable:
    name = "layer:" + layer

    @functools.wraps(function)
    def hooked(*args, **kwargs):
        recorder = current()
        if recorder is None:
            return function(*args, **kwargs)
        with recorder.span(name) as record:
            out = function(*args, **kwargs)
            if counts is not None:
                record.set(**counts(out))
            return out

    hooked.perfbench_hook = True
    return hooked


def install() -> List[str]:
    """Wrap every reachable hook target once; returns the missing ones."""
    missing = []
    for module_name, attribute, layer, counts in HOOKS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attribute}")
            continue
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        target = getattr(owner, leaf, None) if owner is not None else None
        if target is None:
            missing.append(f"{module_name}.{attribute}")
            continue
        if not getattr(target, "perfbench_hook", False):
            hooked = _wrap(target, layer, counts)
            if isinstance(inspect.getattr_static(owner, leaf), staticmethod):
                hooked = staticmethod(hooked)
            setattr(owner, leaf, hooked)
    return missing


class LayerTotals:
    """Self time and counts per layer, folded from span trees.

    A span's self time is its wall time minus its children's.  Spans the
    program opens itself (``pipeline``, ``stage:*``, ``frontier:level``,
    ``job``, ...) carry no layer of their own: their self time goes to
    the innermost enclosing ``layer:`` span, or to ``overhead`` when there
    is none.
    """

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Uncovered self time by the program span that holds it.
        self.uncovered: Dict[str, float] = defaultdict(float)

    def add_tree(self, nodes: Iterable[dict], layer: str = "overhead") -> None:
        for node in nodes:
            name = node["name"]
            hooked = name.startswith("layer:")
            own = name[len("layer:"):] if hooked else layer
            children = node.get("children", ())
            own_s = max(0.0, node["wall_s"] - sum(
                child["wall_s"] for child in children))
            self.busy[own] += own_s
            if own == "overhead":
                self.uncovered[name] += own_s
            for key, value in (node.get("attrs", {}) if hooked else {}).items():
                if key.startswith("n_"):
                    self.counts[f"{own}.{key[2:]}"] += value
                elif key.startswith("max_"):
                    full = f"{own}.{key[4:]}"
                    self.counts[full] = max(self.counts[full], value)
            self.add_tree(children, own)

    def covered(self) -> float:
        """Seconds attributed to a named layer."""
        return sum(value for layer, value in self.busy.items()
                   if layer != "overhead")


if __name__ == "__main__":
    install()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
