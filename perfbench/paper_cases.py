"""Workload ``paper_cases``: the paper's own rows, each design point verified.

Table 1 (LR process), Table 2 (MMU controller) and Fig. 10 (PAR, automatic
and Tangram manual), every point with ``verify=True`` and every point
starting from ``repro.engine.clear_caches()`` like a fresh ``repro synth``.
Rows whose search knob ``FlowConfig`` lacks (``patience``,
``CostFunction.csc_scale``) run ``reduce_concurrency`` themselves and hand
the result to ``run_pipeline(FlowConfig(strategy="none"), initial_sg=...)``.

The search layers do most of the work here: the 4,000-configuration PAR
search, the MMU reductions with their resolves, and the MMU synthesis.
The inputs are the paper's own, so the seed changes nothing here; the
points run in the paper's order, which also keeps the peak memory
reading reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import repro.pipeline as pipeline
from repro.reduction.cost import CostFunction
import repro.hse.expansion as expansion
import repro.reduction.explore as reduction
import repro.sg.generator as generator
from repro.specs import lr, mmu, par

from common import Leg, Outcome, another_pass, check, run_item
from layers import LayerTotals

#: QoR of the same rows in the committed ``BENCH_baseline.json``; a
#: point may match or beat these, never exceed them.
BASELINE = {"table1_total_area": 704.0, "table2_best_reduced_area": 152.0,
            "fig10_auto_area": 64.0, "fig10_manual_area": 80.0}

#: The one row expected to stay unresolved: the unreduced MMU.  It runs
#: one level of the insertion search (about 2 s here) rather than the
#: three levels (21-52 s) that end unresolved anyway; see NOTES.md.
UNRESOLVED_OK = "table2 original"
UNRESOLVED_MAX_SIGNALS = 1

#: Points faster than this run once more after the pass and count with
#: the mean of their two tries, so the median point time rests on two
#: readings.
REPEAT_UNDER_S = 1.5
REPEATS = 1


@dataclass(frozen=True)
class Point:
    """One design point: a label and the call that evaluates it."""

    name: str
    run: Callable[[], Tuple[object, Optional[int]]]


def _config(**knobs) -> pipeline.FlowConfig:
    return pipeline.FlowConfig.create(verify=True, **knobs)


def _pipeline(name: str, config: pipeline.FlowConfig, **entry):
    result = pipeline.run_pipeline(config, name=name, **entry)
    return result, result.results["generate"].payload["states"]


def _searched(name: str, spec_factory, **search):
    """Generate, search with knobs ``FlowConfig`` lacks, then implement."""
    def run():
        sg = generator.generate_sg(expansion.expand(spec_factory()))
        best = reduction.reduce_concurrency(sg, **search).best
        result = pipeline.run_pipeline(_config(strategy="none"),
                                       initial_sg=best, name=name)
        return result, len(sg)
    return Point(name, run)


def _front_door(name: str, config: pipeline.FlowConfig,
                **entry) -> Point:
    return Point(name, lambda: _pipeline(name, config, **entry))


def build_points() -> List[Point]:
    """Every row of Table 1, Table 2 and Fig. 10."""
    points = [
        _front_door("table1 Q-module (hand)", _config(strategy="none"),
                    stg=lr.q_module_stg()),
        _front_door("table1 Full reduction", _config(strategy="full"),
                    spec=lr.lr_spec()),
        _front_door("table1 Max. concurrency", _config(strategy="none"),
                    spec=lr.lr_spec()),
    ]
    for name, keep in lr.TABLE1_KEEP_CONC.items():
        points.append(_front_door(f"table1 {name}",
                                  _config(strategy="full", keep_conc=keep),
                                  spec=lr.lr_spec()))
    points += [
        _front_door(UNRESOLVED_OK,
                    _config(strategy="none",
                            max_csc_signals=UNRESOLVED_MAX_SIGNALS),
                    spec=mmu.mmu_spec()),
        _searched("table2 original reduced", mmu.mmu_spec,
                  max_explored=400, patience=200),
        _searched("table2 csc reduced", mmu.mmu_spec,
                  cost_function=CostFunction(weight=0.05, csc_scale=100.0),
                  max_explored=1200, patience=10**9),
    ]
    for name, channels in mmu.TABLE2_KEEP_CONC.items():
        points.append(_front_door(
            f"table2 {name}",
            _config(strategy="full", size_frontier=3,
                    keep_conc=mmu.keep_conc_for(channels)),
            spec=mmu.mmu_spec()))
    points += [
        _front_door("fig10 manual (Tangram)", _config(strategy="none"),
                    stg=par.par_manual_stg()),
        _searched("fig10 automatic", par.par_spec,
                  keep_conc=par.PAR_KEEP_CONC, max_explored=4000,
                  patience=10**9),
    ]
    return points


def setup(seed: int) -> List[Point]:
    """The workload's inputs: the paper's points, whatever the seed."""
    return build_points()


def _point_checks(name: str, result, states: int) -> List[str]:
    problems: List[str] = []
    circuit = result.circuit()
    verdict = result.verification().verdict
    if circuit is None:
        problems += check(name == UNRESOLVED_OK,
                          "no circuit (CSC unresolved)")
        problems += check(verdict == "skipped", f"verdict {verdict}")
    else:
        problems += check(verdict == "conforming", f"verdict {verdict}")
    if name == UNRESOLVED_OK:
        problems += check(states == 264, f"MMU has {states} states, not 264")
    if name == "fig10 automatic":
        problems += check(states == 76, f"PAR has {states} states, not 76")
    if name == "table1 Full reduction":
        problems += check(circuit is not None and circuit.area == 0
                          and not result.insertions(),
                          "full reduction is not two wires")
    return problems


def _area(result) -> Optional[float]:
    circuit = result.circuit()
    return None if circuit is None else circuit.area


def _pass_checks(results: Dict[str, object]) -> Dict[str, List[str]]:
    """The shape checks across rows, keyed by the row they charge."""
    table1 = [_area(r) for n, r in results.items() if n.startswith("table1")]
    reduced = [_area(r) for n, r in results.items()
               if n.startswith("table2") and n != UNRESOLVED_OK]
    auto = _area(results["fig10 automatic"])
    manual = _area(results["fig10 manual (Tangram)"])
    return {
        "table1 Max. concurrency": check(
            None not in table1
            and sum(table1) <= BASELINE["table1_total_area"],
            f"Table 1 total area {table1} above baseline"),
        "table2 csc reduced": check(
            None not in reduced
            and min(reduced) <= BASELINE["table2_best_reduced_area"],
            f"Table 2 best reduced area {reduced} above baseline"),
        "fig10 automatic": check(
            auto is not None and manual is not None and auto < manual
            and auto <= BASELINE["fig10_auto_area"]
            and manual <= BASELINE["fig10_manual_area"],
            f"Fig. 10 automatic {auto} vs manual {manual}"),
    }


def _qor(results: Dict[str, object]) -> Dict[str, float]:
    area = csc = cycle = 0.0
    for result in results.values():
        if result.circuit() is None:
            continue
        area += result.circuit().area
        csc += len(result.insertions())
        cycle += result.cycle().cycle_time
    return {"qor.area_literals": area, "qor.csc_signals": csc,
            "qor.cycle_time": cycle}


def measure(points: List[Point], seed: int, seconds: float,
            outcome: Outcome, traced: bool = False,
            passes: Optional[int] = None) -> Leg:
    """Whole passes over the points while time allows (or exactly
    ``passes``), then the repeats of short points; traced legs fold layer
    spans."""
    leg = Leg(layers=LayerTotals() if traced else None)
    started = time.perf_counter()
    done = 0
    while another_pass(started, done, seconds, passes):
        results: Dict[str, object] = {}
        problems: Dict[str, List[str]] = {}
        for point in points:
            result, states = run_item(leg, point.name, point.run)
            results[point.name] = result
            problems[point.name] = _point_checks(point.name, result, states)
        for name, extra in _pass_checks(results).items():
            problems[name] += extra
        for point in points:
            outcome.item(point.name, problems[point.name])
        done += 1
    short = [point for point in points
             if min(leg.by_kind[point.name]) < REPEAT_UNDER_S]
    for _ in range(REPEATS):
        for point in short:
            run_item(leg, point.name, point.run)
    leg.extras = {**_qor(results), "engine.cache_entries": leg.cache_entries,
                  "passes": done}
    return leg
