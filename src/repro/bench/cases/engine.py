"""Engine scaling: throughput of the packed-bitvector state-graph engine.

Measures the hot paths the exploration loop lives in -- SG generation
(states/sec, now the shared vectorized frontier of :mod:`repro.explore`)
and concurrency-reduction search (explored configurations/sec) -- on the
lr/mmu/par suites plus the full ablation-search sweep, anchored against
the seed revision's numbers in ``benchmarks/baseline_seed.json``
(captured on the same machine class before the engine work).  The
scaling behaviour past these few-hundred-state suites lives in the
``frontier_scaling`` case (:mod:`repro.bench.cases.frontier`).  The cache-soundness and determinism claims are
checks: the engine's memo tables must be pure caches (byte-identical
synthesis outputs with the engine on and off) and two consecutive runs
must produce byte-identical fingerprints.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..registry import BenchCase, Check, CheckFailed, CheckSkipped, Metric, register

SPEEDUP_FLOOR = 3.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _seed_baseline() -> dict:
    # Resolved relative to the repository root (src/repro/bench/cases ->
    # four parents up); installed trees without the benchmarks/ directory
    # simply lose the speedup-vs-seed anchor.
    root = Path(__file__).resolve()
    for parent in root.parents:
        candidate = parent / "benchmarks" / "baseline_seed.json"
        if candidate.exists():
            return json.loads(candidate.read_text())
    return {}


def _ablation_sweep():
    """The exact workload of the ablation-search case's sweep."""
    from repro import generate_sg, reduce_concurrency
    from repro.specs.lr import lr_expanded

    sg = generate_sg(lr_expanded())
    results = {}
    for width in (1, 2, 4, 8):
        results[f"beam w={width}"] = reduce_concurrency(
            sg, strategy="beam", size_frontier=width)
    results["best-first"] = reduce_concurrency(sg)
    for weight in (0.0, 0.5, 1.0):
        results[f"W={weight}"] = reduce_concurrency(sg, weight=weight)
    return results


def _report_fingerprint(name, sg) -> str:
    """Implement ``sg`` as-is and dump every synthesis output."""
    from repro import FlowConfig, run_pipeline

    result = run_pipeline(FlowConfig(strategy="none"), initial_sg=sg,
                          name=name)
    insertions = result.insertions()
    circuit = result.circuit()
    lines = [f"design {name}",
             f"csc_resolved {result.csc_resolved()}",
             f"csc_signals {len(insertions)}"]
    for choice in insertions:
        lines.append(f"insertion {choice.signal} {choice.style} "
                     f"rise_after={choice.rise_trigger} "
                     f"fall_after={choice.fall_trigger} "
                     f"init={choice.initial_value}")
    if circuit is not None:
        for signal, impl in circuit.signals.items():
            covers = " ".join(
                f"{kind}=[{cover}]"
                for kind, cover in (("cover", impl.cover),
                                    ("set", impl.set_cover),
                                    ("reset", impl.reset_cover))
                if cover is not None)
            lines.append(f"signal {signal} style={impl.style} "
                         f"eq={impl.equation} {covers}")
        lines.append(circuit.netlist.to_verilog_like())
    return "\n".join(lines)


def _synthesis_fingerprint() -> str:
    """Canonical dump of the synthesis outputs over the three suites."""
    from repro import full_reduction, generate_sg, reduce_concurrency
    from repro.specs.lr import TABLE1_KEEP_CONC, lr_expanded
    from repro.specs.mmu import mmu_expanded
    from repro.specs.par import par_expanded

    parts = []
    lr_sg = generate_sg(lr_expanded())
    parts.append(_report_fingerprint("lr/full", full_reduction(lr_sg)))
    parts.append(_report_fingerprint("lr/max", lr_sg))
    for pair_name, keep in TABLE1_KEEP_CONC.items():
        reduced = full_reduction(lr_sg, keep_conc=keep)
        parts.append(_report_fingerprint(f"lr/{pair_name}", reduced))
    for name, spec in (("mmu", mmu_expanded), ("par", par_expanded)):
        sg = generate_sg(spec())
        parts.append(_report_fingerprint(name,
                                         reduce_concurrency(sg).best))
    return "\n".join(parts)


def run_engine_scaling(context) -> dict:
    from repro import engine, generate_sg, reduce_concurrency
    from repro.specs.lr import lr_expanded
    from repro.specs.mmu import mmu_expanded
    from repro.specs.par import par_expanded

    suites = []
    caches_sound = True
    for name, spec in (("lr", lr_expanded), ("mmu", mmu_expanded),
                       ("par", par_expanded)):
        stg = spec()
        generate_seconds, sg = context.best_of(lambda: generate_sg(stg))
        explore_seconds, result = context.best_of(
            lambda: reduce_concurrency(sg))
        engine.set_packed_memo(False)
        explore_seconds_off, result_off = context.best_of(
            lambda: reduce_concurrency(sg))
        engine.set_packed_memo(True)
        caches_sound &= (result_off.best_cost == result.best_cost
                         and result_off.best.signature()
                         == result.best.signature())
        suites.append({
            "suite": name,
            "states": len(sg),
            "arcs": sg.arc_count(),
            "generate_seconds": generate_seconds,
            "states_per_second": len(sg) / generate_seconds
            if generate_seconds else 0.0,
            "explore_seconds": explore_seconds,
            "explore_seconds_caches_off": explore_seconds_off,
            "explored": result.explored_count,
            "explored_per_second": result.explored_count / explore_seconds
            if explore_seconds else 0.0,
            "best_cost": result.best_cost,
        })

    sweep_seconds, _ = context.best_of(_ablation_sweep)
    engine.set_packed_memo(False)
    sweep_seconds_off, _ = context.best_of(_ablation_sweep)
    fingerprint_off = _synthesis_fingerprint()
    engine.set_packed_memo(True)
    fingerprint_on = _synthesis_fingerprint()
    fingerprint_repeat = _synthesis_fingerprint()

    by_suite = {s["suite"]: s for s in suites}
    result = {
        "suites": suites,
        "suite_names": [s["suite"] for s in suites],
        "lr_states": by_suite["lr"]["states"],
        "mmu_states": by_suite["mmu"]["states"],
        "par_states": by_suite["par"]["states"],
        "lr_explored": by_suite["lr"]["explored"],
        "mmu_explored": by_suite["mmu"]["explored"],
        "par_explored": by_suite["par"]["explored"],
        "lr_best_cost": by_suite["lr"]["best_cost"],
        "mmu_best_cost": by_suite["mmu"]["best_cost"],
        "par_best_cost": by_suite["par"]["best_cost"],
        "lr_states_per_second": by_suite["lr"]["states_per_second"],
        "mmu_states_per_second": by_suite["mmu"]["states_per_second"],
        "par_states_per_second": by_suite["par"]["states_per_second"],
        "lr_explored_per_second": by_suite["lr"]["explored_per_second"],
        "mmu_explored_per_second": by_suite["mmu"]["explored_per_second"],
        "par_explored_per_second": by_suite["par"]["explored_per_second"],
        "ablation_sweep_seconds": sweep_seconds,
        "ablation_sweep_seconds_caches_off": sweep_seconds_off,
        "total_explore_seconds": sum(s["explore_seconds"] for s in suites),
        "outputs_identical_caches_on_off":
            caches_sound and fingerprint_on == fingerprint_off,
        "deterministic_repeat": fingerprint_on == fingerprint_repeat,
    }

    baseline = _seed_baseline()
    result["seed_baseline_found"] = bool(baseline)
    # Anchor-less trees (no repo checkout) report 0.0 speedups; the
    # seed_speedup_floor check skips there, so nothing gates on them.
    result["speedup_vs_seed_ablation"] = 0.0
    result["speedup_vs_seed_total_explore"] = 0.0
    for suite in suites:
        result[f"speedup_vs_seed_explored_{suite['suite']}"] = 0.0
    if baseline:
        result["speedup_vs_seed_ablation"] = (
            baseline["ablation_sweep_seconds"] / sweep_seconds
            if sweep_seconds else 0.0)
        result["speedup_vs_seed_total_explore"] = (
            baseline["total_explore_seconds"]
            / result["total_explore_seconds"]
            if result["total_explore_seconds"] else 0.0)
        seed_suites = {s["suite"]: s for s in baseline.get("suites", [])}
        for suite in suites:
            seed = seed_suites.get(suite["suite"])
            if seed is None:
                continue
            seed_rate = seed["explored"] / seed["explore_seconds"]
            result[f"speedup_vs_seed_explored_{suite['suite']}"] = (
                suite["explored_per_second"] / seed_rate if seed_rate
                else 0.0)
    return result


def _check_seed_speedup(result: dict) -> None:
    if not result["seed_baseline_found"]:
        raise CheckSkipped("benchmarks/baseline_seed.json not found "
                           "(installed tree without the repo checkout)")
    _require(result["speedup_vs_seed_ablation"] >= SPEEDUP_FLOOR,
             f"ablation sweep must stay >= {SPEEDUP_FLOOR}x over the "
             f"seed, got {result['speedup_vs_seed_ablation']:.2f}x")


register(BenchCase(
    name="engine_scaling",
    title="Engine scaling (packed-bitvector state engine)",
    tier="full",
    run=run_engine_scaling,
    metrics=(
        Metric("lr_states", "states"),
        Metric("mmu_states", "states"),
        Metric("par_states", "states"),
        Metric("lr_explored", "configs"),
        Metric("mmu_explored", "configs"),
        Metric("par_explored", "configs"),
        Metric("lr_best_cost", "cost", direction="lower"),
        Metric("mmu_best_cost", "cost", direction="lower"),
        Metric("par_best_cost", "cost", direction="lower"),
        Metric("lr_states_per_second", "states/s", direction="higher",
               measured=True),
        Metric("mmu_states_per_second", "states/s", direction="higher",
               measured=True),
        Metric("par_states_per_second", "states/s", direction="higher",
               measured=True),
        Metric("lr_explored_per_second", "configs/s", direction="higher",
               measured=True),
        Metric("mmu_explored_per_second", "configs/s", direction="higher",
               measured=True),
        Metric("par_explored_per_second", "configs/s", direction="higher",
               measured=True),
        Metric("ablation_sweep_seconds", "s", direction="lower",
               measured=True),
        Metric("ablation_sweep_seconds_caches_off", "s", direction="lower",
               measured=True),
        Metric("total_explore_seconds", "s", direction="lower",
               measured=True),
        Metric("speedup_vs_seed_ablation", "x", direction="higher",
               measured=True, gated=True, tolerance=0.6),
        Metric("speedup_vs_seed_total_explore", "x", direction="higher",
               measured=True),
        Metric("speedup_vs_seed_explored_lr", "x", direction="higher",
               measured=True),
        Metric("speedup_vs_seed_explored_mmu", "x", direction="higher",
               measured=True),
        Metric("speedup_vs_seed_explored_par", "x", direction="higher",
               measured=True),
    ),
    checks=(
        Check("caches_are_pure", lambda r: _require(
            r["outputs_identical_caches_on_off"],
            "synthesis outputs must be byte-identical caches on/off")),
        Check("deterministic_repeat", lambda r: _require(
            r["deterministic_repeat"],
            "two fingerprint passes must be byte-identical")),
        Check("seed_speedup_floor", _check_seed_speedup),
    ),
    info_keys=("suite_names",),
    table=lambda r: (
        ("suite", "states", "gen states/s", "explore ms", "explored cfg/s"),
        [(s["suite"], s["states"], f"{s['states_per_second']:,.0f}",
          f"{s['explore_seconds'] * 1e3:.1f}",
          f"{s['explored_per_second']:,.0f}") for s in r["suites"]]),
))
