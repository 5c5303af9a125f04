"""Figure-level cases: the paper's worked examples as registry entries.

Each case regenerates one figure of the paper and pins the exact shape
the figure shows -- state counts, codes, concurrency relations, circuit
structure.  Everything here is deterministic, so nearly every metric is
exact (canonical-payload material); the wall seconds ride along as
tracked trajectory data.
"""

from __future__ import annotations

from ..registry import BenchCase, Check, Metric, register, require


# --------------------------------------------------------------------------
# Fig. 1: the simple memory/processor controller.

def run_fig1(context) -> dict:
    from repro import check_implementability, csc_conflicts, generate_sg
    from repro.encoding.csc import irresolvable_conflicts
    from repro.sg.regions import are_concurrent, excitation_region
    from repro.specs.fig1 import fig1_stg

    seconds, sg = context.best_of(lambda: generate_sg(fig1_stg()))
    report = check_implementability(sg)
    conflicts = csc_conflicts(sg)
    return {
        "states": len(sg),
        "csc_conflicts": report.csc_conflict_count,
        "irresolvable_conflicts": len(irresolvable_conflicts(sg)),
        "analyse_seconds": seconds,
        "consistent": report.consistent,
        "speed_independent": report.speed_independent,
        "codes": sorted(sg.code_string(state) for state in sg.states),
        "er_intersects": bool(excitation_region(sg, "Req+")
                              & excitation_region(sg, "Ack-")),
        "req_ack_concurrent": are_concurrent(sg, "Req+", "Ack-"),
        "conflict_code": list(conflicts[0].code) if conflicts else [],
    }


register(BenchCase(
    name="fig1_controller",
    title="Fig. 1: memory/processor controller state graph",
    tier="quick",
    run=run_fig1,
    metrics=(
        Metric("states", "states"),
        Metric("csc_conflicts", "conflicts"),
        Metric("irresolvable_conflicts", "conflicts"),
        Metric("analyse_seconds", "s", direction="lower", measured=True),
    ),
    checks=(
        Check("five_state_sg", lambda r: require(
            r["states"] == 5, f"expected 5 states, got {r['states']}")),
        Check("consistent_and_si", lambda r: require(
            r["consistent"] and r["speed_independent"],
            "Fig. 1.d must be consistent and speed independent")),
        Check("excitation_codes", lambda r: require(
            "1*1" in r["codes"] and "11*" in r["codes"],
            f"missing excitation codes in {r['codes']}")),
        Check("req_ack_concurrent", lambda r: require(
            r["er_intersects"] and r["req_ack_concurrent"],
            "ER(Req+) and ER(Ack-) must intersect => concurrent")),
        Check("csc_conflict_at_11", lambda r: require(
            r["csc_conflicts"] == 1 and r["conflict_code"] == [1, 1],
            f"expected one CSC conflict at code 11, got "
            f"{r['csc_conflicts']} at {r['conflict_code']}")),
        Check("conflict_beyond_insertion", lambda r: require(
            r["irresolvable_conflicts"] == 1,
            "the Fig. 1 conflict is separated by input events only")),
    ),
    info_keys=("codes",),
    table=lambda r: (("metric", "value"),
                     [("states", r["states"]),
                      ("codes", " ".join(r["codes"])),
                      ("CSC conflicts", r["csc_conflicts"])]),
))


# --------------------------------------------------------------------------
# Fig. 2: handshake expansion of the LR-process.

def run_fig2(context) -> dict:
    from repro import generate_sg
    from repro.hse.expansion import expand_four_phase
    from repro.hse.spec import ChannelRole
    from repro.sg.properties import check_implementability
    from repro.sg.regions import are_concurrent
    from repro.specs.lr import lr_spec

    def expand_both():
        constrained = generate_sg(expand_four_phase(lr_spec()))
        free_spec = lr_spec()
        free_spec.channels["l"] = ChannelRole.FREE
        free_spec.channels["r"] = ChannelRole.FREE
        return constrained, generate_sg(expand_four_phase(free_spec))

    seconds, (constrained, free) = context.best_of(expand_both)
    report = check_implementability(constrained)
    return {
        "states_constrained": len(constrained),
        "states_free": len(free),
        "expand_seconds": seconds,
        "consistent": report.consistent,
        "speed_independent": report.speed_independent,
        "skeleton_sequential": (
            not are_concurrent(constrained, "li+", "ro+")
            and not are_concurrent(constrained, "ro+", "ri+")),
        "interface_respected": (
            not are_concurrent(constrained, "li-", "lo+")
            and not are_concurrent(constrained, "lo-", "li-")),
        "resets_concurrent": (
            are_concurrent(constrained, "li-", "ri-")
            and are_concurrent(constrained, "lo-", "ro-")),
        "free_violates_protocol": are_concurrent(free, "li-", "lo+"),
    }


register(BenchCase(
    name="fig2_lr_expansion",
    title="Fig. 2: LR-process handshake expansion",
    tier="quick",
    run=run_fig2,
    metrics=(
        Metric("states_constrained", "states"),
        Metric("states_free", "states"),
        Metric("expand_seconds", "s", direction="lower", measured=True),
    ),
    checks=(
        Check("constrained_16_states", lambda r: require(
            r["states_constrained"] == 16,
            f"Fig. 2.f has 16 states, got {r['states_constrained']}")),
        Check("consistent_and_si", lambda r: require(
            r["consistent"] and r["speed_independent"],
            "the constrained expansion must be consistent and SI")),
        Check("skeleton_sequential", lambda r: require(
            r["skeleton_sequential"], "li+ -> ro+ -> ri+ must be ordered")),
        Check("interface_respected", lambda r: require(
            r["interface_respected"],
            "passive-port constraint [li+, lo+, li-, lo-] violated")),
        Check("resets_concurrent", lambda r: require(
            r["resets_concurrent"],
            "cross-channel reset concurrency must survive")),
        Check("free_expansion_larger", lambda r: require(
            r["states_free"] > r["states_constrained"]
            and r["free_violates_protocol"],
            "Fig. 2.e must admit strictly more behaviour")),
    ),
    table=lambda r: (("expansion", "states"),
                     [("Fig. 2.f (constrained)", r["states_constrained"]),
                      ("Fig. 2.e (free)", r["states_free"])]),
))


# --------------------------------------------------------------------------
# Fig. 3: the LR-process implementations as circuits.

def run_fig3(context) -> dict:
    from repro import FlowConfig, generate_sg, run_pipeline
    from repro.logic.minimize import logic_work
    from repro.specs.lr import TABLE1_ROWS, lr_expanded, q_module_stg

    def build():
        before = logic_work()["primes"]
        sg = generate_sg(lr_expanded())
        results = {
            "full": run_pipeline(TABLE1_ROWS["Full reduction"],
                                 initial_sg=sg, name="full"),
            "max": run_pipeline(TABLE1_ROWS["Max. concurrency"],
                                initial_sg=sg, name="max"),
            "q": run_pipeline(FlowConfig(strategy="none"),
                              stg=q_module_stg(), name="q"),
        }
        return results, logic_work()["primes"] - before

    # Every round starts cold, so ``primes`` is the same in each.
    seconds, (results, primes) = context.best_of(build)
    circuits = {name: result.circuit() for name, result in results.items()}
    mentioned = " ".join(circuits["max"].equations.values())
    return {
        "full_area": circuits["full"].area,
        "max_area": circuits["max"].area,
        "q_area": circuits["q"].area,
        "max_csc_signals": len(results["max"].insertions()),
        "q_csc_signals": len(results["q"].insertions()),
        "primes": primes,
        "synthesis_seconds": seconds,
        "full_equations": dict(circuits["full"].equations),
        "state_signal_in_support": any(signal in mentioned
                                       for signal in ("csc0", "csc1")),
        "q_sequential": bool(circuits["q"].netlist.sequential_gates()
                             or circuits["q"].area > 0),
        "equations": [(name, circuit.style_of(signal), equation)
                      for name, circuit in circuits.items()
                      for signal, equation
                      in sorted(circuit.equations.items())],
    }


register(BenchCase(
    name="fig3_implementations",
    title="Fig. 3: LR implementations",
    tier="quick",
    run=run_fig3,
    metrics=(
        Metric("full_area", "literals", direction="lower"),
        Metric("max_area", "literals", direction="lower"),
        Metric("q_area", "literals", direction="lower"),
        Metric("max_csc_signals", "signals"),
        Metric("q_csc_signals", "signals"),
        Metric("primes", "primes", direction="lower"),
        Metric("synthesis_seconds", "s", direction="lower", measured=True),
    ),
    checks=(
        Check("full_is_two_wires", lambda r: require(
            r["full_equations"] == {"lo": "lo = ri", "ro": "ro = li"}
            and r["full_area"] == 0,
            f"Fig. 3.b must be two plain wires, got {r['full_equations']}")),
        Check("max_carries_state_signals", lambda r: require(
            r["max_csc_signals"] == 2 and r["state_signal_in_support"],
            "Fig. 3.c/d needs 2 CSC signals feeding the output logic")),
        Check("q_module_sequential", lambda r: require(
            r["q_csc_signals"] == 1 and r["q_sequential"],
            "Fig. 3.a needs one state signal and a sequential cell")),
    ),
    table=lambda r: (("design", "style", "equation"), r["equations"]),
))


# --------------------------------------------------------------------------
# Fig. 6: 2-phase and 4-phase refinement of a mixed specification.

def run_fig6(context) -> dict:
    from repro import generate_sg
    from repro.hse.expansion import expand_four_phase, expand_two_phase
    from repro.sg.properties import check_implementability
    from repro.specs.fragments import fig6_spec

    def refine_both():
        two = generate_sg(expand_two_phase(fig6_spec()))
        four = generate_sg(expand_four_phase(fig6_spec()))
        return two, four

    seconds, (two, four) = context.best_of(refine_both)
    report2 = check_implementability(two)
    report4 = check_implementability(four)
    b_plus = sum(1 for _, label, _ in four.arcs()
                 if label in ("b+", "b+/1"))
    b_minus = sum(1 for _, label, _ in four.arcs() if label == "b-")
    return {
        "states_two_phase": len(two),
        "states_four_phase": len(four),
        "refine_seconds": seconds,
        "two_phase_events_ok": (
            {"ai~", "ao~", "b~", "b~/1", "c+", "c-"} <= set(two.events)),
        "four_phase_events_ok": (
            {"ai+", "ai-", "ao+", "ao-", "b+", "b+/1", "b-", "c+", "c-"}
            <= set(four.events)),
        "two_phase_sound": report2.consistent and report2.deadlock_free,
        "four_phase_sound": (report4.consistent and report4.speed_independent
                             and report4.deadlock_free),
        "b_plus_arcs": b_plus,
        "b_minus_arcs": b_minus,
    }


register(BenchCase(
    name="fig6_refinement",
    title="Fig. 6: 2-phase and 4-phase refinement",
    tier="quick",
    run=run_fig6,
    metrics=(
        Metric("states_two_phase", "states"),
        Metric("states_four_phase", "states"),
        Metric("refine_seconds", "s", direction="lower", measured=True),
    ),
    checks=(
        Check("two_phase_toggles", lambda r: require(
            r["two_phase_events_ok"] and r["two_phase_sound"],
            "the 2-phase refinement must toggle and stay sound")),
        Check("four_phase_rtz", lambda r: require(
            r["four_phase_events_ok"] and r["four_phase_sound"],
            "the 4-phase refinement must add return-to-zero and stay SI")),
        Check("reset_concurrency_grows_sg", lambda r: require(
            r["states_four_phase"] > 6,
            "the 4-phase SG must exceed the sequential skeleton")),
        Check("b_fires_twice_per_cycle", lambda r: require(
            r["b_plus_arcs"] >= 2 and r["b_minus_arcs"] >= 2,
            "b must fire twice per cycle through one shared b-")),
    ),
    table=lambda r: (("refinement", "states"),
                     [("2-phase (Fig. 6.b)", r["states_two_phase"]),
                      ("4-phase (Fig. 6.c)", r["states_four_phase"])]),
))


# --------------------------------------------------------------------------
# Fig. 8: the forward-reduction worked example.

def run_fig8(context) -> dict:
    from repro.reduction.fwdred import forward_reduction
    from repro.reduction.validity import check_validity
    from repro.sg.regions import are_concurrent, excitation_region
    from repro.specs.fragments import fig8_sg

    def apply_fwdred():
        sg = fig8_sg()
        return sg, forward_reduction(sg, "a", "b")

    seconds, (sg, result) = context.best_of(apply_fwdred)
    reduced = result.sg
    return {
        "removed_arcs": result.removed_arcs,
        "removed_states": result.removed_states,
        "er_a_before": len(excitation_region(sg, "a")),
        "er_a_after": len(excitation_region(reduced, "a")),
        "fwdred_seconds": seconds,
        "valid": result.valid and check_validity(sg, reduced).valid,
        "er_before_exact": excitation_region(sg, "a")
        == {"s1", "s3", "s5", "s7"},
        "er_after_exact": excitation_region(reduced, "a") == {"s7"},
        "dead_states_gone": {"s2", "s4", "s6"}.isdisjoint(set(reduced.states)),
        "concurrency_removed": all(
            are_concurrent(sg, "a", other)
            and not are_concurrent(reduced, "a", other)
            for other in ("b", "d", "e")),
        "choice_branch_intact": reduced.target("s1", "g") == "t1",
    }


register(BenchCase(
    name="fig8_fwdred",
    title="Fig. 8: forward reduction FwdRed(a, b)",
    tier="quick",
    run=run_fig8,
    metrics=(
        Metric("removed_arcs", "arcs"),
        Metric("removed_states", "states"),
        Metric("er_a_before", "states"),
        Metric("er_a_after", "states"),
        Metric("fwdred_seconds", "s", direction="lower", measured=True),
    ),
    checks=(
        Check("reduction_valid", lambda r: require(
            r["valid"], "Definition 5.1 must hold for FwdRed(a, b)")),
        Check("er_truncated", lambda r: require(
            r["er_before_exact"] and r["er_after_exact"]
            and r["removed_arcs"] == 3,
            "the backward sweep must truncate ER(a) to {s7}")),
        Check("dead_states_gone", lambda r: require(
            r["removed_states"] == 3 and r["dead_states_gone"],
            "s2, s4, s6 must die with their only incoming arcs")),
        Check("concurrency_side_effects", lambda r: require(
            r["concurrency_removed"],
            "reducing (a, b) must also serialize a against d and e")),
        Check("choice_branch_intact", lambda r: require(
            r["choice_branch_intact"], "the g branch must survive")),
    ),
    table=lambda r: (("metric", "value"),
                     [("removed arcs", r["removed_arcs"]),
                      ("removed states", r["removed_states"]),
                      ("|ER(a)| before -> after",
                       f"{r['er_a_before']} -> {r['er_a_after']}")]),
))


# --------------------------------------------------------------------------
# Fig. 10: the PAR component case study.

def run_fig10(context) -> dict:
    from repro import FlowConfig, generate_sg, run_pipeline
    from repro.reduction.fwdred import reduction_work
    from repro.sg.regions import are_concurrent
    from repro.specs.par import FIG10_ROWS, par_expanded, par_manual_stg
    from repro.timing.critical_cycle import critical_cycle
    from repro.timing.delays import gate_level_delays

    def gate_cycle(result):
        sequential = {signal
                      for signal, impl in result.circuit().signals.items()
                      if impl.netlist.sequential_gates()}
        model = gate_level_delays(result.resolved_sg(), sequential)
        return critical_cycle(result.resolved_sg(), model).cycle_time

    def build():
        manual = run_pipeline(FlowConfig(strategy="none"),
                              stg=par_manual_stg(), name="manual (Tangram)")
        sg = generate_sg(par_expanded())
        before = reduction_work()
        auto = run_pipeline(FIG10_ROWS["automatic"], initial_sg=sg,
                            name="automatic")
        work = {key: value - before[key]
                for key, value in reduction_work().items()}
        return sg, work, manual, auto

    # Every round starts cold, so the work counts are the same in each.
    seconds, (sg, work, manual, auto) = context.best_of(build)
    manual_cycle, auto_cycle = gate_cycle(manual), gate_cycle(auto)
    auto_area, manual_area = auto.circuit().area, manual.circuit().area
    return {
        "expansion_states": len(sg),
        "explored": auto.reduction_stats().explored,
        "fwdred_steps": work["steps"],
        "fwdred_walks": work["walks"],
        "covers_computed": work["covers"],
        "materialized": work["materialized"],
        "scored": work["scored"],
        "auto_area": auto_area,
        "manual_area": manual_area,
        "auto_csc_signals": len(auto.insertions()),
        "area_ratio": auto_area / manual_area,
        "cycle_ratio": auto_cycle / manual_cycle,
        "build_seconds": seconds,
        "resolved": manual.csc_resolved() and auto.csc_resolved(),
        "constraint_kept": are_concurrent(auto.resolved_sg(), "bi+", "ci+"),
        "auto_equations": sorted(auto.circuit().equations.values()),
    }


register(BenchCase(
    name="fig10_par",
    title="Fig. 10: PAR component (automatic vs Tangram)",
    tier="full",
    run=run_fig10,
    metrics=(
        Metric("expansion_states", "states"),
        Metric("explored", "configs"),
        Metric("fwdred_steps", "steps", direction="lower"),
        Metric("fwdred_walks", "walks", direction="lower"),
        Metric("covers_computed", "covers", direction="lower"),
        Metric("materialized", "graphs", direction="lower"),
        Metric("scored", "configs"),
        Metric("auto_area", "literals", direction="lower"),
        Metric("manual_area", "literals"),
        Metric("auto_csc_signals", "signals"),
        Metric("area_ratio", "ratio", direction="lower"),
        Metric("cycle_ratio", "ratio"),
        Metric("build_seconds", "s", direction="lower", measured=True),
    ),
    checks=(
        Check("expansion_76_states", lambda r: require(
            r["expansion_states"] == 76,
            f"Fig. 10.b has 76 states, got {r['expansion_states']}")),
        Check("both_resolved_no_csc", lambda r: require(
            r["resolved"] and r["auto_csc_signals"] == 0,
            "the automatic design needs no state signal (Fig. 10.d)")),
        Check("semantic_constraint_kept", lambda r: require(
            r["constraint_kept"], "b? || c? must survive the reduction")),
        Check("auto_smaller_than_manual", lambda r: require(
            r["auto_area"] < r["manual_area"],
            f"automatic ({r['auto_area']}) must beat manual "
            f"({r['manual_area']}) on area")),
        Check("auto_pays_in_cycle_time", lambda r: require(
            r["cycle_ratio"] >= 1.0,
            "balanced gate-level delays must favour the manual design")),
    ),
    info_keys=("auto_equations",),
    table=lambda r: (("design", "area", "gate-level cycle ratio"),
                     [("manual (Fig 10.c/f)", r["manual_area"], "1.00"),
                      ("automatic (Fig 10.d/e)", r["auto_area"],
                       f"{r['cycle_ratio']:.2f}")]),
))
