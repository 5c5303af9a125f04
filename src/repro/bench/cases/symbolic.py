"""Symbolic engine: the state-explosion crossover.

The headline claim of the symbolic core: past ~10^5 states the explicit
engines hit the wall the paper describes, while the BDD engine's cost
follows the *structure* of the reachable set.  This case pins that
crossover on ``micropipeline_chain_6`` -- 2^20 = 1,048,576 reachable
states:

* the packed explicit engine must exceed a 250k-state budget with a
  structured :class:`~repro.explore.budget.BudgetExceedance`, and
* the full symbolic USC/CSC check (reachability *and* the coding
  self-product) must complete on the same instance inside a 2M-node
  BDD budget, with exact, hash-seed-independent state/pair/node counts.

A states-vs-seconds curve over smaller family instances (both engines,
same machine, same run) records where the crossover sits on this
hardware, and a parity leg byte-compares the canonical coding payloads
of the explicit and symbolic engines on instances small enough to
enumerate.
"""

from __future__ import annotations

import json

from ..registry import BenchCase, Check, CheckFailed, Metric, register, require

#: The crossover instance and its closed-form state count.
CROSSOVER = "micropipeline_chain_6"
CROSSOVER_STATES = 2 ** (3 * 6 + 2)
#: The budget the explicit engine must exceed (states)...
BUDGET_STATES = 250_000
#: ...and the one the symbolic coding check must stay inside (BDD nodes).
BUDGET_NODES = 2_000_000

#: The states-vs-seconds curve: (family member, closed-form states).
CURVE = (
    ("counter_4", 2 ** 9),
    ("fifo_chain_6", 3 ** 7 + 1),
    ("micropipeline_chain_4", 2 ** 14),
)

#: Instances small enough to byte-compare explicit vs symbolic payloads.
PARITY = ("fifo_chain_2", "counter_2", "arbiter_tree_2")


def run_symbolic_scaling(context) -> dict:
    from repro.explore.budget import ExplorationBudget
    from repro.sg.generator import GenerationBudgetError, generate_sg
    from repro.sg.properties import check_coding
    from repro.specs.families import load_family
    from repro.symbolic import encode_stg, symbolic_reach

    # -- crossover leg: explicit wall vs symbolic completion ----------
    crossover = load_family(CROSSOVER)

    def explicit_wall():
        try:
            generate_sg(crossover,
                        budget=ExplorationBudget(max_states=BUDGET_STATES))
        except GenerationBudgetError as error:
            return error.exceedance
        raise CheckFailed(
            f"the packed engine cleared {CROSSOVER} inside "
            f"{BUDGET_STATES} states; the crossover instance must be "
            "beyond the explicit budget")

    packed_seconds, exceedance = context.best_of(explicit_wall, rounds=1)
    symbolic_seconds, coding = context.best_of(
        lambda: check_coding(
            crossover, engine="symbolic",
            budget=ExplorationBudget(max_nodes=BUDGET_NODES)),
        rounds=1)

    # -- curve leg: both engines over the family ladder ----------------
    # Wall times go to the printed table only: ``curve`` is canonical info
    # and must be identical across runs of one revision.
    curve = []
    curve_seconds = []
    for member, want_states in CURVE:
        stg = load_family(member)
        explicit_seconds, sg = context.best_of(
            lambda stg=stg: generate_sg(stg), rounds=1)
        reach_seconds, run = context.best_of(
            lambda stg=stg: symbolic_reach(encode_stg(stg)), rounds=1)
        curve.append({
            "family": member,
            "states": want_states,
            "explicit_states": len(sg),
            "symbolic_states": run.state_count,
            "symbolic_nodes": run.node_count,
            "symbolic_levels": run.levels,
        })
        curve_seconds.append((explicit_seconds, reach_seconds))

    # -- parity leg: canonical coding payloads byte-compare ------------
    parity_ok = True
    for member in PARITY:
        stg = load_family(member)
        explicit = json.dumps(
            check_coding(stg, engine="auto").to_payload(), sort_keys=True)
        symbolic = json.dumps(
            check_coding(stg, engine="symbolic").to_payload(),
            sort_keys=True)
        if explicit != symbolic:
            parity_ok = False

    return {
        "crossover": CROSSOVER,
        "budget_states": BUDGET_STATES,
        "budget_nodes": BUDGET_NODES,
        "exceedance": exceedance.to_payload(),
        "packed_seconds": packed_seconds,
        "crossover_states": coding.states,
        "crossover_usc_pairs": coding.usc_pair_count,
        "crossover_csc_conflicts": coding.csc_conflict_count,
        "crossover_usc": coding.usc,
        "crossover_csc": coding.csc,
        "crossover_consistent": coding.consistent,
        "crossover_truncated": coding.truncated,
        "crossover_nodes": coding.bdd_nodes,
        "symbolic_seconds": symbolic_seconds,
        "symbolic_states_per_sec": (coding.states / symbolic_seconds
                                    if symbolic_seconds else 0.0),
        "curve": curve,
        "curve_seconds": curve_seconds,
        "parity_ok": parity_ok,
        "parity_members": list(PARITY),
    }


register(BenchCase(
    name="symbolic_scaling",
    title="Symbolic engine (BDD crossover past the state-explosion wall)",
    tier="quick",
    run=run_symbolic_scaling,
    metrics=(
        Metric("crossover_states", "states"),
        Metric("crossover_usc_pairs", "pairs"),
        Metric("crossover_csc_conflicts", "conflicts"),
        Metric("crossover_nodes", "nodes"),
        Metric("symbolic_seconds", "s", direction="lower", measured=True),
        Metric("packed_seconds", "s", direction="lower", measured=True),
        Metric("symbolic_states_per_sec", "states/s", direction="higher",
               measured=True),
    ),
    checks=(
        Check("crossover_holds", lambda r: require(
            r["exceedance"]["resource"] == "states"
            and r["exceedance"]["limit"] == BUDGET_STATES
            and r["crossover_states"] == CROSSOVER_STATES
            and r["crossover_nodes"] <= BUDGET_NODES,
            f"the explicit engine must exceed {BUDGET_STATES} states "
            f"while the symbolic check covers all {CROSSOVER_STATES} "
            f"inside {BUDGET_NODES} nodes; got "
            f"{r['exceedance']}, {r['crossover_states']} states, "
            f"{r['crossover_nodes']} nodes")),
        Check("exceedance_is_structured", lambda r: require(
            {"resource", "limit", "states", "arcs", "seconds", "level"}
            <= set(r["exceedance"]),
            f"budget exceedance must carry the structured payload, "
            f"got {sorted(r['exceedance'])}")),
        Check("closed_forms", lambda r: require(
            all(row["explicit_states"] == row["states"]
                and row["symbolic_states"] == row["states"]
                for row in r["curve"]),
            "every curve instance must match its closed-form state "
            "count on both engines")),
        Check("verdict_parity", lambda r: require(
            r["parity_ok"],
            f"explicit and symbolic coding payloads must byte-match on "
            f"{r['parity_members']}")),
    ),
    info_keys=("crossover", "curve", "parity_members"),
    table=lambda r: (
        ("instance", "states", "explicit", "symbolic"),
        [(row["family"], f"{row['states']:,}", f"{explicit:.3f}s",
          f"{symbolic:.3f}s")
         for row, (explicit, symbolic) in zip(r["curve"], r["curve_seconds"])]
        + [(r["crossover"], f"{r['crossover_states']:,}",
            f">{r['packed_seconds']:.1f}s (budget)",
            f"{r['symbolic_seconds']:.3f}s")]),
))
