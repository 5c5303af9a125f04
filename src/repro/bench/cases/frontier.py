"""Frontier engine: the shared exploration core on a scaling family.

The suite specs top out at a few hundred states, so they cannot tell the
vectorized frontier engine from the per-state loop.  This case runs the
two legs the exploration core now owns, on the parametric families of
:mod:`repro.specs.families`:

* **reachability** -- ``fifo_chain(10)`` (177,148 states) explored by
  both net engines under one :class:`~repro.explore.ExplorationBudget`.
  ``frontier_states_per_sec`` is the packed engine's headline rate and
  the ``speedup_floor`` check asserts it beats the per-state tuple
  engine >= 2x on the same machine, same run.
* **generation + conformance** -- a mid-size decoupled-FIFO chain built
  compositionally: the single stage cell is synthesized once through the
  full flow (CSC resolution included), its *resolved* STG is relabelled
  per stage and re-composed via :func:`repro.petri.compose.compose_all`,
  and the stage netlist is replicated into a chain implementation.  The
  conformance product of that implementation against the composed spec
  must come back ``conforming`` -- the per-stage certificates compose
  because the decoupled cell's environment assumptions are local to each
  port.
"""

from __future__ import annotations

from ..registry import BenchCase, Check, Metric, register, require

#: Reachability family: ``fifo_chain(FAMILY_STAGES)`` has
#: ``3**(FAMILY_STAGES + 1) + (-1)**FAMILY_STAGES`` states -- past the
#: 10^5 wall the paper ran into, still a few seconds for the per-state
#: baseline.
FAMILY_STAGES = 10
FAMILY_STATES = 3 ** (FAMILY_STAGES + 1) + (-1) ** FAMILY_STAGES
#: The budget the run must clear (states; comfortably above the family).
BUDGET_STATES = 250_000
#: Same-run floor for packed vs per-state throughput.
SPEEDUP_FLOOR = 2.0
#: Conformance family depth: 4 stages -> a ~10^3-state product.
CONFORMANCE_STAGES = 4

#: One decoupled 4-phase FIFO stage.  Unlike the suite's ``fifo_cell``
#: (whose next-request constraint reaches across the cell to the far
#: ack), every environment assumption here is local to one port -- the
#: left handshake re-arms on ``a0-`` alone and a fresh ``a0+`` waits for
#: the previous push to drain (``a1-``) through an initially marked
#: place.  That locality is what makes stage implementations compose.
DECOUPLED_CELL = """.model dec_fifo
.inputs r0 a1
.outputs a0 r1
.graph
r0+ a0+
a1- a0+
a0+ r0-
r0- a0-
a0- r0+
a0- r1+
r1+ a1+
a1+ r1-
r1- a1-
.marking { <a0-,r0+> <a1-,a0+> }
.initial_state !r0 !a0 !r1 !a1
.end
"""


def _stage_signals(i):
    """Cell-signal -> stage-``i``-signal renaming for the chain."""
    return {"r0": f"r{i}", "a0": f"a{i}", "r1": f"r{i + 1}",
            "a1": f"a{i + 1}", "csc0": f"csc{i}"}


def _relabel_stage_text(cell_text, i):
    """The resolved cell's ``.g`` text relabelled as chain stage ``i``.

    Signal tokens (``name+``/``name-`` events and the declaration /
    initial-state lists) map through :func:`_stage_signals`; bare tokens
    in the ``.graph`` body are places and get a stage prefix instead --
    the resolved cell names places ``r0``/``r1``..., which would
    otherwise collide with the handshake signals.
    """
    mapping = _stage_signals(i)
    out = []
    for line in cell_text.splitlines():
        if line.startswith(".model"):
            out.append(f".model dec_stage{i}")
        elif line.startswith((".inputs", ".outputs", ".internal")):
            head, *sigs = line.split()
            out.append(" ".join([head] + [mapping[s] for s in sigs]))
        elif line.startswith(".marking"):
            inner = line[line.index("{") + 1:line.index("}")].split()
            out.append(".marking { "
                       + " ".join(f"st{i}_{p}" for p in inner) + " }")
        elif line.startswith(".initial_state"):
            head, *toks = line.split()
            out.append(" ".join(
                [head] + [("!" + mapping[t[1:]] if t.startswith("!")
                           else mapping[t]) for t in toks]))
        elif line.startswith("."):
            out.append(line)
        else:
            toks = []
            for token in line.split():
                if token[-1] in "+-" and token[:-1] in mapping:
                    toks.append(mapping[token[:-1]] + token[-1])
                else:
                    toks.append(f"st{i}_{token}")
            out.append(" ".join(toks))
    return "\n".join(out) + "\n"


def _synthesize_cell():
    """One flow run on the stage cell; returns (resolved STG text, netlist)."""
    from repro.petri.parser import parse_stg, write_stg
    from repro.pipeline import FlowConfig, run_pipeline
    from repro.sg.generator import generate_sg

    sg = generate_sg(parse_stg(DECOUPLED_CELL))
    result = run_pipeline(FlowConfig(strategy="none", resynthesise=True),
                          initial_sg=sg, name="dec_fifo")
    circuit, stg = result.circuit(), result.resynthesised_stg()
    require(circuit is not None and stg is not None,
            "the decoupled FIFO cell must synthesize")
    return write_stg(stg), circuit.netlist


def _chain_spec(cell_text, stages):
    """The composed resolved-cell STG for a ``stages``-deep chain."""
    from repro.petri.compose import compose_all
    from repro.petri.parser import parse_stg

    return compose_all(
        [parse_stg(_relabel_stage_text(cell_text, i))
         for i in range(stages)],
        name=f"dec_chain_{stages}")


def _chain_netlist(cell_netlist, stages):
    """The stage netlist replicated ``stages`` times, ports fused."""
    from repro.circuit.netlist import Netlist

    chain = Netlist(f"dec_chain_{stages}_impl",
                    library=cell_netlist.library)
    chain.add_input("r0")
    chain.add_input(f"a{stages}")
    for i in range(stages):
        mapping = _stage_signals(i)

        def rename(net):
            return mapping.get(net, f"st{i}.{net}")

        for gate in cell_netlist.gates:
            chain.add_gate(gate.cell.name, map(rename, gate.inputs),
                           output=rename(gate.output),
                           name=f"st{i}.{gate.name}")
        for alias in cell_netlist.aliases:
            chain.add_alias(rename(alias.source), rename(alias.target))
        chain.add_output(mapping["a0"])
        chain.add_output(mapping["r1"])
    return chain


def run_frontier_scaling(context) -> dict:
    from repro.explore import (ExplorationBudget, explore_packed,
                               explore_tuples)
    from repro.sg.generator import generate_sg
    from repro.specs.families import fifo_chain
    from repro.verify import verify_netlist

    # -- reachability leg: packed vs per-state on one budget -----------
    budget = ExplorationBudget(max_states=BUDGET_STATES)
    net = fifo_chain(FAMILY_STAGES).net
    packed = net.compile_packed()
    require(packed is not None, "fifo_chain must stay in the packed regime")
    packed_seconds, packed_run = context.best_of(
        lambda: explore_packed(packed, budget))
    tuple_seconds, tuple_run = context.best_of(
        lambda: explore_tuples(net, budget))

    # -- generation + conformance leg: compositional decoupled chain --
    cell_text, cell_netlist = _synthesize_cell()
    generate_seconds, spec_sg = context.best_of(
        lambda: generate_sg(_chain_spec(cell_text, CONFORMANCE_STAGES)))
    chain = _chain_netlist(cell_netlist, CONFORMANCE_STAGES)
    verify_seconds, verified = context.best_of(
        lambda: verify_netlist(chain, spec_sg,
                               name=f"dec_chain_{CONFORMANCE_STAGES}"))
    certificate = verified[0]

    return {
        "family": f"fifo_chain_{FAMILY_STAGES}",
        "family_states": len(packed_run.states),
        "family_arcs": packed_run.arc_count,
        "family_levels": packed_run.levels,
        "budget_states": BUDGET_STATES,
        "per_state_states": len(tuple_run.states),
        "per_state_levels": tuple_run.levels,
        "per_state_arcs": tuple_run.arc_count,
        "frontier_seconds": packed_seconds,
        "per_state_seconds": tuple_seconds,
        "frontier_states_per_sec": (len(packed_run.states) / packed_seconds
                                    if packed_seconds else 0.0),
        "per_state_states_per_sec": (len(tuple_run.states) / tuple_seconds
                                     if tuple_seconds else 0.0),
        "frontier_speedup": (tuple_seconds / packed_seconds
                             if packed_seconds else 0.0),
        "conformance_family": f"dec_chain_{CONFORMANCE_STAGES}",
        "spec_states": len(spec_sg),
        "spec_arcs": spec_sg.arc_count(),
        "generate_seconds": generate_seconds,
        "verdict": certificate.verdict,
        "semi_modular": certificate.semi_modular,
        "product_states": certificate.product_states,
        "product_arcs": certificate.product_arcs,
        "verify_seconds": verify_seconds,
        "product_states_per_sec": (certificate.product_states
                                   / verify_seconds
                                   if verify_seconds else 0.0),
    }


register(BenchCase(
    name="frontier_scaling",
    title="Frontier engine (parametric families, packed vs per-state)",
    tier="quick",
    run=run_frontier_scaling,
    metrics=(
        Metric("family_states", "states"),
        Metric("family_arcs", "arcs"),
        Metric("family_levels", "levels"),
        Metric("spec_states", "states"),
        Metric("spec_arcs", "arcs"),
        Metric("product_states", "states"),
        Metric("product_arcs", "arcs"),
        Metric("frontier_states_per_sec", "states/s", direction="higher",
               measured=True),
        Metric("per_state_states_per_sec", "states/s", direction="higher",
               measured=True),
        Metric("frontier_speedup", "x", direction="higher",
               measured=True, gated=True, tolerance=0.6),
        Metric("frontier_seconds", "s", direction="lower", measured=True),
        Metric("per_state_seconds", "s", direction="lower", measured=True),
        Metric("generate_seconds", "s", direction="lower", measured=True),
        Metric("verify_seconds", "s", direction="lower", measured=True),
        Metric("product_states_per_sec", "states/s", direction="higher",
               measured=True),
    ),
    checks=(
        Check("family_within_budget", lambda r: require(
            r["family_states"] == FAMILY_STATES
            and r["family_states"] <= r["budget_states"],
            f"the packed engine must clear all {FAMILY_STATES} states "
            f"within the {BUDGET_STATES}-state budget, "
            f"got {r['family_states']}")),
        Check("engines_agree", lambda r: require(
            r["family_states"] == r["per_state_states"]
            and r["family_arcs"] == r["per_state_arcs"]
            and r["family_levels"] == r["per_state_levels"],
            "packed and per-state engines must explore the same "
            "state space")),
        Check("speedup_floor", lambda r: require(
            r["frontier_speedup"] >= SPEEDUP_FLOOR,
            f"packed frontier must be >= {SPEEDUP_FLOOR}x the per-state "
            f"loop, got {r['frontier_speedup']:.2f}x")),
        Check("chain_conforms", lambda r: require(
            r["verdict"] == "conforming" and r["semi_modular"],
            f"the replicated stage netlist must conform to the composed "
            f"spec, got {r['verdict']!r}")),
        Check("product_covers_spec", lambda r: require(
            r["product_states"] >= r["spec_states"] > 0,
            "the conformance product must cover every spec state")),
    ),
    info_keys=("family", "conformance_family", "verdict"),
    table=lambda r: (
        ("leg", "states", "arcs", "rate"),
        [("packed frontier", r["family_states"], r["family_arcs"],
          f"{r['frontier_states_per_sec']:,.0f} st/s"),
         ("per-state loop", r["per_state_states"], r["per_state_arcs"],
          f"{r['per_state_states_per_sec']:,.0f} st/s"),
         ("conformance product", r["product_states"], r["product_arcs"],
          f"{r['product_states_per_sec']:,.0f} st/s")]),
))
