"""On-the-fly conformance checking of a netlist against its specification.

The checker explores the product of the circuit's reachable state space
(under the unbounded-gate-delay model of :mod:`repro.verify.simulator`)
with the specification state graph acting as the environment:

* **environment moves** -- every input event enabled at the current spec
  state may fire, driving the corresponding net;
* **circuit moves** -- every excited node may fire.  A node driving a
  specification signal must fire an event the spec enables at the current
  state (**output conformance**); internal decomposition nets move freely.

Along every product arc the checker asserts:

* **hazard-freedom** -- no node driving a non-input signal is excited and
  then disabled without firing (the speed-independence condition of
  Section 2, now checked on the *implementation* rather than the SG);
* **deadlock-freedom** -- every reachable product state has a successor;
* **semi-modularity** -- no excited node at all (internal nets included)
  and no enabled input event is withdrawn without firing.  Input
  withdrawal is an environment choice and internal-net churn is invisible
  at the interface, so semi-modularity is reported separately and only
  escalates the verdict under ``require_semi_modular=True``.

Exploration runs on the shared frontier engine of :mod:`repro.explore`
(breadth-first, fixed deterministic order), so the first failure found is
at minimal depth and the counterexample trace is minimal; the same order
makes reports byte-identical across hash seeds and serial-vs-parallel
sweep runs.  The state cap -- and optionally arc and wall-clock caps --
are one :class:`~repro.explore.ExplorationBudget`; running out is always
the structured ``"state-limit"`` verdict, never a silent truncation.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..circuit.netlist import Netlist
from ..explore import (BudgetExceeded, ExplorationBudget,
                       FrontierExploration, ample_internal_moves)
from ..petri.stg import SignalKind
from ..sg.graph import StateGraph
from .certificate import VerificationReport
from .simulator import SimulationError, compile_circuit

#: Default cap on explored product states ("state-limit" verdict beyond).
DEFAULT_MAX_STATES = 1_000_000

_ProductState = Tuple[int, int]  # (packed net values, spec state id)


class _Failure(Exception):
    """Internal control flow: a property was refuted at ``state``."""

    def __init__(self, verdict: str, reason: str, state: _ProductState,
                 step: Optional[Dict[str, object]]) -> None:
        super().__init__(reason)
        self.verdict = verdict
        self.reason = reason
        self.state = state
        self.step = step


def check_conformance(netlist: Netlist, spec: StateGraph,
                      model: str = "atomic",
                      max_states: int = DEFAULT_MAX_STATES,
                      require_semi_modular: bool = False,
                      name: Optional[str] = None,
                      budget: Optional[ExplorationBudget] = None,
                      reduced: bool = False) -> VerificationReport:
    """Verify ``netlist`` against the specification SG ``spec``.

    ``spec`` is normally the CSC-resolved state graph the circuit was
    synthesized from (inserted state signals included).  Returns a
    :class:`VerificationReport`; it never raises on a *bad circuit* -- an
    unsimulatable netlist (missing driver, unknown cell) yields a
    ``non-conforming`` report with the reason.

    ``budget`` generalizes ``max_states`` to the full
    :class:`~repro.explore.ExplorationBudget` (states, arcs, wall-clock);
    when omitted, ``max_states`` alone caps the product.  With
    ``reduced=True`` the walk expands only the first spec-invisible
    (internal-net) move wherever one exists -- a partial-order pruning
    that is refutation-sound (any failure it reports is a real
    execution) but optimistic: when internal nets exist their races are
    themselves hazards, and pruning their interleavings can hide one.
    A reduced pass is exact only for models without internal moves
    (atomic, or structural over single-cube netlists); it is off by
    default and never used for certificates.
    """
    started = time.perf_counter()
    report_name = name or netlist.name
    index = spec.index()
    succ = index.succ
    spec_states = len(succ)
    spec_arcs = sum(len(out) for out in succ)

    def failed(verdict: str, reason: str,
               trace: List[Dict[str, object]],
               flags: Dict[str, bool],
               sim=None, product_states: int = 0,
               product_arcs: int = 0) -> VerificationReport:
        return VerificationReport(
            name=report_name, model=model, verdict=verdict,
            conforming=flags.get("conforming", False),
            hazard_free=flags.get("hazard_free", False),
            deadlock_free=flags.get("deadlock_free", False),
            semi_modular=flags.get("semi_modular", False),
            spec_states=spec_states, spec_arcs=spec_arcs,
            net_count=0 if sim is None else len(sim.nets),
            node_count=0 if sim is None else len(sim.nodes),
            product_states=product_states, product_arcs=product_arcs,
            trace=trace, reason=reason,
            seconds=time.perf_counter() - started)

    signals = spec.signals
    input_signals = [s for s in signals
                     if spec.kinds[s] == SignalKind.INPUT]
    try:
        sim = compile_circuit(netlist, signals, input_signals, model)
    except SimulationError as exc:
        return failed("non-conforming", f"cannot simulate netlist: {exc}",
                      [], {})

    if spec.initial is None:
        return failed("non-conforming", "specification has no initial state",
                      [], {}, sim=sim)
    codes = index.codes
    initial_code = codes[index.initial]
    pinned = {signal: (initial_code >> i) & 1
              for i, signal in enumerate(signals)}
    try:
        initial_values = sim.settle(pinned)
    except SimulationError as exc:
        return failed("non-conforming", str(exc), [], {}, sim=sim)

    net_of_signal = [sim.net_index[s] for s in signals]
    # Product states carry spec state ids; enabled labels are visited by
    # id, which is event-declaration order and fixes the first failure.
    labels, is_input, event_signal = index.labels, index.is_input, index.signal
    ordered = [sorted(out) for out in succ]

    if budget is None:
        budget = ExplorationBudget(max_states=max_states)
    start: _ProductState = (initial_values, index.initial)
    semi_modular = True
    semi_reason: Optional[str] = None
    try:
        engine = FrontierExploration(start, budget)
    except BudgetExceeded as exceeded:
        return failed("state-limit", exceeded.exceedance.describe("product"),
                      [], {"conforming": True, "hazard_free": True,
                           "deadlock_free": True, "semi_modular": True},
                      sim=sim)
    meter = engine.meter

    try:
        for state in engine.drain():
            values, sid = state
            excited = sim.excited(values)
            spec_out = succ[sid]
            enabled_inputs = tuple(label for label in spec_out
                                   if is_input[label])

            # (step, new values, new spec state, fired node, fired label)
            moves: List[Tuple[Dict[str, object], int, int,
                              Optional[int], Optional[str]]] = []
            for label in ordered[sid]:
                if not is_input[label]:
                    continue
                tid = spec_out[label]
                sigidx = event_signal[label]
                new_bit = (codes[tid] >> sigidx) & 1
                new_values = sim.set_net(values, net_of_signal[sigidx],
                                         new_bit)
                step = {"kind": "input", "label": labels[label],
                        "net": signals[sigidx], "value": new_bit}
                moves.append((step, new_values, tid, None, label))
            for nid in excited:
                node = sim.nodes[nid]
                new_values = sim.fire(values, nid)
                if node.signal is None:
                    new_bit = (new_values >> node.out) & 1
                    net_name = sim.nets[node.out]
                    step = {"kind": "net",
                            "label": f"{net_name}{'+' if new_bit else '-'}",
                            "net": net_name, "value": new_bit}
                    moves.append((step, new_values, sid, nid, None))
                    continue
                sigidx = spec.signal_index(node.signal)
                new_bit = (new_values >> node.out) & 1
                kind = ("output"
                        if spec.kinds[node.signal] == SignalKind.OUTPUT
                        else "internal")
                matching = []
                for label in ordered[sid]:
                    if is_input[label] or event_signal[label] != sigidx:
                        continue
                    if index.rise[label] and new_bit != 1:
                        continue
                    if index.fall[label] and new_bit != 0:
                        continue
                    matching.append(label)
                event_text = f"{node.signal}{'+' if new_bit else '-'}"
                if not matching:
                    step = {"kind": kind, "label": event_text,
                            "net": node.signal, "value": new_bit}
                    raise _Failure(
                        "non-conforming",
                        f"circuit fires {event_text}, which the "
                        "specification does not enable here", state, step)
                for label in matching:
                    step = {"kind": kind, "label": labels[label],
                            "net": node.signal, "value": new_bit}
                    moves.append((step, new_values, spec_out[label], nid,
                                  label))

            if not moves:
                raise _Failure(
                    "deadlock",
                    "no node is excited and no input event is enabled",
                    state, None)
            if reduced:
                moves = ample_internal_moves(
                    moves, lambda move: move[0]["kind"] == "net")

            for step, new_values, tid, nid, fired in moves:
                try:
                    meter.charge_arc()
                except BudgetExceeded as exceeded:
                    raise _Failure(
                        "state-limit",
                        exceeded.exceedance.describe("product"), state,
                        step) from None
                after = sim.excited_after(values, excited, new_values)
                after_set = set(after)
                for other in excited:
                    if other == nid or other in after_set:
                        continue
                    other_node = sim.nodes[other]
                    if other_node.signal is not None:
                        raise _Failure(
                            "hazard",
                            f"{other_node.signal} is excited, then disabled "
                            f"by {step['label']} without firing",
                            state, step)
                    if semi_modular:
                        semi_modular = False
                        semi_reason = (
                            f"internal net {sim.nets[other_node.out]} is "
                            f"excited, then disabled by {step['label']}")
                if tid != sid and semi_modular:
                    lost = [label for label in enabled_inputs
                            if label != fired and label not in succ[tid]]
                    if lost:
                        semi_modular = False
                        semi_reason = (
                            f"input {labels[lost[0]]} is withdrawn by "
                            f"{step['label']} (environment choice)")
                successor = (new_values, tid)
                try:
                    engine.admit(successor, state, step)
                except BudgetExceeded as exceeded:
                    raise _Failure(
                        "state-limit",
                        exceeded.exceedance.describe("product"), state,
                        step) from None
    except _Failure as failure:
        # Properties not refuted before the failing arc are reported as
        # they stood: refuted ones are False, the rest held so far.
        flags = {
            "conforming": failure.verdict != "non-conforming",
            "hazard_free": failure.verdict != "hazard",
            "deadlock_free": failure.verdict != "deadlock",
            "semi_modular": semi_modular and failure.verdict != "hazard",
        }
        return failed(failure.verdict, failure.reason,
                      engine.trace_to(failure.state, failure.step),
                      flags, sim=sim, product_states=engine.state_count,
                      product_arcs=meter.arcs)
    except BudgetExceeded as exceeded:
        # Out of wall-clock between states: no single offending arc.
        return failed("state-limit", exceeded.exceedance.describe("product"),
                      [], {"conforming": True, "hazard_free": True,
                           "deadlock_free": True,
                           "semi_modular": semi_modular},
                      sim=sim, product_states=engine.state_count,
                      product_arcs=meter.arcs)

    verdict = "conforming"
    reason = None
    if not semi_modular:
        reason = semi_reason
        if require_semi_modular:
            verdict = "not-semi-modular"
    return VerificationReport(
        name=report_name, model=model, verdict=verdict,
        conforming=True, hazard_free=True, deadlock_free=True,
        semi_modular=semi_modular,
        spec_states=spec_states, spec_arcs=spec_arcs,
        net_count=len(sim.nets), node_count=len(sim.nodes),
        product_states=engine.state_count, product_arcs=meter.arcs,
        trace=[], reason=reason,
        seconds=time.perf_counter() - started)
