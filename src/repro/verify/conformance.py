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

The product runs on the shared level loop of :mod:`repro.explore`
(:func:`~repro.explore.explore_levels`, engine label ``product``), so it
is spanned, counted and metered like every other explicit walk.  A
level's moves are int codes -- a spec label id, or past the labels an
internal net's node -- and step dicts are built only for the
counterexample trace, which is read off the run's admitting arcs.  The
walk is breadth-first in a fixed order (states in admission order, each
state's moves in event-declaration order), so the first failure found is
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
                       ample_internal_moves, explore_levels)
from ..petri.stg import SignalKind
from ..sg.graph import StateGraph
from .certificate import VerificationReport
from .simulator import SimulationError, compile_circuit

#: Default cap on explored product states ("state-limit" verdict beyond).
DEFAULT_MAX_STATES = 1_000_000


class _Failure(Exception):
    """Internal control flow: a property was refuted on a move out of run
    state ``source``; ``step`` is that move, ``None`` for a deadlock."""

    def __init__(self, verdict: str, reason: str, source: int,
                 step: Optional[Dict[str, object]]) -> None:
        super().__init__(reason)
        self.verdict = verdict
        self.reason = reason
        self.source = source
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
    succ = spec.freeze().succ
    spec_states = len(succ)
    spec_arcs = sum(len(out) for out in succ)

    def report(verdict: str, reason: Optional[str],
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
        return report("non-conforming", f"cannot simulate netlist: {exc}",
                      [], {})

    if spec.initial is None:
        return report("non-conforming", "specification has no initial state",
                      [], {}, sim=sim)
    codes = spec.code_ints
    initial_code = codes[spec.initial_id]
    pinned = {signal: (initial_code >> i) & 1
              for i, signal in enumerate(signals)}
    try:
        initial_values = sim.settle(pinned)
    except SimulationError as exc:
        return report("non-conforming", str(exc), [], {}, sim=sim)

    net_of_signal = [sim.net_index[s] for s in signals]
    labels, is_input, event_signal = spec.labels(), spec.is_input, spec.signal
    # A move's code is its spec label id, or past the labels an internal
    # net's node id: the label fixes the signal and so the firing node.
    net_move = len(labels)

    def step_of(code: int, new_values: int) -> Dict[str, object]:
        """The trace step of move ``code``, which leads to ``new_values``."""
        if code >= net_move:
            net = sim.nodes[code - net_move].out
            bit = (new_values >> net) & 1
            return {"kind": "net", "label": f"{sim.nets[net]}"
                    f"{'+' if bit else '-'}", "net": sim.nets[net],
                    "value": bit}
        signal = signals[event_signal[code]]
        kind = ("input" if is_input[code] else "output"
                if spec.kinds[signal] == SignalKind.OUTPUT else "internal")
        return {"kind": kind, "label": labels[code], "net": signal,
                "value": (new_values >> net_of_signal[event_signal[code]])
                & 1}

    def trace(run, source: int,
              step: Optional[Dict[str, object]]) -> List[Dict[str, object]]:
        """The steps of a shortest path to run state ``source``, then
        ``step`` when there is one."""
        steps = [step_of(code, run.states[target][0])
                 for _, code, target in run.path(source)]
        return steps if step is None else steps + [step]

    semi_reason: Optional[str] = None  # the first semi-modularity loss
    # The arc the loop is charging and admitting: (source, code, new
    # values, the semi-modularity loss its checks found).  The loss
    # counts once the arc is charged, as the checks run after the charge.
    in_flight: Optional[Tuple[int, int, int, Optional[str]]] = None

    def expand(level: List[int], states: List[Tuple[int, int]]):
        """One level's ``(source, move code, product successor)`` arcs."""
        nonlocal semi_reason, in_flight
        for source in level:
            values, sid = states[source]
            excited = sim.excited(values)
            spec_out = succ[sid]
            enabled_inputs = tuple(label for label in spec_out
                                   if is_input[label])
            # Enabled labels are visited by id, which is event-declaration
            # order and fixes the first failure.
            ordered = sorted(spec_out)

            # (code, new values, new spec state, fired node)
            moves: List[Tuple[int, int, int, Optional[int]]] = []
            for label in ordered:
                if not is_input[label]:
                    continue
                tid = spec_out[label]
                sigidx = event_signal[label]
                moves.append((label, sim.set_net(
                    values, net_of_signal[sigidx], (codes[tid] >> sigidx) & 1),
                    tid, None))
            for nid in excited:
                node = sim.nodes[nid]
                new_values = sim.fire(values, nid)
                if node.signal is None:
                    moves.append((net_move + nid, new_values, sid, nid))
                    continue
                sigidx = spec.signal_index(node.signal)
                new_bit = (new_values >> node.out) & 1
                matching = []
                for label in ordered:
                    if is_input[label] or event_signal[label] != sigidx:
                        continue
                    if spec.rise[label] and new_bit != 1:
                        continue
                    if spec.fall[label] and new_bit != 0:
                        continue
                    matching.append(label)
                if not matching:
                    event_text = f"{node.signal}{'+' if new_bit else '-'}"
                    kind = ("output"
                            if spec.kinds[node.signal] == SignalKind.OUTPUT
                            else "internal")
                    raise _Failure(
                        "non-conforming",
                        f"circuit fires {event_text}, which the "
                        "specification does not enable here", source,
                        {"kind": kind, "label": event_text,
                         "net": node.signal, "value": new_bit})
                for label in matching:
                    moves.append((label, new_values, spec_out[label], nid))

            if not moves:
                raise _Failure(
                    "deadlock",
                    "no node is excited and no input event is enabled",
                    source, None)
            if reduced:
                moves = ample_internal_moves(
                    moves, lambda move: move[0] >= net_move)

            for code, new_values, tid, nid in moves:
                after = set(sim.excited_after(values, excited, new_values))
                hazard = loss = None
                for other in excited:
                    if other == nid or other in after:
                        continue
                    other_node = sim.nodes[other]
                    if other_node.signal is not None:
                        hazard = other_node.signal
                        break
                    if semi_reason is None and loss is None:
                        loss = (f"internal net {sim.nets[other_node.out]} "
                                f"is excited, then disabled by "
                                f"{step_of(code, new_values)['label']}")
                if tid != sid and semi_reason is None and loss is None:
                    lost = [label for label in enabled_inputs
                            if label != code and label not in succ[tid]]
                    if lost:
                        loss = (f"input {labels[lost[0]]} is withdrawn by "
                                f"{step_of(code, new_values)['label']} "
                                "(environment choice)")
                in_flight = (source, code, new_values, loss)
                # A refuted arc is still charged first: as a self-loop,
                # which admits nothing.
                yield source, code, ((new_values, tid) if hazard is None
                                     else states[source])
                in_flight = None
                if hazard is not None:
                    step = step_of(code, new_values)
                    raise _Failure(
                        "hazard", f"{hazard} is excited, then disabled by "
                        f"{step['label']} without firing", source, step)
                semi_reason = semi_reason or loss

    def walked(verdict: str, reason: Optional[str],
               steps: List[Dict[str, object]], product_states: int,
               product_arcs: int) -> VerificationReport:
        # Properties not refuted before the walk stopped are reported as
        # they stood: refuted ones are False, the rest held so far.
        return report(verdict, reason, steps, {
            "conforming": verdict != "non-conforming",
            "hazard_free": verdict != "hazard",
            "deadlock_free": verdict != "deadlock",
            "semi_modular": semi_reason is None and verdict != "hazard",
        }, sim=sim, product_states=product_states, product_arcs=product_arcs)

    if budget is None:
        budget = ExplorationBudget(max_states=max_states)
    try:
        run = explore_levels("product", (initial_values, spec.initial_id),
                             expand, budget)
    except _Failure as failure:
        return walked(failure.verdict, failure.reason,
                      trace(failure.run, failure.source, failure.step),
                      len(failure.run.states), failure.run.arc_count)
    except BudgetExceeded as exceeded:
        # Out of budget on an arc, or of wall clock between levels (no
        # single offending arc, no trace).
        exceedance = exceeded.exceedance
        steps: List[Dict[str, object]] = []
        if in_flight is not None:
            source, code, new_values, loss = in_flight
            if exceedance.resource != "arcs":
                semi_reason = semi_reason or loss
            steps = trace(exceeded.run, source, step_of(code, new_values))
        return walked("state-limit", exceedance.describe("product"), steps,
                      exceedance.states, exceedance.arcs)
    return walked("not-semi-modular" if semi_reason and require_semi_modular
                  else "conforming", semi_reason, [], len(run.states),
                  run.arc_count)
