"""The conformance product as a caller-driven FIFO walk: the reference
the tests compare :func:`repro.verify.check_conformance` against.

:class:`FrontierExploration` keeps its own visited set, FIFO queue,
parent map and budget charging, and :func:`reference_conformance` drains
it with per-state step dicts.  The library runs the same product on the
shared level loop (:func:`repro.explore.explore_levels`) with int move
codes; every report, trace and count must come out byte for byte the
same.
"""

import time
from collections import deque
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.circuit.netlist import Netlist
from repro.explore import (BudgetExceeded, BudgetMeter, ExplorationBudget,
                           ample_internal_moves, minimal_trace)
from repro.explore.frontier import _frontier_heartbeat
from repro.petri.stg import SignalKind
from repro.sg.graph import StateGraph
from repro.verify.certificate import VerificationReport
from repro.verify.conformance import DEFAULT_MAX_STATES
from repro.verify.simulator import SimulationError, compile_circuit

_UNBOUNDED = ExplorationBudget()

_ProductState = Tuple[int, int]  # (packed net values, spec state id)


class FrontierExploration:
    """Budgeted BFS driver over opaque hashable states (the conformance
    product's; state-graph generation runs on :func:`explore_levels`).

    The caller pulls states from :meth:`drain` and feeds successors back
    through :meth:`admit`; the driver owns the visited set, the FIFO
    level order, the parent map and the budget charging.  ``admit``
    raises :class:`~repro.explore.budget.BudgetExceeded` (never silently
    drops), so exceedance always reaches the caller as a structured
    event.
    """

    def __init__(self, initial: Hashable,
                 budget: Optional[ExplorationBudget] = None) -> None:
        self.meter: BudgetMeter = (budget or _UNBOUNDED).meter()
        self.parents: Dict[Hashable, Optional[Tuple[Hashable, object]]] = {}
        self._queue: deque = deque()
        self._level = 0
        self._level_remaining = 1
        self._next_level_count = 0
        self.meter.admit_state()
        self.parents[initial] = None
        self._queue.append(initial)

    @property
    def state_count(self) -> int:
        return len(self.parents)

    def drain(self) -> Iterator[Hashable]:
        """Yield states in admission (FIFO / level) order until empty."""
        queue = self._queue
        while queue:
            if self._level_remaining == 0:
                self._level += 1
                self._level_remaining = self._next_level_count
                self._next_level_count = 0
                self.meter.level = self._level
                self.meter.check_clock()
                _frontier_heartbeat("driver", self.meter, self._level,
                                    self._level_remaining,
                                    len(self.parents), self.meter.arcs)
            self._level_remaining -= 1
            yield queue.popleft()

    def admit(self, state: Hashable, parent: Hashable,
              step: object) -> bool:
        """Record a successor; True when the state is new (and enqueued)."""
        if state in self.parents:
            return False
        self.meter.admit_state()
        self.parents[state] = (parent, step)
        self._queue.append(state)
        self._next_level_count += 1
        return True

    def trace_to(self, state: Hashable,
                 final_step: Optional[object] = None) -> List[object]:
        """Minimal step sequence from the initial state to ``state``."""
        return minimal_trace(self.parents, state, final_step)


class _Failure(Exception):
    """Internal control flow: a property was refuted at ``state``."""

    def __init__(self, verdict: str, reason: str, state: _ProductState,
                 step: Optional[Dict[str, object]]) -> None:
        super().__init__(reason)
        self.verdict = verdict
        self.reason = reason
        self.state = state
        self.step = step


def reference_conformance(netlist: Netlist, spec: StateGraph,
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
    codes = spec.code_ints
    initial_code = codes[spec.initial_id]
    pinned = {signal: (initial_code >> i) & 1
              for i, signal in enumerate(signals)}
    try:
        initial_values = sim.settle(pinned)
    except SimulationError as exc:
        return failed("non-conforming", str(exc), [], {}, sim=sim)

    net_of_signal = [sim.net_index[s] for s in signals]
    # Product states carry spec state ids; enabled labels are visited by
    # id, which is event-declaration order and fixes the first failure.
    labels, is_input, event_signal = spec.labels(), spec.is_input, spec.signal
    ordered = [sorted(out) for out in succ]

    if budget is None:
        budget = ExplorationBudget(max_states=max_states)
    start: _ProductState = (initial_values, spec.initial_id)
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
                    if spec.rise[label] and new_bit != 1:
                        continue
                    if spec.fall[label] and new_bit != 0:
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
