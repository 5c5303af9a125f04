"""The PAR component (Fig. 10, first case study of Section 8).

The Tangram PAR component: a request on the passive port ``a`` launches the
two sub-processes on active ports ``b`` and ``c`` in parallel; when both
complete, ``a`` is acknowledged::

    *[ a? ; (b! ; b?) || (c! ; c?) ; a! ]

The 4-phase expansion (Fig. 10.b) has maximally concurrent return-to-zero
signalling.  The paper reduces it while *preserving the concurrency between
b? and c?* (the parallel execution that defines the component) and obtains a
circuit slightly smaller than the manual design used by the Tangram
compiler (Fig. 10.c/f), at some cost in cycle time when ``b`` and ``c``
have balanced delays.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..hse.spec import ChannelRole, PartialSpec
from ..hse.expansion import expand_four_phase
from ..petri.stg import STG, SignalKind
from ..pipeline.config import FlowConfig


def par_spec() -> PartialSpec:
    """``*[ a? ; (b! ; b?) || (c! ; c?) ; a! ]``."""
    spec = PartialSpec("par")
    spec.declare_channel("a", ChannelRole.PASSIVE)
    spec.declare_channel("b", ChannelRole.ACTIVE)
    spec.declare_channel("c", ChannelRole.ACTIVE)
    for action in ("a?", "b!", "b?", "c!", "c?", "a!"):
        spec.add(action)
    spec.chain("a?", "b!", "b?", "a!")
    spec.chain("a?", "c!", "c?", "a!")
    spec.connect("a!", "a?")
    spec.mark("<a!,a?>")
    return spec


def par_expanded() -> STG:
    """Fig. 10.b: automatic 4-phase expansion of the PAR component."""
    return expand_four_phase(par_spec(), name="par_4ph")


#: The concurrency the reduction must preserve: the acknowledgments of the
#: two sub-processes (events b? and c?, i.e. wires bi and ci) stay parallel.
PAR_KEEP_CONC: List[Tuple[str, str]] = [("bi+", "ci+")]

#: Fig. 10's automatic row on ``generate_sg(par_expanded())`` (patience 10**9
#: never stops early); the manual row is :func:`par_manual_stg` as-is.
FIG10_ROWS: Dict[str, FlowConfig] = {
    "automatic": FlowConfig(keep_conc=PAR_KEEP_CONC, max_explored=4000,
                            patience=10**9),
}


def par_manual_stg() -> STG:
    """The manual Tangram reshuffling (Fig. 10.c, Peeters 1997).

    Requests ``bo+``/``co+`` are issued in parallel after ``ai+``; the
    acknowledgment ``ao+`` waits for both sub-acknowledgments; the reset
    phase mirrors the set phase after ``ai-``.
    """
    stg = STG("par_manual")
    for wire in ("ai", "bi", "ci"):
        stg.declare_signal(wire, SignalKind.INPUT)
    for wire in ("ao", "bo", "co"):
        stg.declare_signal(wire, SignalKind.OUTPUT)
    events = ("ai+", "bo+", "bi+", "co+", "ci+", "ao+",
              "ai-", "bo-", "bi-", "co-", "ci-", "ao-")
    for event in events:
        stg.add_event(event)
    stg.chain("ai+", "bo+", "bi+", "ao+")
    stg.chain("ai+", "co+", "ci+", "ao+")
    stg.chain("ao+", "ai-")
    stg.chain("ai-", "bo-", "bi-", "ao-")
    stg.chain("ai-", "co-", "ci-", "ao-")
    stg.connect("ao-", "ai+")
    stg.mark("<ao-,ai+>")
    for signal in ("ai", "ao", "bi", "bo", "ci", "co"):
        stg.set_initial_value(signal, 0)
    return stg
