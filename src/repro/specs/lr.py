"""The LR-process (Section 3, Figs. 2-3, Table 1).

A control-transfer component with a passive port ``l`` and an active port
``r`` (handshake-component notation): control received on ``l`` is forwarded
to ``r``.  The CSP-like behaviour is ``*[ l? ; r! ; r? ; l! ]``, whose
4-phase expansion under the channel interface constraints is Fig. 2.f.

Table 1 compares seven implementations, :func:`q_module_stg` and the flow
configurations of ``TABLE1_ROWS``:

* ``Q-module (hand)`` -- the classical S-element reshuffling (the right
  handshake completes entirely before the left one is acknowledged);
* ``Full reduction``  -- concurrency reduced as far as validity allows;
* ``Max. concurrency`` -- the expansion itself, nothing reduced;
* ``li || ri`` etc.   -- full reduction preserving one pair of reset events.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..hse.spec import ChannelRole, PartialSpec
from ..hse.expansion import expand_four_phase
from ..petri.stg import STG, SignalKind
from ..pipeline.config import FlowConfig


def lr_spec() -> PartialSpec:
    """``*[ l? ; r! ; r? ; l! ]`` with ``l`` passive and ``r`` active."""
    spec = PartialSpec("lr")
    spec.declare_channel("l", ChannelRole.PASSIVE)
    spec.declare_channel("r", ChannelRole.ACTIVE)
    for action in ("l?", "r!", "r?", "l!"):
        spec.add(action)
    spec.cycle("l?", "r!", "r?", "l!")
    spec.mark("<l!,l?>")
    return spec


def lr_expanded() -> STG:
    """Fig. 2.f: 4-phase expansion with maximal reset concurrency."""
    return expand_four_phase(lr_spec(), name="lr_4ph")


def q_module_stg() -> STG:
    """The hand-designed Q-module / S-element reshuffling.

    The right-hand handshake runs to completion (``ro+ ri+ ro- ri-``)
    strictly between ``li+`` and ``lo+``; the left handshake then finishes.
    This reshuffling needs one state signal (the code after ``li+`` repeats
    after ``ri-``), matching the "# CSC sign." column of Table 1.
    """
    stg = STG("lr_q_module")
    stg.declare_signal("li", SignalKind.INPUT)
    stg.declare_signal("ri", SignalKind.INPUT)
    stg.declare_signal("lo", SignalKind.OUTPUT)
    stg.declare_signal("ro", SignalKind.OUTPUT)
    order = ("li+", "ro+", "ri+", "ro-", "ri-", "lo+", "li-", "lo-")
    for event in order:
        stg.add_event(event)
    stg.cycle(*order)
    stg.mark("<lo-,li+>")
    for signal in ("li", "lo", "ri", "ro"):
        stg.set_initial_value(signal, 0)
    return stg


#: The Keep_Conc pairs of the four partially concurrent rows of Table 1.
#: ``li || ri`` preserves the concurrency of the two reset (falling) input
#: events, and so on; everything else is reduced as far as validity allows.
TABLE1_KEEP_CONC: Dict[str, List[Tuple[str, str]]] = {
    "li || ri": [("li-", "ri-")],
    "li || ro": [("li-", "ro-")],
    "lo || ri": [("lo-", "ri-")],
    "lo || ro": [("lo-", "ro-")],
}

#: Table 1's rows on ``generate_sg(lr_expanded())``, as flow configurations.
TABLE1_ROWS: Dict[str, FlowConfig] = {
    "Full reduction": FlowConfig(strategy="full"),
    "Max. concurrency": FlowConfig(strategy="none"),
    **{name: FlowConfig(strategy="full", keep_conc=keep)
       for name, keep in TABLE1_KEEP_CONC.items()},
}
