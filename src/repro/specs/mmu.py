"""The MMU controller (Table 2, second case study of Section 8).

The paper evaluates reshuffling on the asynchronous Memory Management Unit
controller of Myers & Meng (1993).  The original schematic is not given in
the paper; following the substitution rule documented in DESIGN.md we
reconstruct a faithful-in-kind controller over the four channels the row
labels name -- ``b`` (bus request, passive), ``l`` (logical-address lookup,
active), ``m`` (mapped-address translation, active) and ``r`` (read,
active)::

    *[ b? ; l! ; l? ; ( m! ; m? || r! ; r? ) ; b! ]

The translation and the read run in parallel after the lookup; the 4-phase
expansion then leaves the reset transitions of all four handshakes
maximally concurrent, which is exactly the freedom Table 2 explores:

* ``original``          -- the maximally concurrent expansion, unreduced;
* ``original reduced``  -- best-first reduction, default weight;
* ``csc reduced``       -- reduction biased towards CSC resolution (W -> 0);
* ``|| (x, y, z)``      -- full reduction preserving the mutual concurrency
  of the reset events of channels x, y and z.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Tuple

from ..hse.spec import ChannelRole, PartialSpec
from ..hse.expansion import expand_four_phase
from ..petri.stg import STG
from ..pipeline.config import FlowConfig


def mmu_spec() -> PartialSpec:
    """The reconstructed MMU controller behaviour."""
    spec = PartialSpec("mmu")
    spec.declare_channel("b", ChannelRole.PASSIVE)
    spec.declare_channel("l", ChannelRole.ACTIVE)
    spec.declare_channel("m", ChannelRole.ACTIVE)
    spec.declare_channel("r", ChannelRole.ACTIVE)
    for action in ("b?", "l!", "l?", "m!", "m?", "r!", "r?", "b!"):
        spec.add(action)
    spec.chain("b?", "l!", "l?")
    spec.chain("l?", "m!", "m?", "b!")
    spec.chain("l?", "r!", "r?", "b!")
    spec.connect("b!", "b?")
    spec.mark("<b!,b?>")
    return spec


def mmu_expanded() -> STG:
    """4-phase expansion with maximal reset concurrency ("original")."""
    return expand_four_phase(mmu_spec(), name="mmu_4ph")


def keep_conc_for(channels: Tuple[str, ...]) -> List[Tuple[str, str]]:
    """Keep_Conc preserving reset concurrency among the named channels.

    Every falling wire event of one listed channel stays concurrent with
    every falling wire event of the other listed channels.
    """
    return [(f"{first}{wire_a}-", f"{second}{wire_b}-")
            for first, second in combinations(channels, 2)
            for wire_a in "io" for wire_b in "io"]


#: The four partially concurrent rows of Table 2.
TABLE2_KEEP_CONC: Dict[str, Tuple[str, ...]] = {
    "|| (b, l, r)": ("b", "l", "r"),
    "|| (b, m, r)": ("b", "m", "r"),
    "|| (b, l, m)": ("b", "l", "m"),
    "|| (l, m, r)": ("l", "m", "r"),
}

#: Table 2's rows on ``generate_sg(mmu_expanded())``, as flow configurations.
#: W = 1/96 at the default CSC scale weighs one conflict pair as 1,900
#: literals, as W = 0.05 at scale 100 does; patience 10**9 never stops early.
TABLE2_ROWS: Dict[str, FlowConfig] = {
    "original": FlowConfig(strategy="none", max_csc_signals=3),
    "original reduced": FlowConfig(max_explored=400, patience=200),
    "csc reduced": FlowConfig(weight=1 / 96, max_explored=1200,
                              patience=10**9),
    **{name: FlowConfig(strategy="full", size_frontier=3,
                        keep_conc=keep_conc_for(channels))
       for name, channels in TABLE2_KEEP_CONC.items()},
}
