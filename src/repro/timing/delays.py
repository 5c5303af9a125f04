"""Delay models for performance estimation.

Table 1 of the paper assumes "all internal and output events have a delay of
1 time unit, and all input events have a delay of 2 time units"; the PAR
study uses combinational gate = 1, sequential gate = 1.5, input event = 3.
Both are instances of an event-delay model: a mapping from SG arc labels to
firing delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Union

from ..petri.stg import SignalKind
from ..sg.graph import StateGraph

Number = Union[int, float, Fraction]


def _to_fraction(value: Number) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value).limit_denominator(1000)


@dataclass(frozen=True)
class DelayModel:
    """Per-kind event delays; ``overrides`` wins on specific signals."""

    input_delay: Fraction
    output_delay: Fraction
    internal_delay: Fraction
    overrides: tuple = ()  # tuple of (signal, Fraction) pairs, hashable

    @staticmethod
    def by_kind(input_delay: Number = 2, output_delay: Number = 1,
                internal_delay: Number = 1,
                overrides: Optional[Dict[str, Number]] = None) -> "DelayModel":
        """Build a model from per-kind delays plus per-signal overrides."""
        return DelayModel(
            _to_fraction(input_delay), _to_fraction(output_delay),
            _to_fraction(internal_delay),
            tuple(sorted((s, _to_fraction(d)) for s, d in (overrides or {}).items())))

    def delay_of(self, sg: StateGraph, label: str) -> Fraction:
        """The delay of event ``label`` in ``sg`` (overrides win)."""
        signal = sg.events[label].signal
        for name, delay in self.overrides:
            if name == signal:
                return delay
        kind = sg.kinds[signal]
        if kind == SignalKind.INPUT:
            return self.input_delay
        if kind == SignalKind.OUTPUT:
            return self.output_delay
        return self.internal_delay


#: The delay model of Table 1: inputs 2, outputs/internals 1.
TABLE1_DELAYS = DelayModel.by_kind(input_delay=2, output_delay=1, internal_delay=1)


def gate_level_delays(sg: StateGraph, sequential_signals: set,
                      input_delay: Number = 3, comb_delay: Number = 1,
                      seq_delay: Number = Fraction(3, 2)) -> DelayModel:
    """The PAR-study model: inputs 3, C-element outputs 1.5, others 1.

    ``sequential_signals`` lists the non-input signals implemented with a
    sequential cell (as reported by circuit synthesis).
    """
    overrides: Dict[str, Number] = {}
    for signal, kind in sg.kinds.items():
        if kind == SignalKind.INPUT:
            continue
        overrides[signal] = seq_delay if signal in sequential_signals else comb_delay
    return DelayModel.by_kind(input_delay=input_delay, output_delay=comb_delay,
                              internal_delay=comb_delay, overrides=overrides)
