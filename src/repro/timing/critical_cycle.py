"""Critical-cycle extraction by exact timed simulation.

The performance figures in Tables 1 and 2 ("cr.cycle" and "inp.events") are
the length of the critical cycle of the timed behaviour and the number of
input events on it.  For a deterministic delay assignment the timed
execution of a speed-independent SG is eventually periodic; we simulate with
exact rational time, detect the recurrent timed configuration, and report
the period plus the events fired within one period.

Semantics: every enabled event owns a countdown timer initialised to its
delay when the event becomes enabled (persistency keeps timers alive across
other firings); the event with the smallest residual fires next, ties broken
by label order so choice-free specifications are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from ..sg.graph import State, StateGraph
from .delays import DelayModel


class TimingError(Exception):
    """Raised when simulation cannot proceed (deadlock) or does not settle."""


@dataclass(frozen=True)
class CycleReport:
    """The steady-state cycle of the timed execution."""

    period: Fraction
    events: Tuple[str, ...]
    input_events: Tuple[str, ...]
    transient_steps: int

    @property
    def cycle_time(self) -> float:
        return float(self.period)


def critical_cycle(sg: StateGraph, delays: DelayModel,
                   max_steps: int = 100_000) -> CycleReport:
    """Simulate the timed SG until periodic; return the critical cycle."""
    state = sg.initial
    if state is None or state not in sg:
        raise TimingError("state graph has no initial state")
    timers: Dict[str, Fraction] = {
        label: delays.delay_of(sg, label) for label in sg.enabled(state)}
    time = Fraction(0)
    seen: Dict[Tuple[State, Tuple[Tuple[str, Fraction], ...]], Tuple[int, Fraction, int]] = {}
    trace: List[Tuple[str, bool]] = []  # (label, is_input)

    for step in range(max_steps):
        config = (state, tuple(sorted(timers.items())))
        if config in seen:
            first_step, first_time, first_len = seen[config]
            period = time - first_time
            cycle = trace[first_len:]
            events = tuple(label for label, _ in cycle)
            inputs = tuple(label for label, is_input in cycle if is_input)
            return CycleReport(period=period, events=events,
                               input_events=inputs, transient_steps=first_step)
        seen[config] = (step, time, len(trace))

        if not timers:
            raise TimingError(f"deadlock reached at state {state!r}")
        fire_label = min(timers, key=lambda label: (timers[label], label))
        advance = timers[fire_label]
        time += advance
        next_state = sg.target(state, fire_label)
        assert next_state is not None
        survivors: Dict[str, Fraction] = {}
        next_enabled = set(sg.enabled(next_state))
        for label, remaining in timers.items():
            if label == fire_label:
                continue
            if label in next_enabled:
                survivors[label] = remaining - advance
        for label in next_enabled:
            if label not in survivors:
                survivors[label] = delays.delay_of(sg, label)
        trace.append((fire_label, sg.is_input_label(fire_label)))
        state = next_state
        timers = survivors

    raise TimingError(f"no periodic behaviour within {max_steps} steps")


def cycle_time(sg: StateGraph, delays: DelayModel) -> float:
    """Shorthand: just the critical-cycle period as a float."""
    return critical_cycle(sg, delays).cycle_time
