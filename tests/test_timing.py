"""Unit tests for delay models and critical-cycle extraction (repro.timing)."""

from fractions import Fraction

import pytest

from repro.petri.stg import STG, SignalKind
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded, q_module_stg
from repro.timing.critical_cycle import (CycleReport, TimingError,
                                         critical_cycle, cycle_time)
from repro.timing.delays import TABLE1_DELAYS, DelayModel, gate_level_delays


class TestDelayModel:
    def test_by_kind(self):
        sg = generate_sg(fig1_stg())
        model = DelayModel.by_kind(input_delay=2, output_delay=1)
        assert model.delay_of(sg, "Req+") == 2
        assert model.delay_of(sg, "Ack+") == 1

    def test_overrides_win(self):
        sg = generate_sg(fig1_stg())
        model = DelayModel.by_kind(input_delay=2, output_delay=1,
                                   overrides={"Ack": Fraction(3, 2)})
        assert model.delay_of(sg, "Ack-") == Fraction(3, 2)
        assert model.delay_of(sg, "Req-") == 2

    def test_fractional_delays_exact(self):
        model = DelayModel.by_kind(input_delay=1.5)
        assert model.input_delay == Fraction(3, 2)

    def test_gate_level_model(self):
        sg = generate_sg(q_module_stg())
        model = gate_level_delays(sg, sequential_signals={"ro"})
        assert model.delay_of(sg, "li+") == 3
        assert model.delay_of(sg, "ro+") == Fraction(3, 2)
        assert model.delay_of(sg, "lo+") == 1


class TestCriticalCycle:
    def test_sequential_ring_period_is_sum(self):
        # Q-module order: 4 input events (2 each) + 4 output events (1 each)
        # when fully sequential the period is just the sum of delays... but
        # the paper's model assigns input delay 2: 4*2 + 4*1 = 12.  The
        # measured 14 includes the two CSC-free wire events?  No: the pure
        # STG cycle of 8 events gives exactly 12.
        sg = generate_sg(q_module_stg())
        report = critical_cycle(sg, TABLE1_DELAYS)
        assert report.period == 12
        assert len(report.events) == 8
        assert len(report.input_events) == 4

    def test_fig1_cycle(self):
        sg = generate_sg(fig1_stg())
        report = critical_cycle(sg, TABLE1_DELAYS)
        # Req+ and Ack- overlap; the four-event cycle is shorter than the
        # sequential sum (2+1+2+1 = 6).
        assert report.period <= 6
        assert len(report.input_events) == 2

    def test_concurrency_shortens_cycle(self):
        max_conc = generate_sg(lr_expanded())
        sequential = generate_sg(q_module_stg())
        assert cycle_time(max_conc, TABLE1_DELAYS) <= \
            cycle_time(sequential, TABLE1_DELAYS)

    def test_events_on_cycle_reported(self):
        sg = generate_sg(q_module_stg())
        report = critical_cycle(sg, TABLE1_DELAYS)
        assert sorted(report.events) == sorted(
            ["li+", "ro+", "ri+", "ro-", "ri-", "lo+", "li-", "lo-"])
        assert set(report.input_events) == {"li+", "li-", "ri+", "ri-"}

    def test_transient_then_periodic(self):
        # A graph with a lead-in: s0 -> cycle.
        from repro.petri.stg import SignalEvent, Direction
        sg = StateGraph("lead")
        sg.declare_signal("a", SignalKind.OUTPUT)
        sg.declare_signal("b", SignalKind.OUTPUT)
        for label in ("a+", "a-", "b+", "b-"):
            sg.declare_event(label)
        sg.add_state("s0")
        sg.add_arc("s0", "b+", "s1")
        sg.add_arc("s1", "a+", "s2")
        sg.add_arc("s2", "a-", "s1")
        report = critical_cycle(sg, TABLE1_DELAYS)
        assert report.period == 2  # a+ then a-
        assert report.transient_steps >= 1

    def test_deadlock_raises(self):
        sg = StateGraph("dead")
        sg.declare_signal("a", SignalKind.OUTPUT)
        sg.declare_event("a+")
        sg.add_state("s0")
        sg.add_state("s1")
        sg.add_arc("s0", "a+", "s1")
        with pytest.raises(TimingError):
            critical_cycle(sg, TABLE1_DELAYS)

    def test_fractional_delays_in_simulation(self):
        sg = generate_sg(q_module_stg())
        model = DelayModel.by_kind(input_delay=Fraction(3, 2), output_delay=1)
        report = critical_cycle(sg, model)
        assert report.period == Fraction(3, 2) * 4 + 4

    def test_faster_inputs_shorten_cycle(self):
        sg = generate_sg(lr_expanded())
        slow = DelayModel.by_kind(input_delay=4, output_delay=1)
        fast = DelayModel.by_kind(input_delay=1, output_delay=1)
        assert cycle_time(sg, fast) < cycle_time(sg, slow)
