"""Unit tests for code assignment from the initial state.

``tests/sg_oracle.py::assign_codes``, the graph-walking reference that
generation's codes are compared against, gives each state the initial
code XOR the flips along a path to it; these tests drive it on hand-built
toggle (2-phase) state graphs, including the inconsistency witnesses and
the declared initial value of a signal that never rises or falls.
"""

import os
import subprocess
import sys

import pytest

from repro.petri.stg import Direction, SignalEvent, SignalKind, STG
from repro.sg.generator import ConsistencyError
from repro.sg.graph import StateGraph
from sg_oracle import assign_codes


def _toggle_stg(*signals):
    stg = STG("toggle-codes")
    for name, kind in signals:
        stg.declare_signal(name, kind)
    return stg


def _toggle_sg(stg, arcs, states):
    sg = StateGraph(stg.name)
    for name, kind in stg.signals.items():
        sg.declare_signal(name, kind)
    for label in {label for _, label, _ in arcs}:
        sg.declare_event(label)
    for state in states:
        sg.add_state(state)
    sg.initial = states[0]
    for source, label, target in arcs:
        sg.add_arc(source, label, target)
    return sg


class TestAssignCodesToggle:
    def test_toggle_arc_flips_only_its_signal(self):
        stg = _toggle_stg(("a", SignalKind.OUTPUT), ("b", SignalKind.INPUT))
        sg = _toggle_sg(stg, [("s0", "a~", "s1"), ("s1", "a~", "s0")],
                        ["s0", "s1"])
        assign_codes(stg, sg)
        a_index, b_index = sg.signal_index("a"), sg.signal_index("b")
        assert sg.codes["s0"][a_index] != sg.codes["s1"][a_index]  # flip
        assert sg.codes["s0"][b_index] == sg.codes["s1"][b_index]  # preserve

    def test_toggle_constrained_equal_is_witnessed(self):
        # A self-loop demands a flip between a state and itself.
        stg = _toggle_stg(("a", SignalKind.OUTPUT))
        sg = _toggle_sg(stg, [("s0", "a~", "s0")], ["s0"])
        with pytest.raises(ConsistencyError, match="flip"):
            assign_codes(stg, sg)

    def test_preserve_conflicting_with_flip_is_witnessed(self):
        # b must both hold (across a~) and flip (across b~) on parallel arcs
        # forming an odd cycle: s0 --a~--> s1, s0 --b~--> s1.
        stg = _toggle_stg(("a", SignalKind.OUTPUT), ("b", SignalKind.OUTPUT))
        sg = _toggle_sg(stg, [("s0", "a~", "s1"), ("s0", "b~", "s1")],
                        ["s0", "s1"])
        with pytest.raises(ConsistencyError):
            assign_codes(stg, sg)

    def test_rise_fall_fixed_values_still_apply(self):
        # A 4-phase signal `a` interleaved with a toggle signal `t` that
        # flips twice per cycle (an even toggle count is required).
        stg = _toggle_stg(("a", SignalKind.OUTPUT), ("t", SignalKind.OUTPUT))
        sg = _toggle_sg(stg, [("s0", "a+", "s1"), ("s1", "t~", "s2"),
                              ("s2", "a-", "s3"), ("s3", "t~", "s0")],
                        ["s0", "s1", "s2", "s3"])
        assign_codes(stg, sg)
        a_index = sg.signal_index("a")
        t_index = sg.signal_index("t")
        assert [sg.codes[s][a_index] for s in ("s0", "s1", "s2", "s3")] == [0, 1, 1, 0]
        assert sg.codes["s1"][t_index] != sg.codes["s2"][t_index]
        assert sg.codes["s3"][t_index] != sg.codes["s0"][t_index]

    def test_declared_initial_value_flips_free_class(self):
        # The toggle class of `a` has no fixed value anywhere, so the
        # declared initial value must flip the whole connected class.
        stg = _toggle_stg(("a", SignalKind.OUTPUT))
        stg.set_initial_value("a", 1)
        sg = _toggle_sg(stg, [("s0", "a~", "s1"), ("s1", "a~", "s0")],
                        ["s0", "s1"])
        assign_codes(stg, sg)
        a_index = sg.signal_index("a")
        assert sg.codes["s0"][a_index] == 1
        assert sg.codes["s1"][a_index] == 0

    def test_declared_initial_value_conflict_with_forced_encoding(self):
        stg = _toggle_stg(("a", SignalKind.OUTPUT))
        stg.set_initial_value("a", 1)
        sg = _toggle_sg(stg, [("s0", "a+", "s1"), ("s1", "a-", "s0")],
                        ["s0", "s1"])
        # a+ from the initial state forces a=0 there; declaring 1 must fail.
        with pytest.raises(ConsistencyError, match="initial"):
            assign_codes(stg, sg)

    def test_unconstrained_signal_gets_declared_value_everywhere(self):
        stg = _toggle_stg(("a", SignalKind.OUTPUT), ("idle", SignalKind.INPUT))
        stg.set_initial_value("idle", 1)
        sg = _toggle_sg(stg, [("s0", "a~", "s1"), ("s1", "a~", "s0")],
                        ["s0", "s1"])
        assign_codes(stg, sg)
        idle_index = sg.signal_index("idle")
        assert all(sg.codes[s][idle_index] == 1 for s in ("s0", "s1"))


class TestMinimizeDeterminism:
    ON = [(0, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 1)]
    DC = [(1, 0, 1, 0), (0, 1, 0, 1)]

    def test_two_runs_identical_covers(self):
        from cost_oracle import minimize_fast_ints
        from qm_oracle import packed_sets
        from repro.logic.minimize import minimize_ints

        for engine_fn in (minimize_ints, minimize_fast_ints):
            first = engine_fn(4, *packed_sets(4, self.ON, self.DC))
            # Present the same sets in a different order: the result must
            # not depend on set iteration or insertion order.
            second = engine_fn(4, *packed_sets(4, list(reversed(self.ON)),
                                               list(reversed(self.DC))))
            assert [str(c) for c in first] == [str(c) for c in second]

    def test_identical_across_hash_seeds(self):
        # str hashing is the classic cross-process nondeterminism source;
        # the cover must not depend on it.
        script = (
            "from cost_oracle import minimize_fast_ints\n"
            "from qm_oracle import packed_sets\n"
            "from repro.logic.minimize import minimize_ints\n"
            f"on = {self.ON!r}\n"
            f"dc = {self.DC!r}\n"
            "sets = packed_sets(4, on, dc)\n"
            "print([str(c) for c in minimize_ints(4, *sets)])\n"
            "print(minimize_fast_ints(4, *sets))\n"
        )
        outputs = set()
        for seed in ("0", "1", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env={"PYTHONPATH": os.pathsep.join(("src", "tests")),
                     "PYTHONHASHSEED": seed})
            outputs.add(result.stdout)
        assert len(outputs) == 1
