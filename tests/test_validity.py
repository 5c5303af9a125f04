"""Definition 5.1 on stored artifacts (repro.reduction.validity).

``check_validity`` pairs the states of the two graphs by one walk from
both initial states, so it checks the pipeline's decoded artifacts, whose
states the canonical payload renumbers, against the generated graph or
its decoded copy.  The unit checks of each condition on graphs that
share state names are ``tests/test_fwdred.py::TestCheckValidity``.
"""

import functools

import pytest

from repro.petri.stg import SignalKind
from repro.pipeline import run_pipeline
from repro.reduction.validity import check_validity
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import TABLE1_ROWS, lr_expanded
from repro.specs.mmu import TABLE2_ROWS, mmu_expanded
from repro.specs.par import FIG10_ROWS, par_expanded

#: spec -> (expanded spec, its paper rows)
TABLES = {
    "lr": (lr_expanded, TABLE1_ROWS),
    "mmu": (mmu_expanded, TABLE2_ROWS),
    "par": (par_expanded, FIG10_ROWS),
}
ROWS = [(spec, name) for spec, (_, rows) in TABLES.items() for name in rows]


@functools.lru_cache(maxsize=None)
def _generated(spec):
    return generate_sg(TABLES[spec][0]())


@pytest.mark.parametrize("spec, name", ROWS,
                         ids=[f"{spec}/{name}" for spec, name in ROWS])
def test_every_paper_row_reduces_validly(spec, name):
    result = run_pipeline(TABLES[spec][1][name],
                          initial_sg=_generated(spec), name=name)
    reduced = result.reduced_sg()
    assert check_validity(result.initial_sg(), reduced).reasons == ()
    # The generated graph names its states by marking, the artifact by
    # canonical position: the pairing reads neither.
    assert check_validity(_generated(spec), reduced).reasons == ()


def _renamed(sg, drop=(), extra=()):
    """``sg`` with state ``s`` spelled ``("r", s)``, minus the ``drop``
    arcs and plus the ``extra`` ones, each ``(source, label, target)`` in
    ``sg``'s spelling."""
    out = StateGraph(sg.name)
    for signal in sg.signals:
        out.declare_signal(signal, sg.kinds[signal])
    for label, event in sg.events.items():
        out.declare_event(label, event)
    for state in sg.states:
        out.add_state(("r", state), sg.code_of(state))
    out.initial = ("r", sg.initial)
    for source, label, target in list(sg.arcs()) + list(extra):
        if (source, label, target) not in drop:
            out.add_arc(("r", source), label, ("r", target))
    return out


class TestPairing:
    def test_renamed_copy_is_valid(self):
        sg = generate_sg(fig1_stg())
        assert check_validity(sg, _renamed(sg)).valid

    def test_event_the_original_lacks_is_refused(self):
        sg = generate_sg(fig1_stg())
        initial = sg.initial
        label = next(label for label in sg.labels()
                     if sg.target(initial, label) is None)
        report = check_validity(sg, _renamed(sg, extra=[
            (initial, label, initial)]))
        assert not report.valid
        assert report.reasons[-1].startswith("language not contained")

    def test_state_reached_as_two_originals_is_refused(self):
        def build(arcs):
            sg = StateGraph("two")
            for signal in "abc":
                sg.declare_signal(signal, SignalKind.OUTPUT)
            for label in ("a+", "b+", "c+"):
                sg.declare_event(label)
            for arc in arcs:
                sg.add_arc(*arc)
            return sg

        original = build([("s0", "a+", "s1"), ("s0", "b+", "s2"),
                          ("s1", "c+", "s0"), ("s2", "c+", "s0")])
        # a+ and b+ reach one reduced state: every firing is in the
        # original language, but the state stands for s1 and for s2.
        reduced = build([(0, "a+", 1), (0, "b+", 1), (1, "c+", 0)])
        assert check_validity(original, reduced).reasons == (
            "states do not pair: 1 is 's1' and 's2'",)

    def test_delayed_input_names_the_reduced_state(self):
        sg = generate_sg(fig1_stg())
        state = next(s for s in sg.states
                     if sg.target(s, "Req+") is not None
                     and len(sg.enabled(s)) == 2)
        report = check_validity(sg, _renamed(sg, drop=[
            (state, "Req+", sg.target(state, "Req+"))]))
        assert report.reasons == (
            f"input events ['Req+'] delayed at {('r', state)!r}",)
