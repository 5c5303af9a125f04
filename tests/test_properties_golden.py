"""Byte-for-byte pins on the property checks and next-state extraction.

``tests/data/golden_properties.json`` was captured from the code that still
numbered each graph once per check.  For every graph the suite pins:

* the digests of the consistency, commutativity and persistency witness
  lists, in the order the checks return them;
* ``coding_counts``, ``csc_conflicting_signals`` and the digest of
  ``irresolvable_conflicts`` (in order);
* the digest of the ``coding_report`` payload;
* the digest of the ON/OFF/conflict sets of ``extract_all_functions``.

A check that raises is pinned by its exception type.  Graphs: every
registry spec, three family members and one hand-built graph that is
inconsistent, non-commutative and non-persistent.  Regenerate only for a
deliberate change, with ``PYTHONPATH=src python tests/test_properties_golden.py``.
"""

import dataclasses
import json
from pathlib import Path

from repro.encoding.csc import irresolvable_conflicts
from repro.logic.functions import extract_all_functions
from repro.petri.stg import SignalKind
from repro.pipeline.hashing import digest_payload
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph, StateGraphError
from repro.sg.properties import (coding_counts, coding_report,
                                 commutativity_violations,
                                 consistency_violations,
                                 csc_conflicting_signals,
                                 persistency_violations)
from repro.specs.families import load_family
from repro.sweep.grid import spec_registry

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_properties.json"

FAMILY_MEMBERS = ("fifo_chain_4", "micropipeline_chain_2", "counter_4")


def hand_built():
    """Output ``a`` and input ``b`` race from ``(0,)``, as in the
    commutativity and persistency tests of ``test_properties``: the two
    orders of ``a+``/``b+`` end in different states, ``c+`` is disabled
    by both and disables ``b+``, two arcs break the codes, and ``(5,)`` and
    ``(6,)`` share a code but not their excitation."""
    sg = StateGraph("hand")
    for name, kind in (("a", SignalKind.OUTPUT), ("b", SignalKind.INPUT),
                       ("c", SignalKind.OUTPUT)):
        sg.declare_signal(name, kind)
    for label in ("a+", "b+", "c+"):
        sg.declare_event(label)
    codes = {(0,): (0, 0, 0), (1,): (1, 0, 0), (2,): (0, 1, 0),
             (3,): (1, 1, 0), (4,): (1, 1, 1), (5,): (0, 0, 1),
             (6,): (0, 0, 1)}
    for state, code in codes.items():
        sg.add_state(state, code)
    for source, label, target in (((0,), "a+", (1,)), ((0,), "b+", (2,)),
                                  ((0,), "c+", (5,)), ((1,), "b+", (3,)),
                                  ((2,), "a+", (4,)), ((5,), "a+", (6,))):
        sg.add_arc(source, label, target)
    return sg


def golden_graphs():
    """``{name: state graph}`` of every pinned graph."""
    graphs = {name: generate_sg(factory())
              for name, factory in spec_registry().items()}
    for name in FAMILY_MEMBERS:
        graphs[name] = generate_sg(load_family(name))
    graphs["hand"] = hand_built()
    return graphs


def _pinned(read):
    """``read()``, or the name of the exception it raises."""
    try:
        return read()
    except (StateGraphError, ValueError) as exc:
        return f"raises {type(exc).__name__}"


def _witnesses(violations):
    return digest_payload([dataclasses.astuple(v) for v in violations])


def _functions(sg):
    return digest_payload({
        signal: [sorted(f.on_ints), sorted(f.off_ints),
                 sorted(f.conflict_ints)]
        for signal, f in extract_all_functions(sg).items()})


def property_digests(sg):
    """One graph's golden entry, recomputed from the current code."""
    return {
        "consistency": _pinned(lambda: _witnesses(consistency_violations(sg))),
        "commutativity": _pinned(
            lambda: _witnesses(commutativity_violations(sg))),
        "persistency": _pinned(lambda: _witnesses(persistency_violations(sg))),
        "coding_counts": _pinned(lambda: list(coding_counts(sg))),
        "csc_signals": _pinned(lambda: sorted(csc_conflicting_signals(sg))),
        "irresolvable": _pinned(
            lambda: _witnesses(irresolvable_conflicts(sg))),
        "coding_report": _pinned(
            lambda: digest_payload(coding_report(sg).to_payload())),
        "functions": _pinned(lambda: _functions(sg)),
    }


def golden_results():
    """The golden file's content, recomputed from the current code."""
    return {name: property_digests(sg)
            for name, sg in sorted(golden_graphs().items())}


def test_properties_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden_results() == golden


def test_hand_built_graph_breaks_every_check():
    entry = property_digests(hand_built())
    empty = _witnesses([])
    assert all(entry[check] != empty for check in
               ("consistency", "commutativity", "persistency"))
    assert entry["coding_counts"] == [1, 1]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_results(), indent=1,
                                      sort_keys=True) + "\n")
