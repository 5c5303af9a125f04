"""Byte-for-byte pins on CSC state-signal insertion.

The digests in ``tests/data/golden_insertion.json`` were captured from the
code that still had one product builder per insertion style.  For every
input the suite pins:

* ``enumerate``: every candidate of ``enumerate_insertions(sg, "csc0")`` in
  order -- the choice's fields and the canonical payload of its graph;
* ``resolve``: the outcome of ``resolve_csc`` -- the resolved graph's
  payload, the committed choices and the ``resolved`` flag.

Unreduced MMU is pinned with ``max_signals=1`` only: one signal does not
resolve it, so it covers the best-partial path that the certificate
goldens never reach.
"""

import dataclasses
import functools
import json
from itertools import product
from pathlib import Path

from repro.encoding.csc import conflict_count
from repro.encoding.insertion import (STYLES, enumerate_insertions,
                                      insert_state_signal, resolve_csc)
from repro.pipeline.artifacts import sg_to_payload
from repro.pipeline.hashing import digest_payload
from repro.sg.generator import generate_sg
from repro.sg.properties import persistency_violations
from repro.specs import suite

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_insertion.json"


@functools.lru_cache(maxsize=None)
def _mmu():
    from repro.specs.mmu import mmu_expanded
    return generate_sg(mmu_expanded())


def _mmu_blr():
    from repro.reduction.explore import full_reduction
    from repro.specs.mmu import keep_conc_for
    return full_reduction(_mmu(), keep_conc=keep_conc_for(("b", "l", "r")),
                          size_frontier=3)


def _fig1():
    from repro.specs.fig1 import fig1_stg
    return generate_sg(fig1_stg())


def _q_module():
    from repro.specs.lr import q_module_stg
    return generate_sg(q_module_stg())


def _lr():
    from repro.specs.lr import lr_expanded
    return generate_sg(lr_expanded())


def _suite_inputs():
    inputs = {}
    for name in suite.suite_names():
        sg = generate_sg(suite.load(name))
        if conflict_count(sg):
            inputs[f"suite/{name}"] = sg
    return inputs


def insertion_inputs():
    """``{name: (sg, resolve_csc keyword arguments, pin enumerate?)}``."""
    inputs = {"fig1": (_fig1(), {}, True),
              "q_module": (_q_module(), {}, True),
              "lr": (_lr(), {}, True),
              "mmu/|| (b, l, r)": (_mmu_blr(), {}, True),
              "mmu/max_signals=1": (_mmu(), {"max_signals": 1}, False)}
    for name, sg in _suite_inputs().items():
        inputs[name] = (sg, {}, True)
    return inputs


def _sg_digest(sg):
    return digest_payload(sg_to_payload(sg))


def enumerate_digest(sg):
    return digest_payload([[dataclasses.asdict(choice), _sg_digest(candidate)]
                           for choice, candidate
                           in enumerate_insertions(sg, "csc0")])


def resolve_digest(sg, **kwargs):
    result = resolve_csc(sg, **kwargs)
    return digest_payload({
        "sg": _sg_digest(result.sg),
        "insertions": [dataclasses.asdict(c) for c in result.insertions],
        "resolved": result.resolved,
    })


def insertion_digests():
    """The golden file's content, recomputed from the current code."""
    digests = {}
    for name, (sg, kwargs, pin_enumerate) in sorted(insertion_inputs().items()):
        entry = {"resolve": resolve_digest(sg, **kwargs)}
        if pin_enumerate:
            entry["enumerate"] = enumerate_digest(sg)
        digests[name] = entry
    return digests


def test_insertion_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert insertion_digests() == golden


def _disabling_pairs(sg):
    return {(v.disabled, v.by) for v in persistency_violations(sg)}


def test_insertions_keep_output_persistency():
    # Soundness oracle for the walk's Definition 5.1 rule: no graph that
    # insert_state_signal returns has a (disabled, by) persistency pair its
    # input lacks.
    built = 0
    for sg, _, __ in insertion_inputs().values():
        allowed = _disabling_pairs(sg)
        events = sorted(sg.events)
        for style, rise, fall, value in product(STYLES, events, events,
                                                (0, 1)):
            candidate = insert_state_signal(sg, rise, fall, "csc_new",
                                            value, style)
            if candidate is not None:
                built += 1
                assert _disabling_pairs(candidate) <= allowed, (
                    style, rise, fall, value)
    assert built
