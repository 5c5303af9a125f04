"""The exploration-core equivalence suite.

The tentpole invariant of the shared frontier engine: rebasing SG
generation, reduction search and the conformance product onto
``repro.explore`` must not move a single byte of output.  The digests in
``tests/data/golden_equivalence.json`` were captured from the pre-core
code paths; every digest here is canonical (BFS-renumbered payloads,
timing fields stripped), so the comparison is independent of hash seeds,
dict order and machine speed.  The subprocess test re-derives a sample
under different ``PYTHONHASHSEED`` values to prove that independence
rather than assume it.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.pipeline.artifacts import sg_to_payload
from repro.pipeline.hashing import digest_payload
from repro.sg.generator import generate_sg
from repro.specs import suite

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_equivalence.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@functools.lru_cache(maxsize=None)
def _cached_source(name):
    # Imports and spec construction stay lazy: `pytest -x -q` collection
    # (and tests that need one spec) must not pay for the whole suite.
    if name == "fig1":
        from repro.specs.fig1 import fig1_stg
        return fig1_stg()
    if name == "lr":
        from repro.specs.lr import lr_expanded
        return lr_expanded()
    if name == "mmu":
        from repro.specs.mmu import mmu_expanded
        return mmu_expanded()
    if name == "par":
        from repro.specs.par import par_expanded
        return par_expanded()
    return suite.load(name)


def _spec_source(name):
    # Copies keep the cache immune to any in-test mutation.
    return _cached_source(name).copy()


def _spec_sources():
    names = list(suite.suite_names()) + ["fig1", "lr", "mmu", "par"]
    return {name: _spec_source(name) for name in names}


def _certificate_digest(label):
    from repro.pipeline import FlowConfig, run_pipeline
    from repro.verify import verify_netlist

    name, strategy = label.split("/")
    sg = generate_sg(_spec_source(name))
    result = run_pipeline(FlowConfig(strategy=strategy), initial_sg=sg,
                          name=label)
    report, _ = verify_netlist(result.circuit().netlist,
                               result.resolved_sg(), name=label)
    payload = report.to_dict()
    payload.pop("seconds", None)
    return digest_payload(payload)


class TestGoldenDigests:
    def test_sg_payloads(self, golden):
        sources = _spec_sources()
        assert sorted(sources) == sorted(golden["sg_payload_digests"])
        for name, stg in sorted(sources.items()):
            digest = digest_payload(sg_to_payload(generate_sg(stg)))
            assert digest == golden["sg_payload_digests"][name], name

    def test_certificates(self, golden):
        for label, want in sorted(golden["certificate_digests"].items()):
            assert _certificate_digest(label) == want, label

    def test_sweep_report(self, golden):
        from repro.sweep import run_sweep
        from repro.sweep.grid import tables_grid
        from repro.sweep.report import to_json

        rows = run_sweep(tables_grid(specs=golden["sweep_specs"]),
                         jobs=1).rows
        digest = digest_payload({"report": to_json(rows)})
        assert digest == golden["sweep_report_digest"]


def _family_sources():
    from repro.specs.families import (arbiter_tree, counter, fifo_chain,
                                      micropipeline_chain)
    return {"fifo_chain_2": fifo_chain(2),
            "micropipeline_chain_1": micropipeline_chain(1),
            "counter_2": counter(2),
            "arbiter_tree_2": arbiter_tree(2)}


class TestEngineParity:
    """packed / tuples / symbolic must agree byte for byte.

    Same reachable-state counts, same CSC/USC verdicts, same canonical
    witnesses: the symbolic engine never materializes a state graph, so
    its coding payload is compared against the explicit one rendered from
    the generated SG.  Toggle specs (``counter``) exercise the unfolded
    explicit path against the symbolic one.
    """

    def test_reachable_state_counts(self):
        from repro.symbolic import encode_stg, symbolic_reach

        sources = dict(_spec_sources(), **_family_sources())
        for name, stg in sorted(sources.items()):
            explicit = len(generate_sg(stg))
            assert symbolic_reach(encode_stg(stg)).state_count \
                == explicit, name

    def test_tuples_engine_matches_golden_digests(self, golden):
        for name, stg in sorted(_spec_sources().items()):
            digest = digest_payload(
                sg_to_payload(generate_sg(stg, engine="tuples")))
            assert digest == golden["sg_payload_digests"][name], name

    def test_coding_payloads_identical(self):
        from repro.sg.properties import check_coding

        sources = dict(_spec_sources(), **_family_sources())
        for name, stg in sorted(sources.items()):
            explicit = check_coding(stg, engine="auto").to_payload()
            symbolic = check_coding(stg, engine="symbolic").to_payload()
            assert explicit == symbolic, name
            tuples = check_coding(stg, engine="tuples").to_payload()
            assert tuples == explicit, name


_SYMBOLIC_SEED_PROBE = """
import json, sys
from repro.pipeline.hashing import digest_payload
from repro.sg.properties import check_coding
from repro.specs import suite
from repro.specs.families import counter
from repro.symbolic import encode_stg, symbolic_reach

out = {"coding": {}, "nodes": {}}
for name in ("micropipeline", "vme_read"):
    stg = suite.load(name)
    out["coding"][name] = digest_payload(
        check_coding(stg, engine="symbolic").to_payload())
    run = symbolic_reach(encode_stg(stg))
    out["nodes"][name] = [run.state_count, run.node_count, run.images,
                          run.closures, run.rounds]
stg = counter(2)
out["coding"]["counter_2"] = digest_payload(
    check_coding(stg, engine="symbolic").to_payload())
json.dump(out, sys.stdout)
"""


_HASH_SEED_PROBE = """
import json, sys
from repro.pipeline.artifacts import sg_to_payload
from repro.pipeline.hashing import digest_payload
from repro.sg.generator import generate_sg
from repro.specs import suite
from repro.pipeline import FlowConfig, run_pipeline
from repro.verify import verify_netlist

out = {"sg": {}}
for name in ("vme_read", "fifo_cell"):
    out["sg"][name] = digest_payload(
        sg_to_payload(generate_sg(suite.load(name))))
result = run_pipeline(FlowConfig(strategy="full"),
                      initial_sg=generate_sg(suite.load("half")),
                      name="half/full")
report, _ = verify_netlist(result.circuit().netlist, result.resolved_sg(),
                           name="half/full")
payload = report.to_dict()
payload.pop("seconds", None)
out["certificate"] = digest_payload(payload)
json.dump(out, sys.stdout)
"""


def _run_probe(probe, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


class TestHashSeedIndependence:
    def test_digests_stable_across_hash_seeds(self, golden):
        results = [_run_probe(_HASH_SEED_PROBE, seed)
                   for seed in ("0", "4242")]
        first, second = results
        assert first == second
        for name, digest in first["sg"].items():
            assert digest == golden["sg_payload_digests"][name], name
        assert (first["certificate"]
                == golden["certificate_digests"]["half/full"])

    def test_symbolic_stable_across_hash_seeds(self):
        # BDD node ids are creation-ordered and every table is keyed by
        # ints, so state counts, node counts, pass counts and coding
        # payload digests must not move with the hash seed -- and the
        # coding digests must equal the explicit engine's in-process.
        first, second = [_run_probe(_SYMBOLIC_SEED_PROBE, seed)
                         for seed in ("0", "4242")]
        assert first == second
        from repro.sg.properties import check_coding
        from repro.specs.families import counter

        for name in ("micropipeline", "vme_read"):
            explicit = digest_payload(
                check_coding(suite.load(name), engine="auto").to_payload())
            assert first["coding"][name] == explicit, name
        assert first["coding"]["counter_2"] == digest_payload(
            check_coding(counter(2), engine="auto").to_payload())
