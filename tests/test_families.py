"""Unit tests for the parametric spec families (repro.specs.families)."""

import pytest

from repro.pipeline.artifacts import sg_to_payload
from repro.pipeline.hashing import digest_payload
from repro.sg.generator import generate_sg
from repro.specs.families import (arbiter_tree, counter, family_names,
                                  fifo_chain, load_family,
                                  micropipeline_chain, parse_family_name)
from repro.specs.registry import load_spec, spec_names, spec_sg, spec_text


def _sg_digest(stg):
    return digest_payload(sg_to_payload(generate_sg(stg)))


class TestGrowth:
    """The documented closed forms of the reachable state counts."""

    def test_fifo_chain_states(self):
        for stages in (1, 2, 3, 4):
            sg = generate_sg(fifo_chain(stages))
            assert len(sg) == 3 ** (stages + 1) + (-1) ** stages, stages

    def test_micropipeline_chain_states(self):
        for stages in (1, 2):
            sg = generate_sg(micropipeline_chain(stages))
            assert len(sg) == 2 ** (3 * stages + 2), stages

    def test_counter_states(self):
        # Per stage: 2 phase markings x 2 output-slot markings; the last
        # output toggle's parity is the one value bit no marking tracks.
        for stages in (1, 2, 3, 4):
            sg = generate_sg(counter(stages))
            assert len(sg) == 2 ** (2 * stages + 1), stages

    def test_arbiter_tree_states(self):
        # No clean closed form (mutexes prune the client product); the
        # exact counts are pinned so growth regressions surface.
        for leaves, states in ((2, 28), (4, 912)):
            sg = generate_sg(arbiter_tree(leaves))
            assert len(sg) == states, leaves

    def test_arbiter_tree_rejects_bad_leaf_counts(self):
        for bad in (0, 1, 3, 6):
            with pytest.raises(ValueError):
                arbiter_tree(bad)

    def test_net_grows_linearly(self):
        # Each cell adds 8 transitions and fuses 4 with its neighbour's
        # shared handshake pair: 4n + 4 in total.
        for stages in (1, 2, 4):
            net = fifo_chain(stages).net
            assert len(net.transitions) == 4 * stages + 4, stages


class TestSeedInvariance:
    """Seeds shuffle declaration order, never behaviour: the canonical
    (BFS-renumbered) SG payload digest must not move."""

    def test_fifo_chain(self):
        digests = {_sg_digest(fifo_chain(3, seed=seed))
                   for seed in (0, 1, 2)}
        assert len(digests) == 1

    def test_micropipeline_chain(self):
        digests = {_sg_digest(micropipeline_chain(2, seed=seed))
                   for seed in (0, 7)}
        assert len(digests) == 1

    def test_counter(self):
        digests = {_sg_digest(counter(3, seed=seed)) for seed in (0, 5)}
        assert len(digests) == 1

    def test_arbiter_tree(self):
        digests = {_sg_digest(arbiter_tree(4, seed=seed))
                   for seed in (0, 3)}
        assert len(digests) == 1


class TestNaming:
    def test_parse_round_trip(self):
        assert parse_family_name("fifo_chain_8") == ("fifo_chain", 8, 0)
        assert parse_family_name("micropipeline_chain_4_s2") == (
            "micropipeline_chain", 4, 2)
        assert parse_family_name("counter_3") == ("counter", 3, 0)
        assert parse_family_name("arbiter_tree_4_s1") == (
            "arbiter_tree", 4, 1)

    def test_unknown_rejected(self):
        for bad in ("fifo_chain", "fifo_chain_x", "turbo_chain_3", "half"):
            with pytest.raises(KeyError):
                parse_family_name(bad)

    def test_load_family_matches_constructor(self):
        assert (_sg_digest(load_family("fifo_chain_2_s1"))
                == _sg_digest(fifo_chain(2, seed=1,
                                         name="fifo_chain_2_s1")))

    def test_member_named_after_its_spec(self):
        assert load_family("fifo_chain_3").name == "fifo_chain_3"

    def test_registry_names(self):
        assert family_names() == ["arbiter_tree", "counter", "fifo_chain",
                                  "micropipeline_chain"]


class TestSuiteAccessors:
    """The spec registry loads family members by name but keeps them out
    of its names (they are opt-in by size) and has no text for them."""

    def test_delegation(self):
        assert (_sg_digest(load_spec("fifo_chain_2"))
                == _sg_digest(fifo_chain(2)))
        assert (digest_payload(sg_to_payload(spec_sg("fifo_chain_2")))
                == _sg_digest(fifo_chain(2)))

    def test_not_in_sweep_sources(self):
        assert not set(spec_names()) & set(family_names())
        with pytest.raises(KeyError):
            spec_text("fifo_chain_2")
