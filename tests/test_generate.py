"""The random live-safe STG generator and its shrinker.

Three contracts under test:

* **determinism** -- same (seed, knobs) means the same derivation trace,
  in this process and across ``PYTHONHASHSEED`` subprocesses; a
  :class:`~repro.specs.generate.random.GenSpec` survives a JSON
  round-trip byte-for-byte;
* **correctness by construction** -- every generated spec is live, 1-safe
  and consistent (the token-flow argument in the generator's docstring,
  checked here over a 200-spec corpus);
* **shrinking** -- the shrink log replays to the identical shrunk spec,
  and at the fixpoint no single derivation step is removable.
"""

import json
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from net_oracle import dead_transitions, is_deadlock_free, is_safe
from repro.sg.generator import generate_sg
from repro.sg.properties import is_consistent
from repro.specs.generate import (GenKnobs, GenSpec, TraceError,
                                  build_from_trace, generate_spec,
                                  replay_shrink, shrink, spec_seed)
from repro.specs.generate.shrink import _candidates

CORPUS_SIZE = 200


def _corpus(count=CORPUS_SIZE, seed=0):
    return [generate_spec(spec_seed(seed, index)) for index in range(count)]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        for index in (0, 7, 123):
            seed = spec_seed(0, index)
            first, second = generate_spec(seed), generate_spec(seed)
            assert first == second
            assert first.digest == second.digest

    def test_knobs_are_part_of_the_identity(self):
        small = GenKnobs(max_fragments=1, max_mutations=1, max_signals=6)
        assert generate_spec(3, small) != generate_spec(3)
        spec = generate_spec(3, small)
        assert len([s for s in spec.trace
                    if s.get("op") == "fragment"]) == 1

    def test_json_round_trip(self):
        for spec in _corpus(20):
            line = spec.to_json()
            assert "\n" not in line
            again = GenSpec.from_json(line)
            assert again == spec
            assert again.to_json() == line
            assert again.build().name == spec.name

    def test_build_is_a_pure_function_of_the_trace(self):
        from repro.pipeline.artifacts import sg_to_payload
        from repro.pipeline.hashing import digest_payload

        spec = generate_spec(spec_seed(0, 0))
        digests = {digest_payload(sg_to_payload(generate_sg(spec.build())))
                   for _ in range(3)}
        assert len(digests) == 1


_TRACE_PROBE = """
import json, sys
from repro.specs.generate import generate_spec, spec_seed

out = [generate_spec(spec_seed(0, index)).to_json()
       for index in range(40)]
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
    def test_traces_stable_across_hash_seeds(self):
        first, second = [_run_probe(_TRACE_PROBE, seed)
                         for seed in ("0", "4242")]
        assert first == second
        # ... and identical to this process's own draws.
        assert first == [generate_spec(spec_seed(0, index)).to_json()
                        for index in range(40)]


def _marking_graph(net):
    """(forward, backward) adjacency of the reachable marking graph,
    plus the fired-transition set -- a bare BFS, so checking 200 specs
    does not pay the full SG construction (codes, consistency) per
    spec."""
    initial = net.initial_marking()
    forward = {initial: set()}
    backward = {initial: set()}
    fired = set()
    queue = deque([(initial, frozenset(net.enabled_transitions(initial)))])
    while queue:
        marking, enabled = queue.popleft()
        for transition in enabled:
            successor, succ_enabled = net.fire_incremental(
                transition, marking, enabled)
            fired.add(transition)
            if successor not in forward:
                forward[successor] = set()
                backward[successor] = set()
                queue.append((successor, succ_enabled))
            forward[marking].add(successor)
            backward[successor].add(marking)
    return forward, backward, fired


def _covers_all(adjacency):
    start = next(iter(adjacency))
    seen = {start}
    queue = deque(seen)
    while queue:
        for nxt in adjacency[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(adjacency)


class TestLiveSafeByConstruction:
    def test_corpus_invariants(self):
        for spec in _corpus():
            net = spec.build().net
            forward, backward, fired = _marking_graph(net)
            assert all(count <= 1 for marking in forward
                       for count in marking), spec.name  # 1-safe
            assert fired == set(net.transition_names), spec.name
            assert all(forward.values()), spec.name  # deadlock-free
            # Every reachable marking can reach every other: each
            # transition stays fireable forever (liveness), not just
            # once.
            assert _covers_all(forward), spec.name
            assert _covers_all(backward), spec.name

    def test_sample_consistency_and_net_analysis(self):
        # The heavier per-spec machinery (full SG with code assignment,
        # the library's own net analyses) agrees with the bare-BFS
        # shortcuts above; consistency over the whole corpus is the
        # differential suite's coding oracle.
        for index in (0, 3, 11, 17):
            stg = generate_spec(spec_seed(0, index)).build()
            assert is_consistent(generate_sg(stg))
            assert is_safe(stg.net)
            assert is_deadlock_free(stg.net)
            assert not dead_transitions(stg.net)

    def test_corpus_is_not_degenerate(self):
        corpus = _corpus()
        shapes = set()
        ops = set()
        for spec in corpus:
            for step in spec.trace:
                if step.get("op") == "fragment":
                    shapes.add(step["shape"])
                else:
                    ops.add(step["op"])
        assert shapes == {"link", "fifo", "micropipeline"}
        assert ops == {"insert", "widen", "choice"}

    def test_trace_errors_are_rejected_not_crashes(self):
        with pytest.raises(TraceError):
            build_from_trace([])  # no fragments
        with pytest.raises(TraceError):
            build_from_trace([{"op": "fragment", "shape": "nope"}])
        with pytest.raises(TraceError):
            build_from_trace([{"op": "fragment", "shape": "link"},
                              {"op": "insert", "place": "ghost",
                               "signal": "x0"}])
        with pytest.raises(TraceError):
            build_from_trace([{"op": "fragment", "shape": "link"},
                              {"op": "teleport", "place": "p"}])


def _needs_x0(candidate):
    """A deterministic stand-in failure: the spec still carries x0."""
    return any(step.get("signal") == "x0" for step in candidate.trace)


def _spec_with_x0():
    for index in range(50):
        spec = generate_spec(spec_seed(0, index))
        if _needs_x0(spec) and len(spec.trace) >= 3:
            return spec
    raise AssertionError("no corpus spec with an x0 mutation")


class TestShrink:
    def test_shrink_log_replays_byte_identically(self):
        spec = _spec_with_x0()
        result = shrink(spec, _needs_x0)
        assert result.steps == len(result.log)
        replayed = replay_shrink(spec, result.log)
        assert replayed == result.spec
        assert replayed.to_json() == result.spec.to_json()

    def test_shrunk_spec_is_minimal(self):
        spec = _spec_with_x0()
        result = shrink(spec, _needs_x0)
        final = result.spec.trace
        assert len(final) < len(spec.trace)
        # No single derivation step is removable: every drop candidate
        # either no longer builds or no longer fails.
        for entry, candidate in _candidates(final):
            if entry["action"] != "drop":
                continue
            try:
                build_from_trace(candidate)
            except TraceError:
                continue
            shrunk = GenSpec(seed=spec.seed, knobs=spec.knobs,
                             trace=candidate)
            assert not _needs_x0(shrunk), entry

    def test_shrink_rejects_unbuildable_spec(self):
        broken = GenSpec(seed=0, knobs=GenKnobs(),
                         trace=({"op": "insert", "place": "p",
                                 "signal": "x0"},))
        with pytest.raises(TraceError):
            shrink(broken, lambda candidate: True)
