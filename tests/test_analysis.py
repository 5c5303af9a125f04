"""The marking-level oracle of ``tests/net_oracle.py`` and the specs it checks.

The oracle's verdicts are pinned on hand-built nets first, so a spec
test that relies on them cannot pass vacuously.
"""

from net_oracle import dead_transitions, is_deadlock_free, is_safe
from repro.petri.net import PetriNet
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded, q_module_stg


def ring(tokens=1):
    net = PetriNet("ring")
    net.add_place("p0", tokens=tokens)
    net.add_place("p1")
    net.add_transition("t0")
    net.add_transition("t1")
    net.add_arc("p0", "t0")
    net.add_arc("t0", "p1")
    net.add_arc("p1", "t1")
    net.add_arc("t1", "p0")
    return net


class TestBehaviour:
    def test_ring_is_safe(self):
        assert is_safe(ring())

    def test_two_tokens_not_safe(self):
        assert not is_safe(ring(tokens=2))

    def test_deadlock_detection(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")  # t consumes and never returns the token
        assert not is_deadlock_free(net)

    def test_ring_deadlock_free(self):
        assert is_deadlock_free(ring())

    def test_live_and_dead_transitions(self):
        net = ring()
        net.add_place("never")
        net.add_transition("stuck")
        net.add_arc("never", "stuck")
        assert dead_transitions(net) == {"stuck"}

    def test_benchmarks_are_safe_and_live(self):
        for stg in (fig1_stg(), q_module_stg(), lr_expanded()):
            assert is_safe(stg.net), stg.name
            assert is_deadlock_free(stg.net), stg.name
            assert not dead_transitions(stg.net), stg.name
