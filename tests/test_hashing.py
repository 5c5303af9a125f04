"""Content digests: the renderer against the composed reference, and the
digest a frozen graph keeps.

:func:`repro.pipeline.hashing.digest_payload` hashes the text of
``json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))``
without building the canonical value (see the module docstring).
``tests/hashing_oracle.py`` keeps that composition; here the renderer's
text must equal it byte for byte on seeded random values built to reach
every rule (mixed and nested sets, dict subclasses, namedtuples, enums,
fractions, NaN and infinities, big ints, and strings holding ``{``,
``"``, ``\\`` and non-ASCII characters), and on every value the pipeline
hashes while it runs the paper's 14 rows and the ``service_mix`` request
pool.  Set members iterate in hash-seed order, so CI runs this module
under two ``PYTHONHASHSEED`` values.
"""

import contextlib
import math
import random
import sys
from collections import namedtuple
from enum import Enum, IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

from hashing_oracle import reference_digest, reference_text
from repro.obs.metrics import registry
from repro.petri.stg import SignalKind
from repro.pipeline import ArtifactStore, hashing, run_pipeline
from repro.pipeline.artifacts import sg_from_payload, sg_to_payload
from repro.pipeline.hashing import digest_payload, graph_digest
from repro.serve.protocol import job_id, parse_synth_request
from repro.serve.tasks import run_task
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph
from repro.specs.lr import TABLE1_ROWS, lr_expanded
from repro.specs.mmu import TABLE2_ROWS, mmu_expanded
from repro.specs.par import FIG10_ROWS, par_expanded

REPO = Path(__file__).resolve().parent.parent


class Colour(Enum):
    RED = 1
    GREEN = "g"


class Level(IntEnum):
    LOW = 1
    HIGH = 20


class Mode(str, Enum):
    FAST = "fast{"
    SLOW = 'sl"ow'


Point = namedtuple("Point", "x y")


class Table(dict):
    """A dict subclass."""


class FrozenTable(dict):
    """A hashable dict subclass, so a dict can be a set member."""

    def __hash__(self):
        return hash(tuple(sorted(map(repr, self.items()))))


class Opaque:
    """A value only ``repr`` renders."""

    def __repr__(self):
        return '<opaque {"x": 1}>'


CHARS = 'ab{}[]",\\: \n\x00é✓\U0001f600'
FLOATS = (math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 0.1)


def _text(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 5)))


def _leaf(rng):
    kind = rng.randrange(12)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randint(-3, 12)
    if kind == 3:
        return rng.choice((-1, 1)) * rng.getrandbits(200)
    if kind == 4:
        return (rng.choice(FLOATS) if rng.random() < 0.5
                else rng.uniform(-1e6, 1e6))
    if kind == 5:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    if kind == 6:
        return rng.choice(list(Colour))
    if kind == 7:
        return rng.choice(list(Level))
    if kind == 8:
        return rng.choice(list(Mode))
    if kind == 9:
        return Opaque()
    return _text(rng)


def _hashable(rng, depth):
    if depth == 0 or rng.random() < 0.5:
        return _leaf(rng)
    members = [_hashable(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    kind = rng.randrange(4)
    if kind == 0:
        return tuple(members)
    if kind == 1:
        return frozenset(members)
    if kind == 2:
        return Point(*(members + [None, None])[:2])
    return FrozenTable((_text(rng), member) for member in members)


def _key(rng, depth):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.randint(-3, 12)
    if kind == 1:
        return rng.choice(FLOATS)
    if kind == 2:
        return rng.random() < 0.5
    if kind == 3:
        return None
    if kind == 4:
        return tuple(_hashable(rng, depth) for _ in range(rng.randint(0, 3)))
    if kind == 5:
        return frozenset(_hashable(rng, depth)
                         for _ in range(rng.randint(0, 3)))
    return _text(rng)


def random_value(rng, depth=3):
    """A random nested value that reaches every rendering rule."""
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)
    size = rng.randint(0, 4)
    kind = rng.randrange(7)
    if kind in (0, 1):
        members = [random_value(rng, depth - 1) for _ in range(size)]
        return members if kind == 0 else tuple(members)
    if kind in (2, 3):
        members = [_hashable(rng, depth - 1) for _ in range(size)]
        return set(members) if kind == 2 else frozenset(members)
    if kind in (4, 5):
        items = [(_key(rng, depth - 1), random_value(rng, depth - 1))
                 for _ in range(size)]
        return dict(items) if kind == 4 else Table(items)
    return Point(random_value(rng, depth - 1), random_value(rng, depth - 1))


class TestRenderer:
    def test_seeded_random_values(self):
        rng = random.Random(41)
        for draw in range(20_000):
            value = random_value(rng)
            assert hashing._render(value) == reference_text(value), (
                draw, value)

    @pytest.mark.parametrize("value", [
        # Non-str keys render spaced, and sort on that text.
        {(1, "a"): 1, (1,): 2, frozenset({3, 4}): 3, 2.5: 4, None: 5},
        # Two keys with one text: the last one's value wins.
        {(1, 2): "tuple", frozenset({1, 2}): "set"},
        {frozenset({1, 2}): "set", (1, 2): "tuple"},
        # A dict inside a list rewrites its keys; so does an empty one.
        [1, {"k": {"n": [2, {"m": 3}]}}, {}],
        # Strings that hold a brace but no dict.
        ["{", ("}{", "é")],
        # Members the C encoder refuses, deep in a list.
        [[1, [Fraction(1, 3), {Colour.RED, "x"}]], Opaque()],
        # Members it takes as canonical() renders them.
        [Level.HIGH, Mode.SLOW, Point(1, (2, 3)), math.nan, -math.inf],
        {Level.LOW: 1, Mode.FAST: 2, Colour.GREEN: 3, True: 4},
        # Dicts as set members.
        {FrozenTable(a=1, b=(2,)), FrozenTable(a=1), FrozenTable()},
        10 ** 40, Fraction(7, 1), "plain", None, (), frozenset(),
    ], ids=lambda value: type(value).__name__)
    def test_edge_cases(self, value):
        assert hashing._render(value) == reference_text(value)
        assert digest_payload(value) == reference_digest(value)

    def test_digest_counts_the_bytes_hashed(self):
        value = {"stage": "reduce", "inputs": ["ab", "cd"], "keep": {1, 2}}
        before = registry().value("repro_digest_bytes_total") or 0
        digest_payload(value)
        assert registry().value("repro_digest_bytes_total") - before == len(
            reference_text(value).encode("utf-8"))


@contextlib.contextmanager
def checked_renders():
    """Check every value the program digests in the block against the
    reference; yields the list of ``(value, text)`` that differ and a
    count of the values checked."""
    original = hashing._render
    depth = 0
    seen = {"checked": 0, "differ": []}

    def render(obj):
        nonlocal depth
        depth += 1
        try:
            text = original(obj)
        finally:
            depth -= 1
        if depth == 0:
            seen["checked"] += 1
            if text != reference_text(obj):
                seen["differ"].append((obj, text))
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hashing, "_render", render)
        yield seen


ROWS = [(expanded, name, config)
        for expanded, rows in ((lr_expanded, TABLE1_ROWS),
                               (mmu_expanded, TABLE2_ROWS),
                               (par_expanded, FIG10_ROWS))
        for name, config in rows.items()]


@pytest.fixture(scope="module")
def paper_rows(tmp_path_factory):
    """The 14 paper rows run on one store, every digest checked."""
    store = ArtifactStore(tmp_path_factory.mktemp("rows"))
    generated = {expanded: generate_sg(expanded()) for expanded, _, _ in ROWS}
    with checked_renders() as seen:
        results = [run_pipeline(config, initial_sg=generated[expanded],
                                name=name, store=store)
                   for expanded, name, config in ROWS]
    return results, seen


def _service_pool():
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        from service_mix import build_pool
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return build_pool()


class TestStagePayloads:
    def test_paper_rows(self, paper_rows):
        results, seen = paper_rows
        assert len(results) == 14
        assert seen["differ"] == []
        # Three graph digests, a config digest and a stage key per stage.
        assert seen["checked"] > 14 * 10
        for result in results:
            for stage in result.results.values():
                assert stage.digest == reference_digest(stage.payload)

    def test_service_mix_pool(self, tmp_path):
        pool = _service_pool()
        assert len(pool) == 288
        store = ArtifactStore(tmp_path)
        with checked_renders() as seen:
            for _ in ("cold", "warm"):
                for body in pool:
                    task = parse_synth_request(body)
                    job_id(task)
                    run_task(task, store)
        assert seen["differ"] == []
        assert seen["checked"] > 2 * 288


def _row_graphs(result):
    return [result.initial_sg(), result.reduced_sg(), result.resolved_sg()]


def _bytes_hashed():
    return registry().value("repro_digest_bytes_total") or 0


class TestGraphDigestMemo:
    """A frozen graph keeps its digest; nothing else does."""

    def test_frozen_graphs_of_the_paper_rows(self, paper_rows):
        results, _ = paper_rows
        for result in results:
            for sg in _row_graphs(result):
                expected = digest_payload(sg_to_payload(sg))
                assert graph_digest(sg) == expected
                before = _bytes_hashed()
                assert graph_digest(sg) == expected
                assert _bytes_hashed() == before
                assert sg._digest == (sg.name, expected)

    def test_derived_graphs_start_without_a_memo(self, paper_rows):
        results, _ = paper_rows
        for result in results:
            for sg in _row_graphs(result):
                graph_digest(sg)
                assert sg._digest is not None
                for derived in (sg.copy_without_arcs(()),
                                sg_from_payload(sg_to_payload(sg))):
                    assert derived._digest is None
                    assert graph_digest(derived) == graph_digest(sg)

    def test_open_graph_is_digested_afresh(self):
        sg = StateGraph("open")
        sg.declare_signal("a", SignalKind.OUTPUT)
        sg.declare_event("a+")
        sg.declare_event("a-")
        sg.add_state("s0", (0,))
        sg.add_state("s1", (1,))
        sg.add_arc("s0", "a+", "s1")
        first = graph_digest(sg)
        assert sg._digest is None
        sg.add_arc("s1", "a-", "s0")
        second = graph_digest(sg)
        assert second != first and sg._digest is None
        assert second == digest_payload(sg_to_payload(sg))
        sg.freeze()
        assert graph_digest(sg) == second
        assert sg._digest == ("open", second)

    def test_renamed_graph_is_digested_afresh(self, paper_rows):
        sg = sg_from_payload(sg_to_payload(paper_rows[0][0].resolved_sg()))
        first = graph_digest(sg)
        sg.name = "renamed"
        assert graph_digest(sg) != first
        assert graph_digest(sg) == digest_payload(sg_to_payload(sg))
