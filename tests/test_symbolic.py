"""Unit tests for the symbolic engine (repro.symbolic).

The BDD manager's determinism contract -- identical op sequences build
identical tables regardless of hash seed -- is what lets the rest of the
suite pin node counts and payload digests, so it is tested directly
here, alongside the encoder/reachability corpus counts and the budget
semantics.
"""

import contextlib
import io
import json
import random
import re
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.explore import budget as budget_module
from repro.explore import explore_tuples
from repro.explore.budget import BudgetExceeded, ExplorationBudget
from repro.obs.trace import TraceRecorder, recording
from repro.petri.parser import parse_stg
from repro.sg.generator import generate_sg
from repro.specs import suite
from repro.specs.families import (arbiter_tree, counter, fifo_chain,
                                  load_family, micropipeline_chain)
from repro.specs.generate import generate_spec, spec_seed
from repro.specs.registry import load_spec, spec_names
from repro.cli import main
from repro.sg.properties import check_coding
from repro.symbolic import (FALSE, TRUE, BDD, SymbolicDepthError,
                            SymbolicEncodingError, SymbolicOverflowError,
                            check_coding_symbolic, encode_stg, symbolic_reach)
from repro.symbolic.bdd import (CLEAR, FLIP, PUT, READ, SET, TAKE,
                                GuardError)
from symbolic_oracle import (composed_image, diff, fire, ite, plan_image,
                             reference_reach, restrict)


def _eval(bdd, f, assignment):
    """Walk the node table from ``f`` to a terminal under ``assignment``."""
    while f > TRUE:
        f = bdd._high[f] if assignment[bdd._var[f]] else bdd._low[f]
    return f


class TestBDDCore:
    def test_terminals(self):
        assert FALSE == 0 and TRUE == 1
        bdd = BDD(2)
        assert bdd.node_count == 2

    def test_hash_consing(self):
        bdd = BDD(3)
        assert bdd.var(1) == bdd.var(1)
        a = bdd.apply_and(bdd.var(0), bdd.var(2))
        b = bdd.apply_and(bdd.var(2), bdd.var(0))
        assert a == b  # semantic equality is id equality

    def test_reduction(self):
        bdd = BDD(2)
        assert bdd.node(0, TRUE, TRUE) == TRUE  # low == high collapses

    def test_identical_op_sequences_build_identical_tables(self):
        def build(bdd):
            x, y, z = bdd.var(0), bdd.var(1), bdd.var(2)
            f = bdd.apply_or(bdd.apply_and(x, y), bdd.apply_xor(y, z))
            return ite(bdd, f, bdd.negate(z), x)

        one, two = BDD(3), BDD(3)
        assert build(one) == build(two)
        assert one.node_count == two.node_count

    def test_connective_truth_tables(self):
        bdd = BDD(2)
        x, y = bdd.var(0), bdd.var(1)
        for a in (0, 1):
            for b in (0, 1):
                env = {0: a, 1: b}
                assert _eval(bdd, bdd.apply_and(x, y), env) == (a & b)
                assert _eval(bdd, bdd.apply_or(x, y), env) == (a | b)
                assert _eval(bdd, bdd.apply_xor(x, y), env) == (a ^ b)
                assert _eval(bdd, bdd.negate(x), env) == 1 - a
                assert _eval(bdd, diff(bdd, x, y), env) == (a & ~b & 1)

    def test_count_and_models(self):
        bdd = BDD(3)
        f = bdd.apply_xor(bdd.var(0), bdd.var(2))  # parity over 0, 2
        assert bdd.count(f, (0, 1, 2)) == 4  # 2 parities x don't-care 1
        models = list(bdd.models(f, (0, 1, 2)))
        assert len(models) == 4
        assert models == sorted(models)  # deterministic 0-first order
        assert models[0] == ((0, 0), (1, 0), (2, 1))
        assert list(bdd.models(f, (0, 1, 2), limit=2)) == models[:2]

    def test_cube(self):
        bdd = BDD(4)
        cube = bdd.cube([(3, 1), (0, 0), (2, 1)])
        assert bdd.count(cube, range(4)) == 2  # var 1 free
        assert _eval(bdd, cube, {0: 0, 1: 0, 2: 1, 3: 1}) == 1
        assert _eval(bdd, cube, {0: 1, 1: 0, 2: 1, 3: 1}) == 0

    def test_restrict_and_exists(self):
        bdd = BDD(2)
        f = bdd.apply_and(bdd.var(0), bdd.var(1))
        assert restrict(bdd, f, 0, 1) == bdd.var(1)
        assert restrict(bdd, f, 0, 0) == FALSE
        assert bdd.exists(f, [0]) == bdd.var(1)
        assert bdd.exists(f, [0, 1]) == TRUE

    def test_rename_shifts_and_validates(self):
        bdd = BDD(4)
        f = bdd.apply_and(bdd.var(0), bdd.var(2))
        assert bdd.rename(f, {0: 1, 2: 3}) \
            == bdd.apply_and(bdd.var(1), bdd.var(3))
        with pytest.raises(ValueError):
            bdd.rename(f, {0: 3, 2: 1})  # crossing: order not preserved

    def test_var_bounds(self):
        bdd = BDD(1)
        with pytest.raises(IndexError):
            bdd.var(1)


#: The new value of each plan action, from the old one.
_WRITES = {TAKE: lambda old: 0, PUT: lambda old: 1, READ: lambda old: 1,
           SET: lambda old: 1, CLEAR: lambda old: 0,
           FLIP: lambda old: 1 - old}


def _from_states(bdd, states, n):
    f = FALSE
    for bits in sorted(states):
        f = bdd.apply_or(f, bdd.cube([(v, bits >> v & 1) for v in range(n)]))
    return f


class TestFire:
    def test_matches_the_rewrite_of_every_state(self):
        rng = random.Random(7)
        n = 4
        for _ in range(300):
            bdd = BDD(n)
            states = {bits for bits in range(1 << n) if rng.random() < 0.5}
            support = sorted(rng.sample(range(n), rng.randint(1, n)))
            plan = tuple((v, rng.choice(sorted(_WRITES))) for v in support)
            image, guard = set(), False
            for bits in states:
                if any(action in (TAKE, READ) and not bits >> v & 1
                       for v, action in plan):
                    continue
                guard |= any(action == PUT and bits >> v & 1
                             for v, action in plan)
                for v, action in plan:
                    new = _WRITES[action](bits >> v & 1)
                    bits = bits & ~(1 << v) | new << v
                image.add(bits)
            f = _from_states(bdd, states, n)
            if guard:
                with pytest.raises(GuardError):
                    fire(bdd, f, plan)
            else:
                assert fire(bdd, f, plan) == _from_states(bdd, image, n)

    def test_memo_keys_do_not_alias_on_long_plans(self):
        # Node 2 is met at every step of a 70-step plan and node 3 at the
        # first six: a key packing the step into fewer than 70 slots per
        # node hands node 3 a result of node 2.
        bdd = BDD(70)
        last, sixth = bdd.var(69), bdd.var(5)
        assert (last, sixth) == (2, 3)
        plan = tuple((v, FLIP) for v in range(70))
        assert fire(bdd, last, plan) == bdd.nvar(69)
        assert fire(bdd, sixth, plan) == bdd.nvar(5)

    def test_long_plans_share_one_memo(self):
        rng = random.Random(11)
        n = 70
        bdd = BDD(n)
        plan = tuple((v, rng.choice((TAKE, READ, SET, CLEAR)))
                     for v in range(n))
        need = bdd.cube([(v, 1) for v, action in plan
                         if action in (TAKE, READ)])
        effect = bdd.cube([(v, _WRITES[action](0)) for v, action in plan])
        for _ in range(20):
            f = FALSE
            for _ in range(5):
                f = bdd.apply_or(f, bdd.cube(
                    [(v, rng.randint(0, 1)) for v in range(n)
                     if rng.random() < 0.3]))
            expected = bdd.apply_and(
                bdd.exists(bdd.apply_and(f, need), range(n)), effect)
            assert fire(bdd, f, plan) == expected


def _explicit_fixpoint(states, plans):
    """The least closed superset of a set of bit-vector states, or None
    when some reached state fires a ``PUT`` onto a 1."""
    reached, frontier = set(states), list(states)
    while frontier:
        bits = frontier.pop()
        for plan in plans:
            if any(action in (TAKE, READ) and not bits >> v & 1
                   for v, action in plan):
                continue
            if any(action == PUT and bits >> v & 1 for v, action in plan):
                return None
            after = bits
            for v, action in plan:
                after = after & ~(1 << v) | _WRITES[action](bits >> v & 1) << v
            if after not in reached:
                reached.add(after)
                frontier.append(after)
    return reached


class TestSaturate:
    def test_matches_the_explicit_fixpoint(self):
        # Random sets leave variables free, so the walk meets nodes that
        # skip an event level as well as nodes rebuilt on one.
        rng = random.Random(5)
        n = 6
        outcomes = set()
        for _ in range(300):
            bdd = BDD(n)
            states = {bits for bits in range(1 << n) if rng.random() < 0.1}
            plans = []
            for _ in range(rng.randint(1, 5)):
                support = sorted(rng.sample(range(n), rng.randint(1, 3)))
                plans.append(tuple((v, rng.choice(sorted(_WRITES)))
                                   for v in support))
            expected = _explicit_fixpoint(states, plans)
            f = _from_states(bdd, states, n)
            if expected is None:
                with pytest.raises(GuardError) as err:
                    bdd.saturate(f, plans)
                assert any(action == PUT for _, action in
                           plans[err.value.event])
                outcomes.add("overflow")
                continue
            fixpoint, counts = bdd.saturate(f, plans)
            assert fixpoint == _from_states(bdd, expected, n)
            assert counts["closures"] <= counts["rounds"] \
                <= counts["images"]
            outcomes.add("closed" if fixpoint == f else "grown")
        assert outcomes == {"overflow", "closed", "grown"}


def _corpus():
    specs = {name: suite.load(name) for name in suite.suite_names()}
    specs["fifo_chain_3"] = fifo_chain(3)
    specs["micropipeline_chain_2"] = micropipeline_chain(2)
    specs["counter_2"] = counter(2)
    specs["arbiter_tree_2"] = arbiter_tree(2)
    return specs


class TestEncodeReach:
    def test_state_counts_match_explicit(self):
        for name, stg in sorted(_corpus().items()):
            run = symbolic_reach(encode_stg(stg))
            assert run.state_count == len(generate_sg(stg)), name

    def test_strict_bfs_matches_chained(self):
        # The two former modes of the frontier fixpoint, now references.
        encoding = encode_stg(fifo_chain(2))
        chained, chained_passes = reference_reach(encoding, chaining=True)
        strict, strict_passes = reference_reach(encoding, chaining=False)
        assert strict == chained
        # Strict levels are the BFS diameter + the empty closing level;
        # chained passes converge much faster.
        assert chained_passes < strict_passes

    def test_saturation_counts_recorded(self):
        recorder = TraceRecorder()
        with recording(recorder):
            run = symbolic_reach(encode_stg(suite.load("half")))
        (node,) = recorder.to_tree()["spans"]
        assert node["name"] == "symbolic:saturate"
        counts = {"images": run.images, "closures": run.closures,
                  "rounds": run.rounds}
        assert {key: node["attrs"][key] for key in counts} == counts
        assert node["attrs"]["bdd_nodes"] == run.node_count
        # Every closure takes a round or more, every round an image or
        # more; a fresh manager repeats the run exactly.
        assert 0 < run.closures <= run.rounds <= run.images
        again = symbolic_reach(encode_stg(suite.load("half")))
        assert (again.images, again.closures, again.rounds,
                again.node_count) == (run.images, run.closures, run.rounds,
                                      run.node_count)

    def test_dummy_rejected(self):
        stg = suite.load("half")
        stg.net.add_transition("eps", None)
        with pytest.raises(SymbolicEncodingError):
            encode_stg(stg)

    def test_overflow_detected(self):
        # Saturation may meet another overflowing transition before the
        # one a whole-set sweep names, so the named one is checked on the
        # explicit tuple engine's markings: it must be enabled in one of
        # them with a postset-only place already marked.
        stg = parse_stg(TWO_TOKEN)
        with pytest.raises(SymbolicOverflowError) as err:
            symbolic_reach(encode_stg(stg))
        named = re.search(r"firing '(.+)' leaves", str(err.value)).group(1)
        assert _overflows_somewhere(stg, named)

    def test_node_budget_exceedance_is_structured(self):
        stg = counter(8)
        with pytest.raises(BudgetExceeded) as err:
            symbolic_reach(encode_stg(stg),
                           budget=ExplorationBudget(max_nodes=2000))
        exceedance = err.value.exceedance
        assert exceedance.resource == "nodes"
        assert exceedance.limit == 2000
        assert exceedance.nodes is not None and exceedance.nodes >= 2000
        assert "nodes" in exceedance.diagnose("symbolic reachability")

    @pytest.mark.parametrize("limit", [500, 2000, 5000, 9000])
    def test_node_budget_trips_on_time(self, limit):
        # The grow hook fires every 4,096 allocations; a budget between
        # two of its checks must still trip at the first node past it.
        with pytest.raises(BudgetExceeded) as err:
            symbolic_reach(encode_stg(counter(8)),
                           budget=ExplorationBudget(max_nodes=limit))
        exceedance = err.value.exceedance
        assert limit < exceedance.nodes <= limit + 1
        text = exceedance.diagnose("symbolic reachability")
        assert f"after {exceedance.nodes} BDD nodes" in text
        assert "states" not in text and "arcs" not in text

    def test_seconds_budget_trips_inside_the_closure_loop(self, monkeypatch):
        # A clock that advances one second per read: the run must read it
        # round by round, so a 50 s budget stops counter_8 part way, long
        # before the last of its thousands of rounds.
        full = symbolic_reach(encode_stg(counter(8)))
        ticks = iter(range(1_000_000))
        monkeypatch.setattr(budget_module, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        with pytest.raises(BudgetExceeded) as err:
            symbolic_reach(encode_stg(counter(8)),
                           budget=ExplorationBudget(max_seconds=50))
        exceedance = err.value.exceedance
        assert exceedance.resource == "seconds" and exceedance.limit == 50
        assert next(ticks) < 60 < full.rounds

    def test_node_budget_covers_the_pair_product(self):
        # fifo_chain_6 reaches in ~1,400 nodes; its coding pair product
        # allocates ~578k, so only a metered product trips this budget.
        stg = fifo_chain(6)
        run = symbolic_reach(encode_stg(stg))
        assert run.node_count < 100_000
        with pytest.raises(BudgetExceeded) as err:
            check_coding_symbolic(stg,
                                  budget=ExplorationBudget(max_nodes=100_000))
        exceedance = err.value.exceedance
        assert exceedance.resource == "nodes"
        assert 100_000 < exceedance.nodes <= 100_001


def _overflows_somewhere(stg, name):
    """Whether ``name`` fires onto a marked postset-only place in some
    marking the explicit tuple engine reaches."""
    net = stg.net
    pre = net.preset_of_transition(name)
    post_only = [p for p in net.postset_of_transition(name) if p not in pre]
    places = net.place_names
    for marking in explore_tuples(net).states:
        tokens = dict(zip(places, marking))
        if name in net.enabled_transitions(marking) \
                and any(tokens[p] for p in post_only):
            return True
    return False


class TestCodingReports:
    def test_payload_shape(self):
        report = check_coding_symbolic(suite.load("half"))
        payload = report.to_payload()
        assert payload["usc"] and payload["csc"] and payload["consistent"]
        assert payload["states"] == 8
        assert report.engine == "symbolic"
        assert report.bdd_nodes is not None
        # Engine/diagnostics stay out of the canonical payload.
        assert "engine" not in payload and "bdd_nodes" not in payload

    def test_witness_truncation(self):
        report = check_coding_symbolic(suite.load("micropipeline"),
                                       witness_limit=3)
        assert report.truncated
        assert report.usc_pairs == [] and report.conflicts == []
        assert report.usc_pair_count > 3


class TestDepthRefusal:
    """A net with more BDD variables than a stage takes
    (:data:`repro.symbolic.reach.MAX_VARIABLES`) is refused before that
    stage runs, with a structured error naming the stage and the variable
    count, never a traceback.  ``fifo_chain_80`` (1,442 variables) is
    refused in reachability; the reachability of ``fifo_chain_55`` (992)
    fits and its coding check does not.  The limits count variables, not
    frames, so the verdict does not depend on the frames already on the
    stack when the check starts."""

    @pytest.mark.parametrize("spec, stage, variables", [
        ("fifo_chain_80", "symbolic reachability", 1442),
        ("fifo_chain_55", "symbolic coding check", 992)])
    def test_check_coding_refuses(self, spec, stage, variables):
        with pytest.raises(SymbolicDepthError) as refused:
            check_coding(load_spec(spec), engine="symbolic")
        assert (refused.value.stage, refused.value.variables) == (
            stage, variables)

    @pytest.mark.parametrize("command, spec, stage", [
        ("sg", "fifo_chain_80", "symbolic reachability"),
        ("check", "fifo_chain_55", "symbolic coding check")])
    def test_cli_prints_one_line(self, command, spec, stage, capsys):
        assert main([command, spec, "--engine", "symbolic"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {stage} of {spec!r} ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


#: A node budget the coding check of ``fifo_chain_40`` trips in its pair
#: product once that has recursed through all its 722 variables (724
#: frames deep, measured); the full check takes 40 s and 4 GB.  The
#: reachability of ``fifo_chain_50`` and ``fifo_chain_55`` fits under it.
DEPTH_PROBE_NODES = 300_000

#: ``{spec: verdict}`` of the symbolic coding check under
#: :data:`DEPTH_PROBE_NODES`, run at a script's module level.
DEPTH_VERDICTS = f"""
import json, sys
from repro.explore.budget import BudgetExceeded, ExplorationBudget
from repro.sg.properties import check_coding
from repro.specs.registry import load_spec
from repro.symbolic import SymbolicDepthError

verdicts = {{}}
for spec in sys.argv[1:]:
    try:
        check_coding(load_spec(spec), engine="symbolic",
                     budget=ExplorationBudget(max_nodes={DEPTH_PROBE_NODES}))
        verdicts[spec] = "checked"
    except SymbolicDepthError as refused:
        verdicts[spec] = "refused in " + refused.stage
    except BudgetExceeded as exceeded:
        verdicts[spec] = "out of " + exceeded.exceedance.resource
print(json.dumps(verdicts))
"""


def _verdicts_under(frames, specs):
    """:data:`DEPTH_VERDICTS` run ``frames`` calls deeper than here."""
    if frames:
        return _verdicts_under(frames - 1, specs)
    namespace = {"__name__": "depth_probe"}
    argv, sys.argv = sys.argv, ["-c", *specs]
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(DEPTH_VERDICTS, namespace)
    finally:
        sys.argv = argv
    return json.loads(out.getvalue())


class TestDepthVerdict:
    """Whether a net is checked or refused for depth depends on its BDD
    variable count and the stage only, not on the caller's stack."""

    SPECS = ("fifo_chain_40", "fifo_chain_50", "fifo_chain_55",
             "fifo_chain_80")

    def test_same_verdict_at_module_level_and_100_frames_deeper(self):
        module_level = subprocess.run(
            [sys.executable, "-c", DEPTH_VERDICTS, *self.SPECS],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src"})
        expected = {"fifo_chain_40": "out of nodes",
                    "fifo_chain_50": "refused in symbolic coding check",
                    "fifo_chain_55": "refused in symbolic coding check",
                    "fifo_chain_80": "refused in symbolic reachability"}
        assert json.loads(module_level.stdout) == expected
        assert _verdicts_under(100, self.SPECS) == expected


DOUBLE_RISE = (".outputs a\n.graph\na+ a+/1\na+/1 a+\n"
               ".marking { <a+/1,a+> }\n.end\n")
MERGE = (".outputs a b c\n.graph\np0 a+ b+\na+ p1\nb+ p1\np1 c+\nc+ c-\n"
         "c- p0\n.marking { p0 }\n.end\n")
UNDECLARED_FALL_FIRST = (".outputs a b\n.graph\na- b+\nb+ a+\na+ b-\n"
                         "b- a-\n.marking { <b-,a-> }\n.end\n")


class TestInconsistencyParity:
    @pytest.mark.parametrize("text", [DOUBLE_RISE, MERGE],
                             ids=["double_rise", "merge"])
    def test_both_engines_reject(self, text):
        from repro.sg.generator import ConsistencyError
        from repro.sg.properties import check_coding

        stg = parse_stg(text)
        with pytest.raises(ConsistencyError):
            generate_sg(stg)
        assert not check_coding(stg, engine="symbolic").consistent

    @pytest.mark.xfail(strict=True, reason=(
        "the symbolic encoder seeds an undeclared initial value with 0, "
        "while the explicit engine infers a=1 from a- firing first"))
    def test_undeclared_initial_value_inferred_by_both(self):
        from repro.sg.properties import check_coding

        stg = parse_stg(UNDECLARED_FALL_FIRST)
        explicit = check_coding(stg)
        assert explicit.consistent and explicit.states == 4
        assert check_coding(stg, engine="symbolic").to_payload() \
            == explicit.to_payload()


READ_ARC = (".model read_arc\n.inputs a\n.outputs b\n.graph\n"
            "r a+ b-\na+ r p1\np1 b+\nb+ p2\np2 a-\na- p3\np3 b-\n"
            "b- r p0\np0 a+\n.marking { r p0 }\n.end\n")
TWO_TOKEN = (".model ovf\n.inputs a\n.outputs b\n.graph\n"
             "p a+\na+ q\nq b+\nb+ p\n.marking { p q }\n.end\n")

#: The quick corpus that ``tests/data/fuzz_corpus.json`` anchors.
QUICK_FUZZ = json.loads((Path(__file__).parent / "data" / "fuzz_corpus.json")
                        .read_text())["quick"]

#: case id -> STG factory of every net the fired images are checked on.
ORACLE_CASES = {
    **{f"registry/{name}": partial(load_spec, name) for name in spec_names()},
    **{f"family/{member}": partial(load_family, member)
       for member in ("fifo_chain_2", "fifo_chain_3", "fifo_chain_4",
                      "micropipeline_chain_2", "counter_2", "counter_3",
                      "counter_4", "arbiter_tree_2")},
    **{f"fuzz/{index}": (lambda index=index: generate_spec(
        spec_seed(QUICK_FUZZ["seed"], index)).build())
       for index in range(QUICK_FUZZ["count"])},
    "read_arc": partial(parse_stg, READ_ARC),
    "double_rise": partial(parse_stg, DOUBLE_RISE),
    "two_token": partial(parse_stg, TWO_TOKEN),
}


#: The counters the saturated set is compared on beside ORACLE_CASES.
COUNTERS = {f"family/counter_{n}": partial(load_family, f"counter_{n}")
            for n in range(2, 7)}


def _working_sets(encoding, chaining):
    """Every set a reference run fires a transition on, in first-met
    order (up to an overflow)."""
    met = {}
    try:
        reference_reach(encoding, chaining=chaining, met=met)
    except SymbolicOverflowError:
        pass
    return list(met)


def _outcome(reach):
    """The reached set, or that the run left the 1-safe regime."""
    try:
        return reach()
    except SymbolicOverflowError:
        return "overflow"


class TestSaturationReference:
    """Saturation reaches what the whole-set sweeps reach."""

    @pytest.mark.parametrize("case", list({**ORACLE_CASES, **COUNTERS}))
    def test_saturated_set_equals_both_references(self, case):
        stg = {**ORACLE_CASES, **COUNTERS}[case]()
        encoding = encode_stg(stg)
        saturated = _outcome(lambda: symbolic_reach(encoding).reached)
        # One manager: equal sets are equal node ids.
        for chaining in (True, False):
            reference = _outcome(lambda: reference_reach(
                encoding, chaining=chaining)[0])
            assert saturated == reference, (case, chaining)

    @pytest.mark.parametrize("text", [TWO_TOKEN, READ_ARC],
                             ids=["two_token", "read_arc"])
    def test_overflow_verdict_matches_the_references(self, text):
        verdicts = {_outcome(lambda: symbolic_reach(
            encode_stg(parse_stg(text))).state_count)}
        for chaining in (True, False):
            encoding = encode_stg(parse_stg(text))
            verdicts.add(_outcome(lambda: encoding.bdd.count(
                reference_reach(encoding, chaining=chaining)[0],
                encoding.state_vars)))
        assert len(verdicts) == 1
        assert verdicts == {"overflow"} if text is TWO_TOKEN \
            else verdicts != {"overflow"}


class TestFireOracle:
    """The one-pass image equals the composed chain of generic ops."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_every_working_set_of_both_modes(self, case):
        stg = ORACLE_CASES[case]()
        encoding = encode_stg(stg)
        bdd = encoding.bdd
        sets = dict.fromkeys(_working_sets(encoding, True)
                             + _working_sets(encoding, False))
        oracle = composed_image(stg, encoding)
        for frontier in sets:
            for transition in encoding.transitions:
                try:
                    expected = oracle(bdd, frontier, transition)
                except SymbolicOverflowError as err:
                    with pytest.raises(SymbolicOverflowError,
                                       match=re.escape(str(err))):
                        plan_image(bdd, frontier, transition)
                    continue
                assert plan_image(bdd, frontier, transition) == expected, \
                    (case, transition.name)

    def test_read_arc_place_stays_marked(self):
        from repro.sg.properties import check_coding

        stg = parse_stg(READ_ARC)
        encoding = encode_stg(stg)
        r = encoding.place_vars[encoding.place_names.index("r")]
        plans = {t.name: dict(t.plan) for t in encoding.transitions}
        assert plans["a+"][r] == READ and plans["b-"][r] == READ
        assert check_coding(stg, engine="symbolic").to_payload() \
            == check_coding(stg).to_payload()
