"""Unit tests for the symbolic engine (repro.symbolic).

The BDD manager's determinism contract -- identical op sequences build
identical tables regardless of hash seed -- is what lets the rest of the
suite pin node counts and payload digests, so it is tested directly
here, alongside the encoder/reachability corpus counts and the budget
semantics.
"""

import pytest

from repro.explore.budget import BudgetExceeded, ExplorationBudget
from repro.petri.parser import parse_stg
from repro.sg.generator import generate_sg
from repro.specs import suite
from repro.specs.families import (arbiter_tree, counter, fifo_chain,
                                  micropipeline_chain)
from repro.symbolic import (FALSE, TRUE, BDD, SymbolicEncodingError,
                            SymbolicOverflowError, check_coding_symbolic,
                            encode_stg, symbolic_reach)


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
            return bdd.ite(f, bdd.negate(z), x)

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
                assert _eval(bdd, bdd.diff(x, y), env) == (a & ~b & 1)

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
        assert bdd.restrict(f, 0, 1) == bdd.var(1)
        assert bdd.restrict(f, 0, 0) == FALSE
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
        stg = fifo_chain(2)
        chained = symbolic_reach(encode_stg(stg), chaining=True)
        strict = symbolic_reach(encode_stg(stg), chaining=False)
        assert strict.state_count == chained.state_count
        # Strict levels are the BFS diameter + the empty closing level;
        # chained passes converge much faster.
        assert chained.levels < strict.levels

    def test_level_stats_recorded(self):
        run = symbolic_reach(encode_stg(suite.load("half")))
        assert len(run.level_stats) == run.levels
        for stat in run.level_stats:
            assert {"level", "frontier_nodes", "reached_nodes",
                    "bdd_nodes", "seconds"} <= set(stat)

    def test_dummy_rejected(self):
        stg = suite.load("half")
        stg.net.add_transition("eps", None)
        with pytest.raises(SymbolicEncodingError):
            encode_stg(stg)

    def test_overflow_detected(self):
        stg = parse_stg(".model ovf\n.inputs a\n.outputs b\n.graph\n"
                        "p a+\na+ q\nq b+\nb+ p\n"
                        ".marking { p q }\n.end\n")
        with pytest.raises(SymbolicOverflowError):
            symbolic_reach(encode_stg(stg))

    def test_node_budget_exceedance_is_structured(self):
        stg = fifo_chain(6)
        with pytest.raises(BudgetExceeded) as err:
            symbolic_reach(encode_stg(stg),
                           budget=ExplorationBudget(max_nodes=2000))
        exceedance = err.value.exceedance
        assert exceedance.resource == "nodes"
        assert exceedance.limit == 2000
        assert exceedance.nodes is not None and exceedance.nodes >= 2000
        assert "nodes" in exceedance.diagnose("symbolic reachability")


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
