"""Unit tests for the staged pipeline core (repro.pipeline)."""

import json
import pathlib
import subprocess
import sys
from dataclasses import fields, replace

import pytest

from repro.pipeline import (ArtifactStore, FlowConfig, digest_payload,
                            run_pipeline, summary_row, table_row)
from repro.pipeline.artifacts import sg_from_payload, sg_to_payload
from repro.pipeline.config import STRATEGY_DEFAULTS
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraphError
from repro.sg.regions import are_concurrent
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import TABLE1_KEEP_CONC, lr_spec, q_module_stg
from repro.specs.suite import load, suite_names
from repro.sweep import make_point, tables_grid
from repro.timing.delays import DelayModel

#: Implement the given graph or STG as-is: stages 4-8 only.
AS_IS = FlowConfig(strategy="none")


def _report_payloads(result):
    """Canonical JSON of every stage payload of a pipeline result."""
    return json.dumps({stage: res.payload
                       for stage, res in result.results.items()},
                      sort_keys=True)


class TestFlowConfig:
    def test_json_round_trip_over_whole_grid(self):
        # Every Tables 1-2 point (verification on, for full field coverage)
        # must survive FlowConfig JSON serialization bit-exactly.
        grid = tables_grid(specs=["lr", "mmu", "half"], verify=True,
                           verify_max_states=4096, delays=(3, 1, "3/2"))
        assert len(grid) > 10
        for point in grid:
            config = point.config
            round_tripped = FlowConfig.from_json(config.to_json())
            assert round_tripped == config
            assert round_tripped.digest() == config.digest()

    def test_strategy_defaults_centralized(self):
        assert STRATEGY_DEFAULTS["beam"] == (4, 10_000)
        assert STRATEGY_DEFAULTS["full"] == (6, 20_000)
        full = FlowConfig.create(strategy="full")
        assert full.effective_frontier() == 6
        assert full.effective_max_explored() == 20_000
        beam = FlowConfig.create(strategy="beam", size_frontier=9)
        assert beam.effective_frontier() == 9
        assert beam.effective_max_explored() == 10_000
        none = FlowConfig.create(strategy="none")
        assert none.effective_frontier() is None
        assert none.effective_max_explored() is None

    def test_grid_frontier_defaults_match_flow(self):
        # The sweep grid and the flow resolve the same frontier numbers.
        assert make_point("lr", "beam").config.effective_frontier() == 4
        assert make_point("lr", "full").config.effective_frontier() == 6

    def test_invalid_values_rejected(self):
        for knobs in (
                {"strategy": "dfs"}, {"verify_model": "magic"},
                {"max_csc_signals": -1}, {"max_csc_signals": "3"},
                {"max_csc_signals": True}, {"max_explored": -1},
                {"max_explored": 2.5},
                {"strategy": "beam", "size_frontier": 0},
                {"strategy": "beam", "size_frontier": "x"},
                {"phases": 3}, {"phases": 4.0},
                {"keep_conc": [("a+",)]}, {"keep_conc": "ab"},
                {"keep_conc": ["ab"]}, {"keep_conc": [("a+", 1)]},
                {"verify_max_states": "5"}, {"sg_max_states": -1},
                {"verify": "false"}, {"verify": 1}, {"resynthesise": "no"},
                {"weight": True}, {"weight": "0.5"},
                {"strategy": "beam", "weight": 1.5}, {"weight": -0.1},
                {"strategy": "full", "weight": 2}, {"patience": 0},
                {"patience": 2.5}, {"patience": True}):
            with pytest.raises(ValueError):
                FlowConfig.create(**knobs)

    def test_one_design_point_one_digest(self):
        # The constructor, create() and dataclasses.replace all normalize.
        direct = FlowConfig(strategy="full", keep_conc=(("ri-", "li-"),),
                            weight=1)
        created = FlowConfig.create(strategy="full",
                                    keep_conc=[("ri-", "li-")], weight=1)
        replaced = replace(FlowConfig(strategy="full",
                                      keep_conc=(("li-", "ri-"),)), weight=1)
        assert direct == created == replaced
        assert direct.digest() == created.digest() == replaced.digest()
        assert direct.slice_for("reduce") == replaced.slice_for("reduce")
        # A field the strategy (or verify=False) never reads, or a budget
        # spelled as the strategy default, cannot split one design point.
        spellings = [
            ({"strategy": "none", "weight": 0},
             {"strategy": "none", "weight": 1}),
            ({"strategy": "none", "keep_conc": [("a+", "b+")],
              "max_explored": 5}, {"strategy": "none"}),
            ({"strategy": "best-first", "size_frontier": 9},
             {"strategy": "best-first"}),
            ({"strategy": "beam", "size_frontier": 4},
             {"strategy": "beam", "size_frontier": None}),
            ({"strategy": "full", "max_explored": 20_000},
             {"strategy": "full"}),
            ({"verify_max_states": 7, "verify_model": "structural"}, {}),
            ({"strategy": "none", "weight": 1.5}, {"strategy": "none"}),
            ({"patience": 150}, {}),
            ({"strategy": "beam", "patience": 9}, {"strategy": "beam"}),
            ({"strategy": "full", "patience": 9}, {"strategy": "full"}),
            ({"strategy": "none", "patience": 9}, {"strategy": "none"}),
        ]
        for one, other in spellings:
            assert FlowConfig(**one) == FlowConfig(**other), one
            assert FlowConfig(**one).digest() == FlowConfig(**other).digest()

    def test_keep_conc_canonicalized(self):
        one = FlowConfig.create(strategy="full", keep_conc=[("ri-", "li-")])
        two = FlowConfig.create(strategy="full", keep_conc=[("li-", "ri-")])
        assert one == two
        assert one.digest() == two.digest()

    def test_sg_budget_round_trip(self):
        config = FlowConfig.create(strategy="full", sg_max_states=4096,
                                   sg_max_arcs=100_000)
        round_tripped = FlowConfig.from_json(config.to_json())
        assert round_tripped == config
        assert round_tripped.sg_max_states == 4096
        assert round_tripped.sg_max_arcs == 100_000

    def test_sg_budget_absent_in_old_payloads(self):
        # Payloads serialized before the exploration-core budgets existed
        # lack the two keys entirely; they must decode to the defaults.
        config = FlowConfig.create(strategy="full")
        payload = config.to_payload()
        del payload["sg_max_states"], payload["sg_max_arcs"]
        revived = FlowConfig.from_payload(payload)
        assert revived == config
        assert revived.sg_max_states is None
        assert revived.sg_max_arcs is None

    def test_payload_with_removed_fields_still_decodes(self):
        # A payload as written when FlowConfig still had library,
        # exact_covers, sg_engine and check_engine (18 keys): the four
        # removed keys are ignored and the rest decode unchanged.
        old = json.loads(
            '{"check_engine": "auto", "delays": {"input": "2", "internal": '
            '"1", "output": "1", "overrides": []}, "exact_covers": true, '
            '"keep_conc": [["li-", "ri-"]], "library": "default", '
            '"max_csc_signals": 2, "max_explored": null, "phases": 4, '
            '"resynthesise": false, "sg_engine": "auto", "sg_max_arcs": '
            'null, "sg_max_states": 5000, "size_frontier": 3, "strategy": '
            '"beam", "verify": true, "verify_max_states": 1000000, '
            '"verify_model": "atomic", "weight": 0.25}')
        assert len(old) == 18
        expected = FlowConfig(strategy="beam", weight=0.25, size_frontier=3,
                              keep_conc=(("ri-", "li-"),),
                              max_csc_signals=2, sg_max_states=5000,
                              verify=True)
        assert FlowConfig.from_payload(old) == expected
        removed = {"library", "exact_covers", "sg_engine", "check_engine"}
        assert expected.to_payload() == {key: value
                                         for key, value in old.items()
                                         if key not in removed}

    def test_every_field_changes_some_stage_slice(self):
        # A field no stage slice reads is a dead knob.  ``verify`` is the
        # one exemption: it decides whether the verify stage runs at all.
        # The verify knobs are live only with verification on.
        base = FlowConfig(strategy="beam", verify=True)
        moved = {
            "strategy": "full", "weight": 0.25, "size_frontier": 7,
            "keep_conc": (("a+", "b+"),), "max_explored": 123,
            "max_csc_signals": 2, "delays": DelayModel.by_kind(3, 1, 1),
            "resynthesise": True, "phases": 2,
            "verify_model": "structural", "verify_max_states": 10,
            "sg_max_states": 100, "sg_max_arcs": 100,
        }
        names = {field.name for field in fields(FlowConfig)}
        assert names == set(moved) | {"verify", "patience"}
        stages = ("expand", "generate", "reduce", "resolve", "synthesize",
                  "timing", "verify")
        for name, value in moved.items():
            changed = replace(base, **{name: value})
            assert changed != base, name
            assert any(changed.slice_for(stage) != base.slice_for(stage)
                       for stage in stages), name
        # Only best-first reads ``patience``; beam resets it.
        assert replace(base, patience=200) == base
        best_first = FlowConfig(strategy="best-first", verify=True)
        patient = replace(best_first, patience=200)
        assert patient != best_first
        assert [stage for stage in stages
                if patient.slice_for(stage) != best_first.slice_for(stage)
                ] == ["reduce"]

    def test_patience_written_only_when_set(self):
        # A default patience leaves payload, digest and reduce slice as
        # they were before the field existed; a set one round-trips.
        default = FlowConfig()
        assert "patience" not in default.to_payload()
        assert "patience" not in default.slice_for("reduce")
        patient = FlowConfig(patience=10**9, max_explored=4000)
        assert patient.to_payload()["patience"] == 10**9
        assert patient.slice_for("reduce")["patience"] == 10**9
        assert FlowConfig.from_json(patient.to_json()) == patient
        assert patient.digest() != replace(patient, patience=None).digest()

    def test_sg_budget_slice_keys_generate_only(self):
        # Default budgets key exactly like the pre-budget era (empty
        # generate slice -> warm stores keep serving old artifacts);
        # setting one invalidates generate and nothing else.
        base = FlowConfig.create(strategy="full")
        assert base.slice_for("generate") == {}
        capped = replace(base, sg_max_states=10_000)
        assert capped.slice_for("generate") == {"max_states": 10_000,
                                                "max_arcs": None}
        for stage in ("expand", "reduce", "resolve", "synthesize",
                      "timing", "verify"):
            assert base.slice_for(stage) == capped.slice_for(stage), stage

    def test_delay_slice_isolated(self):
        base = FlowConfig.create(strategy="full")
        slow = replace(base, delays=DelayModel.by_kind(4, 1, 1))
        assert base.digest() != slow.digest()
        for stage in ("reduce", "resolve", "synthesize", "verify"):
            assert base.slice_for(stage) == slow.slice_for(stage)
        assert base.slice_for("timing") != slow.slice_for("timing")


class TestSgArtifact:
    @pytest.mark.parametrize("name", suite_names())
    def test_payload_round_trip_is_idempotent(self, name):
        sg = generate_sg(load(name))
        payload = sg_to_payload(sg)
        decoded = sg_from_payload(payload)
        assert len(decoded) == len(sg)
        assert decoded.arc_count() == sg.arc_count()
        assert decoded.signals == sg.signals
        # Canonical renaming is a fixpoint: encoding the decoded graph
        # reproduces the payload byte-for-byte.
        assert sg_to_payload(decoded) == payload


class TestResume:
    @pytest.fixture
    def store(self, tmp_path):
        return ArtifactStore(tmp_path / "store")

    def test_warm_rerun_serves_every_stage(self, store):
        config = FlowConfig.create(strategy="full", verify=True,
                                   resynthesise=True)
        cold = run_pipeline(config, stg=load("half"), store=store)
        assert set(cold.stage_status().values()) == {"computed"}
        warm = run_pipeline(config, stg=load("half"), store=store)
        assert set(warm.stage_status().values()) == {"cached"}
        assert _report_payloads(cold) == _report_payloads(warm)

    def test_delays_only_change_recomputes_only_timing(self, store):
        config = FlowConfig.create(strategy="best-first")
        run_pipeline(config, stg=load("vme_read"), store=store)
        slowed = replace(config, delays=DelayModel.by_kind(5, 2, 1))
        warm = run_pipeline(slowed, stg=load("vme_read"), store=store)
        status = warm.stage_status()
        assert status["timing"] == "computed"
        recomputed = {stage for stage, state in status.items()
                      if state == "computed"}
        assert recomputed == {"timing"}

    def test_search_knob_change_keeps_generation(self, store):
        config = FlowConfig.create(strategy="best-first", weight=0.5)
        run_pipeline(config, stg=load("half"), store=store)
        reweighted = replace(config, weight=0.0)
        warm = run_pipeline(reweighted, stg=load("half"), store=store)
        status = warm.stage_status()
        assert status["generate"] == "cached"
        assert status["reduce"] == "computed"

    def test_corrupt_entry_recomputed_gracefully(self, store):
        config = FlowConfig.create(strategy="full")
        cold = run_pipeline(config, stg=load("half"), store=store)
        for path in store.root.glob("*.json"):
            path.write_text("{definitely not json")
        again = run_pipeline(config, stg=load("half"), store=store)
        assert set(again.stage_status().values()) == {"computed"}
        assert _report_payloads(cold) == _report_payloads(again)

    def test_old_schema_entry_ignored(self, store):
        config = FlowConfig.create(strategy="full")
        cold = run_pipeline(config, stg=load("half"), store=store)
        for path in store.root.glob("*.json"):
            entry = json.loads(path.read_text())
            entry["schema"] = 999  # a future (or ancient) layout
            path.write_text(json.dumps(entry))
        again = run_pipeline(config, stg=load("half"), store=store)
        assert set(again.stage_status().values()) == {"computed"}
        assert _report_payloads(cold) == _report_payloads(again)

    def test_stg_text_entry_shares_downstream_artifacts(self, store):
        # Driving the pipeline from raw .g text keys SG generation on the
        # text digest, but the downstream stages are content-addressed and
        # shared with the parsed-STG entry point.
        from repro.specs.suite import source_text
        config = FlowConfig.create(strategy="full")
        cold = run_pipeline(config, stg=load("half"), store=store)
        warm = run_pipeline(config, stg_text=source_text("half"),
                            store=store)
        status = warm.stage_status()
        assert status["generate"] == "computed"  # raw text, another key
        assert status["reduce"] == "cached"
        assert status["synthesize"] == "cached"
        assert _report_payloads(cold) == _report_payloads(warm)

    def test_shared_stages_across_design_points(self, store):
        # Content-addressed keys: two strategies that reach the same
        # reduced graph share every downstream artifact.
        full = FlowConfig.create(strategy="full")
        run_pipeline(full, stg=load("fifo_cell"), store=store)
        none = FlowConfig.create(strategy="none")
        warm = run_pipeline(none, stg=load("fifo_cell"), store=store)
        status = warm.stage_status()
        # fifo_cell admits no valid reduction, so "full" keeps the initial
        # graph and "none" hits its resolve/synthesize/timing artifacts.
        assert status["resolve"] == "cached"
        assert status["synthesize"] == "cached"
        assert status["timing"] == "cached"

    def test_warm_store_byte_identical_across_hash_seeds(self, tmp_path):
        root = pathlib.Path(__file__).resolve().parents[1]
        store_dir = tmp_path / "seed-store"
        program = (
            "import json, sys\n"
            "from repro.pipeline import ArtifactStore, FlowConfig, "
            "run_pipeline\n"
            "from repro.specs.suite import load\n"
            "config = FlowConfig.create(strategy='full', verify=True)\n"
            "result = run_pipeline(config, stg=load('half'), "
            "store=ArtifactStore(sys.argv[1]))\n"
            "payloads = {s: r.payload for s, r in result.results.items()}\n"
            "cached = all(r.cached for r in result.results.values())\n"
            "print(json.dumps({'cached': cached, 'payloads': payloads}, "
            "sort_keys=True))\n")
        outputs = []
        for index, seed in enumerate(("0", "1", "12345")):
            completed = subprocess.run(
                [sys.executable, "-c", program, str(store_dir)], cwd=root,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                     "PYTHONPATH": str(root / "src")},
                capture_output=True, text=True, check=True)
            payload = json.loads(completed.stdout)
            # The first seed populates the store; later seeds must be
            # served entirely from it.
            assert payload["cached"] == (index > 0)
            outputs.append(json.dumps(payload["payloads"], sort_keys=True))
        assert len(set(outputs)) == 1


class TestImplement:
    """A given graph or STG through resolve, synthesize and timing."""

    def test_q_module_report(self):
        result = run_pipeline(AS_IS, stg=q_module_stg(),
                              name="Q-module (hand)")
        assert result.csc_resolved()
        row = table_row(result)
        assert row.name == "Q-module (hand)"
        assert row.csc_signals == len(result.insertions()) == 1
        assert row.area == result.circuit().area > 0
        assert row.cycle_time == result.cycle().cycle_time > 0
        assert row.input_events == len(result.cycle().input_events) == 4

    def test_unresolved_falls_back_to_estimate(self):
        result = run_pipeline(AS_IS, initial_sg=generate_sg(fig1_stg()))
        assert not result.csc_resolved()
        assert result.circuit() is None
        area = table_row(result).area
        assert area is not None
        assert area == result.area_estimate()
        assert summary_row(result)["area"] == area

    def test_resynthesise_flag(self):
        result = run_pipeline(replace(AS_IS, resynthesise=True),
                              stg=q_module_stg())
        stg = result.resynthesised_stg()
        assert stg is not None
        assert set(stg.signals) >= {"li", "lo", "ri", "ro"}

    def test_custom_delays(self):
        fast = run_pipeline(replace(AS_IS, delays=DelayModel.by_kind(1, 1, 1)),
                            stg=q_module_stg())
        slow = run_pipeline(replace(AS_IS, delays=DelayModel.by_kind(4, 1, 1)),
                            stg=q_module_stg())
        assert fast.cycle().cycle_time < slow.cycle().cycle_time


class TestSpecFlow:
    """The whole Fig. 4 flow from a partial specification."""

    def test_max_concurrency(self):
        result = run_pipeline(AS_IS, spec=lr_spec(), name="max")
        assert len(result.initial_sg()) == 16
        assert result.exploration() is None
        assert len(result.insertions()) == 2
        assert result.csc_resolved()

    def test_full_reduction_flow(self):
        result = run_pipeline(FlowConfig(strategy="full"), spec=lr_spec(),
                              name="full")
        assert result.circuit().area == 0
        assert result.insertions() == []
        assert result.circuit().equations["lo"] == "lo = ri"

    def test_beam_flow_improves(self):
        result = run_pipeline(FlowConfig(), spec=lr_spec(), name="auto")
        exploration = result.exploration()
        assert exploration is not None
        assert exploration.best_cost <= exploration.initial_cost
        assert result.csc_resolved()

    def test_keep_conc_flow(self):
        config = FlowConfig.create(strategy="full",
                                   keep_conc=TABLE1_KEEP_CONC["li || ri"])
        result = run_pipeline(config, spec=lr_spec())
        assert are_concurrent(result.reduced_sg(), "li-", "ri-")

    def test_two_phase_flow_skips_logic(self):
        # 2-phase refinements have toggle events: the SG generates, the
        # timing works, but logic extraction is a 4-phase concept.
        config = FlowConfig(strategy="none", phases=2, max_csc_signals=0)
        result = run_pipeline(config, spec=lr_spec())
        assert len(result.initial_sg()) == 8
        assert result.circuit() is None
        assert result.cycle() is not None


class TestResultIsolation:
    def test_caller_mutation_cannot_poison_later_runs(self):
        # Graphs handed out by pipeline results are shared with the
        # pipeline's decode memo, so they are frozen: a mutation attempt
        # raises and leaves later evaluations untouched.
        first = run_pipeline(AS_IS, initial_sg=generate_sg(load("half")))
        victim = first.resolved_sg()
        before = len(victim)
        with pytest.raises(StateGraphError):
            victim.add_state("intruder")
        with pytest.raises(StateGraphError):
            victim.initial = next(s for s in victim.states
                                  if s != victim.initial)
        second = run_pipeline(AS_IS, initial_sg=generate_sg(load("half")))
        resolved = second.resolved_sg()
        assert len(resolved) == resolved.arc_count() == 8 == before
        assert "intruder" not in resolved

    def test_given_initial_sg_is_frozen(self):
        # The pipeline freezes a pre-generated graph as it encodes it, so
        # the graph the caller holds stays the graph that was run.
        sg = generate_sg(load("half"))
        run_pipeline(AS_IS, initial_sg=sg)
        with pytest.raises(StateGraphError):
            sg.add_state("intruder")


class TestVerifyMaxStates:
    def test_flow_plumbs_the_cap(self):
        capped = FlowConfig(strategy="full", verify=True, verify_max_states=3)
        result = run_pipeline(capped, stg=load("half"))
        assert result.verification().verdict == "state-limit"
        result = run_pipeline(replace(capped, strategy="none"),
                              initial_sg=generate_sg(load("half")))
        assert result.verification().verdict == "state-limit"

    def test_sweep_axis_and_normalization(self):
        point = make_point("half", "full", verify=True, verify_max_states=7)
        assert point.config.verify_max_states == 7
        # Without verification the cap is meaningless and normalizes away.
        plain = make_point("half", "full", verify=False, verify_max_states=7)
        assert plain.config == make_point("half", "full").config
        assert plain.key() == make_point("half", "full").key()

    def test_cli_round_trip(self, capsys):
        from repro.cli import main
        assert main(["sweep", "--specs", "half", "--strategies", "full",
                     "--verify", "--verify-max-states", "3",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        header, row = [line for line in out.splitlines() if line][:2]
        assert "verify_max_states" in header
        assert "state-limit" in row and ",3" in row
        # The verify command exposes the same cap and fails on the limit.
        assert main(["verify", "half", "--strategies", "full",
                     "--max-states", "3"]) == 1
        assert "state-limit" in capsys.readouterr().out


class TestCacheCli:
    @pytest.fixture
    def populated(self, tmp_path, capsys):
        from repro.cli import main
        store = tmp_path / "store"
        assert main(["sweep", "--specs", "fifo_cell", "--strategies",
                     "none,full", "--store", str(store)]) == 0
        capsys.readouterr()
        return store

    def test_stats(self, populated, capsys):
        from repro.cli import main
        assert main(["cache", "stats", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert "sweep-point" in out
        assert "timing" in out
        assert "engine memo tables" in out

    def test_gc_respects_budget(self, populated, capsys):
        from repro.cli import main
        assert main(["cache", "gc", str(populated), "--max-bytes", "0"]) == 0
        assert "deleted" in capsys.readouterr().out
        assert list(populated.glob("*.json")) == []

    def test_gc_requires_budget(self, populated):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["cache", "gc", str(populated)])

    def test_missing_store_rejected_not_created(self, tmp_path):
        from repro.cli import main
        typo = tmp_path / "no-such-store"
        with pytest.raises(SystemExit):
            main(["cache", "stats", str(typo)])
        assert not typo.exists()

    def test_clear(self, populated, capsys):
        from repro.cli import main
        assert main(["cache", "clear", str(populated)]) == 0
        assert "deleted" in capsys.readouterr().out
        assert list(populated.glob("*.json")) == []


class TestSweepStageAccounting:
    def test_delays_only_sweep_reuses_upstream_stages(self, tmp_path):
        from repro.sweep import render, run_sweep
        store = ArtifactStore(tmp_path / "store")
        cold = run_sweep(tables_grid(specs=["fifo_cell"],
                                     strategies=("none", "full")),
                         store=store)
        assert cold.computed == 2
        slow = tables_grid(specs=["fifo_cell"], strategies=("none", "full"),
                           delays=(2, 1, 3))
        warm = run_sweep(slow, store=store)
        # New delay model -> new rows, but only timing stages recompute.
        assert warm.computed == 2
        assert set(warm.stage_computed) == {"timing"}
        for stage in ("generate", "reduce", "resolve", "synthesize"):
            assert warm.stage_reused.get(stage, 0) >= 1
        # And the changed delay shows up in the results.
        cold_cycle = [row["cycle_time"] for row in cold.rows]
        warm_cycle = [row["cycle_time"] for row in warm.rows]
        assert cold_cycle != warm_cycle
        assert "stages:" in warm.stage_summary()

    def test_synth_store_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.petri.parser import write_stg
        from repro.specs.lr import lr_expanded
        spec = tmp_path / "lr.g"
        spec.write_text(write_stg(lr_expanded()))
        argv = ["synth", str(spec), "--full",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert cold == warm
        assert "lo = ri" in warm


class TestEntryByDigest:
    """Content lookup (the ``GET /artifacts/<digest>`` substrate)."""

    def test_lookup_and_miss(self, tmp_path):
        from repro.pipeline.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        entry = store.put_entry("k" * 64, "generate", {"states": 3})
        found = store.entry_by_digest(entry["digest"])
        assert found is not None and found["payload"] == {"states": 3}
        assert store.entry_by_digest("0" * 64) is None

    def test_fresh_handle_scans_directory(self, tmp_path):
        from repro.pipeline.store import ArtifactStore

        writer = ArtifactStore(tmp_path / "store")
        entry = writer.put_entry("k" * 64, "timing", {"cycle": None})
        reader = ArtifactStore(tmp_path / "store")  # no in-memory index yet
        assert reader.entry_by_digest(entry["digest"]) is not None

    def test_stale_index_recovers_after_external_gc(self, tmp_path):
        from repro.pipeline.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        # The same payload digest under two different stage keys.
        first = store.put_entry("a" * 64, "generate", {"states": 5})
        store.put_entry("b" * 64, "generate", {"states": 5})
        assert store.entry_by_digest(first["digest"]) is not None
        # External deletion of the indexed key (last writer wins: "b"*64).
        (store.root / ("b" * 64 + ".json")).unlink()
        found = store.entry_by_digest(first["digest"])
        assert found is not None, "surviving duplicate key must be found"
