"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main
from repro.petri.parser import read_stg, write_stg
from repro.sg.generator import generate_sg
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded, q_module_stg


@pytest.fixture
def lr_file(tmp_path):
    path = tmp_path / "lr.g"
    path.write_text(write_stg(lr_expanded()))
    return str(path)


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.g"
    path.write_text(write_stg(fig1_stg()))
    return str(path)


DOUBLE_RISE = (".outputs a\n.graph\na+ a+/1\na+/1 a+\n"
               ".marking { <a+/1,a+> }\n.end\n")


class TestInconsistentSpec:
    @pytest.mark.parametrize("command", ["check", "sg", "synth", "verify",
                                         "reduce"])
    def test_exits_one_with_witness(self, command, tmp_path, capsys):
        path = tmp_path / "double_rise.g"
        path.write_text(DOUBLE_RISE)
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert "a+/1 fires with a already high" in err
        assert "witness: a+ a+/1" in err


#: Specs the flow refuses: ``(text, expected message fragment)``.
UNSUPPORTED = {
    "dummy": (".outputs a\n.dummy t\n.graph\na+ t\nt a-\na- a+\n"
              ".marking { <a-,a+> }\n.end\n", "dummy transition 't'"),
    "two_tokens": (".outputs a\n.graph\np0 a+\na+ p1\np1 a-\na- p0\n"
                   ".marking { p0 p0 }\n.end\n", "multi-token places"),
}


class TestUnsupportedSpec:
    """A spec the flow refuses exits 1 with its message, no traceback."""

    @pytest.mark.parametrize("command, spec", [
        ("check", "dummy"), ("sg", "dummy"), ("synth", "dummy"),
        ("verify", "dummy"), ("reduce", "dummy"),
        ("check --engine symbolic", "dummy"),
        ("synth --engine symbolic", "dummy"),
        ("check --engine symbolic", "two_tokens"),
        ("synth --engine symbolic", "two_tokens"),
    ])
    def test_exits_one_with_message(self, command, spec, tmp_path, capsys):
        text, message = UNSUPPORTED[spec]
        path = tmp_path / f"{spec}.g"
        path.write_text(text)
        assert main(command.split() + [str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestCheck:
    def test_clean_spec_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "q.g"
        path.write_text(write_stg(q_module_stg()))
        # q-module has a CSC conflict -> non-zero
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "consistent" in out and "True" in out

    def test_irresolvable_note(self, fig1_file, capsys):
        assert main(["check", fig1_file]) == 1
        assert "input events" in capsys.readouterr().out


class TestSg:
    def test_sg_listing(self, fig1_file, capsys):
        assert main(["sg", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "5 states" in out

    def test_sg_dot(self, fig1_file, capsys):
        assert main(["sg", fig1_file, "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out


class TestSynth:
    def test_full_reduction_synth(self, lr_file, capsys):
        assert main(["synth", lr_file, "--full"]) == 0
        out = capsys.readouterr().out
        assert "lo = ri" in out
        assert "area: 0" in out

    def test_no_reduce_synth(self, lr_file, capsys):
        assert main(["synth", lr_file, "--no-reduce"]) == 0
        out = capsys.readouterr().out
        assert "CSC signals inserted: 2" in out

    def test_keep_option(self, lr_file, capsys):
        assert main(["synth", lr_file, "--full", "--keep", "li-,ri-"]) == 0
        assert "area" in capsys.readouterr().out

    def test_bad_keep_rejected(self, lr_file):
        with pytest.raises(SystemExit):
            main(["synth", lr_file, "--keep", "li-"])

    @pytest.mark.parametrize("command", ["synth", "reduce"])
    @pytest.mark.parametrize("keep, message", [
        ("li+,li-", "Keep_Conc pair (li+, li-) is not concurrent in"),
        ("zz,li-", "Keep_Conc item 'zz' matches no event of")])
    def test_keep_the_spec_cannot_honour_exits_one(self, command, keep,
                                                   message, lr_file, capsys):
        assert main([command, lr_file, "--keep", keep]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {message} 'lr_4ph'"]

    def test_verify_refuses_a_bad_keep_before_any_report(self, capsys):
        # The `none` strategy ignores --keep, so the pairs are checked
        # before the first strategy runs, not at the first searched one.
        assert main(["verify", "lr", "--keep", "li+,li-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: Keep_Conc pair (li+, li-) is not concurrent in 'lr_4ph'"]

    def test_internal_delay_defaults_to_output_delay(self, lr_file, capsys):
        # --no-reduce leaves CSC conflicts, so internal state signals are
        # inserted and their delay shows up on the critical cycle.
        assert main(["synth", lr_file, "--no-reduce"]) == 0
        implicit = capsys.readouterr().out
        assert main(["synth", lr_file, "--no-reduce",
                     "--internal-delay", "1"]) == 0
        explicit = capsys.readouterr().out
        assert implicit == explicit

    def test_internal_delay_flag_changes_cycle(self, lr_file, capsys):
        assert main(["synth", lr_file, "--no-reduce"]) == 0
        fast = capsys.readouterr().out
        assert main(["synth", lr_file, "--no-reduce",
                     "--internal-delay", "5"]) == 0
        slow = capsys.readouterr().out
        cycle = lambda out: [line for line in out.splitlines()
                             if line.startswith("critical cycle")]
        assert cycle(fast) != cycle(slow)
        # the output delay is untouched: only the CSC-signal events slowed
        assert "CSC signals inserted: 2" in slow


class TestBadConfigValue:
    """A flag value ``FlowConfig`` rejects exits 1 with one line."""

    @pytest.mark.parametrize("argv, field", [
        ("synth half --max-csc -1", "max_csc_signals"),
        ("verify half --max-csc -1", "max_csc_signals"),
        ("verify half --max-states -1", "verify_max_states"),
        ("sweep --specs half --strategies beam --frontier 0",
         "size_frontier"),
        ("sweep --specs half --strategies beam --max-explored -1",
         "max_explored"),
    ])
    def test_exits_one_with_field_name(self, argv, field):
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        message = str(excinfo.value)
        assert field in message
        assert "\n" not in message


class TestKeepRoundtrip:
    def test_keep_preserved_through_reduce_output(self, lr_file, tmp_path,
                                                  capsys):
        from repro.sg.regions import are_concurrent
        out_path = tmp_path / "kept.g"
        assert main(["reduce", lr_file, "--full", "--keep", "li-,ri-",
                     "-o", str(out_path)]) == 0
        sg = generate_sg(read_stg(str(out_path)))
        assert are_concurrent(sg, "li-", "ri-")


class TestSweep:
    def test_sweep_two_specs(self, capsys):
        assert main(["sweep", "--specs", "lr,fifo_cell",
                     "--strategies", "none,full", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        # header + (none, full, 4 lr keep variants) + (none, full) for fifo
        assert lines[0].startswith("spec,")
        assert len(lines) == 1 + 6 + 2

    def test_sweep_store_roundtrip(self, tmp_path, capsys):
        argv = ["sweep", "--specs", "fifo_cell", "--strategies", "none,full",
                "--store", str(tmp_path / "store"), "--format", "json"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert cold == warm

    def test_sweep_report_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        assert main(["sweep", "--specs", "half", "--strategies", "none",
                     "-o", str(out_path)]) == 0
        assert "| spec" in out_path.read_text()

    def test_sweep_unknown_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--specs", "nosuch"])


class TestVerify:
    def test_verify_registry_spec(self, capsys):
        assert main(["verify", "half"]) == 0
        out = capsys.readouterr().out
        assert out.count("conforming") == 4  # one line per strategy

    def test_verify_g_file(self, lr_file, capsys):
        assert main(["verify", lr_file, "--strategies", "full"]) == 0
        assert "conforming" in capsys.readouterr().out

    def test_verify_unknown_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "nosuch"])

    def test_verify_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "half", "--strategies", "dfs"])

    def test_verify_skip_is_ok_unless_strict(self, capsys):
        # The unreduced micropipeline has no circuit: reported as skipped,
        # non-zero only under --strict.
        assert main(["verify", "micropipeline",
                     "--strategies", "none"]) == 0
        assert "skipped" in capsys.readouterr().out
        assert main(["verify", "micropipeline",
                     "--strategies", "none", "--strict"]) == 1

    def test_verify_store_warm_run(self, tmp_path, capsys):
        argv = ["verify", "half", "--strategies", "none,full",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert cold.out == warm.out
        assert "0 verified" in warm.err

    def test_verify_certificates_keyed_like_verify_netlist(self, tmp_path,
                                                          capsys):
        # The command's default cap keys certificates exactly like a
        # direct verify_netlist call without one, so stores written by
        # either path serve the other.
        from repro.pipeline import ArtifactStore, FlowConfig, run_pipeline
        from repro.specs.suite import load
        from repro.verify import verify_netlist

        store = tmp_path / "store"
        assert main(["verify", "half", "--strategies", "full",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        result = run_pipeline(FlowConfig(strategy="full"),
                              initial_sg=generate_sg(load("half")))
        _, cached = verify_netlist(result.circuit().netlist,
                                   result.resolved_sg(),
                                   store=ArtifactStore(store))
        assert cached

    def test_verify_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "certs.json"
        assert main(["verify", "half", "--strategies", "full",
                     "--json", str(out_path)]) == 0
        payload = __import__("json").loads(out_path.read_text())
        assert payload["reports"][0]["verdict"] == "conforming"

    def test_verify_structural_failure_prints_trace(self, capsys):
        # Structural per-gate delays expose the non-SI decomposition.
        assert main(["verify", "half", "--strategies", "full",
                     "--model", "structural"]) == 1
        out = capsys.readouterr().out
        assert "non-conforming" in out
        assert "1." in out  # the counterexample trace is printed


class TestSweepVerify:
    def test_sweep_verify_flag_adds_verdicts(self, capsys):
        assert main(["sweep", "--specs", "half", "--strategies", "full",
                     "--verify", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out.splitlines()[0]
        assert "conforming" in out


class TestReduce:
    def test_reduce_roundtrip(self, lr_file, tmp_path, capsys):
        out_path = tmp_path / "reduced.g"
        assert main(["reduce", lr_file, "--full", "-o", str(out_path)]) == 0
        reduced = read_stg(str(out_path))
        sg = generate_sg(reduced)
        assert len(sg) == 8  # the fully sequential LR cycle

    def test_reduce_to_stdout(self, lr_file, capsys):
        assert main(["reduce", lr_file, "--full"]) == 0
        out = capsys.readouterr().out
        assert ".model" in out and ".end" in out


class TestExplorationFlags:
    """The exploration-core surface: budgets, stubborn, family specs."""

    def test_sg_family_member(self, capsys):
        assert main(["sg", "fifo_chain_2"]) == 0
        assert "28 states" in capsys.readouterr().out

    def test_sg_budget_exceeded_is_clean(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sg", "fifo_chain_2", "--max-states", "5"])
        message = str(excinfo.value)
        assert "exceeded 5 states" in message
        assert "raise --max-states/--max-arcs" in message

    def test_sg_arc_budget(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sg", "half", "--max-arcs", "3"])
        assert "arcs" in str(excinfo.value)

    def test_sg_exact_budget_passes(self, capsys):
        assert main(["sg", "fifo_chain_2", "--max-states", "28"]) == 0
        assert "28 states" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        "--engine symbolic --max-states 3", "--engine symbolic --max-arcs 3",
        "--engine symbolic --dot", "--engine symbolic --stubborn",
        "--max-nodes 10", "--engine packed --max-nodes 10",
        "--engine tuples --max-nodes 10"])
    def test_sg_refuses_flag_of_other_engine(self, flags):
        refused = [flag for flag in flags.split()
                   if flag.startswith("--") and flag != "--engine"]
        with pytest.raises(SystemExit) as excinfo:
            main(["sg", "fifo_chain_4"] + flags.split())
        message = str(excinfo.value)
        assert message.startswith(refused[0] + " does not apply")
        assert "\n" not in message

    def test_sg_stubborn_banner(self, capsys):
        assert main(["sg", "micropipeline", "--stubborn"]) == 0
        out = capsys.readouterr().out
        assert "stubborn-set reduction on" in out
        assert "deadlock-preserving subset" in out

    @pytest.mark.parametrize("spec, flags", [
        ("fifo_chain_4", ["--engine", "tuples"]), ("counter_2", [])])
    def test_sg_stubborn_refused_where_not_packed(self, spec, flags, capsys):
        assert main(["sg", spec, "--stubborn"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--stubborn" in captured.err

    def test_sg_arc_budget_bounds_unfolding(self, tmp_path):
        ring = tmp_path / "ring.g"
        ring.write_text(".model ring\n.outputs a b\n.graph\na~ b~\nb~ a~\n"
                        ".marking { <b~,a~> }\n.end\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["sg", str(ring), "--max-arcs", "3"])
        assert "exceeded 3 arcs" in str(excinfo.value)

    def test_unknown_spec_names_all_sources(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sg", "no_such_spec"])
        message = str(excinfo.value)
        assert ".g file" in message
        assert "fifo_chain" in message  # the family kinds are listed
        assert "vme_read" in message    # so are the registry specs

    def test_synth_sg_budget_exceeded_is_clean(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "fifo_chain_2", "--sg-max-states", "5"])
        assert "--sg-max-states/--sg-max-arcs" in str(excinfo.value)

    def test_check_family_member(self, capsys):
        assert main(["check", "fifo_chain_1"]) in (0, 1)
        assert "fifo_chain_1" in capsys.readouterr().out
