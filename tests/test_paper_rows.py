"""The paper's rows, each one ``FlowConfig`` that ``run_pipeline`` runs.

``TABLE1_ROWS``, ``TABLE2_ROWS`` and ``FIG10_ROWS`` name every searched or
reduced row of Tables 1-2 and Fig. 10 as a flow configuration on its
spec's generated state graph.  These tests run each row through the
pipeline and pin what it reports:

* the ``(area, #CSC, cycle, inputs)`` of every row, recorded when the rows
  still ran their searches outside the pipeline, and tied to the per-case
  metrics ``BENCH_baseline.json`` records for them;
* the reduced graph and the search accounting of every row that
  ``tests/data/golden_reduction.json`` pins (the same searches, run
  directly);
* the ``POST /synth`` body and the ``repro synth`` line
  ``docs/benchmarks.md`` gives for each row: each must parse to that
  row's configuration, and the line must print the row's numbers.
"""

import functools
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, flow_config, main
from repro.pipeline import FlowConfig, run_pipeline, table_row
from repro.pipeline.hashing import graph_digest
from repro.serve.protocol import parse_synth_request
from repro.sg.generator import generate_sg
from repro.specs.lr import TABLE1_ROWS, lr_expanded
from repro.specs.mmu import TABLE2_ROWS, mmu_expanded
from repro.specs.par import FIG10_ROWS, par_expanded

REPO = Path(__file__).resolve().parent.parent

#: bench case -> (spec name, expanded spec, rows, golden-file prefix)
TABLES = {
    "table1_lr": ("lr", lr_expanded, TABLE1_ROWS, "table1"),
    "table2_mmu": ("mmu", mmu_expanded, TABLE2_ROWS, "table2"),
    "fig10_par": ("par", par_expanded, FIG10_ROWS, "fig10"),
}

#: (area, #CSC, cycle, input events) of every row.
EXPECTED = {
    ("table1_lr", "Full reduction"): (0, 0, 12.0, 4),
    ("table1_lr", "Max. concurrency"): (280.0, 2, 11.0, 4),
    ("table1_lr", "li || ri"): (56.0, 0, 10.0, 4),
    ("table1_lr", "li || ro"): (56.0, 0, 10.0, 4),
    ("table1_lr", "lo || ri"): (72.0, 0, 10.0, 4),
    ("table1_lr", "lo || ro"): (152.0, 1, 11.0, 4),
    ("table2_mmu", "original"): (1080.0, 3, 17.0, 8),
    ("table2_mmu", "original reduced"): (288.0, 1, 22.0, 8),
    ("table2_mmu", "csc reduced"): (152.0, 1, 26.0, 8),
    ("table2_mmu", "|| (b, l, r)"): (352.0, 1, 18.0, 8),
    ("table2_mmu", "|| (b, m, r)"): (248.0, 1, 19.0, 8),
    ("table2_mmu", "|| (b, l, m)"): (352.0, 1, 18.0, 8),
    ("table2_mmu", "|| (l, m, r)"): (392.0, 2, 22.0, 8),
    ("fig10_par", "automatic"): (64.0, 0, 16.0, 6),
}

#: The baseline metrics that record one row's column:
#: (case, metric) -> (row, column index into an EXPECTED tuple).
BASELINE_COLUMNS = {
    ("table1_lr", "full_area"): ("Full reduction", 0),
    ("table1_lr", "max_area"): ("Max. concurrency", 0),
    ("table1_lr", "max_csc_signals"): ("Max. concurrency", 1),
    ("table1_lr", "max_cycle"): ("Max. concurrency", 2),
    ("table1_lr", "lo_ro_area"): ("lo || ro", 0),
    ("table2_mmu", "original_area"): ("original", 0),
    ("table2_mmu", "csc_reduced_area"): ("csc reduced", 0),
    ("table2_mmu", "csc_reduced_signals"): ("csc reduced", 1),
    ("fig10_par", "auto_area"): ("automatic", 0),
    ("fig10_par", "auto_csc_signals"): ("automatic", 1),
}

ROW_IDS = [f"{case}/{name}" for case, name in EXPECTED]


@functools.lru_cache(maxsize=None)
def _generated(case):
    return generate_sg(TABLES[case][1]())


@functools.lru_cache(maxsize=None)
def _run(case, name):
    config = TABLES[case][2][name]
    return run_pipeline(config, initial_sg=_generated(case), name=name)


def _baseline_metrics(case):
    baseline = json.loads((REPO / "BENCH_baseline.json").read_text())
    return {name: record["value"] for name, record
            in baseline["cases"][case]["metrics"].items()}


def test_every_row_is_pinned():
    assert set(EXPECTED) == {(case, name) for case, table in TABLES.items()
                             for name in table[2]}


@pytest.mark.parametrize("case, name", list(EXPECTED), ids=ROW_IDS)
def test_row_through_the_pipeline(case, name):
    result = _run(case, name)
    assert tuple(table_row(result))[1:] == EXPECTED[case, name]
    # Only the unreduced MMU stops short of CSC (3 signals, then an
    # area estimate).
    assert result.csc_resolved() == (name != "original")


def test_rows_agree_with_the_baseline_metrics():
    for (case, metric), (name, column) in BASELINE_COLUMNS.items():
        assert _baseline_metrics(case)[metric] == EXPECTED[case, name][column]
    table2 = _baseline_metrics("table2_mmu")
    reduced = [EXPECTED[case, name][0] for case, name in EXPECTED
               if case == "table2_mmu" and name != "original"]
    assert table2["best_reduced_area"] == min(reduced)
    # Table 1's total adds the hand-designed Q-module to the rows here.
    table1 = _baseline_metrics("table1_lr")
    assert table1["total_area"] == table1["q_area"] + sum(
        area for (case, _), (area, _, _, _) in EXPECTED.items()
        if case == "table1_lr")


def _golden_key(case, name):
    if (case, name) == ("table1_lr", "Full reduction"):
        return "lr/full"  # the default full reduction of the expansion
    return f"{TABLES[case][3]}/{name}"


GOLDEN = json.loads((REPO / "tests/data/golden_reduction.json").read_text())
SEARCHED = [(case, name) for case, name in EXPECTED
            if _golden_key(case, name) in GOLDEN]


@pytest.mark.parametrize("case, name", SEARCHED,
                         ids=[f"{case}/{name}" for case, name in SEARCHED])
def test_reduce_stage_matches_the_direct_search(case, name):
    # The reduce stage searches the decoded copy of the generated graph;
    # it must return what the search returns on the graph itself.
    golden = GOLDEN[_golden_key(case, name)]
    result = _run(case, name)
    stats = result.reduction_stats()
    assert graph_digest(result.reduced_sg()) == golden["best"]
    assert (stats.explored, stats.expanded, stats.capped) == (
        golden["explored"], golden["expanded"], golden["capped"])


def test_search_budgets_of_the_paper_rows():
    csc = _run("table2_mmu", "csc reduced").reduction_stats()
    assert (csc.explored, csc.expanded) == (1200, 1064)
    assert _run("fig10_par", "automatic").reduction_stats().explored == 4000


def _documented_bodies():
    """``{case: {row: POST /synth body}}`` from docs/benchmarks.md."""
    text = (REPO / "docs" / "benchmarks.md").read_text(encoding="utf-8")
    section = text.split("## The paper's rows", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    return json.loads(block)


def test_documented_bodies_parse_to_the_rows():
    documented = _documented_bodies()
    assert {case: set(rows) for case, rows in documented.items()} == {
        case: set(table[2]) for case, table in TABLES.items()}
    for case, rows in documented.items():
        spec, _, configs, _ = TABLES[case]
        for name, body in rows.items():
            assert body["spec"] == spec
            task = parse_synth_request(body)
            assert FlowConfig.from_payload(task["config"]) == configs[name]



def _documented_lines():
    """``{(case, row): argv}`` of the ``repro synth`` lines in
    docs/benchmarks.md (each line ends in ``# <row>``)."""
    text = (REPO / "docs" / "benchmarks.md").read_text(encoding="utf-8")
    section = text.split("## The paper's rows", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    case_of = {table[0]: case for case, table in TABLES.items()}
    lines = {}
    for line in block.splitlines():
        command, _, name = line.partition("  # ")
        argv = shlex.split(command)[1:]  # drop "repro"
        lines[case_of[argv[1]], name] = argv
    return lines


def _printed_row(out):
    """(area, #CSC, cycle, input events) from ``repro synth`` output."""
    area = re.search(r"^area[^:]*: (\S+)$", out, re.MULTILINE).group(1)
    csc = re.search(r"^CSC signals inserted: (\d+)", out, re.MULTILINE)
    cycle = re.search(r"^critical cycle: (\S+) \((\d+) input events\)$",
                      out, re.MULTILINE)
    return (float(area), int(csc.group(1)), float(cycle.group(1)),
            int(cycle.group(2)))


class TestCliLines:
    """Every row is one ``repro synth`` line of docs/benchmarks.md."""

    def test_every_row_has_a_line(self):
        assert list(_documented_lines()) == list(EXPECTED)

    @pytest.mark.parametrize("case, name", list(EXPECTED), ids=ROW_IDS)
    def test_line_parses_to_the_row(self, case, name):
        args = build_parser().parse_args(_documented_lines()[case, name])
        assert flow_config(args) == TABLES[case][2][name]

    @pytest.mark.parametrize("case, name", list(EXPECTED), ids=ROW_IDS)
    def test_line_prints_the_row(self, case, name, capsys):
        # Only the unreduced MMU stops short of CSC: exit 1, and its area
        # is the lower-bound estimate.
        status = main(_documented_lines()[case, name])
        out = capsys.readouterr().out
        assert status == (1 if name == "original" else 0)
        assert ("lower-bound estimate" in out) == (name == "original")
        assert _printed_row(out) == EXPECTED[case, name]
