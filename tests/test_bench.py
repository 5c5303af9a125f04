"""The unified benchmark harness: registry, BENCH files, comparison.

Pins the contracts ``repro bench`` lives by: every metric the six legacy
``benchmarks/*_report.json`` shapes reported has a home in the registry
(the mapping in ``docs/benchmarks.md``), the BENCH report round-trips
through JSON, the canonical payload is byte-identical across hash seeds,
and the baseline comparison classifies regressions, improvements,
missing metrics and tolerance edges the way the CI gate assumes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import bench
from repro.bench import (BenchCase, Check, CheckFailed, CheckSkipped,
                         Metric, RunContext, canonical_payload, compare,
                         run_case, run_cases, select_cases, to_json_bytes)

REPO = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


# --------------------------------------------------------------------------
# Registry completeness: the legacy *_report.json metrics all have homes.
# --------------------------------------------------------------------------

#: Where every value of the six legacy report shapes lives now; the
#: prose version of this table is in docs/benchmarks.md.  ``metrics``
#: and ``info`` name registry entries (asserted to exist); ``checks``
#: name case checks that replaced boolean report fields.
LEGACY_HOMES = {
    # engine_scaling_report.json (+ baseline_seed.json, its input anchor)
    "engine_scaling": {
        "metrics": [
            "lr_states", "mmu_states", "par_states",
            "lr_explored", "mmu_explored", "par_explored",
            "lr_best_cost", "mmu_best_cost", "par_best_cost",
            "lr_states_per_second", "mmu_states_per_second",
            "par_states_per_second",
            "lr_explored_per_second", "mmu_explored_per_second",
            "par_explored_per_second",
            "ablation_sweep_seconds", "ablation_sweep_seconds_caches_off",
            "total_explore_seconds",
            "speedup_vs_seed_ablation", "speedup_vs_seed_total_explore",
            "speedup_vs_seed_explored_lr", "speedup_vs_seed_explored_mmu",
            "speedup_vs_seed_explored_par",
        ],
        "checks": ["caches_are_pure", "deterministic_repeat",
                   "seed_speedup_floor"],
        "info": ["suite_names"],
    },
    # sweep_report.json
    "sweep_throughput": {
        "metrics": [
            "points", "serial_computed", "parallel_computed",
            "warm_computed", "warm_cached",
            "serial_seconds", "parallel_seconds", "warm_seconds",
            "points_per_second_serial", "points_per_second_parallel",
            "points_per_second_warm",
            "speedup_parallel_vs_serial", "speedup_warm_vs_cold",
        ],
        "checks": ["sharding_deterministic", "warm_store_sound",
                   "parallel_speedup_floor"],
        "info": [],
    },
    # pipeline_report.json
    "pipeline_resume": {
        "metrics": [
            "points", "cold_computed_points", "warm_computed_points",
            "warm_cached_points", "delays_computed_points",
            "cold_stages_computed_total", "delays_stages_computed_total",
            "cold_stage_slots",
            "cold_seconds", "warm_seconds", "delays_seconds",
            "jobs_seconds", "speedup_warm_vs_cold",
            "speedup_delays_vs_cold",
        ],
        "checks": ["determinism", "warm_store_sound",
                   "stage_granular_resume", "cross_point_sharing"],
        "info": ["specs", "cold_stage_computed", "cold_stage_reused",
                 "delays_stage_computed", "delays_stage_reused"],
    },
    # serve_report.json
    "serve_throughput": {
        "metrics": [
            "concurrent_clients", "dedup_executions", "dedup_hits",
            "dedup_distinct_bodies",
            "cold_stages_computed", "cold_stages_reused",
            "warm_stages_computed", "warm_stages_reused",
            "cold_seconds", "history_seconds", "warm_seconds",
            "cold_rps", "history_rps", "warm_rps", "warm_speedup",
        ],
        "checks": ["warm_computes_nothing", "in_flight_dedup",
                   "worker_count_determinism"],
        "info": ["specs"],
    },
    # verify_report.json
    "verify_throughput": {
        "metrics": [
            "checks_total", "verified", "product_states", "product_arcs",
            "states_per_second", "arcs_per_second", "verify_seconds",
            "full_suite_wall_seconds",
        ],
        "checks": ["all_conforming", "only_micropipeline_skipped",
                   "certificates_deterministic",
                   "structural_probes_as_expected"],
        "info": ["skipped", "structural_probes"],
    },
}


def test_legacy_report_metrics_have_homes():
    for case_name, homes in LEGACY_HOMES.items():
        case = bench.get_case(case_name)
        check_names = {check.name for check in case.checks}
        for metric in homes["metrics"]:
            case.metric(metric)  # raises MissingMetric if absent
        for check in homes["checks"]:
            assert check in check_names, f"{case_name} lost check {check}"
        for key in homes["info"]:
            assert key in case.info_keys, f"{case_name} lost info {key}"


def test_registry_covers_all_seventeen_benchmarks():
    names = bench.case_names()
    assert len(names) == 17
    assert len(set(names)) == 17
    assert set(bench.case_names("quick")) | set(bench.case_names("full")) \
        == set(names)


def test_select_cases():
    assert [c.name for c in select_cases(names=["table1_lr"])] \
        == ["table1_lr"]
    assert all(c.tier == "quick" for c in select_cases(tier="quick"))
    assert len(select_cases(tier="all")) == 17
    with pytest.raises(KeyError):
        select_cases(names=["no_such_case"])
    with pytest.raises(KeyError):
        select_cases(tier="leisurely")


# --------------------------------------------------------------------------
# Harness: report shape, failed/skipped checks, canonical payload.
# --------------------------------------------------------------------------

def _toy_case(name="toy", fail=False, skip=False):
    def run(context):
        return {"area": 34, "items": ["a", "b"], "seconds": 0.5}

    def check(result):
        if skip:
            raise CheckSkipped("needs 4 CPUs")
        if fail:
            raise CheckFailed("area exploded")

    return BenchCase(
        name=name, title="Toy", tier="quick", run=run,
        metrics=(Metric("area", "units", direction="lower"),
                 Metric("seconds", "s", direction="lower", measured=True)),
        checks=(Check("area_sane", check),),
        info_keys=("items",))


def test_report_round_trip_and_shape():
    report = run_cases([_toy_case()], printer=None)
    assert report["bench_schema"] == bench.BENCH_SCHEMA
    for key in ("git_rev", "python", "cpu_count", "hash_seed"):
        assert key in report["env"]
    entry = report["cases"]["toy"]
    assert entry["tier"] == "quick"
    assert entry["seconds"] > 0
    assert entry["metrics"]["area"] == {
        "value": 34, "unit": "units", "direction": "lower",
        "measured": False, "gated": True}
    assert entry["checks"] == {"area_sane": "passed"}
    assert entry["skipped_checks"] == []
    assert entry["info"] == {"items": ["a", "b"]}
    assert json.loads(to_json_bytes(report)) == report


def test_failed_check_recorded_not_raised():
    report = run_cases([_toy_case(fail=True)], printer=None)
    assert report["cases"]["toy"]["checks"]["area_sane"] \
        == "failed: area exploded"
    assert bench.failed_checks(report) \
        == ["toy/area_sane: failed: area exploded"]


def test_skipped_check_is_loud():
    report = run_cases([_toy_case(skip=True)], printer=None)
    entry = report["cases"]["toy"]
    assert entry["checks"]["area_sane"] == "skipped: needs 4 CPUs"
    assert entry["skipped_checks"] == ["area_sane: needs 4 CPUs"]
    assert bench.skipped_checks(report) == ["toy/area_sane: needs 4 CPUs"]
    assert bench.failed_checks(report) == []
    # The skip survives into the canonical payload: it is part of the
    # deterministic record, never dropped.
    assert canonical_payload(report)["cases"]["toy"]["skipped_checks"]


def test_canonical_payload_drops_env_and_measured():
    report = run_cases([_toy_case()], printer=None)
    payload = canonical_payload(report)
    assert "env" not in payload
    entry = payload["cases"]["toy"]
    assert "seconds" not in entry
    assert "area" in entry["metrics"]
    assert "seconds" not in entry["metrics"]
    assert entry["info"] == {"items": ["a", "b"]}


def test_run_context_best_of_min_of_n():
    calls = []

    def fn():
        calls.append(1)
        return "result"

    seconds, result = RunContext(quick=False, rounds=3).best_of(fn)
    assert result == "result" and len(calls) == 3 and seconds >= 0
    calls.clear()
    RunContext(quick=True).best_of(fn)
    assert len(calls) == 1


# --------------------------------------------------------------------------
# Comparison: the verdict matrix the CI gate rides on.
# --------------------------------------------------------------------------

def _metric(value, direction="neutral", measured=False, gated=None,
            tolerance=None):
    record = {"value": value, "unit": "u", "direction": direction,
              "measured": measured,
              "gated": (not measured) if gated is None else gated}
    if tolerance is not None:
        record["tolerance"] = tolerance
    return record


def _report(metrics, case="toy"):
    return {"bench_schema": bench.BENCH_SCHEMA,
            "env": {}, "cases": {case: {"tier": "quick", "metrics": metrics,
                                        "checks": {},
                                        "skipped_checks": []}}}


def test_compare_exact_drift_is_regression():
    result = compare(_report({"area": _metric(35)}),
                     _report({"area": _metric(34)}))
    assert result.verdict == "fail"
    assert [d.metric for d in result.regressions] == ["area"]


def test_compare_exact_improvement_passes():
    result = compare(_report({"area": _metric(30, direction="lower")}),
                     _report({"area": _metric(34, direction="lower")}))
    assert result.verdict == "pass"
    assert [d.metric for d in result.with_status("improvement")] == ["area"]


def test_compare_missing_metric_fails():
    result = compare(_report({}), _report({"area": _metric(34)}))
    assert result.verdict == "fail"
    assert [d.metric for d in result.missing] == ["area"]
    assert result.to_dict()["counts"]["missing"] == 1


def test_compare_new_metric_and_not_run_case_pass():
    current = _report({"area": _metric(34), "extra": _metric(1)})
    baseline = _report({"area": _metric(34)})
    baseline["cases"]["other"] = {"tier": "full",
                                  "metrics": {"x": _metric(1)},
                                  "checks": {}, "skipped_checks": []}
    result = compare(current, baseline)
    assert result.verdict == "pass"
    assert result.cases_not_run == ["other"]
    assert [d.metric for d in result.with_status("new")] == ["extra"]


def test_compare_ungated_measured_is_tracked_never_fails():
    result = compare(
        _report({"t": _metric(99.0, "lower", measured=True, gated=False)}),
        _report({"t": _metric(1.0, "lower", measured=True, gated=False)}))
    assert result.verdict == "pass"
    assert [d.status for d in result.deltas] == ["tracked"]


def test_compare_gated_measured_tolerance_edge():
    baseline = _report({"speedup": _metric(4.0, "higher", measured=True,
                                           gated=True, tolerance=0.5)})
    # -50% exactly: within tolerance, ok.
    at_edge = _report({"speedup": _metric(2.0, "higher", measured=True,
                                          gated=True, tolerance=0.5)})
    assert compare(at_edge, baseline).verdict == "pass"
    # Just beyond: regression in the bad direction.
    beyond = _report({"speedup": _metric(1.9, "higher", measured=True,
                                         gated=True, tolerance=0.5)})
    result = compare(beyond, baseline)
    assert result.verdict == "fail"
    assert result.regressions[0].rel_change == pytest.approx(-0.525)
    # Same magnitude in the good direction: improvement, passes.
    better = _report({"speedup": _metric(6.1, "higher", measured=True,
                                         gated=True, tolerance=0.5)})
    assert compare(better, baseline).verdict == "pass"


def test_compare_non_numeric_values():
    ok = compare(_report({"flag": _metric(True)}),
                 _report({"flag": _metric(True)}))
    assert ok.verdict == "pass"
    bad = compare(_report({"flag": _metric(False)}),
                  _report({"flag": _metric(True)}))
    assert bad.verdict == "fail"


def test_compare_schema_mismatch_refused():
    baseline = _report({"area": _metric(34)})
    baseline["bench_schema"] = 99
    with pytest.raises(ValueError, match="schema mismatch"):
        compare(_report({"area": _metric(34)}), baseline)


def test_compare_markdown_mentions_verdict_and_rows():
    result = compare(_report({"area": _metric(35)}),
                     _report({"area": _metric(34)}))
    text = result.to_markdown()
    assert "**fail**" in text and "| area |" in text
    assert "1 regression" in text


# --------------------------------------------------------------------------
# Determinism: canonical bytes identical across hash seeds (subprocess).
# --------------------------------------------------------------------------

_SEED_SCRIPT = """
import sys
from repro.bench import (canonical_payload, run_cases, select_cases,
                         to_json_bytes)
report = run_cases(select_cases(names=["fig1_controller", "fig8_fwdred",
                                       "ablation_search"]),
                   quick=True, printer=None)
sys.stdout.buffer.write(to_json_bytes(canonical_payload(report)))
"""


def test_canonical_payload_identical_across_hash_seeds():
    outputs = []
    for seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT],
            env={**ENV, "PYTHONHASHSEED": seed},
            capture_output=True, cwd=str(REPO), timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b'"measured": true' not in outputs[0]


# --------------------------------------------------------------------------
# CLI round-trip: repro bench --quick, the baseline gate, regressions.
# --------------------------------------------------------------------------

def _bench_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro", "bench", *args],
        env=ENV, capture_output=True, text=True, cwd=str(cwd), timeout=300)


def test_cli_quick_round_trip_and_regression_gate(tmp_path):
    out = tmp_path / "BENCH_fresh.json"
    proc = _bench_cli("--cases", "fig1_controller,fig8_fwdred",
                      "--quick", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report["cases"]) == {"fig1_controller", "fig8_fwdred"}
    assert all(outcome == "passed"
               for entry in report["cases"].values()
               for outcome in entry["checks"].values())

    # Against itself: pass, exit 0, verdict file written.
    verdict_path = tmp_path / "verdict.json"
    proc = _bench_cli("--cases", "fig1_controller,fig8_fwdred", "--quick",
                      "--out", str(tmp_path / "BENCH_again.json"),
                      "--against", str(out),
                      "--verdict", str(verdict_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "**pass**" in proc.stdout
    assert json.loads(verdict_path.read_text())["verdict"] == "pass"

    # Injected synthetic regression: tamper with an exact metric in the
    # baseline; the gate must exit non-zero and name the metric.
    tampered = json.loads(out.read_text())
    record = tampered["cases"]["fig1_controller"]["metrics"]["states"]
    record["value"] = record["value"] + 1
    bad = tmp_path / "BENCH_tampered.json"
    bad.write_text(json.dumps(tampered))
    proc = _bench_cli("--cases", "fig1_controller,fig8_fwdred", "--quick",
                      "--out", str(tmp_path / "BENCH_gate.json"),
                      "--against", str(bad), cwd=tmp_path)
    assert proc.returncode == 1
    assert "**fail**" in proc.stdout and "states" in proc.stdout


def test_cli_list_names_every_case(tmp_path):
    proc = _bench_cli("--list", cwd=tmp_path)
    assert proc.returncode == 0
    for name in bench.case_names():
        assert name in proc.stdout


def test_default_bench_name_is_versioned():
    name = bench.default_bench_name({"git_rev": "abc1234"})
    assert name == "BENCH_abc1234.json"


# --------------------------------------------------------------------------
# The committed baseline stays loadable and schema-compatible.
# --------------------------------------------------------------------------

def test_committed_baseline_schema():
    baseline_path = REPO / "BENCH_baseline.json"
    baseline = json.loads(baseline_path.read_text())
    assert baseline["bench_schema"] == bench.BENCH_SCHEMA
    assert set(baseline["cases"]) == set(bench.case_names())
    for name, entry in baseline["cases"].items():
        assert not any(outcome.startswith("failed")
                       for outcome in entry["checks"].values()), \
            f"baseline case {name} has failed checks"
