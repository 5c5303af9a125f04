"""The benchmark's own checks: front door, catalogue, span accounting."""

import ast
import json
import os
import subprocess
import sys

from conftest import ROOT

BENCH = os.path.join(ROOT, "perfbench")

#: Modules the roadmap deletes; the benchmark must not lean on them.
FORBIDDEN = ("repro.flow", "repro.bench", "benchmarks", "repro.sweep.store")


def _imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""
            for alias in node.names:
                yield f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                yield ".".join([node.id, *reversed(parts)])


def _forbidden(name: str) -> bool:
    return any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)


def _sources():
    for root, _, files in os.walk(BENCH):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(root, name)


def test_front_door_only_in_source():
    offenders = []
    for path in _sources():
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        offenders += [f"{os.path.relpath(path, ROOT)}: {name}"
                      for name in _imported_names(tree) if _forbidden(name)]
    assert not offenders, offenders


def test_front_door_only_at_run_time():
    # ``repro`` itself still imports ``repro.flow`` for its public names,
    # so only the modules nothing in ``repro`` needs are checked here.
    probe = ("import sys, layers, paper_cases, family_check, service_mix\n"
             "layers.install(); service_mix.build_pool()\n"
             "print([m for m in sys.modules if m.startswith(("
             "'repro.bench', 'benchmarks', 'repro.sweep.store'))])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), BENCH]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_catalogue_matches_benchmark_json():
    from catalog import END_TO_END, PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "paper_cases", "service_mix", "family_check"]


def test_every_hook_target_exists():
    import layers

    assert layers.install() == []


def test_span_fold_attributes_self_time():
    from layers import LayerTotals

    tree = [{"name": "pipeline", "wall_s": 10.0, "children": [
        {"name": "layer:encoding.resolve", "wall_s": 6.0,
         "attrs": {"n_csc_signals": 2}, "children": [
             {"name": "frontier:level", "wall_s": 1.0},
             {"name": "layer:pipeline.digest", "wall_s": 0.5}]},
        {"name": "layer:symbolic.reach", "wall_s": 1.0,
         "attrs": {"max_nodes": 7}}]}]
    totals = LayerTotals()
    totals.add_tree(tree)
    totals.add_tree(tree)
    assert totals.busy["overhead"] == 6.0
    assert totals.busy["encoding.resolve"] == 11.0
    assert totals.busy["pipeline.digest"] == 1.0
    assert totals.counts["encoding.resolve.csc_signals"] == 4
    assert totals.counts["symbolic.reach.nodes"] == 7
    assert totals.covered() == 14.0


def test_hooks_change_no_output_byte():
    import layers
    from repro.obs.trace import TraceRecorder, recording
    from repro.pipeline import FlowConfig
    from repro.pipeline.jobs import run_synth_job
    from repro.specs import suite

    config = FlowConfig.create(strategy="beam", verify=True)
    text = suite.source_text("vme_read")
    plain = run_synth_job(config, text, name="vme_read")
    layers.install()
    recorder = TraceRecorder()
    with recording(recorder):
        traced = run_synth_job(config, text, name="vme_read")
    assert json.dumps(traced, sort_keys=True) == json.dumps(plain,
                                                            sort_keys=True)
    def names(nodes):
        for node in nodes:
            yield node["name"]
            yield from names(node.get("children", ()))

    seen = set(names(recorder.to_tree()["spans"]))
    assert {"layer:pipeline.stages", "stage:resolve",
            "layer:encoding.resolve"} <= seen


def test_bucket_median_interpolates():
    from service_mix import _bucket_p50

    buckets = {0.001: 2.0, 0.005: 6.0, 0.01: 8.0, float("inf"): 8.0}
    assert abs(_bucket_p50(buckets) - 0.003) < 1e-12
    assert _bucket_p50({}) == 0.0


def test_host_normalised_timing():
    import signal
    import time

    from common import REFERENCE_S, HostSpeed, timed

    speed = HostSpeed()
    speed.samples = [2 * REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    assert speed.normalise(1.0) == 0.5
    before = signal.getsignal(signal.SIGALRM)
    out, raw, seconds = timed(lambda: time.sleep(0.35) or "done")
    assert out == "done"
    # The sleep spans three reference samples, left out of the raw time.
    assert 0.3 < raw < 0.4 and seconds > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_runs_only_from_a_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "family_check", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode != 0
    assert out.stdout == ""
