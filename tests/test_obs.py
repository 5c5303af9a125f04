"""Tests for the observability spine (repro.obs) and its wiring.

Unit-level: span nesting/ordering, the Chrome trace-event rendering,
Prometheus text exposition, heartbeat throttling with an injected clock,
and the budget exceedance diagnostics.  Integration: spans recorded
through the real pipeline (one per stage, reuse visible), the serve
surfaces (``/metrics``, ``/jobs/<id>/trace``, ``/stats``), and the hard
invariant of the whole layer -- with tracing on or off, every artifact
digest, certificate and bench canonical payload is byte-identical,
asserted in subprocesses across ``PYTHONHASHSEED`` values.
"""

import asyncio
import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.explore.budget import (BudgetExceedance, BudgetExceeded,
                                  ExplorationBudget)
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import Heartbeat, clear_heartbeat, emit, set_heartbeat
from repro.obs.trace import (TraceRecorder, current, load_trace, recording,
                             render_summary, span, summarize, write_trace)


@pytest.fixture(autouse=True)
def _clean_hooks():
    clear_heartbeat()
    yield
    clear_heartbeat()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestTrace:
    def test_span_is_noop_without_recorder(self):
        assert current() is None
        with span("stage:generate", x=1) as record:
            assert record is None

    def test_nesting_and_ordering(self):
        recorder = TraceRecorder(meta={"command": "test"})
        with recording(recorder):
            with span("pipeline") as outer:
                with span("stage:generate") as inner:
                    with span("frontier:level", level=0):
                        pass
                    with span("frontier:level", level=1):
                        pass
                with span("stage:reduce"):
                    pass
            assert outer is not None and inner is not None
        tree = recorder.to_tree()
        assert tree["trace_schema"] == 1
        assert tree["meta"] == {"command": "test"}
        (root,) = tree["spans"]
        assert root["name"] == "pipeline"
        assert [child["name"] for child in root["children"]] == [
            "stage:generate", "stage:reduce"]
        levels = root["children"][0]["children"]
        assert [node["attrs"]["level"] for node in levels] == [0, 1]

    def test_set_attaches_attrs_after_entry(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with span("stage:reduce") as record:
                record.set(digest="abc", cached=False)
        node = recorder.to_tree()["spans"][0]
        assert node["attrs"] == {"cached": False, "digest": "abc"}

    def test_timings_are_positive_and_nested(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with span("outer"):
                with span("inner"):
                    sum(range(1000))
        outer = recorder.to_tree()["spans"][0]
        inner = outer["children"][0]
        assert outer["wall_s"] >= inner["wall_s"] >= 0.0
        assert inner["start_s"] >= outer["start_s"]

    def test_recorder_restored_after_block(self):
        recorder = TraceRecorder()
        with recording(recorder):
            assert current() is recorder
        assert current() is None

    def test_chrome_schema(self):
        recorder = TraceRecorder(meta={"command": "synth"})
        with recording(recorder):
            with span("pipeline"):
                with span("stage:generate", digest="abc"):
                    pass
        chrome = recorder.to_chrome()
        assert chrome["displayTimeUnit"] == "ms"
        assert chrome["otherData"] == {"command": "synth"}
        events = chrome["traceEvents"]
        assert [event["name"] for event in events] == ["pipeline",
                                                       "stage:generate"]
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ph", "ts", "dur",
                                  "pid", "tid", "args"}
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0.0
        assert events[0]["cat"] == "pipeline"
        assert events[1]["cat"] == "stage"
        assert events[1]["args"] == {"digest": "abc"}
        json.dumps(chrome)  # must be JSON-serializable as-is

    def test_write_load_round_trip(self, tmp_path):
        recorder = TraceRecorder()
        with recording(recorder), span("pipeline"):
            pass
        for fmt, marker in (("json", "spans"), ("chrome", "traceEvents")):
            path = tmp_path / f"t.{fmt}"
            write_trace(recorder, str(path), fmt)
            payload = load_trace(str(path))
            assert marker in payload

    def test_write_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            write_trace(TraceRecorder(), str(tmp_path / "t"), "xml")

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="not a repro trace"):
            load_trace(str(path))

    def test_summarize_tree_self_time(self):
        recorder = TraceRecorder()
        with recording(recorder):
            with span("pipeline"):
                with span("stage:generate"):
                    pass
                with span("stage:generate"):
                    pass
        totals = summarize(recorder.to_tree())
        assert totals["stage:generate"]["count"] == 2
        assert totals["pipeline"]["count"] == 1
        pipeline = totals["pipeline"]
        assert pipeline["self_s"] <= pipeline["wall_s"]

    def test_summarize_chrome_equals_wall(self):
        recorder = TraceRecorder()
        with recording(recorder), span("stage:reduce"):
            pass
        totals = summarize(recorder.to_chrome())
        entry = totals["stage:reduce"]
        assert entry["self_s"] == entry["wall_s"]

    def test_render_summary_is_a_table(self):
        recorder = TraceRecorder()
        with recording(recorder), span("stage:reduce"):
            pass
        text = render_summary(recorder.to_tree())
        lines = text.splitlines()
        assert lines[0].split() == ["span", "count", "wall", "s", "self",
                                    "s", "cpu", "s"]
        assert any(line.startswith("stage:reduce") for line in lines)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total").inc()
        reg.counter("jobs_total").inc(2)
        reg.gauge("depth").set(7)
        reg.gauge("depth").dec(3)
        assert reg.value("jobs_total") == 3
        assert reg.value("depth") == 4

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().counter("c").inc(-1)

    def test_labels_identify_series(self):
        reg = MetricsRegistry()
        reg.counter("stages", stage="generate").inc()
        reg.counter("stages", stage="reduce").inc(5)
        assert reg.value("stages", stage="generate") == 1
        assert reg.value("stages", stage="reduce") == 5
        assert reg.value("stages", stage="nope") is None

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already a counter"):
            reg.gauge("x")

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        hist = reg.histogram("wait", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(55.55)
        assert hist.bucket_counts == [1, 2, 3]  # cumulative, +Inf == count

    def test_histogram_buckets_must_be_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            MetricsRegistry().histogram("h", buckets=(1.0, 0.1))

    def test_snapshot_is_sorted_and_flat(self):
        reg = MetricsRegistry()
        reg.counter("b_total", stage="z").inc()
        reg.counter("a_total").inc(2)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a_total"] == 2
        assert snap['b_total{stage="z"}'] == 1

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", "Jobs.", kind="synth").inc(3)
        reg.gauge("repro_depth", "Depth.").set(2)
        reg.histogram("repro_wait_seconds", "Wait.",
                      buckets=(0.1, 1.0)).observe(0.5)
        text = reg.render_prometheus()
        lines = text.splitlines()
        assert "# HELP repro_jobs_total Jobs." in lines
        assert "# TYPE repro_jobs_total counter" in lines
        assert 'repro_jobs_total{kind="synth"} 3' in lines
        assert "# TYPE repro_depth gauge" in lines
        assert "repro_depth 2" in lines
        assert "# TYPE repro_wait_seconds histogram" in lines
        assert 'repro_wait_seconds_bucket{le="0.1"} 0' in lines
        assert 'repro_wait_seconds_bucket{le="1"} 1' in lines
        assert 'repro_wait_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_wait_seconds_sum 0.5" in lines
        assert "repro_wait_seconds_count 1" in lines
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", label='a"b\\c\nd').inc()
        line = reg.render_prometheus().splitlines()[-1]
        assert line == 'c{label="a\\"b\\\\c\\nd"} 1'


# ----------------------------------------------------------------------
# heartbeats
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_throttles_per_kind(self):
        clock = [0.0]
        events = []
        beat = Heartbeat(lambda kind, fields: events.append(kind),
                         min_interval=0.5, clock=lambda: clock[0])
        assert beat.emit("frontier", {}) is True
        assert beat.emit("frontier", {}) is False  # same instant: dropped
        assert beat.emit("stage", {}) is True      # other kinds unaffected
        clock[0] = 0.6
        assert beat.emit("frontier", {}) is True
        assert events == ["frontier", "stage", "frontier"]

    def test_force_bypasses_throttle(self):
        events = []
        beat = Heartbeat(lambda kind, fields: events.append(fields),
                         min_interval=1000.0, clock=lambda: 0.0)
        beat.emit("stage", {"n": 1})
        assert beat.emit("stage", {"n": 2}, force=True) is True
        assert events == [{"n": 1}, {"n": 2}]

    def test_module_level_install_and_clear(self):
        events = []
        set_heartbeat(lambda kind, fields: events.append((kind, fields)),
                      min_interval=0.0)
        assert emit("frontier", {"level": 3}) is True
        clear_heartbeat()
        assert emit("frontier", {"level": 4}) is False
        assert events == [("frontier", {"level": 3})]

    def test_frontier_emits_heartbeats(self):
        from repro.explore.frontier import explore_packed
        from repro.specs import suite

        events = []
        set_heartbeat(lambda kind, fields: events.append((kind, fields)),
                      min_interval=0.0)
        explore_packed(suite.load("fifo_cell").net.compile_packed())
        frontier = [fields for kind, fields in events if kind == "frontier"]
        assert frontier, "exploration emitted no frontier heartbeats"
        assert frontier[0]["engine"] == "packed"
        assert {"level", "frontier", "states", "arcs",
                "states_per_s"} <= set(frontier[0])

    def test_unfolding_runs_on_the_level_loop(self):
        # 2-phase generation is metered, traced and counted like the net
        # engines, under engine="unfolded".
        from repro.hse.expansion import expand
        from repro.obs.metrics import registry
        from repro.sg.generator import generate_sg
        from repro.specs.lr import lr_spec

        def count(name):
            return registry().value(name, engine="unfolded") or 0

        before = count("repro_explore_arcs_total")
        events = []
        set_heartbeat(lambda kind, fields: events.append((kind, fields)),
                      min_interval=0.0)
        sg = generate_sg(expand(lr_spec(), phases=2))
        frontier = [fields for kind, fields in events if kind == "frontier"]
        assert frontier and {f["engine"] for f in frontier} == {"unfolded"}
        assert frontier[-1]["states"] == len(sg)
        assert count("repro_explore_arcs_total") - before == sg.arc_count()


# ----------------------------------------------------------------------
# budget diagnostics
# ----------------------------------------------------------------------
class TestBudgetDiagnostics:
    def test_describe_text_unchanged(self):
        # describe() lands in certificate reasons; its text must never
        # grow timing fields.
        exceedance = BudgetExceedance("states", 10, 10, 40,
                                      seconds=1.25, level=3)
        assert exceedance.describe("product") == "product exceeded 10 states"

    def test_diagnose_adds_elapsed_and_level(self):
        exceedance = BudgetExceedance("states", 10, 10, 40,
                                      seconds=1.25, level=3)
        text = exceedance.diagnose("state graph")
        assert text.startswith("state graph exceeded 10 states")
        assert "10 states, 40 arcs" in text
        assert "1.25s elapsed" in text
        assert "BFS level 3" in text

    def test_diagnose_without_optionals(self):
        text = BudgetExceedance("arcs", 5, 3, 5).diagnose()
        assert text == "exploration exceeded 5 arcs after 3 states, 5 arcs"

    def test_payload_carries_optionals_only_when_set(self):
        bare = BudgetExceedance("states", 10, 10, 40).to_payload()
        assert "seconds" not in bare and "level" not in bare
        rich = BudgetExceedance("states", 10, 10, 40,
                                seconds=0.5, level=2).to_payload()
        assert rich["seconds"] == 0.5 and rich["level"] == 2

    def test_meter_exceedance_reports_where_it_tripped(self):
        from repro.explore.frontier import explore_tuples
        from repro.specs import suite

        with pytest.raises(BudgetExceeded) as err:
            explore_tuples(suite.load("fifo_cell").net,
                           budget=ExplorationBudget(max_states=3))
        exceedance = err.value.exceedance
        assert exceedance.states == 3
        assert exceedance.seconds is not None and exceedance.seconds >= 0.0
        assert exceedance.level is not None and exceedance.level >= 0


# ----------------------------------------------------------------------
# pipeline wiring
# ----------------------------------------------------------------------
class TestPipelineTracing:
    def _run(self, store=None):
        from repro.pipeline.config import FlowConfig
        from repro.pipeline.stages import run_pipeline
        from repro.specs.suite import source_text

        recorder = TraceRecorder()
        with recording(recorder):
            result = run_pipeline(FlowConfig(verify=True),
                                  stg_text=source_text("fifo_cell"),
                                  store=store)
        return recorder.to_tree(), result

    def test_one_span_per_stage(self):
        tree, result = self._run()
        (pipeline,) = tree["spans"]
        assert pipeline["name"] == "pipeline"
        stage_spans = [node for node in pipeline["children"]
                       if node["name"].startswith("stage:")]
        assert [node["name"] for node in stage_spans] == [
            "stage:" + stage for stage in result.results]
        for node in stage_spans:
            assert node["attrs"]["cached"] is False
            stage = node["name"].split(":", 1)[1]
            assert node["attrs"]["digest"] == result.results[stage].digest

    def test_frontier_levels_nest_under_generate(self):
        tree, _ = self._run()
        (pipeline,) = tree["spans"]
        generate = next(node for node in pipeline["children"]
                        if node["name"] == "stage:generate")
        levels = [node for node in generate.get("children", [])
                  if node["name"] == "frontier:level"]
        assert levels, "no frontier:level spans under stage:generate"
        assert [node["attrs"]["level"] for node in levels] == list(
            range(len(levels)))

    def test_warm_rerun_marks_spans_cached(self, tmp_path):
        from repro.pipeline.store import ArtifactStore

        store = ArtifactStore(str(tmp_path / "store"))
        cold_tree, cold = self._run(store=store)
        warm_tree, warm = self._run(store=store)
        (warm_pipeline,) = warm_tree["spans"]
        cached = {node["name"]: node["attrs"]["cached"]
                  for node in warm_pipeline["children"]
                  if node["name"].startswith("stage:")}
        # Every store-keyed stage is served warm on the second run.
        for stage in ("generate", "reduce", "resolve", "synthesize",
                      "timing"):
            assert cached["stage:" + stage] is True, stage
        assert {s: r.digest for s, r in cold.results.items()} \
            == {s: r.digest for s, r in warm.results.items()}

    def test_stage_heartbeats_fire(self):
        events = []
        set_heartbeat(lambda kind, fields: events.append((kind, fields)),
                      min_interval=1000.0)  # only forced events pass
        self._run()
        stages = [fields for kind, fields in events if kind == "stage"]
        assert {"generate", "reduce", "resolve", "synthesize", "timing",
                "verify"} <= {fields["stage"] for fields in stages}
        assert {"start", "computed"} <= {fields["event"]
                                         for fields in stages}

    def test_tracing_changes_no_artifact_byte(self):
        from repro.pipeline.config import FlowConfig
        from repro.pipeline.stages import run_pipeline
        from repro.specs.suite import source_text

        untraced = run_pipeline(FlowConfig(verify=True),
                                stg_text=source_text("fifo_cell"))
        _, traced = self._run()
        assert {s: r.digest for s, r in untraced.results.items()} \
            == {s: r.digest for s, r in traced.results.items()}


# ----------------------------------------------------------------------
# bench wiring
# ----------------------------------------------------------------------
class TestBenchTracing:
    def test_case_entry_has_trace_breakdown(self):
        from repro import bench
        from repro.bench.harness import RunContext, canonical_payload, run_case

        (case,) = bench.select_cases(names=["fig1_controller"])
        entry = run_case(case, RunContext(quick=True), printer=None)
        assert "trace" in entry
        assert "case:fig1_controller" in entry["trace"]
        for totals in entry["trace"].values():
            assert {"count", "wall_s", "self_s", "cpu_s"} == set(totals)
        # The breakdown is timing-flavoured: never canonical.
        report = {"bench_schema": 1, "cases": {case.name: entry}}
        canonical = canonical_payload(report)
        assert "trace" not in canonical["cases"][case.name]


# ----------------------------------------------------------------------
# serve wiring
# ----------------------------------------------------------------------
def _run_async(coro):
    return asyncio.run(coro)


class TestServeObservability:
    def _dispatch_scenario(self, scenario, **app_kwargs):
        from repro.serve.app import ServeApp

        async def run():
            app = ServeApp(workers=0, **app_kwargs)
            await app.startup()
            try:
                return await scenario(app)
            finally:
                await app.shutdown()

        return _run_async(run())

    def test_metrics_endpoint_renders_prometheus(self, tmp_path):
        async def scenario(app):
            body = json.dumps({"spec": "half", "wait": True}).encode()
            status, _ = await app.dispatch("POST", "/synth", body)
            assert status == 200
            status, text = await app.dispatch("GET", "/metrics")
            assert status == 200
            return text

        text = self._dispatch_scenario(
            scenario, store_root=str(tmp_path / "store"))
        assert isinstance(text, str)
        lines = text.splitlines()
        assert "# TYPE repro_requests_total counter" in lines
        assert 'repro_jobs_submitted_total{kind="synth"} 1' in lines
        assert 'repro_stage_computed_total{stage="generate"} 1' in lines
        assert any(line.startswith("repro_queue_wait_seconds_bucket")
                   for line in lines)
        assert "repro_queue_depth 0" in lines

    def test_job_trace_endpoint(self, tmp_path):
        async def scenario(app):
            body = json.dumps({"spec": "half", "wait": True}).encode()
            _, payload = await app.dispatch("POST", "/synth", body)
            jid = payload["job"]
            status, trace = await app.dispatch("GET", f"/jobs/{jid}/trace")
            missing, _ = await app.dispatch("GET", "/jobs/nope/trace")
            return jid, status, trace, missing

        jid, status, trace, missing = self._dispatch_scenario(
            scenario, store_root=str(tmp_path / "store"))
        assert status == 200 and missing == 404
        assert trace["job"] == jid
        tree = trace["trace"]
        assert tree["meta"]["job"] == jid
        (job_span,) = tree["spans"]
        assert job_span["name"] == "job"
        names = {node["name"] for node in _walk(job_span)}
        assert "pipeline" in names and "stage:generate" in names

    def test_stats_gains_live_counters(self, tmp_path):
        async def scenario(app):
            body = json.dumps({"spec": "half", "wait": True}).encode()
            await app.dispatch("POST", "/synth", body)
            _, stats = await app.dispatch("GET", "/stats")
            return stats

        stats = self._dispatch_scenario(
            scenario, store_root=str(tmp_path / "store"))
        assert stats["in_flight"] == 0
        assert stats["queue_depth"] == 0
        metrics = stats["metrics"]
        assert metrics['repro_jobs_submitted_total{kind="synth"}'] == 1
        assert metrics['repro_stage_computed_total{stage="generate"}'] == 1

    def test_results_identical_with_tracing_off(self, tmp_path):
        from repro.serve.jobs import JobManager
        from repro.serve.protocol import parse_synth_request

        async def result_with(trace, root):
            manager = JobManager(store_root=root, workers=0, trace=trace)
            await manager.start()
            try:
                job, _ = manager.submit(parse_synth_request({"spec": "half"}))
                await asyncio.wait_for(job.done.wait(), 60)
                assert job.status == "done"
                assert (job.trace is not None) is trace
                return job.result
            finally:
                await manager.stop()

        async def scenario():
            traced = await result_with(True, str(tmp_path / "a"))
            untraced = await result_with(False, str(tmp_path / "b"))
            return traced, untraced

        traced, untraced = _run_async(scenario())
        assert json.dumps(traced, sort_keys=True) \
            == json.dumps(untraced, sort_keys=True)

    def test_metrics_content_type_over_http(self, tmp_path):
        from repro.serve.http import BackgroundServer

        with BackgroundServer(store_root=str(tmp_path / "store"),
                              workers=0) as server:
            url = f"http://127.0.0.1:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=60) as response:
                assert response.status == 200
                content_type = response.headers["Content-Type"]
                body = response.read().decode()
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "repro_requests_total" in body


def _walk(node):
    yield node
    for child in node.get("children", []):
        yield from _walk(child)


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCliTracing:
    def test_synth_trace_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        assert main(["synth", "fifo_cell", "--trace", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"wrote trace to {path}" in captured.err
        payload = load_trace(str(path))
        assert payload["meta"]["command"] == "synth"
        names = [node["name"] for root in payload["spans"]
                 for node in _walk(root)]
        for stage in ("generate", "reduce", "resolve", "synthesize",
                      "timing"):
            assert names.count("stage:" + stage) == 1, stage
        assert "frontier:level" in names

    def test_chrome_trace_format(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "trace.chrome.json"
        assert main(["synth", "fifo_cell", "--trace", str(path),
                     "--trace-format", "chrome"]) == 0
        payload = load_trace(str(path))
        assert all(event["ph"] == "X" for event in payload["traceEvents"])
        assert {"stage:generate", "pipeline"} <= {
            event["name"] for event in payload["traceEvents"]}

    def test_trace_summarize_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        main(["synth", "fifo_cell", "--trace", str(path)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stage:generate" in out and "pipeline" in out

    def test_trace_summarize_rejects_garbage(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(SystemExit, match="not a repro trace"):
            main(["trace", "summarize", str(path)])

    def test_log_level_info_streams_heartbeats(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["--log-level", "info", "synth", "fifo_cell"]) == 0
        err = capsys.readouterr().err
        assert "repro.progress" in err
        assert "stage=generate" in err
        assert "engine=packed" in err

    def test_default_level_is_quiet(self, capsys):
        from repro.cli import main

        assert main(["synth", "fifo_cell"]) == 0
        err = capsys.readouterr().err
        assert "repro.progress" not in err

    def test_bad_env_level_is_a_clean_error(self, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_LOG", "loud")
        with pytest.raises(SystemExit, match="unknown log level"):
            main(["synth", "fifo_cell"])


# ----------------------------------------------------------------------
# the hard invariant: byte identity, in subprocesses, across hash seeds
# ----------------------------------------------------------------------
_IDENTITY_PROBE = """
import json, sys
from repro import bench
from repro.bench.harness import RunContext, canonical_payload, run_case, \\
    to_json_bytes
from repro.obs.trace import TraceRecorder, recording
from repro.pipeline.config import FlowConfig
from repro.pipeline.hashing import digest_payload
from repro.pipeline.stages import run_pipeline
from repro.specs.suite import source_text

def stage_digests(traced):
    def run():
        return run_pipeline(FlowConfig(verify=True),
                            stg_text=source_text("fifo_cell"))
    if traced:
        with recording(TraceRecorder()):
            result = run()
    else:
        result = run()
    return {stage: r.digest for stage, r in result.results.items()}

(case,) = bench.select_cases(names=["fig1_controller"])
entry = run_case(case, RunContext(quick=True), printer=None)
bench_bytes = to_json_bytes(canonical_payload(
    {"bench_schema": 1, "cases": {case.name: entry}}))
json.dump({"untraced": stage_digests(False),
           "traced": stage_digests(True),
           "bench_canonical": digest_payload({"doc": bench_bytes.decode()})},
          sys.stdout)
"""


class TestByteIdentity:
    def test_traced_untraced_identical_across_hash_seeds(self):
        results = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(__file__).parents[1] / "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep))
            proc = subprocess.run([sys.executable, "-c", _IDENTITY_PROBE],
                                  capture_output=True, text=True, env=env,
                                  check=True)
            results.append(json.loads(proc.stdout))
        first, second = results
        # Tracing on vs off: every artifact digest (certificate included,
        # via the verify stage) identical within one process.
        assert first["untraced"] == first["traced"]
        assert "verify" in first["untraced"]
        # And everything identical across hash seeds.
        assert first == second
