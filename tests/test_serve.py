"""Tests for the synthesis service (repro.serve).

Unit-level: protocol canonicalization and content-addressed job identity,
the job manager's dedup/batching/budget machinery (driven on a plain
asyncio loop, no sockets).  End-to-end: a real HTTP server on an
ephemeral port, exercised with urllib from threads -- including the
acceptance properties: N identical concurrent requests trigger exactly
one computation, a warm repeat computes zero pipeline stages, and service
sweep rows are byte-identical to CLI sweep rows.
"""

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.app import ServeApp, json_bytes
from repro.serve.http import BackgroundServer
from repro.serve.jobs import JobManager
from repro.serve.protocol import (ProtocolError, job_id, parse_sweep_request,
                                  parse_synth_request, point_from_task,
                                  point_task, sweep_task, task_group)
from repro.specs.suite import source_text
from repro.sweep import render, run_sweep, tables_grid


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_registry_name_and_inline_text_share_identity(self):
        by_name = parse_synth_request({"spec": "half"})
        by_text = parse_synth_request({"stg": source_text("half")})
        assert by_name == by_text
        assert job_id(by_name) == job_id(by_text)

    def test_keep_conc_order_is_canonical(self):
        a = parse_synth_request({"spec": "lr", "config": {
            "keep_conc": [["ri-", "li-"], ["ro-", "lo-"]]}})
        b = parse_synth_request({"spec": "lr", "config": {
            "keep_conc": [["lo-", "ro-"], ["li-", "ri-"]]}})
        assert job_id(a) == job_id(b)

    def test_delays_list_spelling(self):
        explicit = parse_synth_request({"spec": "half", "config": {
            "delays": [2, 1, 1]}})
        default = parse_synth_request({"spec": "half"})
        assert job_id(explicit) == job_id(default)

    def test_unknown_spec_is_404(self):
        with pytest.raises(ProtocolError) as err:
            parse_synth_request({"spec": "no-such-spec"})
        assert err.value.status == 404

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown config field"):
            parse_synth_request({"spec": "half", "config": {"wat": 1}})

    def test_spec_xor_stg_required(self):
        with pytest.raises(ProtocolError):
            parse_synth_request({})
        with pytest.raises(ProtocolError):
            parse_synth_request({"spec": "half", "stg": "x"})

    def test_verify_budget_clamped(self):
        task = parse_synth_request(
            {"spec": "half",
             "config": {"verify": True, "verify_max_states": 10**9}},
            max_verify_states=5000)
        assert task["config"]["verify_max_states"] == 5000

    def test_point_task_round_trip(self):
        # Every point of the whole Tables 1-2 grid, with every axis at its
        # default and then moved, survives the JSON task layout.
        for axes in ({}, {"verify": True, "verify_max_states": 4096,
                          "delays": (3, 1, "3/2"), "frontier": 3,
                          "max_explored": 50}):
            grid = tables_grid(**axes)
            assert len(grid) > 50
            for point in grid.points:
                task = json.loads(json.dumps(point_task(point)))
                assert point_from_task(task) == point

    def test_task_groups(self):
        synth = parse_synth_request({"spec": "half"})
        point = point_task(tables_grid(specs=["lr"],
                                       strategies=("none",)).points[0])
        assert task_group(point) == "lr"
        assert task_group(synth).startswith("synth:")

    def test_sweep_request_validation(self):
        with pytest.raises(ProtocolError, match="unknown sweep field"):
            parse_sweep_request({"spec": "lr"})
        with pytest.raises(ProtocolError):
            parse_sweep_request({"specs": ["nope"]})
        grid = parse_sweep_request({"specs": ["lr"],
                                    "strategies": ["none", "full"]})
        assert len(grid.points) == 6  # none, full, 4 keep variants

    @pytest.mark.parametrize("config, field", [
        ({"verify": "false"}, "verify"),
        ({"resynthesise": "no"}, "resynthesise"),
        ({"weight": True}, "weight"),
        ({"weight": "0.5"}, "weight"),
        ({"strategy": "beam", "weight": 1.5}, "weight"),
        ({"weight": -0.5}, "weight"),
        ({"patience": 0}, "patience"),
        ({"patience": "200"}, "patience")])
    def test_synth_flags_and_weight_are_typed(self, config, field):
        # A truthy string is not a flag, a bool is not a weight, and a
        # weight outside [0, 1] never reaches the worker.
        with pytest.raises(ProtocolError, match=field) as err:
            parse_synth_request({"spec": "lr", "config": config})
        assert err.value.status == 400
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("body, field", [
        ({"verify": "false"}, "verify"),
        ({"keep_variants": "false"}, "keep_variants"),
        ({"specs": "lr"}, "specs"),
        ({"strategies": "beam"}, "strategies"),
        ({"weights": 0.5}, "weights"),
        ({"weights": [True]}, "weight")])
    def test_sweep_flags_and_axes_are_typed(self, body, field):
        with pytest.raises(ProtocolError, match=field) as err:
            parse_sweep_request({"specs": ["lr"], **body})
        assert err.value.status == 400

    #: Valid bodies and the job ids they had before the fields were typed:
    #: refusing bad spellings must not rename any job a client can reach.
    PINNED_IDS = [
        ({"spec": "lr"},
         "5916730a98f093b7cdbff17fa1d5773219dc4cc6fd3f173a4ccf7945bfefd582"),
        ({"spec": "half", "config": {"verify": True, "resynthesise": True}},
         "84e2ec70063a433eec48f586986e5ecea49b14b3320de3d9cd3c5b35b52b4b40"),
        ({"spec": "lr", "config": {"strategy": "beam", "weight": 1,
                                   "verify": False}},
         "262522d4451913ae5043806ee95457500ce7953fa3b4c25cd6e0ec2afb253a79"),
        ({"spec": "lr", "config": {"strategy": "none", "weight": 0.25}},
         "9f08b40b50c415ce7986e1aee3157a4dbdefd46ebe54ade25a7e880bf89cdf85"),
        ({"specs": ["lr"]},
         "d507a09e0beda349c82c61576620c835b44d55d46e30afd14db4435c67f05d45"),
        ({"specs": ["lr", "half"], "strategies": ["beam", "full"],
          "weights": [0, 1], "verify": True, "keep_variants": False},
         "de3928f8de06e0dc6a440153dfee2ea819dd3bf28a99ec8ca9f19c601c490013"),
        ({"specs": ["half"], "strategies": ["none"], "verify": False,
          "keep_variants": True},
         "5b00f2b9e31b86e18f57fa509d7ecac6c63b8f6e342f0c3f789946b011b22108"),
    ]

    @pytest.mark.parametrize("body, expected", PINNED_IDS)
    def test_valid_bodies_keep_their_job_ids(self, body, expected):
        if "specs" in body:
            children = [job_id(point_task(point))
                        for point in parse_sweep_request(body).points]
            assert job_id(sweep_task(children)) == expected
        else:
            assert job_id(parse_synth_request(body)) == expected


# ----------------------------------------------------------------------
# job manager (no sockets)
# ----------------------------------------------------------------------
def _run(coro):
    return asyncio.run(coro)


class TestJobManager:
    def test_inflight_dedup_single_execution(self, tmp_path):
        async def scenario():
            manager = JobManager(store_root=str(tmp_path / "store"),
                                 workers=0)
            await manager.start()
            try:
                task = parse_synth_request({"spec": "half"})
                jobs = [manager.submit(task)[0] for _ in range(5)]
                assert len({job.id for job in jobs}) == 1
                await asyncio.wait_for(jobs[0].done.wait(), 60)
                assert jobs[0].status == "done"
                assert manager.stats["tasks_executed"] == 1
                assert manager.stats["dedup_hits"] == 4
            finally:
                await manager.stop()

        _run(scenario())

    def test_finished_job_serves_repeats(self, tmp_path):
        async def scenario():
            manager = JobManager(store_root=str(tmp_path / "store"),
                                 workers=0)
            await manager.start()
            try:
                task = parse_synth_request({"spec": "half"})
                job, created = manager.submit(task)
                assert created
                await asyncio.wait_for(job.done.wait(), 60)
                again, created = manager.submit(task)
                assert not created and again is job
            finally:
                await manager.stop()

        _run(scenario())

    def test_budget_expires_unstarted_job(self):
        async def scenario():
            # Never started: no dispatcher, so the watchdog must fire.
            manager = JobManager(workers=0)
            task = parse_synth_request({"spec": "half"})
            job, _ = manager.submit(task, timeout=0.05)
            await asyncio.wait_for(job.done.wait(), 10)
            assert job.status == "failed"
            assert "timeout" in job.error
            assert manager.stats["timeouts"] == 1

        _run(scenario())

    def test_timeout_retry_executes_once(self, tmp_path):
        async def scenario():
            manager = JobManager(store_root=str(tmp_path / "store"),
                                 workers=0)
            task = parse_synth_request({"spec": "half"})
            # Expire while queued (manager not started): the stale id
            # stays in the pending deque.
            expired, _ = manager.submit(task, timeout=0.01)
            await asyncio.wait_for(expired.done.wait(), 10)
            assert expired.status == "failed"
            # Retry the identical task, then start dispatching: the job
            # must run exactly once despite two pending entries.
            retry, created = manager.submit(task)
            assert created and retry is not expired
            await manager.start()
            try:
                await asyncio.wait_for(retry.done.wait(), 60)
                assert retry.status == "done"
                assert manager.stats["tasks_executed"] == 1
                assert manager.stats["late_results_discarded"] == 0
            finally:
                await manager.stop()

        _run(scenario())

    def test_failed_task_reports_error(self, tmp_path):
        async def scenario():
            manager = JobManager(store_root=str(tmp_path / "store"),
                                 workers=0)
            await manager.start()
            try:
                # Inconsistent encoding: SG generation raises.
                broken = (".model bad\n.inputs a\n.outputs b\n.graph\n"
                          "a+ b+\nb+ a+\n.marking { <b+,a+> }\n.end\n")
                task = parse_synth_request({"stg": broken})
                job, _ = manager.submit(task)
                await asyncio.wait_for(job.done.wait(), 60)
                assert job.status == "failed"
                assert job.error
            finally:
                await manager.stop()

        _run(scenario())

    def test_micro_batching_groups_same_spec(self, tmp_path):
        async def scenario():
            manager = JobManager(store_root=str(tmp_path / "store"),
                                 workers=0, batch_size=8)
            # Submit before starting so the whole backlog is visible to
            # the first dispatch round.
            grid = tables_grid(specs=["lr", "fifo_cell"],
                               strategies=("none", "full"),
                               include_keep_variants=False)
            jobs = [manager.submit(point_task(p))[0] for p in grid.points]
            await manager.start()
            try:
                for job in jobs:
                    await asyncio.wait_for(job.done.wait(), 120)
                assert all(job.status == "done" for job in jobs)
                # 4 points over 2 specs in <= 3 chunks proves grouping
                # (pure FIFO with no affinity would need 4).
                assert manager.stats["chunks"] <= 3
            finally:
                await manager.stop()

        _run(scenario())


# ----------------------------------------------------------------------
# app dispatch (transport-free)
# ----------------------------------------------------------------------
class TestDispatch:
    def _dispatch(self, app, method, path, body=b""):
        async def call():
            await app.startup()
            try:
                return await app.dispatch(method, path, body)
            finally:
                await app.shutdown()

        return _run(call())

    def test_healthz(self):
        status, payload = self._dispatch(ServeApp(workers=0),
                                         "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_unknown_route_and_method(self):
        assert self._dispatch(ServeApp(workers=0), "GET", "/nope")[0] == 404
        assert self._dispatch(ServeApp(workers=0), "PUT", "/synth")[0] == 405

    def test_bad_json_is_400(self):
        status, payload = self._dispatch(ServeApp(workers=0), "POST",
                                         "/synth", b"{nope")
        assert status == 400 and "invalid JSON" in payload["error"]

    @pytest.mark.parametrize("field, value", [
        ("library", "default"), ("exact_covers", True),
        ("sg_engine", "auto"), ("check_engine", "auto")])
    def test_removed_config_field_is_400(self, field, value):
        body = json.dumps({"spec": "half",
                           "config": {field: value}}).encode()
        status, payload = self._dispatch(ServeApp(workers=0), "POST",
                                         "/synth", body)
        assert status == 400
        assert "unknown config field" in payload["error"]
        assert repr(field) in payload["error"]

    @pytest.mark.parametrize("config", [
        {"keep_conc": [["a"]]}, {"keep_conc": "ab"},
        {"strategy": "beam", "size_frontier": "x"},
        {"max_csc_signals": "3"}, {"max_explored": -1}, {"phases": 3},
        {"delays": ["x", 1, 1]}, {"delays": [1, 1, None]}])
    def test_invalid_config_value_is_400(self, config):
        body = json.dumps({"spec": "half", "config": config}).encode()
        status, payload = self._dispatch(ServeApp(workers=0), "POST",
                                         "/synth", body)
        assert status == 400
        assert "invalid config" in payload["error"]

    def test_ignored_field_shares_one_job(self):
        # Two bodies that differ only in a field the strategy never reads
        # name one design point, so they are one job.
        async def call():
            app = ServeApp(workers=0)
            await app.startup()
            try:
                views = []
                for config in ({"strategy": "none"},
                               {"strategy": "none", "weight": 1,
                                "keep_conc": [["li-", "ri-"]]},
                               {"strategy": "best-first",
                                "size_frontier": 9},
                               {"strategy": "best-first"}):
                    body = json.dumps({"spec": "half",
                                       "config": config}).encode()
                    views.append(await app.dispatch("POST", "/synth", body))
                return views
            finally:
                await app.shutdown()

        (s1, none), (s2, weighted), (s3, wide), (s4, plain) = _run(call())
        assert {s1, s2, s3, s4} <= {200, 202}
        assert none["job"] == weighted["job"]
        assert wide["job"] == plain["job"] != none["job"]

    def test_artifacts_without_store_404(self):
        assert self._dispatch(ServeApp(workers=0), "GET",
                              "/artifacts/abc")[0] == 404

    def test_synth_wait_round_trip(self, tmp_path):
        body = json.dumps({"spec": "half", "wait": True}).encode()
        status, payload = self._dispatch(
            ServeApp(store_root=str(tmp_path / "store"), workers=0),
            "POST", "/synth", body)
        assert status == 200
        assert payload["status"] == "done"
        assert payload["result"]["summary"]["csc_resolved"] is True
        assert payload["result"]["equations"]


# ----------------------------------------------------------------------
# end to end over real sockets
# ----------------------------------------------------------------------
def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=60) as response:
        return response.status, json.loads(response.read())


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


class TestHttpEndToEnd:
    def test_full_service_round_trip(self, tmp_path):
        store = str(tmp_path / "store")
        with BackgroundServer(store_root=store, workers=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            assert _get(base, "/healthz")[0] == 200

            # Cold synthesis: fire, then poll to completion.
            status, job = _post(base, "/synth", {"spec": "half"})
            assert status in (200, 202)
            for _ in range(600):
                status, view = _get(base, "/jobs/" + job["job"])
                if view["status"] in ("done", "failed"):
                    break
            assert view["status"] == "done"
            assert set(view["stages"].values()) == {"computed"}

            # Warm repeat within the same server: dedup, zero stages.
            status, again = _post(base, "/synth",
                                  {"spec": "half", "wait": True})
            assert again["job"] == job["job"]
            assert again["result"] == view["result"]

            # Artifacts resolve by content digest.
            digest = view["result"]["artifacts"]["synthesize"]
            status, artifact = _get(base, "/artifacts/" + digest)
            assert status == 200 and artifact["stage"] == "synthesize"
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base, "/artifacts/" + "0" * 64)
            assert err.value.code == 404

            # Unknown job id.
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(base, "/jobs/unknown")
            assert err.value.code == 404

            status, stats = _get(base, "/stats")
            assert stats["tasks_executed"] == 1
            assert stats["store"]["entries"] > 0

        # A fresh server over the same store: all stages served warm.
        with BackgroundServer(store_root=store, workers=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            status, warm = _post(base, "/synth",
                                 {"spec": "half", "wait": True})
            assert warm["status"] == "done"
            assert set(warm["stages"].values()) == {"cached"}
            assert warm["result"] == view["result"]

    def test_concurrent_identical_requests_compute_once(self, tmp_path):
        with BackgroundServer(store_root=str(tmp_path / "store"),
                              workers=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            results = []

            def hit():
                results.append(_post(base, "/synth",
                                     {"spec": "fifo_cell", "wait": True})[1])

            threads = [threading.Thread(target=hit) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len({r["job"] for r in results}) == 1
            bodies = {json_bytes(r["result"]) for r in results}
            assert len(bodies) == 1
            stats = _get(base, "/stats")[1]
            assert stats["tasks_executed"] == 1
            assert stats["dedup_hits"] == 5

    def test_sweep_rows_match_cli_sweep(self, tmp_path):
        grid = tables_grid(specs=["lr"], strategies=("none", "full"))
        expected = run_sweep(grid, jobs=1).rows
        with BackgroundServer(store_root=str(tmp_path / "store"),
                              workers=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            status, job = _post(base, "/sweep", {
                "specs": ["lr"], "strategies": ["none", "full"],
                "wait": True})
            assert job["status"] == "done"
            assert job["points"] == len(expected)
        assert job["result"]["rows"] == expected
        # Byte-level: the rendered reports are identical too.
        assert (render(job["result"]["rows"], "json")
                == render(expected, "json"))

    def test_malformed_http_gets_400(self, tmp_path):
        with BackgroundServer(workers=0) as server:
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=10) as conn:
                conn.sendall(b"NOT-HTTP\r\n\r\n")
                reply = conn.recv(4096)
            assert reply.startswith(b"HTTP/1.1 400")

    def test_timeout_budget_fails_job(self, tmp_path):
        with BackgroundServer(store_root=str(tmp_path / "store"),
                              workers=0, batch_size=1) as server:
            base = f"http://127.0.0.1:{server.port}"
            status, job = _post(base, "/synth", {
                "spec": "mmu", "wait": True, "timeout": 0.2})
            assert job["status"] == "failed"
            assert "timeout" in job["error"]
            stats = _get(base, "/stats")[1]
            assert stats["timeouts"] == 1
