"""Workload ``service_mix``: a closed loop of synthesis requests over HTTP.

Two client connections post ``/synth`` requests, each waiting for its
reply before sending the next, to ``python -m repro serve --workers 1``.
The requests are a seeded order over a pool of small design points: the
specs ``fig1``, ``lr``, ``half``, ``vme_read``, ``fifo_cell`` and
``micropipeline``, crossed with strategies, weights, delay triples and
Keep_Conc variants, all with ``verify=True``.  A quarter of the requests
repeat an earlier one a few places later, so both the job history and
in-flight dedup get hit.

Each round has two phases, each on a freshly started server.  ``cold``
starts from an empty store, so every stage computes and writes.  ``warm``
sends the same sequence to a new server over the now-warm store, so the
stages read instead.  Store, artifact codec, hashing and the service do
most of the work; the searches do little.  The metrics cover both phases;
the cold/warm split is in the per-layer ``serve.*`` metrics.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import (HostSpeed, Leg, Outcome, another_pass, check, child_pids,
                    p50, p95, peak_rss_mb)
from layers import LayerTotals

SPECS = ("fig1", "lr", "half", "vme_read", "fifo_cell", "micropipeline")
STRATEGIES = ("beam", "best-first", "full")
WEIGHTS = (0.0, 0.5, 1.0)
DELAYS = ((2, 1, 1), (1, 1, 1), (3, 2, 1))
CLIENTS = 2
#: Share of extra requests that repeat an earlier one.
REPEAT_SHARE = 0.25
REQUEST_TIMEOUT_S = 60.0
#: Throughput is the median over rounds, so every run makes several; five
#: take about 15 s here, so the count rarely varies between runs.
MIN_ROUNDS = 5
#: Requests sent between two host-speed readings within a phase.
SEGMENT = 24
#: Reference samples per reading (see ``common.HostSpeed``): before each
#: server start, once it listens, and after each segment.
READING_SAMPLES = 6


def build_pool() -> List[dict]:
    """Every distinct request body of the mix."""
    from repro.specs.lr import TABLE1_KEEP_CONC

    pool = []
    for spec in SPECS:
        keeps = [[]]
        if spec == "lr":
            keeps += [[list(pair) for pair in keep]
                      for keep in TABLE1_KEEP_CONC.values()]
        for delays in DELAYS:
            pool.append({"spec": spec, "config": {
                "strategy": "none", "delays": list(delays), "verify": True}})
            for strategy, weight, keep in itertools.product(
                    STRATEGIES, WEIGHTS, keeps):
                pool.append({"spec": spec, "config": {
                    "strategy": strategy, "weight": weight,
                    "delays": list(delays), "keep_conc": keep,
                    "verify": True}})
    return pool


def setup(seed: int) -> List[dict]:
    """The request pool; each round draws its order from the seed."""
    return build_pool()


def _sequence(pool: List[dict], rng: random.Random) -> List[int]:
    order = rng.sample(range(len(pool)), len(pool))
    for _ in range(int(len(pool) * REPEAT_SHARE)):
        at = rng.randrange(len(order))
        order.insert(min(len(order), at + rng.randint(1, 3)), order[at])
    return order


class Server:
    """One ``repro serve`` process (hooked by ``layers.py`` when traced)."""

    def __init__(self, store: str, traced: bool) -> None:
        entry = ([os.path.join("perfbench", "layers.py")] if traced
                 else ["-m", "repro"])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *entry, "serve", "--workers", "1", "--port", "0",
             "--store", store],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        line = self.process.stderr.readline()
        self.setup_s = time.perf_counter() - started
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        self._drain = threading.Thread(target=self.process.stderr.read,
                                       daemon=True)
        self._drain.start()

    def get(self, path: str):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read().decode("utf-8")
        finally:
            connection.close()
        return body if path == "/metrics" else json.loads(body)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server and its pool workers."""
        return peak_rss_mb([self.process.pid, *child_pids(self.process.pid)])

    def stop(self) -> None:
        """Interrupt the server, wait for it and for its pool workers."""
        workers = child_pids(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            for pid in workers:
                _signal(pid, signal.SIGKILL)
        for pid in workers:
            _await_exit(pid)


def _await_exit(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except OSError:
            return
        time.sleep(0.01)
    _signal(pid, signal.SIGKILL)


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except OSError:
        pass


#: ``(position, latency, HTTP status, job view)`` of one request.
Reply = Tuple[int, float, int, dict]


def _reading() -> HostSpeed:
    speed = HostSpeed()
    speed.sample(READING_SAMPLES)
    return speed


def _phase(server: Server, pool: List[dict], order: List[int],
           ready: HostSpeed
           ) -> Tuple[float, float, List[Reply], Dict[int, float]]:
    """Send ``order`` over :data:`CLIENTS` closed-loop connections,
    :data:`SEGMENT` requests at a time.

    Between segments both connections are idle and the host speed is read
    (``ready`` is the reading before the first), so each segment is
    normalised by the readings at its two ends rather than by one for the
    whole phase.  Returns the raw and normalised phase wall,
    ``(position, raw latency, status, view)`` per request and each
    position's normalisation factor.
    """
    connections = [http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=REQUEST_TIMEOUT_S)
                   for _ in range(CLIENTS)]
    replies: List[Reply] = []
    factors: Dict[int, float] = {}
    raw = normalised = 0.0
    edge = ready
    try:
        requests = list(enumerate(order))
        for start in range(0, len(requests), SEGMENT):
            wall, got = _segment(connections, pool,
                                 requests[start:start + SEGMENT])
            after = _reading()
            factor = HostSpeed(edge.samples + after.samples).factor()
            raw += wall
            normalised += wall * factor
            replies += got
            factors.update((reply[0], factor) for reply in got)
            edge = after
    finally:
        for connection in connections:
            connection.close()
    replies.sort()
    return raw, normalised, replies, factors


def _segment(connections, pool: List[dict], requests: List[Tuple[int, int]]
             ) -> Tuple[float, List[Reply]]:
    """Send ``requests``, one closed loop per connection; the wall and
    ``(position, latency, status, view)`` per request."""
    lock = threading.Lock()
    queue = iter(requests)
    replies: List[Reply] = []
    errors: List[BaseException] = []

    def client(connection) -> None:
        try:
            while True:
                with lock:
                    position, index = next(queue, (None, None))
                if position is None:
                    return
                body = json.dumps({**pool[index], "wait": True})
                started = time.perf_counter()
                connection.request("POST", "/synth", body,
                                   {"Content-Type": "application/json"})
                response = connection.getresponse()
                data = response.read()
                latency = time.perf_counter() - started
                with lock:
                    replies.append((position, latency, response.status,
                                    json.loads(data)))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(connection,))
               for connection in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise RuntimeError(f"client failed: {errors[0]!r}")
    return wall, replies


def _reply_checks(status: int, view: dict) -> List[str]:
    problems = check(status == 200, f"HTTP {status}")
    problems += check(view.get("status") == "done",
                      f"job {view.get('status')}: {view.get('error')}")
    summary = (view.get("result") or {}).get("summary") or {}
    if summary.get("csc_resolved"):
        problems += check(summary.get("verdict") == "conforming",
                          f"verdict {summary.get('verdict')}")
    return problems


def _queue_wait_buckets(text: str, buckets: Dict[float, float]) -> None:
    for match in re.finditer(
            r'^repro_queue_wait_seconds_bucket\{le="([^"]+)"\} (\S+)$', text,
            re.MULTILINE):
        bound = float(match.group(1))
        buckets[bound] = buckets.get(bound, 0.0) + float(match.group(2))


def _bucket_p50(buckets: Dict[float, float]) -> float:
    """Median of a cumulative histogram, linear inside the bucket."""
    bounds = sorted(buckets)
    if not bounds or buckets[bounds[-1]] == 0:
        return 0.0
    half = buckets[bounds[-1]] / 2.0
    lower, below = 0.0, 0.0
    for bound in bounds:
        count = buckets[bound]
        if count >= half:
            if bound == float("inf") or count == below:
                return lower
            return lower + (bound - lower) * (half - below) / (count - below)
        lower, below = bound, count
    return lower


class _Tally:
    """What the rounds of one leg add up to."""

    def __init__(self) -> None:
        #: Host-normalised latencies and phase walls.
        self.latency = {"cold": [], "warm": []}
        self.wall = {"cold": 0.0, "warm": 0.0}
        #: Raw wall of every phase together.
        self.raw_wall = 0.0
        self.setups: List[float] = []
        self.rss = 0.0
        self.hits = 0
        self.stages = 0
        self.store_bytes = 0.0
        self.executed = 0
        self.dedup = 0
        self.buckets: Dict[float, float] = {}
        self.job_wall = 0.0
        self.overheads: List[float] = []
        self.qor: Dict[str, float] = {}


def _qor(order: List[int], replies) -> Dict[str, float]:
    area = csc = cycle = 0.0
    seen = set()
    for position, _, _, view in replies:
        index = order[position]
        summary = (view.get("result") or {}).get("summary") or {}
        if index in seen or not summary.get("csc_resolved"):
            continue
        seen.add(index)
        area += summary["area"] or 0.0
        csc += summary["csc_signals"]
        cycle += summary["cycle_time"] or 0.0
    return {"qor.area_literals": area, "qor.csc_signals": csc,
            "qor.cycle_time": cycle}


def _run_phase(name: str, store: str, pool, order,
               totals: Optional[LayerTotals], acc: _Tally, outcome: Outcome,
               reference: Optional[Dict[int, str]]) -> Dict[int, str]:
    """One phase on a fresh server; ``totals`` (traced) folds job spans.

    Returns each request's canonical result text by pool index.
    """
    spawn = _reading()
    server = Server(store, traced=totals is not None)
    try:
        ready = _reading()
        acc.setups.append(HostSpeed(spawn.samples + ready.samples).normalise(
            server.setup_s))
        raw, wall, replies, factors = _phase(server, pool, order, ready)
        acc.raw_wall += raw
        acc.wall[name] += wall
        stats = server.get("/stats")
        _queue_wait_buckets(server.get("/metrics"), acc.buckets)
        acc.executed += stats["tasks_executed"]
        acc.dedup += stats["dedup_hits"]
        results: Dict[int, str] = {}
        first_of: Dict[str, int] = {}
        for position, latency, status, view in replies:
            acc.latency[name].append(latency * factors[position])
            index = order[position]
            text = json.dumps(view.get("result"), sort_keys=True)
            problems = _reply_checks(status, view)
            problems += check(results.setdefault(index, text) == text,
                              "repeated request answered differently")
            if reference is not None:
                problems += check(reference.get(index) == text,
                                  "warm result differs from cold")
            outcome.item(f"{name} request {position}", problems)
            first_of.setdefault(view.get("job"), position)
        for position in first_of.values():
            for state in (replies[position][3].get("stages") or {}).values():
                acc.stages += 1
                acc.hits += state == "cached"
        if totals is not None:
            phase_job_wall = 0.0
            for job, position in first_of.items():
                tree = server.get(f"/jobs/{job}/trace")["trace"]
                totals.add_tree(tree["spans"])
                job_wall = sum(node["wall_s"] for node in tree["spans"])
                phase_job_wall += job_wall
                latency = replies[position][1]
                acc.overheads.append(max(0.0, latency - job_wall))
            for position, latency, _, view in replies:
                if first_of[view.get("job")] != position:
                    acc.overheads.append(latency)
            acc.job_wall += phase_job_wall
        if name == "cold":
            acc.qor = _qor(order, replies)
            acc.store_bytes += sum(
                os.path.getsize(os.path.join(root, entry))
                for root, _, entries in os.walk(store) for entry in entries)
        acc.rss = max(acc.rss, server.peak_rss_mb())
    finally:
        server.stop()
    return results


def measure(pool: List[dict], seed: int, seconds: float, outcome: Outcome,
            traced: bool = False, passes: Optional[int] = None) -> Leg:
    """Cold-then-warm rounds until ``seconds`` have passed (or exactly
    ``passes`` rounds), each round over a fresh store."""
    rng = random.Random(seed)
    acc = _Tally()
    leg = Leg(layers=LayerTotals() if traced else None)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=os.getcwd())
    started = time.perf_counter()
    done = 0
    try:
        while another_pass(started, done, seconds, passes, MIN_ROUNDS):
            order = _sequence(pool, rng)
            store = os.path.join(work, f"store-{done}")
            round_wall = acc.wall["cold"] + acc.wall["warm"]
            cold = _run_phase("cold", store, pool, order, leg.layers, acc,
                              outcome, None)
            _run_phase("warm", store, pool, order, leg.layers, acc, outcome,
                       cold)
            leg.pass_rates.append(2 * len(order) / (
                acc.wall["cold"] + acc.wall["warm"] - round_wall))
            done += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    leg.wall = acc.raw_wall
    leg.seconds = acc.wall["cold"] + acc.wall["warm"]
    leg.item_seconds = acc.latency["cold"] + acc.latency["warm"]
    leg.extras = {
        **acc.qor,
        "passes": done,
        "setup_s": p50(acc.setups),
        "peak_rss_mb": acc.rss + peak_rss_mb(),
        "pipeline.store_bytes": acc.store_bytes / done,
        "pipeline.stage_hit_ratio": acc.hits / acc.stages,
        "serve.queue_wait_s_p50": _bucket_p50(acc.buckets),
        "serve.tasks_executed": acc.executed,
        "serve.dedup_hits": acc.dedup,
    }
    if not traced:
        for phase in ("cold", "warm"):
            leg.extras[f"serve.{phase}_req_per_s"] = (
                len(acc.latency[phase]) / acc.wall[phase])
            leg.extras[f"serve.{phase}_req_s_p95"] = p95(acc.latency[phase])
    else:
        leg.extras["serve.dispatch_s"] = max(0.0, leg.wall - acc.job_wall)
        leg.extras["serve.http_overhead_s"] = p50(acc.overheads)
    return leg
