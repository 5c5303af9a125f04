"""Shared pieces of the workloads: outcomes, percentiles, memory, set-up,
and host-normalised timing."""

from __future__ import annotations

import gc
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from repro import engine
from repro.obs.trace import TraceRecorder, recording

from layers import LayerTotals

T = TypeVar("T")

#: Set-ups per in-process run, after one untimed warm-up; the median is
#: reported.
SETUP_REPEATS = 9

#: Wall seconds one :func:`reference_loop` takes at the nominal host speed:
#: the median on an uncontended vCPU of a 2-vCPU 2.0 GHz Xeon VM.
REFERENCE_S = 0.0027
#: Reference samples taken right before and right after each timed unit.
BRACKET_SAMPLES = 5
#: Seconds between reference samples while an in-process item runs.
SAMPLE_EVERY_S = 0.1


@dataclass
class Outcome:
    """Items attempted and the checks each one failed."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    failed_items: int = 0

    def item(self, label: str, problems: Iterable[str]) -> None:
        """Count one item; it fails if any check reported a problem."""
        problems = list(problems)
        self.attempted += 1
        if problems:
            self.failed_items += 1
            self.failures.extend(f"{label}: {problem}" for problem in problems)


def check(condition: bool, message: str) -> List[str]:
    """``[]`` when the condition holds, else the one problem."""
    return [] if condition else [message]


def p50(values: List[float]) -> float:
    return statistics.median(values)


def p95(values: List[float]) -> float:
    """Interpolated within the values, never past the largest: over a
    handful of item kinds the default method extrapolates beyond the
    slowest one and so amplifies its noise."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Peak resident memory of this process plus ``pids``, in MB.

    Reads ``VmHWM`` (the kernel's high-water mark) from ``/proc``; a pid
    that has already exited counts as 0.
    """
    total_kb = 0
    for pid in ["self", *pids]:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def child_pids(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (pool workers of a server)."""
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children",
                      encoding="ascii") as handle:
                children = [int(text) for text in handle.read().split()]
        except OSError:
            continue
        for child in children:
            found.append(child)
            found.extend(child_pids(child))
    return found


def reference_loop() -> int:
    """A fixed pure-Python task (dict stores, integer arithmetic): the
    program's own kind of work, at a size that takes a few milliseconds."""
    total = 0
    table: Dict[int, int] = {}
    for step in range(20000):
        table[step & 1023] = total
        total += step * 3 % 7
    return total


class HostSpeed:
    """Reference samples taken around (and during) one timed unit.

    The virtual machine's speed swings by up to 2-3x between minutes and
    by about 20% between 50 ms windows, each vCPU on its own (so
    ``run.py`` keeps the run on one), and a fixed loop run next to the
    work swings with it (their ratio stays within a few percent).  A time
    is therefore reported as the seconds the unit would take at the
    nominal speed: ``raw * REFERENCE_S / median(samples)``.
    """

    def __init__(self, samples: Iterable[float] = ()) -> None:
        self.samples: List[float] = list(samples)

    def sample(self, count: int = BRACKET_SAMPLES) -> float:
        """Take ``count`` samples; returns the seconds they took."""
        took = 0.0
        for _ in range(count):
            started = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - started)
            took += self.samples[-1]
        return took

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)

    def normalise(self, seconds: float) -> float:
        return seconds * self.factor()


def timed(run: Callable[[], T]) -> Tuple[T, float, float]:
    """Run ``run`` in-process; ``(out, raw seconds, normalised seconds)``.

    Besides the samples before and after, a timer takes one reference
    sample every :data:`SAMPLE_EVERY_S` while ``run`` executes, so a long
    item is normalised by the speed it actually ran at; the sampling time
    is left out of the raw time.
    """
    speed = HostSpeed()
    paused = 0.0

    def sample(signum, frame) -> None:
        nonlocal paused
        paused += speed.sample(1)

    speed.sample()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    started = time.perf_counter()
    try:
        out = run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    raw = time.perf_counter() - started - paused
    speed.sample()
    return out, raw, speed.normalise(raw)


def time_setup(workload: str, seed: int) -> float:
    """Median normalised seconds of fresh interpreters importing and
    building the workload's inputs (``--setup-only``), over
    :data:`SETUP_REPEATS` after one untimed warm-up (which also writes
    the bytecode caches).
    """
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", "0", "--setup-only"]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    samples = []
    for _ in range(SETUP_REPEATS):
        speed = HostSpeed()
        speed.sample()
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        raw = time.perf_counter() - started
        speed.sample()
        samples.append(speed.normalise(raw))
    return statistics.median(samples)


@dataclass
class Leg:
    """The measured passes of a workload, traced or not.

    Item times are host-normalised (:class:`HostSpeed`); ``wall`` is raw.
    Items of one kind (a design point, a family shape) repeat across
    passes, and each kind counts with the median of its passes: once
    normalised, that reads steadier than the fastest pass (see
    ``perfbench/NOTES.md``).  Where items overlap in time
    (concurrent requests), each pass records its own rate in
    ``pass_rates``, throughput is their median and the latency
    percentiles cover every item.
    """

    #: Span totals of a traced leg, ``None`` untraced.
    layers: Optional[LayerTotals] = None
    #: Raw wall seconds of the measured work, and the same normalised.
    wall: float = 0.0
    seconds: float = 0.0
    item_seconds: List[float] = field(default_factory=list)
    by_kind: Dict[str, List[float]] = field(default_factory=dict)
    pass_rates: List[float] = field(default_factory=list)
    cache_entries: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    def add_item(self, kind: str, raw: float, seconds: float) -> None:
        self.item_seconds.append(seconds)
        self.wall += raw
        self.seconds += seconds
        self.by_kind.setdefault(kind, []).append(seconds)

    def item_times(self) -> List[float]:
        """Per-kind median times, or every item when items overlap."""
        if self.pass_rates:
            return self.item_seconds
        return [statistics.median(times) for times in self.by_kind.values()]

    def items_per_s(self) -> float:
        if self.pass_rates:
            return statistics.median(self.pass_rates)
        return len(self.by_kind) / sum(self.item_times())


def run_item(leg: Leg, kind: str, run: Callable[[], T]) -> T:
    """Time one in-process item, started from cleared engine caches and a
    collected heap; a traced leg runs it under a recorder, sampled only
    before and after, and folds its spans."""
    engine.clear_caches()
    gc.collect()
    if leg.layers is None:
        out, raw, seconds = timed(run)
        leg.add_item(kind, raw, seconds)
    else:
        speed = HostSpeed()
        speed.sample()
        recorder = TraceRecorder()
        started = time.perf_counter()
        with recording(recorder):
            out = run()
        raw = time.perf_counter() - started
        speed.sample()
        leg.add_item(kind, raw, speed.normalise(raw))
        leg.layers.add_tree(recorder.to_tree()["spans"])
    leg.cache_entries = max(leg.cache_entries,
                            sum(engine.cache_stats().values()))
    return out


def another_pass(started: float, done: int, seconds: float,
                 passes: Optional[int], minimum: int = 1) -> bool:
    """Exactly ``passes`` passes when given; otherwise at least ``minimum``
    and one more while it is expected to end within ``seconds`` of
    ``started``."""
    if passes is not None:
        return done < passes
    if done < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds
