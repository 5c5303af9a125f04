"""A process-local metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds named series -- a metric name plus a
sorted label set identifies one series, Prometheus-style::

    registry.counter("repro_stage_computed_total", stage="generate").inc()
    registry.gauge("repro_queue_depth").set(4)
    registry.histogram("repro_queue_wait_seconds").observe(0.03)

Two renderings: :meth:`~MetricsRegistry.snapshot` is a sorted-key JSON
dict (deterministic modulo the observed values, for ``/stats`` and
tests), and :meth:`~MetricsRegistry.render_prometheus` is the Prometheus
text exposition format (version 0.0.4), served by ``GET /metrics``.

The module-level :func:`registry` is the default instance the
instrumented layers (frontier engine, pipeline stages) write to; the
serving layer builds its own per-:class:`~repro.serve.jobs.JobManager`
registry so concurrent servers in one process never mix series.  Like
tracing, metrics are pure observation: nothing reads a metric back to
make a decision, so results are byte-identical whether or not anyone
ever scrapes them.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS", "registry", "reset_registry"]

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   30.0, 60.0)

Labels = Tuple[Tuple[str, str], ...]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, in-flight count)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``;
    observations above the last bound only land in ``+Inf`` (the total
    ``count``).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        self.bounds: Tuple[float, ...] = tuple(buckets)
        self.bucket_counts: List[int] = [0] * len(self.bounds)
        self.count: int = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1


def _labels(labels: Dict[str, str]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n")


def _series_name(name: str, labels: Labels,
                 extra: Labels = ()) -> str:
    merged = tuple(sorted(labels + extra))
    if not merged:
        return name
    inner = ",".join(f'{key}="{_escape(value)}"' for key, value in merged)
    return f"{name}{{{inner}}}"


def _render_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """All series of one process (or one server), by (name, labels).

    Thread-safe for the cheap paths (a lock guards series creation; the
    value updates themselves are single bytecode ops on ints/floats).
    A metric name is bound to one type and one help string at first use;
    reusing it as a different type raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._types: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._series: Dict[Tuple[str, Labels], Any] = {}

    # ------------------------------------------------------------------
    # series accessors
    # ------------------------------------------------------------------
    def _get(self, kind: str, factory, name: str, help_text: str,
             labels: Dict[str, str]):
        key = (name, _labels(labels))
        series = self._series.get(key)
        if series is not None and self._types.get(name) == kind:
            return series
        with self._lock:
            bound = self._types.setdefault(name, kind)
            if bound != kind:
                raise ValueError(
                    f"metric {name!r} is already a {bound}, not a {kind}")
            series = self._series.get(key)
            if series is None:
                if help_text:
                    self._help.setdefault(name, help_text)
                series = self._series[key] = factory()
            return series

    def counter(self, name: str, help: str = "",
                **labels: str) -> Counter:
        """The counter series for ``name`` + ``labels`` (created once)."""
        return self._get("counter", Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge series for ``name`` + ``labels`` (created once)."""
        return self._get("gauge", Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        """The histogram series for ``name`` + ``labels`` (created once)."""
        return self._get("histogram", lambda: Histogram(buckets), name,
                         help, labels)

    def value(self, name: str, **labels: str) -> Optional[float]:
        """The current value of a counter/gauge series, if it exists."""
        series = self._series.get((name, _labels(labels)))
        return None if series is None else series.value

    # ------------------------------------------------------------------
    # renderings
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain sorted dict of every series, JSON-ready.

        Counter/gauge series map flat rendered names to values;
        histogram series map to ``{"count", "sum", "buckets"}`` dicts.
        """
        out: Dict[str, Any] = {}
        for (name, labels), series in sorted(self._series.items()):
            flat = _series_name(name, labels)
            if isinstance(series, Histogram):
                out[flat] = {
                    "count": series.count,
                    "sum": round(series.sum, 9),
                    "buckets": {_render_value(bound): count
                                for bound, count in zip(
                                    series.bounds, series.bucket_counts)},
                }
            else:
                out[flat] = series.value
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition (format version 0.0.4)."""
        by_name: Dict[str, List[Tuple[Labels, Any]]] = {}
        for (name, labels), series in sorted(self._series.items()):
            by_name.setdefault(name, []).append((labels, series))
        lines: List[str] = []
        for name in sorted(by_name):
            help_text = self._help.get(name)
            if help_text:
                lines.append(f"# HELP {name} {_escape(help_text)}")
            lines.append(f"# TYPE {name} {self._types[name]}")
            for labels, series in by_name[name]:
                if isinstance(series, Histogram):
                    cumulative = 0
                    for bound, count in zip(series.bounds,
                                            series.bucket_counts):
                        cumulative = count
                        label = (("le", _render_value(bound)),)
                        lines.append(
                            f"{_series_name(name + '_bucket', labels, label)}"
                            f" {cumulative}")
                    label = (("le", "+Inf"),)
                    lines.append(
                        f"{_series_name(name + '_bucket', labels, label)}"
                        f" {series.count}")
                    lines.append(f"{_series_name(name + '_sum', labels)} "
                                 f"{_render_value(series.sum)}")
                    lines.append(f"{_series_name(name + '_count', labels)} "
                                 f"{series.count}")
                else:
                    lines.append(f"{_series_name(name, labels)} "
                                 f"{_render_value(series.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


#: The default (process-local) registry the instrumented layers write to.
_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-default registry (frontier + pipeline metrics)."""
    return _DEFAULT


def reset_registry() -> MetricsRegistry:
    """Replace the default registry with a fresh one (tests, benchmarks)."""
    global _DEFAULT
    _DEFAULT = MetricsRegistry()
    return _DEFAULT
