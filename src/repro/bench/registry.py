"""The declarative benchmark registry: cases, metrics, checks.

Every benchmark in the repository is one :class:`BenchCase`: a name, a
tier, a ``run`` callable producing a plain result mapping, a tuple of
:class:`Metric` extractors (each with a unit and a
higher/lower-is-better direction) and a tuple of :class:`Check`
correctness assertions that fail loudly.  The harness
(:mod:`repro.bench.harness`) owns everything else -- timing, environment
capture, the canonical JSON payload and table printing -- so a case is
*only* the workload and its claims.

Metrics come in two kinds:

* **exact** (``measured=False``): deterministic values -- state counts,
  areas, literal counts, cache-hit counts.  They are part of the
  canonical payload (byte-identical across runs and hash seeds) and the
  baseline comparison requires them to match exactly, modulo an explicit
  per-metric tolerance.
* **measured** (``measured=True``): wall-clock times, rates and
  speedups.  They are recorded in the BENCH file for the trajectory but
  excluded from the canonical payload.  Only *gated* measured metrics
  can fail a baseline comparison (see :mod:`repro.bench.compare`); raw
  seconds default to ``gated=False`` because absolute times do not
  transfer across machines.

A check either passes, fails (raise :class:`CheckFailed` or any
``AssertionError``) or is skipped (raise :class:`CheckSkipped` with the
reason).  Skips are never silent: the harness records every one in the
case's ``skipped_checks`` list inside the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "TIERS", "Metric", "Check", "BenchCase",
    "CheckFailed", "CheckSkipped", "MissingMetric",
    "register", "require", "get_case", "case_names", "select_cases",
    "all_cases",
]

#: Tier vocabulary, cheapest first.  ``quick`` cases are sub-second
#: analysis/synthesis workloads (the CI gate's diet); ``full`` cases are
#: the multi-second throughput benchmarks.
TIERS = ("quick", "full")


class CheckFailed(AssertionError):
    """A benchmark correctness check did not hold."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


class CheckSkipped(Exception):
    """A check could not run in this environment; carries the reason."""


class MissingMetric(KeyError):
    """A metric extractor found no value in the case result."""


@dataclass(frozen=True)
class Metric:
    """One named value extracted from a case result.

    ``key`` is a ``.``-separated path into the result mapping (default:
    the metric name); ``extract`` overrides it with an arbitrary
    callable.  ``direction`` is ``"higher"``, ``"lower"`` or
    ``"neutral"`` (neutral exact metrics are drift detectors: any change
    against the baseline is flagged).  ``tolerance`` is a relative
    tolerance overriding the comparison default for this metric.
    """

    name: str
    unit: str
    direction: str = "neutral"
    measured: bool = False
    gated: Optional[bool] = None
    tolerance: Optional[float] = None
    key: Optional[str] = None
    extract: Optional[Callable[[Mapping[str, Any]], Any]] = None

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower", "neutral"):
            raise ValueError(f"bad direction {self.direction!r}")

    @property
    def is_gated(self) -> bool:
        """Whether a baseline comparison may fail on this metric.

        Exact metrics gate by default; measured ones do not (absolute
        times are machine-bound), unless the case opts in explicitly
        (ratios such as warm-vs-cold speedups are machine-relative).
        """
        if self.gated is not None:
            return self.gated
        return not self.measured

    def value_from(self, result: Mapping[str, Any]) -> Any:
        if self.extract is not None:
            return self.extract(result)
        node: Any = result
        for part in (self.key or self.name).split("."):
            try:
                node = node[part]
            except (KeyError, TypeError, IndexError):
                raise MissingMetric(
                    f"metric {self.name!r}: no {part!r} in case result")
        return node

    def record(self, result: Mapping[str, Any]) -> Dict[str, Any]:
        """The JSON record the harness stores for this metric."""
        entry: Dict[str, Any] = {
            "value": self.value_from(result),
            "unit": self.unit,
            "direction": self.direction,
            "measured": self.measured,
            "gated": self.is_gated,
        }
        if self.tolerance is not None:
            entry["tolerance"] = self.tolerance
        return entry


@dataclass(frozen=True)
class Check:
    """A named correctness assertion over a case result."""

    name: str
    run: Callable[[Mapping[str, Any]], None]


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark.

    ``run`` receives the harness :class:`~repro.bench.harness.RunContext`
    (timing helpers, quick-mode flag) and returns a plain mapping; the
    declared ``metrics`` and ``checks`` are evaluated against it.
    ``info_keys`` are result keys copied verbatim into the canonical
    payload (lists and labels that are deterministic but not numeric).
    ``table`` renders an optional paper-style table: it returns
    ``(header, rows)`` and the harness prints it under ``title``.
    """

    name: str
    title: str
    tier: str
    run: Callable[[Any], Mapping[str, Any]]
    metrics: Tuple[Metric, ...] = ()
    checks: Tuple[Check, ...] = ()
    info_keys: Tuple[str, ...] = ()
    table: Optional[Callable[[Mapping[str, Any]],
                             Tuple[Sequence[str], List[tuple]]]] = None

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"bad tier {self.tier!r}; expected one of {TIERS}")
        seen = set()
        for metric in self.metrics:
            if metric.name in seen:
                raise ValueError(f"duplicate metric {metric.name!r} "
                                 f"in case {self.name!r}")
            seen.add(metric.name)

    def metric(self, name: str) -> Metric:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise MissingMetric(f"case {self.name!r} has no metric {name!r}")


_REGISTRY: Dict[str, BenchCase] = {}


def register(case: BenchCase) -> BenchCase:
    """Add a case to the global registry (import-time, deterministic)."""
    if case.name in _REGISTRY:
        raise ValueError(f"benchmark case {case.name!r} already registered")
    _REGISTRY[case.name] = case
    return case


def _loaded_registry() -> Dict[str, BenchCase]:
    # The case modules self-register on import; importing here keeps the
    # registry usable from any entry point without import-order rituals.
    from . import cases  # noqa: F401  (import for side effect)
    return _REGISTRY


def get_case(name: str) -> BenchCase:
    registry = _loaded_registry()
    if name not in registry:
        raise KeyError(f"unknown benchmark case {name!r}; "
                       f"available: {sorted(registry)}")
    return registry[name]


def case_names(tier: Optional[str] = None) -> List[str]:
    """Registered case names (registration order), optionally one tier."""
    return [case.name for case in all_cases()
            if tier is None or case.tier == tier]


def all_cases() -> List[BenchCase]:
    return list(_loaded_registry().values())


def select_cases(names: Optional[Sequence[str]] = None,
                 tier: Optional[str] = None) -> List[BenchCase]:
    """Resolve a CLI selection: explicit names win, then tier filter.

    ``tier=None`` or ``"all"`` selects every tier.  Unknown names raise
    ``KeyError`` listing the registry.
    """
    if names:
        return [get_case(name) for name in names]
    if tier in (None, "all"):
        return all_cases()
    if tier not in TIERS:
        raise KeyError(f"unknown tier {tier!r}; expected one of "
                       f"{TIERS + ('all',)}")
    return [case for case in all_cases() if case.tier == tier]
