"""Differential cross-engine fuzzing: the oracle over generated specs.

For every :class:`~repro.specs.generate.random.GenSpec` the oracle runs
the same questions through independent implementations and byte-compares
the canonical answers:

* **sg** -- the packed and tuple exploration cores must derive the same
  canonical state-graph payload (BFS renaming makes admission order
  irrelevant, so any difference is an engine bug);
* **coding** -- the consistency/USC/CSC reports rendered from each
  explicit SG and the symbolic BDD engine's report must agree
  byte-for-byte (three engines, one
  :meth:`~repro.symbolic.csc.CodingReport.to_payload`);
* **pipeline** -- on small specs, a cold and a warm
  :func:`~repro.pipeline.jobs.run_synth_job` against one store must
  return identical JSON bytes; on the smallest, the job runs with
  verification enabled and a synthesized circuit must conform;
* **jobs** -- for sampled specs the same job is evaluated in a spawned
  worker process and byte-compared against the in-process result.

Engine exceptions are part of the comparison: each leg's outcome is a
payload digest *or* a normalized error record, so one engine failing
where another succeeds is a divergence, not a crash.  Divergences are
shrunk with :func:`~repro.specs.generate.shrink.shrink` under the
predicate "this oracle still diverges" and written as replayable repro
files (see ``docs/fuzzing.md`` for the format).

Everything the fuzz run prints or records -- per-spec records, the
corpus digest, the manifest -- is derived from canonical payloads, so a
run is byte-deterministic across processes and ``PYTHONHASHSEED``s.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ...explore.budget import BudgetExceeded, ExplorationBudget
from ...obs import metrics, progress
from ...obs.trace import span as obs_span
from ...petri.net import PetriNetError
from ...petri.parser import write_stg
from ...petri.stg import STG
from ...pipeline.artifacts import sg_to_payload
from ...pipeline.config import FlowConfig
from ...pipeline.hashing import digest_payload
from ...sg.generator import generate_sg
from ...sg.graph import StateGraphError
from ...sg.properties import check_coding, coding_report
from .random import GenKnobs, GenSpec, generate_spec
from .shrink import ShrinkResult, shrink

__all__ = ["DEFAULT_BUDGET_STATES", "Divergence", "FuzzReport",
           "SpecResult", "check_spec", "run_fuzz", "spec_seed"]

#: Default per-spec exploration budget (states).
DEFAULT_BUDGET_STATES = 50_000
#: Specs above this many states skip the pipeline cold/warm leg.
DEFAULT_PIPELINE_LIMIT = 300
#: Specs above this many signals skip it too: CSC insertion enumeration
#: and prime-implicant minimization are exponential in signal count, and
#: the pipeline leg must stay a per-spec cost, not a per-spec stall.
DEFAULT_PIPELINE_SIGNAL_LIMIT = 8
#: Specs at or below this many states also synthesize and verify.
DEFAULT_CONFORMANCE_LIMIT = 120

#: The explicit engine pair whose SG payloads must byte-match.
SG_ENGINES: Tuple[str, ...] = ("packed", "tuples")


@dataclass
class Divergence:
    """One observed cross-engine disagreement."""

    oracle: str
    spec: GenSpec
    details: Dict[str, object]

    def to_payload(self) -> Dict[str, object]:
        return {"oracle": self.oracle,
                "spec": self.spec.name,
                "details": self.details}


@dataclass
class SpecResult:
    """The canonical per-spec fuzz record (what the corpus digest sees)."""

    spec: GenSpec
    transitions: int = 0
    signals: int = 0
    states: int = 0
    arcs: int = 0
    sg_digest: Optional[str] = None
    coding_digest: Optional[str] = None
    checks: List[str] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)

    def record(self) -> Dict[str, object]:
        """The run-independent projection hashed into the corpus digest."""
        return {
            "spec": self.spec.digest,
            "seed": self.spec.seed,
            "transitions": self.transitions,
            "signals": self.signals,
            "states": self.states,
            "arcs": self.arcs,
            "sg": self.sg_digest,
            "coding": self.coding_digest,
            "checks": list(self.checks),
            "divergences": [d.to_payload() for d in self.divergences],
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz run over a seeded corpus."""

    seed: int
    count: int
    knobs: GenKnobs
    results: List[SpecResult] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)
    shrunk: List[ShrinkResult] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def corpus_digest(self) -> str:
        """One digest over every per-spec record, the regression anchor."""
        return digest_payload([r.record() for r in self.results])

    @property
    def total_states(self) -> int:
        return sum(r.states for r in self.results)

    @property
    def max_states(self) -> int:
        return max((r.states for r in self.results), default=0)

    def check_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            for check in result.checks:
                counts[check] = counts.get(check, 0) + 1
        return counts

    def manifest(self) -> Dict[str, object]:
        """The JSON corpus manifest (the CI artifact)."""
        return {
            "seed": self.seed,
            "count": self.count,
            "knobs": self.knobs.to_payload(),
            "corpus_digest": self.corpus_digest,
            "divergences": [d.to_payload() for d in self.divergences],
            "specs": [{"genspec": r.spec.to_json(), **r.record()}
                      for r in self.results],
        }


def spec_seed(seed: int, index: int) -> int:
    """The per-spec seed of corpus member ``index`` under run ``seed``."""
    return seed * 1_000_003 + index


# ----------------------------------------------------------------------
# outcome capture
# ----------------------------------------------------------------------

def _normalized_error(error: BaseException) -> Dict[str, object]:
    """An engine failure as a comparable record (no wall-clock, no
    engine-specific wording -- two engines failing the same way must
    produce the same record)."""
    if isinstance(error, BudgetExceeded):
        exceedance = error.exceedance
        return {"error": "budget", "resource": exceedance.resource,
                "limit": exceedance.limit}
    return {"error": type(error).__name__}


def _outcome(fn: Callable[[], Dict[str, object]]) -> Dict[str, object]:
    try:
        return fn()
    except (PetriNetError, StateGraphError, BudgetExceeded,
            ValueError) as error:
        return _normalized_error(error)


def _sg_outcome(stg: STG, engine: str,
                budget: Optional[ExplorationBudget]
                ) -> Tuple[Dict[str, object], Optional[object]]:
    """(comparable outcome, live SG or None) for one explicit engine."""
    sg_box: List[object] = []

    def run() -> Dict[str, object]:
        sg = generate_sg(stg, engine=engine, budget=budget)
        sg_box.append(sg)
        return {"digest": digest_payload(sg_to_payload(sg)),
                "states": len(sg), "arcs": sg.arc_count()}

    outcome = _outcome(run)
    return outcome, (sg_box[0] if sg_box else None)


def _coding_outcome(fn: Callable[[], object]) -> Dict[str, object]:
    def run() -> Dict[str, object]:
        report = fn()
        return {"digest": digest_payload(report.to_payload())}

    return _outcome(run)


# ----------------------------------------------------------------------
# the per-spec oracle
# ----------------------------------------------------------------------

def check_spec(spec: GenSpec,
               budget_states: int = DEFAULT_BUDGET_STATES,
               pipeline_limit: int = DEFAULT_PIPELINE_LIMIT,
               pipeline_signal_limit: int = DEFAULT_PIPELINE_SIGNAL_LIMIT,
               conformance_limit: int = DEFAULT_CONFORMANCE_LIMIT,
               jobs_identity: bool = False) -> SpecResult:
    """Run every applicable oracle over one generated spec."""
    result = SpecResult(spec=spec)
    stg = spec.build()
    result.transitions = len(stg.net.transitions)
    result.signals = len(stg.signals)
    budget = ExplorationBudget(max_states=budget_states)

    # -- sg oracle: packed vs tuples canonical payloads ----------------
    outcomes: Dict[str, Dict[str, object]] = {}
    graphs: Dict[str, object] = {}
    for engine in SG_ENGINES:
        outcomes[engine], graphs[engine] = _sg_outcome(stg, engine, budget)
    result.checks.append("sg")
    reference = outcomes[SG_ENGINES[0]]
    result.states = int(reference.get("states", 0) or 0)
    result.arcs = int(reference.get("arcs", 0) or 0)
    result.sg_digest = reference.get("digest")
    if any(outcomes[engine] != reference for engine in SG_ENGINES[1:]):
        result.divergences.append(Divergence(
            oracle="sg", spec=spec, details=dict(outcomes)))
        return result  # downstream legs would only echo the same bug

    # -- coding oracle: explicit reports vs the symbolic engine --------
    codings = {engine: _coding_outcome(
                   lambda sg=graphs[engine]: coding_report(sg))
               for engine in SG_ENGINES if graphs[engine] is not None}
    if codings:
        codings["symbolic"] = _coding_outcome(
            lambda: check_coding(stg, engine="symbolic", name=stg.name))
        result.checks.append("coding")
        coding_reference = codings[SG_ENGINES[0]]
        result.coding_digest = coding_reference.get("digest")
        if any(outcome != coding_reference for outcome in codings.values()):
            result.divergences.append(Divergence(
                oracle="coding", spec=spec, details=dict(codings)))
            return result

    # -- pipeline oracle: cold vs warm byte-identity -------------------
    if (graphs[SG_ENGINES[0]] is not None
            and result.states <= pipeline_limit
            and result.signals <= pipeline_signal_limit):
        verify = result.states <= conformance_limit
        divergence = _pipeline_check(spec, stg, verify=verify,
                                     jobs_identity=jobs_identity,
                                     checks=result.checks)
        if divergence is not None:
            result.divergences.append(divergence)
    return result


def _job_payload_text(config_payload: Dict[str, object], stg_text: str,
                      name: str, store_dir: Optional[str]) -> str:
    """One synth job as canonical JSON text (spawn-safe module entry)."""
    from ...pipeline.jobs import run_synth_job
    from ...pipeline.store import ArtifactStore

    config = FlowConfig.from_payload(config_payload)
    store = None if store_dir is None else ArtifactStore(store_dir)
    payload = run_synth_job(config, stg_text, name=name, store=store)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _pipeline_check(spec: GenSpec, stg: STG, verify: bool,
                    jobs_identity: bool,
                    checks: List[str]) -> Optional[Divergence]:
    import tempfile

    # One insertion round: enough to exercise resolve/synthesize/verify
    # determinism without paying the full insertion search per spec.
    config = FlowConfig.create(strategy="none", verify=verify,
                               max_csc_signals=1)
    config_payload = config.to_payload()
    stg_text = write_stg(stg)

    def run(store_dir: Optional[str]) -> Dict[str, object]:
        return {"text": _job_payload_text(config_payload, stg_text,
                                          stg.name, store_dir)}

    with tempfile.TemporaryDirectory(prefix="fuzz_store_") as store_dir:
        cold = _outcome(lambda: run(store_dir))
        warm = _outcome(lambda: run(store_dir))
    checks.append("pipeline")
    if cold != warm:
        return Divergence(oracle="pipeline", spec=spec,
                          details={"cold": cold, "warm": warm})
    if "error" in cold:
        return None
    payload = json.loads(cold["text"])
    if verify:
        checks.append("conformance")
        verification = payload.get("summary", {}).get("verification")
        # "skipped" (no circuit: unresolved CSC) and "state-limit"
        # (inconclusive) are not failures; any counterexample verdict is.
        verdict = None if verification is None \
            else verification.get("verdict")
        if verdict in ("non-conforming", "hazard", "deadlock",
                       "not-semi-modular"):
            return Divergence(
                oracle="conformance", spec=spec,
                details={"verdict": verdict,
                         "reason": verification.get("reason")})
    if jobs_identity:
        checks.append("jobs")
        remote = _outcome(lambda: {"text": _spawned_job(
            config_payload, stg_text, stg.name)})
        if remote != cold:
            return Divergence(oracle="jobs", spec=spec,
                              details={"serial": cold, "spawned": remote})
    return None


def _spawned_job(config_payload: Dict[str, object], stg_text: str,
                 name: str) -> str:
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        return pool.apply(_job_payload_text,
                          (config_payload, stg_text, name, None))


# ----------------------------------------------------------------------
# the corpus loop
# ----------------------------------------------------------------------

def _divergence_predicate(divergence: Divergence,
                          budget_states: int) -> Callable[[GenSpec], bool]:
    """"The same oracle still diverges" -- the shrinker's predicate."""
    oracle = divergence.oracle
    # Engine-level divergences re-check engines only (fast); pipeline
    # divergences need their leg re-run, with the spawn leg only when
    # the divergence actually lives there.
    pipeline_limit = 0 if oracle in ("sg", "coding") \
        else DEFAULT_PIPELINE_LIMIT

    def predicate(candidate: GenSpec) -> bool:
        result = check_spec(candidate, budget_states=budget_states,
                            pipeline_limit=pipeline_limit,
                            jobs_identity=(oracle == "jobs"))
        return any(d.oracle == oracle for d in result.divergences)

    return predicate


def _write_repro(divergence: Divergence, shrunk: ShrinkResult,
                 repro_dir: str) -> str:
    payload = {
        "oracle": divergence.oracle,
        "details": divergence.details,
        "genspec": shrunk.spec.to_json(),
        "shrunk_from": divergence.spec.to_json(),
        "shrink_log": shrunk.log,
        "shrink_attempts": shrunk.attempts,
        "transitions": len(shrunk.spec.build().net.transitions),
    }
    os.makedirs(repro_dir, exist_ok=True)
    path = os.path.join(
        repro_dir, f"{divergence.oracle}_{shrunk.spec.digest[:12]}.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_fuzz(seed: int = 0, count: int = 100,
             knobs: Optional[GenKnobs] = None,
             budget_states: int = DEFAULT_BUDGET_STATES,
             pipeline_limit: int = DEFAULT_PIPELINE_LIMIT,
             conformance_limit: int = DEFAULT_CONFORMANCE_LIMIT,
             jobs_identity_every: int = 0,
             do_shrink: bool = True,
             repro_dir: Optional[str] = None) -> FuzzReport:
    """Fuzz ``count`` seeded specs through every differential oracle.

    ``jobs_identity_every=n`` runs the spawned-process identity leg on
    every n-th spec (0 disables it -- it costs a worker process spin-up
    per use).  With ``do_shrink`` each divergence is reduced to a
    minimal repro; ``repro_dir`` additionally writes the repro files.
    """
    import time

    knobs = knobs or GenKnobs()
    registry = metrics.registry()
    specs_total = registry.counter(
        "repro_fuzz_specs_total", "generated specs checked")
    divergences_total = registry.counter(
        "repro_fuzz_divergences_total", "cross-engine divergences found")
    shrink_steps_total = registry.counter(
        "repro_fuzz_shrink_steps_total", "accepted shrink edits")
    report = FuzzReport(seed=seed, count=count, knobs=knobs)
    started = time.perf_counter()
    with obs_span("fuzz:corpus", seed=seed, count=count):
        for index in range(count):
            spec = generate_spec(spec_seed(seed, index), knobs)
            jobs_leg = (jobs_identity_every > 0
                        and index % jobs_identity_every == 0)
            with obs_span("fuzz:spec", index=index, spec=spec.name):
                result = check_spec(
                    spec, budget_states=budget_states,
                    pipeline_limit=pipeline_limit,
                    conformance_limit=conformance_limit,
                    jobs_identity=jobs_leg)
            report.results.append(result)
            specs_total.inc()
            for divergence in result.divergences:
                divergences_total.inc()
                report.divergences.append(divergence)
                if not do_shrink:
                    continue
                with obs_span("fuzz:shrink", oracle=divergence.oracle,
                              spec=spec.name):
                    shrunk = shrink(spec, _divergence_predicate(
                        divergence, budget_states))
                shrink_steps_total.inc(shrunk.steps)
                report.shrunk.append(shrunk)
                if repro_dir is not None:
                    report.repro_paths.append(
                        _write_repro(divergence, shrunk, repro_dir))
            progress.emit("fuzz", {
                "spec": index + 1, "of": count,
                "states": result.states,
                "divergences": len(report.divergences)})
    report.seconds = time.perf_counter() - started
    return report
