"""The Fig. 4 flow as named stages with content-addressed resume.

``run_pipeline`` evaluates one :class:`~repro.pipeline.config.FlowConfig`
through the stage chain

    expand -> generate -> reduce -> resolve -> synthesize -> timing -> verify

Each stage is keyed by ``digest(stage, schema, config slice, input content
digests)`` and produces a serializable payload (:mod:`.artifacts`).  With
an :class:`~repro.pipeline.store.ArtifactStore`, a stage whose key hits is
served from disk without recomputation, so warm re-runs skip exactly the
stages whose inputs changed: a delays-only config change recomputes timing
(and verification) but reuses expansion, SG generation, reduction, CSC
resolution and synthesis.  Keys bind to *content* digests, so two design
points that reduce to the same state graph share every downstream artifact
even within one cold run.

Determinism: stages always consume the payload-decoded form of their
inputs (never the live object a previous stage produced in this process),
so cold and warm evaluations start every stage from bit-identical inputs
and the final reports are byte-identical -- across runs, hash seeds, and
serial vs parallel sweeps.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import engine
from ..obs import progress as obs_progress
from ..obs.metrics import registry as obs_registry
from ..obs.trace import Span, span as obs_span
from ..circuit.synthesize import (CircuitImplementation, estimate_circuit_area,
                                  synthesize_circuit)
from ..encoding.insertion import resolve_csc
from ..petri.parser import parse_stg, write_stg
from ..reduction.explore import (ExplorationResult, ExplorationStats,
                                 full_reduction_with_stats, reduce_concurrency)
from ..explore import ExplorationBudget
from ..sg.generator import DEFAULT_MAX_STATES as DEFAULT_SG_MAX_STATES
from ..sg.generator import generate_sg
from ..sg.graph import StateGraph
from ..sg.resynthesis import ResynthesisError, resynthesise_stg
from ..timing.critical_cycle import TimingError, critical_cycle
from .artifacts import (circuit_from_payload, circuit_payload,
                        cycle_from_payload, cycle_payload,
                        insertion_from_payload, insertion_payload,
                        netlist_from_payload, sg_from_payload, sg_to_payload,
                        spec_payload)
from .config import STAGE_ORDER, FlowConfig
from .hashing import digest_payload, graph_digest, text_digest
from .store import ArtifactStore

__all__ = ["PipelineError", "PipelineResult", "ReductionSummary",
           "StageResult", "run_pipeline", "run_reduction"]

#: Worker-side decode memo: payload digest -> decoded state graph.  Sweep
#: points of one spec decode the same initial-SG payload thousands of
#: times.  Decoded graphs are frozen before they are shared, so neither a
#: stage nor a caller holding a :class:`PipelineResult` graph can change
#: what a later evaluation with the same digest sees.  Registered with the
#: engine so benchmarks can clear it, and bounded (whole-table reset on
#: overflow, like the minimizer memo) so long-lived processes cannot
#: accumulate graphs without end.
_DECODED_SG: Dict[str, StateGraph] = engine.register_cache(
    {}, name="pipeline-decoded-sg")
_DECODED_SG_LIMIT = 512


class PipelineError(Exception):
    """Raised when the pipeline cannot be driven from the given inputs."""


def _decode_sg(payload: Dict[str, object], digest: str) -> StateGraph:
    sg = _DECODED_SG.get(digest)
    if sg is None:
        sg = sg_from_payload(payload).freeze()
        if len(_DECODED_SG) >= _DECODED_SG_LIMIT:
            _DECODED_SG.clear()
        _DECODED_SG[digest] = sg
    return sg


@dataclass
class StageResult:
    """One evaluated (or cache-served) stage."""

    stage: str
    payload: object
    digest: str
    key: Optional[str]
    cached: bool
    #: The stage-native object, present only when the stage actually ran in
    #: this process (e.g. the full :class:`ExplorationResult` with its
    #: history, or the synthesized circuit with minimized covers).
    live: object = None


@dataclass(frozen=True)
class ReductionSummary:
    """Store-served stand-in for a live :class:`ExplorationResult`."""

    strategy: str
    initial_cost: Optional[float]
    best_cost: Optional[float]
    stats: Optional[ExplorationStats]

    @property
    def improved(self) -> bool:
        """Whether the search beat the initial cost."""
        return (self.best_cost is not None and self.initial_cost is not None
                and self.best_cost < self.initial_cost)


def run_reduction(config: FlowConfig, sg: StateGraph
                  ) -> Tuple[StateGraph, Optional[ExplorationResult],
                             Optional[ExplorationStats]]:
    """Apply the configured reduction strategy to a live state graph.

    The single implementation behind the pipeline's reduce stage and
    ``repro reduce``; per-strategy frontier/budget defaults come from
    :data:`repro.pipeline.config.STRATEGY_DEFAULTS`.
    """
    if config.strategy == "none":
        return sg, None, None
    if config.strategy == "full":
        chosen, stats = full_reduction_with_stats(
            sg, keep_conc=config.keep_conc,
            size_frontier=config.effective_frontier(),
            weight=config.weight,
            max_explored=config.effective_max_explored())
        return chosen, None, stats
    exploration = reduce_concurrency(
        sg, keep_conc=config.keep_conc,
        size_frontier=config.effective_frontier(),
        weight=config.weight,
        max_explored=config.effective_max_explored(),
        strategy=config.strategy,
        patience=config.patience)
    return exploration.best, exploration, exploration.stats


def _observe_stage(record: Optional[Span], stage: str, key: Optional[str],
                   digest: str, cached: bool, seconds: float) -> None:
    """Fold one stage outcome into the span/metrics/heartbeat sinks.

    Pure observation: everything here reads the stage result, nothing
    feeds back, so traced and untraced runs stay byte-identical.
    """
    if record is not None:
        record.set(digest=digest, cached=cached)
        if key is not None:
            record.set(key=key)
    outcome = "reused" if cached else "computed"
    reg = obs_registry()
    reg.counter(f"repro_stage_{outcome}_total",
                f"Pipeline stages {outcome}.", stage=stage).inc()
    if not cached:
        reg.histogram("repro_stage_seconds",
                      "Wall seconds per computed pipeline stage.",
                      stage=stage).observe(seconds)
    obs_progress.emit("stage", {"stage": stage, "event": outcome,
                                "digest": digest[:12],
                                "seconds": round(seconds, 4)}, force=True)


def _execute(store: Optional[ArtifactStore], stage: str,
             config_slice: Dict[str, object],
             inputs: Callable[[], List[str]],
             compute: Callable[[], Tuple[object, object]]) -> StageResult:
    """Serve a stage from the store or compute-and-persist it.

    ``inputs`` is a thunk producing the input content digests: key
    derivation (and the digesting behind it) only happens when a store is
    actually in play.
    """
    with obs_span("stage:" + stage) as record:
        key = None
        if store is not None:
            key = ArtifactStore.stage_key(stage, config_slice, inputs())
            entry = store.get_entry(key, stage=stage)
            if entry is not None:
                _observe_stage(record, stage, key, entry["digest"],
                               cached=True, seconds=0.0)
                return StageResult(stage, entry["payload"], entry["digest"],
                                   key, cached=True)
        obs_progress.emit("stage", {"stage": stage, "event": "start"},
                          force=True)
        started = time.perf_counter()
        payload, live = compute()
        seconds = time.perf_counter() - started
        digest = digest_payload(payload)
        if store is not None:
            store.put_entry(key, stage, payload, digest=digest)
        _observe_stage(record, stage, key, digest, cached=False,
                       seconds=seconds)
        return StageResult(stage, payload, digest, key, cached=False,
                           live=live)


@dataclass
class PipelineResult:
    """Everything one pipeline evaluation produced, stage by stage.

    ``sg_digests`` carries the content digests of the generate/reduce/
    resolve graph payloads computed during the run, so accessors never
    re-serialize a payload just to name it.
    """

    config: FlowConfig
    name: str
    results: Dict[str, StageResult]
    store: Optional[ArtifactStore] = None
    sg_digests: Dict[str, str] = field(default_factory=dict)
    _decoded: Dict[str, object] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # cache accounting
    # ------------------------------------------------------------------
    def stage_status(self) -> Dict[str, str]:
        """``{stage: "cached" | "computed"}`` in execution order."""
        return {stage: ("cached" if self.results[stage].cached else "computed")
                for stage in STAGE_ORDER if stage in self.results}

    # ------------------------------------------------------------------
    # decoded artifact accessors (graphs shared, circuits per result)
    # ------------------------------------------------------------------
    def _sg(self, stage: str, payload: Dict[str, object]) -> StateGraph:
        """A decoded graph payload, shared through the ``_DECODED_SG`` memo
        (the graph is frozen, so callers cannot poison it)."""
        return _decode_sg(payload, self.sg_digests[stage])

    def stg_text(self) -> Optional[str]:
        """The expanded STG text, when expansion was part of this run."""
        expand = self.results.get("expand")
        return None if expand is None else expand.payload["stg"]

    def expanded_stg(self):
        """The handshake-expanded STG (live when expansion ran here)."""
        expand = self.results.get("expand")
        if expand is None:
            return None
        return expand.live if expand.live is not None \
            else parse_stg(expand.payload["stg"])

    def initial_sg(self) -> StateGraph:
        """The generated (maximal-concurrency) state graph, decoded."""
        return self._sg("generate", self.results["generate"].payload)

    def reduced_sg(self) -> StateGraph:
        """The state graph after concurrency reduction, decoded."""
        return self._sg("reduce", self.results["reduce"].payload["sg"])

    def resolved_sg(self) -> StateGraph:
        """The CSC-resolved state graph, decoded."""
        return self._sg("resolve", self.results["resolve"].payload["sg"])

    def insertions(self) -> List:
        """The state-signal insertion choices, decoded."""
        return [insertion_from_payload(entry)
                for entry in self.results["resolve"].payload["insertions"]]

    def csc_resolved(self) -> bool:
        """Whether CSC resolution succeeded within budget."""
        return self.results["resolve"].payload["resolved"]

    def exploration(self):
        """The live exploration when this process ran the reduce stage, a
        :class:`ReductionSummary` when the store served it, ``None`` for
        the strategies that do not search (``none``/``full``)."""
        if self.config.strategy not in ("beam", "best-first"):
            return None
        result = self.results["reduce"]
        if result.live is not None:
            return result.live
        return ReductionSummary(strategy=self.config.strategy,
                                initial_cost=result.payload["initial_cost"],
                                best_cost=result.payload["best_cost"],
                                stats=self.reduction_stats())

    def reduction_stats(self) -> Optional[ExplorationStats]:
        """Exploration statistics of the reduce stage, if it searched."""
        stats = self.results["reduce"].payload["stats"]
        return None if stats is None else ExplorationStats(**stats)

    def circuit(self) -> Optional[CircuitImplementation]:
        """The synthesized circuit, decoded (``None`` when CSC failed)."""
        result = self.results["synthesize"]
        if result.live is not None:
            return result.live
        payload = result.payload["circuit"]
        if payload is None:
            return None
        key = "circuit:" + result.digest
        if key not in self._decoded:
            self._decoded[key] = circuit_from_payload(payload)
        return self._decoded[key]

    def area_estimate(self) -> Optional[float]:
        """The optimistic area estimate when CSC stayed unresolved."""
        return self.results["synthesize"].payload["area_estimate"]

    def resynthesised_stg(self):
        """The re-derived STG, when ``resynthesise`` was enabled."""
        text = self.results["synthesize"].payload["stg"]
        return None if text is None else parse_stg(text)

    def cycle(self):
        """The critical-cycle report, decoded (``None`` if timing failed)."""
        return cycle_from_payload(self.results["timing"].payload["cycle"])

    def verification(self):
        """The verification report, when the config asked for one."""
        result = self.results.get("verify")
        if result is None:
            return None
        if result.live is not None:
            return result.live
        from ..verify.certificate import VerificationReport
        return VerificationReport.from_dict(result.payload)


def run_pipeline(config: FlowConfig,
                 spec=None,
                 stg=None,
                 stg_text: Optional[str] = None,
                 initial_sg: Optional[StateGraph] = None,
                 name: Optional[str] = None,
                 store: Optional[ArtifactStore] = None) -> PipelineResult:
    """Evaluate one design point through the staged Fig. 4 flow.

    Exactly one entry point must be given: a :class:`PartialSpec`
    (runs handshake expansion first), an :class:`STG`/``.g`` text (starts
    at SG generation) or a pre-generated ``initial_sg`` (the entry of the
    sweep and of the paper's rows).
    """
    with obs_span("pipeline", strategy=config.strategy) as record:
        result = _run_stages(config, spec=spec, stg=stg, stg_text=stg_text,
                             initial_sg=initial_sg, name=name, store=store)
        if record is not None:
            record.set(name=result.name, stages=result.stage_status())
        return result


def _run_stages(config: FlowConfig,
                spec=None,
                stg=None,
                stg_text: Optional[str] = None,
                initial_sg: Optional[StateGraph] = None,
                name: Optional[str] = None,
                store: Optional[ArtifactStore] = None) -> PipelineResult:
    """The stage chain behind :func:`run_pipeline` (span-wrapped there)."""
    results: Dict[str, StageResult] = {}

    # ------------------------------------------------------------ expand
    if spec is not None:
        def compute_expand():
            from ..hse.expansion import expand
            expanded = expand(spec, phases=config.phases)
            return {"stg": write_stg(expanded)}, expanded

        results["expand"] = _execute(
            store, "expand", config.slice_for("expand"),
            lambda: [digest_payload(spec_payload(spec))], compute_expand)
        stg_text = results["expand"].payload["stg"]
    elif stg is not None and stg_text is None:
        stg_text = write_stg(stg)

    # ---------------------------------------------------------- generate
    generate_slice = config.slice_for("generate")
    if initial_sg is not None:
        # Encoded once: the payload's digest is both the graph's content
        # identity in the store key and the stage result's digest.  The
        # graph is frozen, so the caller keeps the graph that was run.
        given = sg_to_payload(initial_sg.freeze())
        results["generate"] = _execute(
            store, "generate", generate_slice,
            lambda: [digest_payload(given)], lambda: (given, None))
    elif stg_text is not None:
        text = stg_text

        def compute_generate():
            budget = ExplorationBudget(
                max_states=(DEFAULT_SG_MAX_STATES
                            if config.sg_max_states is None
                            else config.sg_max_states),
                max_arcs=config.sg_max_arcs)
            return sg_to_payload(generate_sg(parse_stg(text),
                                             budget=budget)), None

        results["generate"] = _execute(
            store, "generate", generate_slice,
            lambda: [text_digest(text)], compute_generate)
    else:
        raise PipelineError(
            "run_pipeline needs a spec, an STG (or .g text), or a "
            "pre-generated initial_sg")
    initial_digest = results["generate"].digest

    # ------------------------------------------------------------ reduce
    def compute_reduce():
        decoded = _decode_sg(results["generate"].payload, initial_digest)
        chosen, live, stats = run_reduction(config, decoded)
        if config.strategy == "none":
            sg_payload = results["generate"].payload
        else:
            sg_payload = sg_to_payload(chosen)
        payload = {
            "sg": sg_payload,
            "initial_cost": None if live is None else live.initial_cost,
            "best_cost": None if live is None else live.best_cost,
            "stats": None if stats is None else dataclasses.asdict(stats),
        }
        return payload, live

    results["reduce"] = _execute(store, "reduce", config.slice_for("reduce"),
                                 lambda: [initial_digest], compute_reduce)
    reduced_payload = results["reduce"].payload["sg"]
    reduced_digest = digest_payload(reduced_payload)

    # ----------------------------------------------------------- resolve
    def compute_resolve():
        decoded = _decode_sg(reduced_payload, reduced_digest)
        resolution = resolve_csc(decoded,
                                 max_signals=config.max_csc_signals)
        payload = {
            "sg": sg_to_payload(resolution.sg),
            "insertions": [insertion_payload(choice)
                           for choice in resolution.insertions],
            "resolved": resolution.resolved,
        }
        return payload, None

    results["resolve"] = _execute(store, "resolve",
                                  config.slice_for("resolve"),
                                  lambda: [reduced_digest], compute_resolve)
    resolved_payload = results["resolve"].payload["sg"]
    resolved_digest = digest_payload(resolved_payload)
    resolved_ok = results["resolve"].payload["resolved"]

    # -------------------------------------------------------- synthesize
    def compute_synthesize():
        decoded = _decode_sg(resolved_payload, resolved_digest)
        circuit: Optional[CircuitImplementation] = None
        area_estimate: Optional[float] = None
        if resolved_ok:
            try:
                circuit = synthesize_circuit(decoded)
            except ValueError:
                circuit = None  # 2-phase (toggle) SGs have no SOP logic
        else:
            try:
                area_estimate = estimate_circuit_area(decoded)
            except ValueError:
                area_estimate = None
        resynthesised: Optional[str] = None
        if config.resynthesise:
            try:
                resynthesised = write_stg(resynthesise_stg(decoded))
            except ResynthesisError:
                resynthesised = None
        payload = {
            "circuit": None if circuit is None else circuit_payload(circuit),
            "area_estimate": area_estimate,
            "stg": resynthesised,
        }
        return payload, circuit

    results["synthesize"] = _execute(store, "synthesize",
                                     config.slice_for("synthesize"),
                                     lambda: [resolved_digest],
                                     compute_synthesize)

    # ------------------------------------------------------------ timing
    def compute_timing():
        decoded = _decode_sg(resolved_payload, resolved_digest)
        try:
            cycle = critical_cycle(decoded, config.delays)
        except TimingError:
            cycle = None
        return {"cycle": cycle_payload(cycle)}, cycle

    results["timing"] = _execute(store, "timing", config.slice_for("timing"),
                                 lambda: [resolved_digest], compute_timing)

    # ------------------------------------------------------------ verify
    label = name or resolved_payload["name"]
    if config.verify:
        from ..verify.certificate import skipped_report, verify_netlist
        with obs_span("stage:verify") as record:
            started = time.perf_counter()
            circuit_section = results["synthesize"].payload["circuit"]
            if circuit_section is None:
                report = skipped_report(
                    label, "no synthesized circuit (unresolved CSC or "
                    "toggle specification)", model=config.verify_model)
                cached = False
            else:
                netlist = netlist_from_payload(circuit_section["netlist"])
                decoded = _decode_sg(resolved_payload, resolved_digest)
                report, cached = verify_netlist(
                    netlist, decoded, model=config.verify_model,
                    max_states=config.verify_max_states, name=label,
                    store=store)
            payload = report.to_dict()
            digest = digest_payload(payload)
            results["verify"] = StageResult(
                "verify", payload, digest, None,
                cached=cached, live=report)
            _observe_stage(record, "verify", None, digest, cached=cached,
                           seconds=time.perf_counter() - started)

    return PipelineResult(config=config, name=label, results=results,
                          store=store,
                          sg_digests={"generate": initial_digest,
                                      "reduce": reduced_digest,
                                      "resolve": resolved_digest})
