"""Job-oriented pipeline entry point: digests out, not objects.

:func:`~repro.pipeline.stages.run_pipeline` returns live in-memory
artifacts -- state graphs, circuits, exploration traces.  A long-running
service cannot hand those across process boundaries, and it does not need
to: with an :class:`~repro.pipeline.store.ArtifactStore` every stage
payload is already persisted under a content digest.
:func:`run_synth_job` evaluates one design point and returns a
**pure-JSON job payload**: the per-stage artifact digests (resolvable
through ``GET /artifacts/<digest>`` or
:meth:`ArtifactStore.entry_by_digest`), a flat summary row of the
reproducible quantities Tables 1-2 report, and the config identity.

:func:`table_row` is the single home of the paper's Tables 1-2 row
``(name, area, #CSC, cycle, inputs)`` of a
:class:`~repro.pipeline.stages.PipelineResult`, including the fall-back
to the area estimate when CSC stays unresolved; :func:`summary_row`
builds on it, and the sweep runner builds its report rows from
:func:`summary_row`, so the service, the CLI, the sweep and the
benchmarks can never drift on what a "row" means.

Everything returned here is deterministic: no timings, no cache
provenance, containers in fixed order -- two evaluations of the same job
(cold or warm, serial or across a worker pool) render byte-identical JSON.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional

from .config import STAGE_ORDER, FlowConfig
from .stages import PipelineResult, run_pipeline
from .store import ArtifactStore

__all__ = ["TableRow", "run_synth_job", "run_synth_job_with_status",
           "summary_row", "synth_job_payload", "table_row"]


class TableRow(NamedTuple):
    """One design point as the paper's Tables 1-2 list it."""

    name: str
    #: Mapped area, or the optimistic estimate when CSC stayed unresolved.
    area: Optional[float]
    csc_signals: int
    cycle_time: Optional[float]
    input_events: Optional[int]


def table_row(result: PipelineResult) -> TableRow:
    """The ``(name, area, #CSC, cycle, inputs)`` row of one evaluation.

    Read from the stage payloads, so the area keeps the type the circuit
    reported it in.
    """
    synth_payload = result.results["synthesize"].payload
    circuit = synth_payload["circuit"]
    cycle = result.results["timing"].payload["cycle"]
    return TableRow(
        name=result.name,
        area=(circuit["area"] if circuit is not None
              else synth_payload["area_estimate"]),
        csc_signals=len(result.results["resolve"].payload["insertions"]),
        cycle_time=(None if cycle is None
                    else float(Fraction(cycle["period"]))),
        input_events=None if cycle is None else len(cycle["input_events"]))


def summary_row(result: PipelineResult) -> Dict[str, object]:
    """The reproducible summary quantities of one pipeline evaluation.

    Exactly the stage-derived columns of a sweep report row (states before/
    after reduction, CSC accounting, area, critical cycle, exploration
    stats, verification verdict) -- and nothing run-dependent: no wall
    times, no cache hit/miss provenance.  Byte-identical between cold and
    warm runs and between serial and parallel execution.
    """
    reduce_payload = result.results["reduce"].payload
    verify_result = result.results.get("verify")
    verification = None if verify_result is None else verify_result.payload
    stats = reduce_payload["stats"]
    row = table_row(result)
    return {
        "states_max": result.results["generate"].payload["states"],
        "states": reduce_payload["sg"]["states"],
        "csc_signals": row.csc_signals,
        "csc_resolved": result.results["resolve"].payload["resolved"],
        "area": None if row.area is None else float(row.area),
        "cycle_time": row.cycle_time,
        "input_events": row.input_events,
        "explored": None if stats is None else stats["explored"],
        "expanded": None if stats is None else stats["expanded"],
        "levels": None if stats is None else stats["levels"],
        "capped": None if stats is None else stats["capped"],
        "verdict": None if verification is None else verification["verdict"],
        "verify_states": (None if verification is None
                          else verification["product_states"]),
        "verify_arcs": (None if verification is None
                        else verification["product_arcs"]),
    }


def synth_job_payload(result: PipelineResult) -> Dict[str, object]:
    """The deterministic JSON payload of one completed synthesis job.

    ``artifacts`` maps each evaluated stage to the content digest of its
    payload; with a shared store a client can fetch the full artifact
    (canonical state graphs, the netlist, the certificate) by digest
    without the service ever serializing a live object.  ``equations``
    duplicates the synthesized logic inline because it is the one artifact
    nearly every caller wants immediately.
    """
    circuit = result.results["synthesize"].payload["circuit"]
    equations = (None if circuit is None
                 else [entry[2] for entry in circuit["signals"]])
    return {
        "name": result.name,
        "config": result.config.to_payload(),
        "config_digest": result.config.digest(),
        "artifacts": {stage: result.results[stage].digest
                      for stage in STAGE_ORDER if stage in result.results},
        "summary": summary_row(result),
        "equations": equations,
    }


def run_synth_job(config: FlowConfig,
                  stg_text: str,
                  name: Optional[str] = None,
                  store: Optional[ArtifactStore] = None
                  ) -> Dict[str, object]:
    """Evaluate one design point from raw ``.g`` text; return job JSON.

    Callers that also need the run-dependent cache provenance use
    :func:`run_synth_job_with_status` instead.
    """
    payload, _ = run_synth_job_with_status(config, stg_text, name=name,
                                           store=store)
    return payload


def run_synth_job_with_status(config: FlowConfig,
                              stg_text: str,
                              name: Optional[str] = None,
                              store: Optional[ArtifactStore] = None):
    """Like :func:`run_synth_job`, plus the per-stage cached/computed map.

    The stage-status map is run-dependent (it reflects what this
    evaluation found in the store) and therefore deliberately **not** part
    of the job payload; services report it next to the result, never
    inside it.
    """
    result = run_pipeline(config, stg_text=stg_text, name=name, store=store)
    return synth_job_payload(result), result.stage_status()
