"""The staged Fig. 4 pipeline: one config, typed artifacts, unified store.

This package is the spine the whole system runs on:

* :mod:`.config` -- :class:`FlowConfig`, the single source of truth for
  every design-point knob (and the per-strategy search defaults);
* :mod:`.hashing` -- the one home for canonical renderings and content
  digests (graph, netlist, config);
* :mod:`.artifacts` -- serializable stage artifacts and their codecs;
* :mod:`.store` -- the process-safe content-addressed
  :class:`ArtifactStore` shared by pipeline stages, sweep rows and
  verification certificates;
* :mod:`.stages` -- :func:`run_pipeline`, the staged evaluation with
  stage-granular warm-store resume.  This is the one entry point: the
  CLI, the sweep, the service and the benchmarks all build a
  :class:`FlowConfig` and call :func:`run_pipeline`.
"""

from .config import (DEFAULT_VERIFY_MAX_STATES, STAGE_ORDER,
                     STRATEGY_DEFAULTS, STRATEGIES, FlowConfig,
                     delays_from_payload, delays_payload)
from .hashing import (canonical, digest_payload, graph_digest,
                      netlist_digest, netlist_payload, text_digest)
from .jobs import (TableRow, run_synth_job, run_synth_job_with_status,
                   summary_row, synth_job_payload, table_row)
from .stages import (PipelineError, PipelineResult, ReductionSummary,
                     StageResult, run_pipeline, run_reduction)
from .store import STORE_SCHEMA, ArtifactStore

__all__ = [
    "DEFAULT_VERIFY_MAX_STATES", "STAGE_ORDER", "STRATEGY_DEFAULTS",
    "STRATEGIES", "FlowConfig", "delays_from_payload", "delays_payload",
    "canonical", "digest_payload", "graph_digest", "netlist_digest",
    "netlist_payload", "text_digest",
    "TableRow", "run_synth_job", "run_synth_job_with_status", "summary_row",
    "synth_job_payload", "table_row",
    "PipelineError", "PipelineResult", "ReductionSummary", "StageResult",
    "run_pipeline", "run_reduction",
    "STORE_SCHEMA", "ArtifactStore",
]
