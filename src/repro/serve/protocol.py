"""Request/task protocol of the synthesis service.

Every request the service accepts is normalized here into a **task**: a
canonical, pure-JSON payload whose SHA-256 digest is the job id.  Identity
is therefore content-based -- two clients posting the same specification
and configuration (however spelled: registry name vs. inline ``.g`` text,
reordered ``keep_conc`` pairs, ``0.5`` vs ``1/2`` delays, a field the
strategy ignores) produce the same job id, which is what lets the job
manager deduplicate concurrent identical requests into one computation and
serve repeats from history.

A ``spec`` name is one lookup in the spec registry
(:func:`repro.specs.registry.spec_text`): the task carries the name's
canonical ``.g`` text, so ``{"spec": "half"}`` and ``{"stg": <that
text>}`` are one job.  Family members and file paths are not registry
names and get 404.  That text parses back to the graph the sweep and the
bench start from, so a synth job has every stage digest of the same point
run there; only its ``generate`` entry is keyed apart, on the text digest.

Task kinds:

* ``synth`` -- one design point over raw ``.g`` text and a full
  :class:`~repro.pipeline.FlowConfig` payload;
* ``point`` -- one sweep grid point: its spec name, its
  :class:`~repro.pipeline.FlowConfig` payload and its display variant,
  evaluated through the very same function the CLI sweep uses;
* ``sweep`` -- a parent task naming its child point-task job ids in grid
  order; it owns no computation of its own, only the merge.

``ProtocolError`` carries an HTTP status so the app layer can translate
validation failures into 4xx responses without string matching.
"""

from __future__ import annotations

import re
from dataclasses import fields, replace
from typing import Dict, List, Optional, Tuple

from ..pipeline.config import FlowConfig, delays_payload
from ..pipeline.hashing import digest_payload
from ..specs.registry import spec_text
from ..sweep.grid import SweepGrid, SweepPoint, tables_grid
from ..timing.delays import DelayModel

__all__ = [
    "SERVE_SCHEMA", "ProtocolError", "job_id", "parse_sweep_request",
    "parse_synth_request", "point_from_task", "point_task", "sweep_task",
    "task_group",
]

#: Bump when task payloads or job-id derivation change; job ids are only
#: meaningful within one schema generation.
SERVE_SCHEMA = 1

_MODEL_LINE = re.compile(r"^\s*\.model\s+(\S+)", re.MULTILINE)


class ProtocolError(Exception):
    """A malformed or unsatisfiable request; ``status`` is the HTTP code."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def job_id(task: Dict[str, object]) -> str:
    """Content-addressed job identity: the digest of the canonical task."""
    return digest_payload({"serve-job": SERVE_SCHEMA, "task": task})


def task_group(task: Dict[str, object]) -> str:
    """The micro-batching affinity key of a task.

    Tasks with equal groups share worker-side caches (the generated state
    graph, the engine memos), so the batcher keeps them in one chunk:
    sweep points group by spec name, synthesis tasks by the digest of
    their ``.g`` text.
    """
    if task["kind"] == "point":
        return str(task["spec"])
    if task["kind"] == "synth":
        return "synth:" + digest_payload(task["stg"])[:16]
    return "sweep"


def _require_dict(payload, what: str) -> Dict[str, object]:
    if not isinstance(payload, dict):
        raise ProtocolError(f"{what} must be a JSON object, "
                            f"got {type(payload).__name__}")
    return payload


def _spec_text(payload: Dict[str, object]) -> Tuple[str, str]:
    """Resolve ``spec`` (registry name) or ``stg`` (inline text) to
    ``(name, .g text)``."""
    spec = payload.get("spec")
    stg = payload.get("stg")
    if (spec is None) == (stg is None):
        raise ProtocolError(
            "exactly one of 'spec' (a registry name) or 'stg' (inline .g "
            "text) is required")
    if spec is not None:
        if not isinstance(spec, str):
            raise ProtocolError("'spec' must be a string")
        try:
            return spec, spec_text(spec)
        except KeyError as exc:
            raise ProtocolError(exc.args[0], status=404) from None
    if not isinstance(stg, str) or not stg.strip():
        raise ProtocolError("'stg' must be non-empty .g text")
    match = _MODEL_LINE.search(stg)
    return (match.group(1) if match else "stg"), stg


def _axis(payload: Dict[str, object], key: str) -> Optional[list]:
    """A sweep axis: a JSON list, or ``None`` for the grid's default."""
    value = payload.get(key)
    if value is not None and not isinstance(value, list):
        raise ProtocolError(f"'{key}' must be a list, got {value!r}")
    return value


def _config_from_overrides(overrides,
                           max_verify_states: Optional[int]) -> FlowConfig:
    """A full :class:`FlowConfig` from partial payload overrides.

    Starts from the config defaults and overlays the request's fields;
    ``delays`` may also be spelled as a 3-list ``[input, output,
    internal]``.  :class:`FlowConfig` validates and normalizes the rest.
    ``verify_max_states`` is clamped to the server budget.
    """
    overrides = _require_dict(overrides if overrides is not None else {},
                              "'config'")
    known = {field.name for field in fields(FlowConfig)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ProtocolError(f"unknown config field(s) {unknown}; "
                            f"expected a subset of {sorted(known)}")
    payload = {**FlowConfig().to_payload(), **overrides}
    try:
        delays = payload["delays"]
        if isinstance(delays, (list, tuple)) and len(delays) == 3:
            payload["delays"] = delays_payload(DelayModel.by_kind(*delays))
        config = FlowConfig.from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid config: {exc}") from None
    if (max_verify_states is not None and config.verify
            and config.verify_max_states > max_verify_states):
        config = replace(config, verify_max_states=max_verify_states)
    return config


def parse_synth_request(payload,
                        max_verify_states: Optional[int] = None
                        ) -> Dict[str, object]:
    """Normalize a ``POST /synth`` body into a canonical ``synth`` task."""
    payload = _require_dict(payload, "request body")
    known = {"spec", "stg", "config", "name", "wait", "timeout"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(f"unknown request field(s) {unknown}; "
                            f"expected a subset of {sorted(known)}")
    name, text = _spec_text(payload)
    config = _config_from_overrides(payload.get("config"), max_verify_states)
    label = payload.get("name") or name
    if not isinstance(label, str):
        raise ProtocolError("'name' must be a string")
    return {"kind": "synth", "name": label, "stg": text,
            "config": config.to_payload()}


def point_task(point: SweepPoint) -> Dict[str, object]:
    """The canonical ``point`` task of one sweep grid point."""
    return {"kind": "point", "spec": point.spec,
            "config": point.config.to_payload(), "variant": point.variant}


def point_from_task(task: Dict[str, object]) -> SweepPoint:
    """Rebuild the :class:`SweepPoint` a ``point`` task names."""
    return SweepPoint(task["spec"], FlowConfig.from_payload(task["config"]),
                      task["variant"])


def parse_sweep_request(payload,
                        max_verify_states: Optional[int] = None) -> SweepGrid:
    """Build the sweep grid a ``POST /sweep`` body describes.

    Accepts the same axes as ``repro sweep``: ``specs``, ``strategies``,
    ``weights`` (each a list), ``frontier``, ``max_explored``,
    ``keep_variants`` and ``verify`` (JSON booleans), ``delays`` (a 3-list)
    and ``verify_max_states``.  An axis left out takes the default of
    :func:`~repro.sweep.grid.tables_grid`.
    """
    payload = _require_dict(payload, "request body")
    known = {"specs", "strategies", "weights", "frontier", "max_explored",
             "keep_variants", "delays", "verify", "verify_max_states",
             "wait", "timeout"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(f"unknown sweep field(s) {unknown}; "
                            f"expected a subset of {sorted(known)}")
    keep_variants = payload.get("keep_variants", True)
    if type(keep_variants) is not bool:
        raise ProtocolError(f"'keep_variants' must be true or false, "
                            f"got {keep_variants!r}")
    # FlowConfig refuses a non-bool ``verify`` for every point below.
    verify = payload.get("verify", False)
    verify_max_states = payload.get("verify_max_states")
    if verify and max_verify_states is not None:
        try:
            verify_max_states = (max_verify_states
                                 if verify_max_states is None
                                 else min(int(verify_max_states),
                                          max_verify_states))
        except (TypeError, ValueError):
            raise ProtocolError(
                "'verify_max_states' must be an integer") from None
    try:
        grid = tables_grid(
            specs=_axis(payload, "specs"),
            strategies=_axis(payload, "strategies"),
            weights=_axis(payload, "weights"),
            frontier=payload.get("frontier"),
            include_keep_variants=keep_variants,
            max_explored=payload.get("max_explored"),
            delays=payload.get("delays"),
            verify=verify,
            verify_max_states=verify_max_states)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid sweep request: {exc}") from None
    if not grid.points:
        raise ProtocolError("the requested grid is empty")
    return grid


def sweep_task(child_ids: List[str]) -> Dict[str, object]:
    """The parent task of a sweep: its children's job ids in grid order."""
    return {"kind": "sweep", "children": list(child_ids)}
