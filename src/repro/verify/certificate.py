"""Deterministic verification certificates.

A :class:`VerificationReport` records everything one conformance check
established -- verdict, the four property booleans, state/arc counts and a
counterexample trace -- in a JSON-serializable form that is byte-stable
across processes, hash seeds and serial-vs-parallel sweep runs.  Wall-clock
time is carried on the object (``seconds``) but deliberately excluded from
the canonical payload, exactly like the sweep keeps timings on the outcome
and never in the rows.

Certificates are cached in the unified content-addressed artifact store
(:class:`repro.pipeline.ArtifactStore`, also used by the pipeline stages
and the sweep rows): the key is the SHA-256 of the netlist structure, the
specification graph digest and the check configuration, so a warm store
serves the verdict without re-exploring the product state space -- and a
changed netlist or spec can never reuse a stale certificate.  Because the
key is content-based (not derived from how the netlist was produced),
identical netlists reached through different reduction strategies share
one certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..circuit.netlist import Netlist
from ..pipeline.hashing import digest_payload, graph_digest, netlist_payload
from ..sg.graph import StateGraph

#: Bump when the report layout or key derivation changes; old store entries
#: are simply never looked up again.  Version 2: certificates moved into
#: the unified pipeline :class:`~repro.pipeline.ArtifactStore`.
CERTIFICATE_VERSION = 2

#: Possible verdicts, from best to worst.  ``skipped`` marks design points
#: with nothing to verify (no synthesized circuit); ``state-limit`` marks an
#: aborted exploration.
VERDICTS = ("conforming", "non-conforming", "hazard", "deadlock",
            "not-semi-modular", "state-limit", "skipped")


@dataclass
class VerificationReport:
    """Outcome of verifying one implementation against its specification."""

    name: str
    model: str
    verdict: str
    conforming: bool = False
    hazard_free: bool = False
    deadlock_free: bool = False
    semi_modular: bool = False
    spec_states: int = 0
    spec_arcs: int = 0
    net_count: int = 0
    node_count: int = 0
    product_states: int = 0
    product_arcs: int = 0
    trace: List[Dict[str, object]] = field(default_factory=list)
    reason: Optional[str] = None
    #: Wall-clock seconds; excluded from :meth:`to_dict` so certificates are
    #: byte-identical across runs.
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}; "
                             f"expected one of {VERDICTS}")

    @property
    def ok(self) -> bool:
        """True when the implementation verified clean."""
        return self.verdict == "conforming"

    @property
    def skipped(self) -> bool:
        """True when there was nothing to verify (no circuit)."""
        return self.verdict == "skipped"

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-ready payload (deterministic, no timings)."""
        return {
            "name": self.name,
            "model": self.model,
            "verdict": self.verdict,
            "conforming": self.conforming,
            "hazard_free": self.hazard_free,
            "deadlock_free": self.deadlock_free,
            "semi_modular": self.semi_modular,
            "spec_states": self.spec_states,
            "spec_arcs": self.spec_arcs,
            "net_count": self.net_count,
            "node_count": self.node_count,
            "product_states": self.product_states,
            "product_arcs": self.product_arcs,
            "trace": [dict(step) for step in self.trace],
            "reason": self.reason,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "VerificationReport":
        """Rebuild a report from its canonical payload."""
        fields = {key: payload[key] for key in (
            "name", "model", "verdict", "conforming", "hazard_free",
            "deadlock_free", "semi_modular", "spec_states", "spec_arcs",
            "net_count", "node_count", "product_states", "product_arcs",
            "trace", "reason")}
        return VerificationReport(**fields)

    def to_json(self) -> str:
        """The canonical payload as deterministic JSON text."""
        import json
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def trace_lines(self) -> List[str]:
        """Human-readable counterexample, one event per line."""
        lines = []
        for i, step in enumerate(self.trace, start=1):
            label = step.get("label") or step.get("net")
            lines.append(f"{i:3d}. {step['kind']:8s} {label}")
        return lines

    def summary(self) -> str:
        """One-line rendering for CLI output."""
        text = (f"{self.verdict} (spec {self.spec_states} states / "
                f"{self.spec_arcs} arcs, product {self.product_states} "
                f"states / {self.product_arcs} arcs, {self.node_count} nodes)")
        if self.reason:
            text += f" -- {self.reason}"
        return text


def skipped_report(name: str, reason: str,
                   model: str = "atomic") -> VerificationReport:
    """A report for design points with no circuit to verify."""
    return VerificationReport(name=name, model=model, verdict="skipped",
                              reason=reason)


def verification_key(netlist: Netlist, spec: StateGraph, model: str,
                     max_states: int) -> str:
    """Store key binding a certificate to (netlist, spec, configuration).

    The spec is named by :func:`~repro.pipeline.hashing.graph_digest`, the
    digest of its canonical payload, so a graph and its decoded copy share
    one certificate.
    """
    return digest_payload({
        "kind": "verification",
        "version": CERTIFICATE_VERSION,
        "netlist": netlist_payload(netlist),
        "graph": graph_digest(spec),
        "model": model,
        "max_states": max_states,
    })


def verify_netlist(netlist: Netlist, spec: StateGraph,
                   model: str = "atomic",
                   max_states: Optional[int] = None,
                   name: Optional[str] = None,
                   store=None) -> Tuple[VerificationReport, bool]:
    """Check conformance, serving and feeding the certificate store.

    Returns ``(report, cached)``; with a ``store`` (an
    :class:`~repro.pipeline.ArtifactStore`), a prior certificate for the
    same (netlist, spec, model) is returned without re-exploration.
    """
    from .conformance import DEFAULT_MAX_STATES, check_conformance
    if max_states is None:
        max_states = DEFAULT_MAX_STATES
    key = None
    if store is not None:
        key = verification_key(netlist, spec, model, max_states)
        entry = store.get_entry(key, stage="verify")
        if entry is not None:
            try:
                report = VerificationReport.from_dict(entry["payload"])
            except (KeyError, TypeError, ValueError):
                pass  # unreadable certificate: recompute and overwrite
            else:
                # The display name is not part of the key: relabel the
                # cached certificate for the point that asked (identical
                # netlists across strategies share one certificate).
                if name is not None:
                    report.name = name
                return report, True
    report = check_conformance(netlist, spec, model=model,
                               max_states=max_states, name=name)
    if store is not None and key is not None:
        store.put_entry(key, "verify", report.to_dict())
    return report, False
