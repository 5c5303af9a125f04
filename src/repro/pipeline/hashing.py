"""The one home for canonical renderings and content digests.

Every cache key in the system -- sweep rows, verification certificates and
the per-stage pipeline artifacts -- is the SHA-256 of a canonical JSON
rendering produced here; a state graph is named by the digest of its
canonical payload (:func:`graph_digest`).  Canonicalization matters: sets
iterate in an order that depends on ``PYTHONHASHSEED``, so
:func:`canonical` renders every container in sorted canonical form before
hashing.  The same digest therefore names the same content across
processes, runs and seeds, which is what makes warm stores safe to share
between workers and byte-identical to cold runs.
"""

from __future__ import annotations

import hashlib
import json
from enum import Enum
from fractions import Fraction
from typing import Dict

from ..circuit.netlist import Netlist
from ..sg.graph import StateGraph
from .artifacts import sg_to_payload


def canonical(obj) -> object:
    """A JSON-serializable rendering that is stable across hash seeds.

    Sets and frozensets become sorted lists (sorted by their members'
    canonical JSON text, so mixed element types cannot raise), tuples become
    lists, enums their names, fractions exact strings; anything else
    non-primitive falls back to ``repr``.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        rendered = {json.dumps(canonical(key), sort_keys=True): canonical(value)
                    for key, value in obj.items()}
        return {key: rendered[key] for key in sorted(rendered)}
    if isinstance(obj, (set, frozenset)):
        members = [canonical(member) for member in obj]
        return sorted(members, key=lambda m: json.dumps(m, sort_keys=True))
    if isinstance(obj, (list, tuple)):
        return [canonical(member) for member in obj]
    return repr(obj)


def fraction_text(value) -> str:
    """Canonical exact-rational text (``"2"``, ``"3/2"``) of a delay value.

    Non-Fraction numerics are normalized via ``limit_denominator(1000)``,
    the same rule :meth:`DelayModel.by_kind` applies, so ``0.1`` renders as
    ``"1/10"`` no matter how it was spelled.
    """
    fraction = value if isinstance(value, Fraction) \
        else Fraction(value).limit_denominator(1000)
    return (str(fraction.numerator) if fraction.denominator == 1
            else f"{fraction.numerator}/{fraction.denominator}")


def digest_payload(obj) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``obj``."""
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def graph_digest(sg: StateGraph) -> str:
    """Content digest of an SG: the digest of its canonical payload.

    This is the digest the pipeline puts on every graph stage, so a graph
    handed in, generated, or decoded from the store has one name however
    its states are spelled.
    """
    return digest_payload(sg_to_payload(sg))


def netlist_payload(netlist: Netlist) -> Dict[str, object]:
    """Canonical structure of a netlist (list orders are deterministic)."""
    return {
        "name": netlist.name,
        "inputs": list(netlist.primary_inputs),
        "outputs": list(netlist.primary_outputs),
        "gates": [[gate.name, gate.cell.name, list(gate.inputs), gate.output]
                  for gate in netlist.gates],
        "aliases": [[alias.source, alias.target]
                    for alias in netlist.aliases],
    }


def netlist_digest(netlist: Netlist) -> str:
    """Content digest of a netlist's structure."""
    return digest_payload(netlist_payload(netlist))


def text_digest(text: str) -> str:
    """Digest of a text artifact (e.g. a ``.g`` rendering of an STG)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
