"""The one home for canonical renderings and content digests.

Every cache key in the system -- sweep rows, verification certificates and
the per-stage pipeline artifacts -- is the SHA-256 of a canonical JSON
rendering produced here; a state graph is named by the digest of its
canonical payload (:func:`graph_digest`).  Canonicalization matters: sets
iterate in an order that depends on ``PYTHONHASHSEED``, so every container
is rendered in sorted canonical form before hashing.  The same digest
therefore names the same content across processes, runs and seeds, which
is what makes warm stores safe to share between workers and byte-identical
to cold runs.

The hashed text is, by definition, ``json.dumps(canonical(obj),
sort_keys=True, separators=(",", ":"))``.  :func:`digest_payload` renders
that exact text without walking every leaf in Python: a string is quoted
by the C quoting function, a dict key by key (each key under the same rule
:func:`canonical` applies), and a list or tuple goes whole to one call of
the C encoder, whose output stands unless it holds a ``{`` (a dict, whose
keys :func:`canonical` rewrites) or the encoder refuses a member (a set, a
Fraction, an Enum, ...); only then are the members rendered one by one.
Every other value goes through :func:`canonical`.  ``tests/hashing_oracle.py``
keeps the composed form the tests compare against byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from enum import Enum
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Dict

from ..circuit.netlist import Netlist
from ..obs.metrics import registry as obs_registry
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


def _refuse(value) -> None:
    raise TypeError(f"{type(value).__name__} needs canonical()")


#: The C encoder behind ``json.dumps(value, sort_keys=True,
#: separators=(",", ":"))``, built once; it calls :func:`_refuse` on any
#: value that is not JSON-native.
_c_encode = c_make_encoder(
    None, _refuse, encode_basestring_ascii,  # no cycle check; quoting
    None, ":", ",",  # no indent; compact separators
    True, False, True)  # sort keys; refuse bad keys; allow NaN


def _key_text(key) -> str:
    """The text a dict key becomes under :func:`canonical`."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return json.dumps(canonical(key), sort_keys=True)


def _render(obj) -> str:
    """``json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))``."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        # The last of several keys with one text wins, as in canonical().
        rendered = {_key_text(key): value for key, value in obj.items()}
        return "{" + ",".join(
            encode_basestring_ascii(key) + ":" + _render(rendered[key])
            for key in sorted(rendered)) + "}"
    if isinstance(obj, (list, tuple)):
        try:
            text = "".join(_c_encode(obj, 0))
        except TypeError:
            pass
        else:
            if "{" not in text:
                return text
        return "[" + ",".join(map(_render, obj)) + "]"
    return "".join(_c_encode(canonical(obj), 0))


def digest_payload(obj) -> str:
    """SHA-256 hex digest of the canonical JSON rendering of ``obj``.

    Counts the bytes hashed in ``repro_digest_bytes_total``.
    """
    data = _render(obj).encode("utf-8")
    obs_registry().counter(
        "repro_digest_bytes_total",
        "Canonical payload bytes hashed into content digests.").inc(len(data))
    return hashlib.sha256(data).hexdigest()


def graph_digest(sg: StateGraph) -> str:
    """Content digest of an SG: the digest of its canonical payload.

    This is the digest the pipeline puts on every graph stage, so a graph
    handed in, generated, or decoded from the store has one name however
    its states are spelled.  A frozen graph cannot change, so it keeps its
    digest once computed (under the name it was computed for); an open
    graph is digested afresh on every call.
    """
    if not sg._frozen:
        return digest_payload(sg_to_payload(sg))
    memo = sg._digest
    if memo is None or memo[0] != sg.name:
        memo = sg._digest = (sg.name, digest_payload(sg_to_payload(sg)))
    return memo[1]


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
