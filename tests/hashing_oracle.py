"""The composed canonical rendering that content digests are defined by.

:func:`repro.pipeline.hashing.digest_payload` hashes the text
:func:`reference_text` builds: the value rewritten by :func:`canonical`
into sorted, seed-independent JSON data, then dumped compactly with
sorted keys.  The renderer builds that text without the intermediate
value; ``tests/test_hashing.py`` checks the two agree byte for byte.
This copy of ``canonical`` is the reference, so a change to the one in
``src/`` cannot change what the tests expect.
"""

import hashlib
import json
from enum import Enum
from fractions import Fraction


def canonical(obj):
    """A JSON-serializable rendering that is stable across hash seeds:
    sets and frozensets become lists sorted by their members' JSON text,
    tuples lists, dict keys their JSON text (dict sorted by it), enums
    ``Type.name``, fractions ``"n/d"``, anything else non-primitive its
    ``repr``."""
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


def reference_text(obj) -> str:
    """The canonical JSON text of ``obj`` that its digest hashes."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def reference_digest(obj) -> str:
    """SHA-256 hex digest of :func:`reference_text`."""
    return hashlib.sha256(reference_text(obj).encode("utf-8")).hexdigest()
