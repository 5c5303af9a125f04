"""The single source of truth for every design-point knob.

:class:`FlowConfig` is a frozen dataclass naming one point of the design
space the Fig. 4 flow can evaluate: reduction strategy and search budget,
CSC insertion budget, delay model, library, synthesis options and the
verification configuration.  The CLI, the sweep grid, the service and
the benchmarks all construct one of these instead of re-declaring the
same keyword sprawl, so the knobs cannot drift apart.

The per-strategy exploration defaults live here too
(:data:`STRATEGY_DEFAULTS`); every caller resolves them through
:meth:`FlowConfig.effective_frontier` / :meth:`effective_max_explored`.

A config serializes to deterministic JSON (:meth:`to_json` /
:meth:`from_json`) and digests canonically (:meth:`digest`), and each
pipeline stage keys its artifacts on only the *slice* of the config it
depends on (:meth:`slice_for`): changing the delay model invalidates the
timing and verification artifacts but none of the expansion, reduction or
synthesis ones.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from ..circuit.library import DEFAULT_LIBRARY, Library
from ..timing.delays import TABLE1_DELAYS, DelayModel
from .hashing import digest_payload, fraction_text

__all__ = [
    "CHECK_ENGINES", "DEFAULT_VERIFY_MAX_STATES", "SG_ENGINES",
    "STAGE_ORDER", "STRATEGIES", "STRATEGY_DEFAULTS", "VERIFY_MODELS",
    "FlowConfig", "canonical_keep", "delays_from_payload", "delays_payload",
    "library_name", "register_library", "resolve_library",
]

KeepPairs = Tuple[Tuple[str, str], ...]

#: The reduction strategies the flow understands: ``none`` keeps maximal
#: concurrency, ``beam``/``best-first`` run the Fig. 9 search, ``full``
#: drives concurrency as low as validity allows.
STRATEGIES = ("none", "beam", "best-first", "full")

#: Per-strategy ``(size_frontier, max_explored)`` defaults -- the numbers
#: the paper's searches use (4/10k) and the exhaustive variant (6/20k).
STRATEGY_DEFAULTS: Dict[str, Tuple[Optional[int], Optional[int]]] = {
    "none": (None, None),
    "beam": (4, 10_000),
    "best-first": (4, 10_000),
    "full": (6, 20_000),
}

#: Default cap on explored product states during verification (mirrors
#: :data:`repro.verify.conformance.DEFAULT_MAX_STATES` without importing
#: the verify subsystem at config time).
DEFAULT_VERIFY_MAX_STATES = 1_000_000

VERIFY_MODELS = ("atomic", "structural")

#: Marking-exploration cores for SG generation: ``auto`` tries the packed
#: engine and falls back to tuples, the others force one core.  The
#: symbolic engine never materializes a state graph, so it is not an SG
#: engine; see :data:`CHECK_ENGINES`.
SG_ENGINES = ("auto", "packed", "tuples")

#: Engines for coding (consistency/USC/CSC) checks.  ``symbolic`` runs
#: the BDD path (:mod:`repro.symbolic`), which never enumerates states.
CHECK_ENGINES = ("auto", "packed", "tuples", "symbolic")

#: Named libraries a config can reference.  Library objects are not
#: serializable, so configs carry the *name*; custom libraries register
#: here (:func:`register_library`) before appearing in a config.
_LIBRARIES: Dict[str, Library] = {"default": DEFAULT_LIBRARY}

#: The stages of the Fig. 4 pipeline, in execution order.
STAGE_ORDER = ("expand", "generate", "reduce", "resolve", "synthesize",
               "timing", "verify")


def _library_payload(library: Library) -> list:
    return sorted([cell.name, cell.fanin, cell.area, cell.delay,
                   cell.sequential] for cell in library.cells.values())


def register_library(library: Library, name: Optional[str] = None) -> str:
    """Register a library under ``name`` (default: its own name).

    Config digests (and therefore artifact-store keys) carry the library by
    *name*, so one name must always mean one cell set: re-registering a
    name with different cells raises instead of silently rebinding (which
    would let a warm store serve circuits synthesized for another library).
    """
    key = name or library.name
    existing = _LIBRARIES.get(key)
    if existing is not None and existing is not library \
            and _library_payload(existing) != _library_payload(library):
        raise ValueError(
            f"library name {key!r} is already registered with different "
            "cells; pick another name so store keys stay unambiguous")
    _LIBRARIES[key] = library
    return key


def resolve_library(name: str) -> Library:
    """The registered library for ``name``; raises ``KeyError`` if unknown."""
    try:
        return _LIBRARIES[name]
    except KeyError:
        raise KeyError(f"no registered library {name!r}; "
                       f"available: {sorted(_LIBRARIES)}") from None


def library_name(library: Library) -> str:
    """Name a library object for a config, registering it if needed.

    An unregistered library whose name collides with a different
    registered cell set gets a content-digest suffix, so distinct
    libraries can never alias one store key.
    """
    for name, registered in _LIBRARIES.items():
        if registered is library:
            return name
    try:
        return register_library(library)
    except ValueError:
        suffix = digest_payload(_library_payload(library))[:12]
        return register_library(library, f"{library.name}-{suffix}")


def canonical_keep(keep: Iterable[Tuple[str, str]]) -> KeepPairs:
    """Order-independent normal form of Keep_Conc pairs."""
    return tuple(sorted(tuple(sorted(pair)) for pair in keep))


def delays_payload(delays: DelayModel) -> Dict[str, object]:
    """Deterministic JSON rendering of a :class:`DelayModel`."""
    return {
        "input": fraction_text(delays.input_delay),
        "output": fraction_text(delays.output_delay),
        "internal": fraction_text(delays.internal_delay),
        "overrides": [[signal, fraction_text(delay)]
                      for signal, delay in delays.overrides],
    }


def delays_from_payload(payload: Dict[str, object]) -> DelayModel:
    """Rebuild a :class:`DelayModel` from :func:`delays_payload` output."""
    return DelayModel(
        Fraction(payload["input"]), Fraction(payload["output"]),
        Fraction(payload["internal"]),
        tuple((signal, Fraction(text))
              for signal, text in payload.get("overrides", [])))


@dataclass(frozen=True)
class FlowConfig:
    """One design point of the Fig. 4 flow, as a frozen value object."""

    strategy: str = "best-first"
    weight: float = 0.5
    size_frontier: Optional[int] = None
    keep_conc: KeepPairs = ()
    max_explored: Optional[int] = None
    max_csc_signals: int = 4
    delays: DelayModel = TABLE1_DELAYS
    library: str = "default"
    exact_covers: bool = True
    resynthesise: bool = False
    phases: int = 4
    verify: bool = False
    verify_model: str = "atomic"
    verify_max_states: int = DEFAULT_VERIFY_MAX_STATES
    #: Optional state-graph generation budget (states / traversed arcs);
    #: ``None`` keeps the generator's historical default state cap.
    sg_max_states: Optional[int] = None
    sg_max_arcs: Optional[int] = None
    #: Marking-exploration core for SG generation (:data:`SG_ENGINES`)
    #: and engine for coding checks run on this config's behalf
    #: (:data:`CHECK_ENGINES`).  The defaults reproduce the historical
    #: behaviour byte for byte.
    sg_engine: str = "auto"
    check_engine: str = "auto"

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"expected one of {STRATEGIES}")
        if self.verify_model not in VERIFY_MODELS:
            raise ValueError(f"unknown verify model {self.verify_model!r}; "
                             f"expected one of {VERIFY_MODELS}")
        if self.sg_engine not in SG_ENGINES:
            raise ValueError(f"unknown SG engine {self.sg_engine!r}; "
                             f"expected one of {SG_ENGINES}")
        if self.check_engine not in CHECK_ENGINES:
            raise ValueError(f"unknown check engine {self.check_engine!r}; "
                             f"expected one of {CHECK_ENGINES}")

    @staticmethod
    def create(strategy: str = "best-first",
               weight: float = 0.5,
               size_frontier: Optional[int] = None,
               keep_conc: Iterable[Tuple[str, str]] = (),
               max_explored: Optional[int] = None,
               max_csc_signals: int = 4,
               delays: DelayModel = TABLE1_DELAYS,
               library=DEFAULT_LIBRARY,
               exact_covers: bool = True,
               resynthesise: bool = False,
               phases: int = 4,
               verify: bool = False,
               verify_model: str = "atomic",
               verify_max_states: Optional[int] = None,
               sg_max_states: Optional[int] = None,
               sg_max_arcs: Optional[int] = None,
               sg_engine: str = "auto",
               check_engine: str = "auto") -> "FlowConfig":
        """Build a config from flow-style arguments, normalizing as it goes.

        Accepts a :class:`Library` object or name for ``library`` and
        canonicalizes ``keep_conc`` pair order so that two spellings of the
        same design point digest identically.
        """
        if isinstance(library, Library):
            library = library_name(library)
        else:
            resolve_library(library)  # fail fast on unknown names
        return FlowConfig(
            strategy=strategy,
            weight=float(weight),
            size_frontier=size_frontier,
            keep_conc=canonical_keep(keep_conc),
            max_explored=max_explored,
            max_csc_signals=max_csc_signals,
            delays=delays,
            library=library,
            exact_covers=bool(exact_covers),
            resynthesise=bool(resynthesise),
            phases=phases,
            verify=bool(verify),
            verify_model=verify_model,
            verify_max_states=(DEFAULT_VERIFY_MAX_STATES
                               if verify_max_states is None
                               else int(verify_max_states)),
            sg_max_states=(None if sg_max_states is None
                           else int(sg_max_states)),
            sg_max_arcs=(None if sg_max_arcs is None
                         else int(sg_max_arcs)),
            sg_engine=sg_engine,
            check_engine=check_engine)

    def replace(self, **changes) -> "FlowConfig":
        """A copy with the given fields changed (keep_conc canonicalized)."""
        if "keep_conc" in changes:
            changes["keep_conc"] = canonical_keep(changes["keep_conc"])
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # per-strategy defaults (the single home)
    # ------------------------------------------------------------------
    def effective_frontier(self) -> Optional[int]:
        """The beam width actually used by this strategy."""
        default = STRATEGY_DEFAULTS[self.strategy][0]
        return default if self.size_frontier is None else self.size_frontier

    def effective_max_explored(self) -> Optional[int]:
        """The exploration budget actually used by this strategy."""
        default = STRATEGY_DEFAULTS[self.strategy][1]
        return default if self.max_explored is None else self.max_explored

    def resolved_library(self) -> Library:
        """The registered :class:`Library` object this config names."""
        return resolve_library(self.library)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """Deterministic JSON-ready rendering of the whole config."""
        return {
            "strategy": self.strategy,
            "weight": self.weight,
            "size_frontier": self.size_frontier,
            "keep_conc": [list(pair) for pair in self.keep_conc],
            "max_explored": self.max_explored,
            "max_csc_signals": self.max_csc_signals,
            "delays": delays_payload(self.delays),
            "library": self.library,
            "exact_covers": self.exact_covers,
            "resynthesise": self.resynthesise,
            "phases": self.phases,
            "verify": self.verify,
            "verify_model": self.verify_model,
            "verify_max_states": self.verify_max_states,
            "sg_max_states": self.sg_max_states,
            "sg_max_arcs": self.sg_max_arcs,
            "sg_engine": self.sg_engine,
            "check_engine": self.check_engine,
        }

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "FlowConfig":
        """Rebuild a config from :meth:`to_payload` output."""
        return FlowConfig(
            strategy=payload["strategy"],
            weight=float(payload["weight"]),
            size_frontier=payload["size_frontier"],
            keep_conc=tuple(tuple(pair) for pair in payload["keep_conc"]),
            max_explored=payload["max_explored"],
            max_csc_signals=payload["max_csc_signals"],
            delays=delays_from_payload(payload["delays"]),
            library=payload["library"],
            exact_covers=payload["exact_covers"],
            resynthesise=payload["resynthesise"],
            phases=payload["phases"],
            verify=payload["verify"],
            verify_model=payload["verify_model"],
            verify_max_states=payload["verify_max_states"],
            # Absent in payloads serialized before the exploration-core
            # budgets existed; missing means "generator default".
            sg_max_states=payload.get("sg_max_states"),
            sg_max_arcs=payload.get("sg_max_arcs"),
            # Absent before the engine knobs existed; missing means the
            # historical auto behaviour.
            sg_engine=payload.get("sg_engine", "auto"),
            check_engine=payload.get("check_engine", "auto"))

    def to_json(self) -> str:
        """The payload as deterministic, sorted JSON text."""
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "FlowConfig":
        """Parse a config from :meth:`to_json` text."""
        return FlowConfig.from_payload(json.loads(text))

    def digest(self) -> str:
        """Canonical content digest of the whole config."""
        return digest_payload({"flow-config": self.to_payload()})

    # ------------------------------------------------------------------
    # stage slices: the knobs each pipeline stage depends on
    # ------------------------------------------------------------------
    def slice_for(self, stage: str) -> Dict[str, object]:
        """The sub-configuration that stage ``stage``'s result depends on.

        Stage cache keys bind to this slice (plus input digests), which is
        what gives the store *stage-granular* resume: a knob change only
        invalidates the stages whose slice mentions it.  The ``verify``
        slice is informational: the verify stage binds the same two knobs
        through the certificate key
        (:func:`repro.verify.certificate.verification_key`), which is
        content-addressed on the netlist so identical circuits reached
        through different strategies share one certificate.
        """
        if stage == "expand":
            return {"phases": self.phases}
        if stage == "generate":
            # Default budgets and engine key exactly like the pre-budget
            # era, so a warm store keeps serving every artifact it
            # already holds.
            slice_: Dict[str, object] = {}
            if self.sg_max_states is not None or self.sg_max_arcs is not None:
                slice_ = {"max_states": self.sg_max_states,
                          "max_arcs": self.sg_max_arcs}
            if self.sg_engine != "auto":
                slice_["engine"] = self.sg_engine
            return slice_
        if stage == "reduce":
            if self.strategy == "none":
                return {"strategy": "none"}
            slice_: Dict[str, object] = {
                "strategy": self.strategy,
                "weight": self.weight,
                "keep_conc": [list(pair) for pair in self.keep_conc],
                "max_explored": self.effective_max_explored(),
            }
            if self.strategy != "best-first":  # best-first has no beam
                slice_["size_frontier"] = self.effective_frontier()
            return slice_
        if stage == "resolve":
            return {"max_csc_signals": self.max_csc_signals}
        if stage == "synthesize":
            return {"library": self.library,
                    "exact_covers": self.exact_covers,
                    "resynthesise": self.resynthesise}
        if stage == "timing":
            return {"delays": delays_payload(self.delays)}
        if stage == "verify":
            return {"model": self.verify_model,
                    "max_states": self.verify_max_states}
        raise KeyError(f"unknown stage {stage!r}; "
                       f"expected one of {STAGE_ORDER}")
