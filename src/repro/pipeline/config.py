"""The single source of truth for every design-point knob.

:class:`FlowConfig` is a frozen dataclass naming one point of the design
space the Fig. 4 flow can evaluate: reduction strategy and search budget,
CSC insertion budget, delay model, synthesis options, the state-graph
generation budget and the verification configuration.  Synthesis always
maps exact covers onto :data:`~repro.circuit.library.DEFAULT_LIBRARY`, and
generation always runs the ``auto`` exploration core.  The CLI, the sweep
grid, the service and the benchmarks all construct one of these instead
of re-declaring the same keyword sprawl, so the knobs cannot drift apart.

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

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from ..reduction.explore import DEFAULT_PATIENCE
from ..timing.delays import TABLE1_DELAYS, DelayModel
from .hashing import digest_payload, fraction_text

__all__ = [
    "DEFAULT_VERIFY_MAX_STATES", "STAGE_ORDER", "STRATEGIES",
    "STRATEGY_DEFAULTS", "VERIFY_MODELS", "FlowConfig", "canonical_keep",
    "delays_from_payload", "delays_payload",
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

#: The stages of the Fig. 4 pipeline, in execution order.
STAGE_ORDER = ("expand", "generate", "reduce", "resolve", "synthesize",
               "timing", "verify")


#: The search knobs each strategy never reads (see :class:`FlowConfig`).
_IGNORED_BY: Dict[str, Tuple[str, ...]] = {
    "none": ("weight", "size_frontier", "keep_conc", "max_explored",
             "patience"),
    "beam": ("patience",),
    "best-first": ("size_frontier",),
    "full": ("patience",),
}


def canonical_keep(keep: Iterable[Tuple[str, str]]) -> KeepPairs:
    """Order-independent normal form of Keep_Conc pairs of event names."""
    pairs = tuple(keep)
    if not all(isinstance(pair, (list, tuple)) and len(pair) == 2
               and all(isinstance(event, str) for event in pair)
               for pair in pairs):
        raise ValueError(f"keep_conc must be pairs of event names, "
                         f"e.g. [['li-', 'ri-']]; got {keep!r}")
    return tuple(sorted(tuple(sorted(pair)) for pair in pairs))


def _count(name: str, value, minimum: int) -> int:
    """``value`` if it is an int (not a bool) of at least ``minimum``."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, "
                         f"got {value!r}")
    return value


def _weight(value) -> float:
    """``value`` as a float if it is an int or float (not a bool or text)."""
    if type(value) not in (int, float):
        raise ValueError(f"weight must be a number, got {value!r}")
    return float(value)


def _flag(name: str, value) -> bool:
    """``value`` if it is a bool: ``"false"`` or ``0`` is not a flag."""
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _budget(name: str, value, minimum: int,
            default: Optional[int]) -> Optional[int]:
    """An optional search budget; the strategy's own default reads ``None``."""
    if value is None or _count(name, value, minimum) == default:
        return None
    return value


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
    """One design point of the Fig. 4 flow, as a frozen value object.

    Construction validates and normalizes, so every spelling of one design
    point digests identically.  A field the strategy never reads takes its
    field default:

    * ``none`` reads no search knob: ``weight``, ``size_frontier``,
      ``keep_conc``, ``max_explored`` and ``patience`` are reset;
    * ``best-first`` reads ``weight``, ``keep_conc``, ``max_explored`` and
      ``patience`` but has no beam, so ``size_frontier`` is reset;
    * ``beam`` and ``full`` read all but ``patience``;
    * with ``verify`` off, ``verify_model`` and ``verify_max_states`` are
      reset.

    A search budget or ``patience`` at its default (:data:`STRATEGY_DEFAULTS`,
    :data:`DEFAULT_PATIENCE`) becomes ``None``, ``verify_max_states=None``
    means the default cap, ``keep_conc`` pair order is canonicalized and
    ``weight`` becomes a float.  Counts must be ints (``size_frontier`` and
    ``patience`` at least 1, the others at least 0), ``weight`` an int or
    float in [0, 1] (checked after the reset: ``none`` takes any),
    ``verify`` and ``resynthesise`` bools (never truthy strings or
    numbers), ``phases`` 2 or 4 and each ``keep_conc`` entry a pair of
    event names; anything else raises ``ValueError``.
    ``dataclasses.replace`` normalizes the same way.
    """

    strategy: str = "best-first"
    weight: float = 0.5
    size_frontier: Optional[int] = None
    keep_conc: KeepPairs = ()
    max_explored: Optional[int] = None
    patience: Optional[int] = None
    max_csc_signals: int = 4
    delays: DelayModel = TABLE1_DELAYS
    resynthesise: bool = False
    phases: int = 4
    verify: bool = False
    verify_model: str = "atomic"
    verify_max_states: Optional[int] = DEFAULT_VERIFY_MAX_STATES
    #: Optional state-graph generation budget (states / traversed arcs);
    #: ``None`` keeps the generator's historical default state cap.
    sg_max_states: Optional[int] = None
    sg_max_arcs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"expected one of {STRATEGIES}")
        if self.verify_model not in VERIFY_MODELS:
            raise ValueError(f"unknown verify model {self.verify_model!r}; "
                             f"expected one of {VERIFY_MODELS}")
        if type(self.phases) is not int or self.phases not in (2, 4):
            raise ValueError(f"phases must be 2 or 4, got {self.phases!r}")
        frontier, explored = STRATEGY_DEFAULTS[self.strategy]
        normal = {
            "weight": _weight(self.weight),
            "size_frontier": _budget("size_frontier", self.size_frontier,
                                     1, frontier),
            "keep_conc": canonical_keep(self.keep_conc),
            "max_explored": _budget("max_explored", self.max_explored,
                                    0, explored),
            "patience": _budget("patience", self.patience, 1,
                                DEFAULT_PATIENCE),
            "max_csc_signals": _count("max_csc_signals",
                                      self.max_csc_signals, 0),
            "resynthesise": _flag("resynthesise", self.resynthesise),
            "verify": _flag("verify", self.verify),
            "verify_max_states": (DEFAULT_VERIFY_MAX_STATES
                                  if self.verify_max_states is None
                                  else _count("verify_max_states",
                                              self.verify_max_states, 0)),
            "sg_max_states": (None if self.sg_max_states is None
                              else _count("sg_max_states",
                                          self.sg_max_states, 0)),
            "sg_max_arcs": (None if self.sg_max_arcs is None
                            else _count("sg_max_arcs", self.sg_max_arcs, 0)),
        }
        ignored = _IGNORED_BY.get(self.strategy, ())
        if not normal["verify"]:
            ignored += ("verify_model", "verify_max_states")
        for field in fields(self):
            if field.name in ignored:
                normal[field.name] = field.default
        if not 0.0 <= normal["weight"] <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight}")
        for name, value in normal.items():
            object.__setattr__(self, name, value)

    @staticmethod
    def create(**knobs) -> "FlowConfig":
        """The constructor under its flow-style name."""
        return FlowConfig(**knobs)

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

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """Deterministic JSON rendering of the whole config; ``patience``
        only when set, so a default config keeps its earlier digest."""
        return {
            "strategy": self.strategy,
            "weight": self.weight,
            "size_frontier": self.size_frontier,
            "keep_conc": [list(pair) for pair in self.keep_conc],
            "max_explored": self.max_explored,
            "max_csc_signals": self.max_csc_signals,
            "delays": delays_payload(self.delays),
            "resynthesise": self.resynthesise,
            "phases": self.phases,
            "verify": self.verify,
            "verify_model": self.verify_model,
            "verify_max_states": self.verify_max_states,
            "sg_max_states": self.sg_max_states,
            "sg_max_arcs": self.sg_max_arcs,
            **({} if self.patience is None else {"patience": self.patience}),
        }

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "FlowConfig":
        """Rebuild a config from :meth:`to_payload` output.

        Keys of fields that no longer exist (``library``,
        ``exact_covers``, ``sg_engine``, ``check_engine``) are ignored, so
        payloads written before their removal still decode.
        """
        return FlowConfig(
            strategy=payload["strategy"],
            weight=payload["weight"],
            size_frontier=payload["size_frontier"],
            keep_conc=payload["keep_conc"],
            max_explored=payload["max_explored"],
            patience=payload.get("patience"),
            max_csc_signals=payload["max_csc_signals"],
            delays=delays_from_payload(payload["delays"]),
            resynthesise=payload["resynthesise"],
            phases=payload["phases"],
            verify=payload["verify"],
            verify_model=payload["verify_model"],
            verify_max_states=payload["verify_max_states"],
            # Absent in payloads serialized before the exploration-core
            # budgets existed; missing means "generator default".
            sg_max_states=payload.get("sg_max_states"),
            sg_max_arcs=payload.get("sg_max_arcs"))

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
            # Default budgets key exactly like the pre-budget era, so a
            # warm store keeps serving every artifact it already holds.
            if self.sg_max_states is None and self.sg_max_arcs is None:
                return {}
            return {"max_states": self.sg_max_states,
                    "max_arcs": self.sg_max_arcs}
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
            if self.patience is not None:
                slice_["patience"] = self.patience
            return slice_
        if stage == "resolve":
            return {"max_csc_signals": self.max_csc_signals}
        if stage == "synthesize":
            return {"resynthesise": self.resynthesise}
        if stage == "timing":
            return {"delays": delays_payload(self.delays)}
        if stage == "verify":
            return {"model": self.verify_model,
                    "max_states": self.verify_max_states}
        raise KeyError(f"unknown stage {stage!r}; "
                       f"expected one of {STAGE_ORDER}")
