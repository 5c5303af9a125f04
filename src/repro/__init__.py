"""repro: synthesis and optimization of partially specified asynchronous systems.

A from-scratch Python reproduction of Kondratyev, Cortadella, Kishinevsky,
Lavagno and Yakovlev, *Automatic synthesis and optimization of partially
specified asynchronous systems*, DAC 1999.

Public API tour
---------------

Specify behaviour partially (channels, partial signals)::

    from repro import ChannelRole, FlowConfig, PartialSpec, run_pipeline

    spec = PartialSpec("lr")
    spec.declare_channel("l", ChannelRole.PASSIVE)
    spec.declare_channel("r", ChannelRole.ACTIVE)
    spec.cycle("l?", "r!", "r?", "l!")
    spec.mark("<l!,l?>")
    result = run_pipeline(FlowConfig(), spec=spec)  # expand ... time
    print(result.circuit().area, result.cycle().cycle_time)

Or drive the stages individually: :func:`repro.hse.expansion.expand`,
:func:`repro.sg.generator.generate_sg`,
:func:`repro.reduction.explore.reduce_concurrency`,
:func:`repro.encoding.insertion.resolve_csc`,
:func:`repro.circuit.synthesize.synthesize_circuit`,
:func:`repro.timing.critical_cycle.critical_cycle`.
"""

from .petri.net import PetriNet, PetriNetError
from .petri.stg import STG, Direction, SignalEvent, SignalKind
from .petri.parser import parse_stg, read_stg, write_stg
from .sg.graph import StateGraph, StateGraphError
from .sg.generator import ConsistencyError, generate_sg
from .sg.properties import check_implementability, csc_conflicts
from .hse.spec import ChannelRole, PartialSpec
from .hse.constraints import InterfaceConstraint
from .hse.expansion import expand, expand_four_phase, expand_two_phase
from .reduction.fwdred import forward_reduction
from .reduction.explore import (ExplorationStats, full_reduction,
                                full_reduction_with_stats, reduce_concurrency)
from .encoding.insertion import resolve_csc
from .circuit.library import DEFAULT_LIBRARY, Cell, Library
from .circuit.netlist import Netlist
from .circuit.synthesize import synthesize_circuit
from .timing.delays import TABLE1_DELAYS, DelayModel
from .timing.critical_cycle import critical_cycle
from .pipeline import ArtifactStore, FlowConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "PetriNet", "PetriNetError",
    "STG", "Direction", "SignalEvent", "SignalKind",
    "parse_stg", "read_stg", "write_stg",
    "StateGraph", "StateGraphError", "ConsistencyError", "generate_sg",
    "check_implementability", "csc_conflicts",
    "ChannelRole", "PartialSpec", "InterfaceConstraint",
    "expand", "expand_four_phase", "expand_two_phase",
    "forward_reduction", "full_reduction", "full_reduction_with_stats",
    "ExplorationStats", "reduce_concurrency",
    "resolve_csc",
    "DEFAULT_LIBRARY", "Cell", "Library", "Netlist", "synthesize_circuit",
    "TABLE1_DELAYS", "DelayModel", "critical_cycle",
    "ArtifactStore", "FlowConfig", "run_pipeline",
    "__version__",
]
