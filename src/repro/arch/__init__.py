"""Accelerator architecture model (the paper's Section V).

PE / PPU / PE-group row-operation models, the controller that schedules row
operations, the layer-level accelerator simulator with its one step loop
(on one point's floats or on numpy columns), the global buffer's weight
tiling, and the energy and area models.
"""

from repro.arch.accelerator import AcceleratorSimulator
from repro.arch.area import AreaBreakdown, AreaModel, estimate_area, iso_area_pe_count
from repro.arch.config import (
    ArchConfig,
    dense_baseline_config,
    sparsetrain_config,
)
from repro.arch.controller import Controller, ScheduleResult
from repro.arch.energy import (
    EnergyBreakdown,
    EnergyModel,
    EventCounts,
    default_energy_model,
    energy_from_events,
)
from repro.arch.pe import PE, PEOpStats
from repro.arch.pe_group import GroupResult, PEGroup
from repro.arch.ppu import PPU, PPUStats
from repro.arch.results import ComparisonResult, SimulationResult, StepResult

__all__ = [
    "ArchConfig",
    "sparsetrain_config",
    "dense_baseline_config",
    "EnergyModel",
    "EnergyBreakdown",
    "EventCounts",
    "default_energy_model",
    "energy_from_events",
    "PE",
    "PEOpStats",
    "PPU",
    "PPUStats",
    "PEGroup",
    "GroupResult",
    "Controller",
    "ScheduleResult",
    "AcceleratorSimulator",
    "SimulationResult",
    "StepResult",
    "ComparisonResult",
    "AreaModel",
    "AreaBreakdown",
    "estimate_area",
    "iso_area_pe_count",
]
