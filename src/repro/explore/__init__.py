"""Design-space exploration: declarative sweeps over the simulator.

The subsystem turns the pure-function simulator (``ArchConfig`` x workload x
densities x ``EnergyModel`` -> latency/energy/area) into a survey-scale tool:

* :mod:`repro.explore.space` — declarative parameter spaces (grids,
  log-ranges, seeded random samples) over architecture and pruning knobs;
* :mod:`repro.explore.engine` — batched evaluation with deduplication,
  caching and column evaluation of the misses;
* :mod:`repro.explore.cache` — persistent JSON-lines result cache keyed by a
  stable content hash, so repeated sweeps cost file I/O only;
* :mod:`repro.explore.pareto` — Pareto-frontier extraction and best-point
  queries over latency/energy/area (or speedup/efficiency) objectives;
* :mod:`repro.explore.report` — CSV/JSON export and text tables.

``python -m repro sweep`` / ``python -m repro pareto`` drive all of it from
the command line (see :mod:`repro.cli`).
"""

from repro.explore.cache import DEFAULT_CACHE_DIR, ResultCache, stable_key
from repro.explore.engine import (
    DesignPoint,
    EngineStats,
    EvaluationRecord,
    ExplorationEngine,
    analytic_densities,
    evaluate_point,
    points_for,
)
from repro.explore.pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    best_point,
    dominates,
    pareto_by_workload,
    pareto_frontier,
    parse_objectives,
)
from repro.explore.report import (
    export_records,
    format_frontier,
    format_records_table,
    load_records,
    read_csv,
    read_json,
    write_csv,
    write_json,
)
from repro.explore.space import (
    Axis,
    DesignSpace,
    grid_axis,
    log_axis,
    paper_neighborhood_space,
    random_axis,
)

__all__ = [
    "Axis",
    "DesignSpace",
    "grid_axis",
    "log_axis",
    "random_axis",
    "paper_neighborhood_space",
    "DesignPoint",
    "EvaluationRecord",
    "ExplorationEngine",
    "EngineStats",
    "analytic_densities",
    "evaluate_point",
    "points_for",
    "ResultCache",
    "stable_key",
    "DEFAULT_CACHE_DIR",
    "Objective",
    "DEFAULT_OBJECTIVES",
    "parse_objectives",
    "dominates",
    "pareto_frontier",
    "pareto_by_workload",
    "best_point",
    "export_records",
    "load_records",
    "read_csv",
    "read_json",
    "write_csv",
    "write_json",
    "format_records_table",
    "format_frontier",
]
