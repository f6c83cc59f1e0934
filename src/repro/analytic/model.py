"""Batched evaluation of the cost model on numpy columns.

The simulator's formulas — the step counts of :mod:`repro.dataflow.counts`,
the machine model of :mod:`repro.arch.accelerator`, the weight tiling of
:mod:`repro.arch.buffer`, :func:`~repro.arch.energy.energy_from_events` and
:func:`~repro.arch.area.estimate_area` — are plain arithmetic on the
attributes they read, and the simulator's step loop
(``AcceleratorSimulator.run_instructions``) runs on whatever numbers it is
given.  This module holds no formula and no loop of its own.  It hands the
compiler's instruction stream and the simulator ``(points, 1)`` numpy
columns instead of one point's Python numbers, so a whole design grid —
millions of (workload, architecture, density) points — costs one pass over
the stream instead of one instruction-stream walk per point.  What is here
is batching:

* columnar grids whose attribute names match what the formulas read:
  :class:`DensityGrid` (``LayerDensities``'s, one grid per layer),
  :class:`ArchGrid` (``ArchConfig``'s) and :class:`EnergyGrid`
  (``EnergyModel``'s);
* :func:`estimate_batch`, which streams ``training_instructions`` through
  the simulator's step loop on those columns and adds each step up as it is
  produced;
* chunking and :class:`~repro.explore.engine.EvaluationRecord` building for
  design-point lists and full grids.

The walk and the columns run the same loop over the same stream, so their
records are equal, not merely close; ``repro.analytic.validate`` checks
that.  Every sweep evaluates here, at every fidelity.

Keys: :func:`evaluate_points_analytic` and :func:`evaluate_grid_analytic`
name their records by :func:`analytic_point_key` (``analytic:``-prefixed, a
few microseconds per point) unless the caller passes keys —
:class:`~repro.explore.engine.ExplorationEngine` passes ``DesignPoint.key``,
the persisted sweep-cache key.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from repro.arch.accelerator import AcceleratorSimulator
from repro.arch.area import estimate_area
from repro.arch.config import (
    BYTES_PER_WORD,
    ArchConfig,
    dense_baseline_config,
    sparsetrain_config,
)
from repro.arch.energy import EnergyBreakdown, EnergyModel, default_energy_model
from repro.dataflow.compiler import training_instructions
from repro.explore.engine import (
    NATURAL_ACTIVATION_DENSITY,
    NATURAL_GRADIENT_DENSITY,
    DesignPoint,
    EvaluationRecord,
    _configs_for,
)
from repro.models.spec import ModelSpec
from repro.models.zoo import get_model_spec
from repro.obs import metrics
from repro.pruning.threshold import expected_density_after_pruning

# Evaluate workload groups in bounded slabs so million-point sweeps keep each
# step's temporaries to at most this many values per array instead of N.
CHUNK_POINTS = 32768


# ---------------------------------------------------------------------------
# Columnar grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityGrid:
    """One layer's operand densities, as ``(points, 1)`` columns or scalars.

    The fields are the :class:`~repro.dataflow.counts.LayerDensities` names,
    so a grid passes as the formulas' ``densities``.
    """

    input_density: np.ndarray
    grad_output_density: np.ndarray
    mask_density: np.ndarray
    grad_input_density: np.ndarray
    output_density: np.ndarray

    @classmethod
    def from_pruning_rates(
        cls,
        num_layers: int,
        pruning_rates: np.ndarray,
        natural_grad_density: float = NATURAL_GRADIENT_DENSITY,
        activation_density: float = NATURAL_ACTIVATION_DENSITY,
    ) -> list["DensityGrid"]:
        """Per-layer grids replicating ``explore.engine.analytic_densities``.

        1-D ``pruning_rates`` give ``(points, 1)`` columns; a 2-D array keeps
        its shape.  The scalar closed form
        :func:`expected_density_after_pruning` is applied once per *unique*
        rate (its validation and edge-case branches are scalar), so the
        result matches the engine's per-point map exactly.
        """
        rates = np.asarray(pruning_rates, dtype=np.float64)
        if rates.ndim == 1:
            rates = rates[:, None]
        grad = np.empty_like(rates)
        for rate in np.unique(rates):
            grad[rates == rate] = expected_density_after_pruning(
                float(rate), natural_grad_density
            )
        activation = np.float64(activation_density)
        grid = cls(
            input_density=activation,
            grad_output_density=grad,
            mask_density=activation,
            grad_input_density=np.minimum(1.0, grad * 2.0),
            output_density=activation,
        )
        # The first convolution reads the raw (dense) image — the
        # ``dense_first_layer_input`` behaviour of ``uniform_densities``.
        return [replace(grid, input_density=np.float64(1.0))] + [grid] * (num_layers - 1)


def _columns(cls, objects: Sequence) -> object:
    """``cls`` built from the same-named attributes of ``objects``, as ``(N, 1)``."""
    return cls(
        **{
            field.name: np.asarray(
                [getattr(obj, field.name) for obj in objects], dtype=np.float64
            )[:, None]
            for field in fields(cls)
        }
    )


@dataclass(frozen=True)
class ArchGrid:
    """The :class:`ArchConfig` attributes the formulas read, as ``(N, 1)`` columns."""

    num_pes: np.ndarray
    num_groups: np.ndarray
    kernel_size: np.ndarray
    clock_ghz: np.ndarray
    buffer_kib: np.ndarray
    buffer_words: np.ndarray
    dram_words_per_cycle: np.ndarray
    pe_utilization: np.ndarray
    weight_reload_overhead: np.ndarray
    sync_cycles_per_layer: np.ndarray
    batch_size: np.ndarray

    @classmethod
    def from_configs(cls, configs: Sequence[ArchConfig]) -> "ArchGrid":
        return _columns(cls, configs)


@dataclass(frozen=True)
class EnergyGrid:
    """Per-point :class:`EnergyModel` constants as ``(N, 1)`` columns."""

    mac_pj: np.ndarray
    reg_pj: np.ndarray
    sram_pj: np.ndarray
    dram_pj: np.ndarray
    leakage_pj_per_cycle: np.ndarray

    @classmethod
    def from_models(cls, models: Sequence[EnergyModel]) -> "EnergyGrid":
        return _columns(cls, models)


# ---------------------------------------------------------------------------
# The column evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticMetrics:
    """Per-point totals of one training iteration — ``(N,)`` arrays."""

    cycles: np.ndarray
    latency_us: np.ndarray
    energy_uj: np.ndarray

    def take(self, index) -> "AnalyticMetrics":
        """The metrics of the points at ``index`` (fancy indexing repeats rows)."""
        return AnalyticMetrics(self.cycles[index], self.latency_us[index], self.energy_uj[index])


def estimate_batch(
    spec: ModelSpec,
    densities: Sequence[DensityGrid] | None,
    arch: ArchGrid,
    energy: EnergyGrid,
    sparse: bool = True,
) -> AnalyticMetrics:
    """Evaluate one workload over a batch of design points in one call.

    ``densities`` holds one grid per layer of ``spec`` (``None`` is all
    dense, like compiling without a density map).  Inputs broadcast, and the
    metrics are the result flattened row-major: ``(N, 1)`` columns give one
    value per point, ``(combos, 1)`` architecture columns against ``(1,
    rates)`` density rows the combo-major grid.  The dense path
    (``sparse=False``) ignores the densities, exactly like compiling with
    ``sparse=False``.

    The simulator's step loop costs the compiler's instruction stream, and
    each step's cycles and energy components are added to running totals as
    the step is produced — the additions ``SimulationResult.total_cycles``/
    ``total_energy`` make over the walk's steps, in the same order, so the
    totals equal the walk's.  One step's columns are alive at a time.
    """
    density_map = (
        None
        if densities is None
        else {layer.name: grid for layer, grid in zip(spec.conv_layers, densities)}
    )
    steps = AcceleratorSimulator(arch, energy).run_instructions(
        training_instructions(spec, density_map, sparse), sparse, density_map
    )
    cycles = 0.0
    energy_pj = EnergyBreakdown()
    for step in steps:
        cycles = cycles + step.cycles
        energy_pj.add(step.energy)
        del step  # free this step's columns before the next step is costed
    return AnalyticMetrics(
        cycles=cycles.ravel(),
        latency_us=(cycles / (arch.clock_ghz * 1e3)).ravel(),
        energy_uj=energy_pj.total_uj.ravel(),
    )


def _records(
    keys: Sequence[str],
    model: str,
    dataset: str,
    rates: Sequence[float],
    overrides: Sequence[tuple],
    num_pes: Sequence[int],
    buffer_kib: Sequence[int],
    area_mm2: Sequence[float],
    sparse: AnalyticMetrics,
    baseline: AnalyticMetrics,
) -> list[EvaluationRecord]:
    """One record per point from per-point lists and both tiers' metrics."""
    with np.errstate(divide="ignore"):
        speedup = baseline.cycles / sparse.cycles
        efficiency = baseline.energy_uj / sparse.energy_uj
    # One C-level pass per metric column beats 100k numpy scalar extractions
    # on the record-construction hot path; positional construction (field
    # order asserted by the parity tests) sidesteps 14 keyword lookups per
    # record.
    return [
        EvaluationRecord(key, model, dataset, rate, ov, pes, buf, lat, en, ar, blat, ben, sp, ee)
        for key, rate, ov, pes, buf, lat, en, ar, blat, ben, sp, ee in zip(
            keys,
            rates,
            overrides,
            num_pes,
            buffer_kib,
            sparse.latency_us.tolist(),
            sparse.energy_uj.tolist(),
            area_mm2,
            baseline.latency_us.tolist(),
            baseline.energy_uj.tolist(),
            speedup.tolist(),
            efficiency.tolist(),
        )
    ]


# ---------------------------------------------------------------------------
# DesignPoint front end (the explore-engine integration)
# ---------------------------------------------------------------------------

def analytic_point_key(point: DesignPoint) -> str:
    """Dedup key of a point in an ``analytic``-fidelity sweep.

    Those sweeps write nothing to the sweep cache, so their keys live for
    one process only: a plain canonical string, prefixed so it can never be
    mistaken for a persisted ``DesignPoint.key``.  That key expands the
    override tuples into full config dicts and hashes them (JSON + SHA-256),
    which costs more than evaluating the point; this one keeps key
    derivation off the million-point critical path.
    """
    return (
        f"analytic:{point.model}/{point.dataset}"
        f"@{point.pruning_rate!r}|{point.overrides!r}|{point.energy_overrides!r}"
    )


def evaluate_points_analytic(
    points: Sequence[DesignPoint],
    chunk_points: int = CHUNK_POINTS,
    keys: Sequence[str] | None = None,
) -> list[EvaluationRecord]:
    """Evaluate a design-point batch on columns.

    The batched counterpart of running ``evaluate_point`` over the list, with
    equal records: deduplicates by key (first-seen order, the engine's
    contract), groups by workload, and evaluates each group in slabs of
    ``chunk_points``.  ``keys`` names the points (one per point, default
    :func:`analytic_point_key`).
    """
    if keys is None:
        keys = [analytic_point_key(point) for point in points]
    unique: dict[str, DesignPoint] = {}
    for key, point in zip(keys, points):
        unique.setdefault(key, point)

    groups: dict[tuple[str, str], list[tuple[str, DesignPoint]]] = {}
    for key, point in unique.items():
        groups.setdefault((point.model, point.dataset), []).append((key, point))

    records: dict[str, EvaluationRecord] = {}
    for (model, dataset), entries in groups.items():
        spec = get_model_spec(model, dataset)
        for start in range(0, len(entries), chunk_points):
            chunk_keys, chunk = zip(*entries[start : start + chunk_points])
            configs = [point.sparse_config() for point in chunk]
            rates = np.asarray([point.pruning_rate for point in chunk])
            sparse_arch = ArchGrid.from_configs(configs)
            energy = EnergyGrid.from_models([point.energy_model() for point in chunk])
            sparse = estimate_batch(
                spec,
                DensityGrid.from_pruning_rates(spec.num_conv_layers, rates),
                sparse_arch,
                energy,
            )
            baseline = estimate_batch(
                spec,
                None,
                ArchGrid.from_configs([point.baseline_config() for point in chunk]),
                energy,
                sparse=False,
            )
            chunk_records = _records(
                chunk_keys,
                model,
                dataset,
                rates.tolist(),
                [point.overrides for point in chunk],
                [config.num_pes for config in configs],
                [config.buffer_kib for config in configs],
                estimate_area(sparse_arch).total_mm2[:, 0].tolist(),
                sparse,
                baseline,
            )
            records.update(zip(chunk_keys, chunk_records))
    metrics().counter("analytic.points_evaluated").inc(len(unique))
    return [records[key] for key in unique]


@dataclass(frozen=True)
class AnalyticGridPlan:
    """A full sweep grid kept in axis form for columnar evaluation.

    Materializing one :class:`DesignPoint` per grid cell costs more than the
    closed-form model itself at 10^5+ points, so the sweep compile stage
    hands the analytic tier the axes and lets :func:`evaluate_grid_analytic`
    evaluate architecture columns against pruning-rate rows.  Only
    valid when every axis is duplicate-free (then every grid cell is a
    distinct point and dedup is a no-op); callers fall back to
    :func:`evaluate_points_analytic` otherwise.
    """

    workloads: tuple[tuple[str, str], ...]
    pes: tuple[int, ...]
    buffers: tuple[int, ...]
    rates: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.workloads) * len(self.pes) * len(self.buffers) * len(self.rates)


def evaluate_grid_analytic(plan: AnalyticGridPlan) -> list[EvaluationRecord]:
    """Closed-form evaluation of a full grid, straight from its axes.

    Emits records in exactly the order ``points_for`` would enumerate the
    grid (workloads outer; ``num_pes`` x ``buffer_kib`` x ``pruning_rate``
    row-major inner) with keys identical to :func:`analytic_point_key` of
    the corresponding :class:`DesignPoint` — callers cannot tell the fast
    path from the point-list path except by wall-clock.
    """
    n_rates = len(plan.rates)
    # ArchConfig validates num_pes (PE-count/group-size divisibility) and
    # buffer_kib independently, so validating each axis value once is
    # equivalent to validating every combo — 140 config builds instead of
    # 4000 on a 100x40 grid.
    for p in plan.pes:
        _configs_for((("num_pes", int(p)),))
    for b in plan.buffers:
        _configs_for((("buffer_kib", int(b)),))
    # Canonical sorted override order, one tuple per arch combo.
    arch_overrides = [
        (("buffer_kib", int(b)), ("num_pes", int(p)))
        for p in plan.pes
        for b in plan.buffers
    ]

    # Combo-level columns (one row per arch combo); points run combo-major,
    # rate-minor — points_for's row-major enumeration order.
    n_combos = len(arch_overrides)
    num_pes_combo = np.repeat(np.asarray(plan.pes, dtype=np.int64), len(plan.buffers))
    buffer_combo = np.tile(np.asarray(plan.buffers, dtype=np.int64), len(plan.pes))
    combo_of_point = np.repeat(np.arange(n_combos), n_rates)
    rate_row = np.asarray(plan.rates, dtype=np.float64)[None, :]
    rate_col = np.tile(rate_row[0], n_combos)

    def arch_grid(base: ArchConfig, combos=slice(None)) -> ArchGrid:
        """``base`` with the swept axes as columns (one row per ``combos``)."""
        num_pes = num_pes_combo[combos, None].astype(np.float64)
        buffer_kib = buffer_combo[combos, None].astype(np.float64)
        return replace(
            ArchGrid.from_configs([base]),
            num_pes=num_pes,
            num_groups=num_pes // base.pes_per_group,
            buffer_kib=buffer_kib,
            buffer_words=buffer_kib * 1024 // BYTES_PER_WORD,
        )

    sparse_base = sparsetrain_config()
    energy = EnergyGrid.from_models([default_energy_model()])
    # (combos, 1) architecture columns broadcast against (1, rates) density
    # rows, so what depends on one axis only (weight tiling, step counts) is
    # evaluated once per combo or per rate; area and the dense baseline, once
    # per combo and expanded.  Element-wise arithmetic does not depend on the
    # layout, so every value equals the point-by-point cross product's.
    area_combo = estimate_area(arch_grid(sparse_base)).total_mm2[:, 0]
    baseline_grid = arch_grid(dense_baseline_config())
    rate_list = rate_col.tolist()
    num_pes_list = num_pes_combo[combo_of_point].tolist()
    buffer_list = buffer_combo[combo_of_point].tolist()
    area_list = area_combo[combo_of_point].tolist()
    # One overrides tuple and one repr per arch combo, expanded by reference;
    # key suffixes precomputed once so the per-record work is a single
    # C-level string concat instead of an f-string with two reprs.
    overrides_col = [ov for ov in arch_overrides for _ in range(n_rates)]
    ov_reprs = [repr(ov) for ov in arch_overrides]
    rate_reprs = [repr(rate) for rate in rate_list[:n_rates]]
    key_suffixes = [
        f"{rate_repr}|{ov_repr}|()" for ov_repr in ov_reprs for rate_repr in rate_reprs
    ]

    combos_per_chunk = max(1, CHUNK_POINTS // max(1, n_rates))
    records: list[EvaluationRecord] = []
    for model, dataset in plan.workloads:
        spec = get_model_spec(model, dataset)
        prefix = f"analytic:{model}/{dataset}@"
        baseline = estimate_batch(spec, None, baseline_grid, energy, sparse=False)
        densities = DensityGrid.from_pruning_rates(spec.num_conv_layers, rate_row)
        for first in range(0, n_combos, combos_per_chunk):
            combos = slice(first, min(first + combos_per_chunk, n_combos))
            rows = slice(combos.start * n_rates, combos.stop * n_rates)
            sparse = estimate_batch(spec, densities, arch_grid(sparse_base, combos), energy)
            records.extend(
                _records(
                    [prefix + suffix for suffix in key_suffixes[rows]],
                    model,
                    dataset,
                    rate_list[rows],
                    overrides_col[rows],
                    num_pes_list[rows],
                    buffer_list[rows],
                    area_list[rows],
                    sparse,
                    baseline.take(combo_of_point[rows]),
                )
            )
    metrics().counter("analytic.points_evaluated").inc(len(records))
    return records


__all__ = [
    "AnalyticGridPlan",
    "AnalyticMetrics",
    "ArchGrid",
    "DensityGrid",
    "EnergyGrid",
    "analytic_point_key",
    "estimate_batch",
    "evaluate_grid_analytic",
    "evaluate_points_analytic",
]
