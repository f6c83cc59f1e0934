"""Batched evaluation of the cost model on numpy columns.

The simulator's formulas — the step counts of :mod:`repro.dataflow.counts`,
the machine model of :mod:`repro.arch.accelerator`, the weight tiling of
:mod:`repro.arch.buffer`, :func:`~repro.arch.energy.energy_from_events` and
:func:`~repro.arch.area.estimate_area` — are plain arithmetic on the
attributes they read.  This module holds none of its own.  It evaluates
those formulas on ``(points, 1)`` numpy columns instead of one point's Python
numbers, so a whole design grid — millions of (workload, architecture,
density) points — costs one pass over the network's layers instead of one
instruction-stream walk per point.  What is here is batching:

* columnar grids whose attribute names match what the formulas read:
  :class:`DensityGrid` (``LayerDensities``'s, one grid per layer),
  :class:`ArchGrid` (``ArchConfig``'s) and :class:`EnergyGrid`
  (``EnergyModel``'s);
* the column evaluator :func:`estimate_batch`, which does what
  ``AcceleratorSimulator.run_program`` does for one point — weight loads
  before the FORWARD and GTA steps, per-step ``max(compute, dram)`` and
  energy, totals folded in program order;
* chunking and :class:`~repro.explore.engine.EvaluationRecord` building for
  design-point lists and full grids.

Both evaluators run the same formulas on the same layers in the same order,
so their records are equal, not merely close; ``repro.analytic.validate``
checks that against the walk.  Every sweep evaluates here, at every fidelity.

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

from repro.arch.accelerator import (
    compute_cycles,
    dram_cycles,
    dram_words,
    store_dram_words,
    weight_dram_words,
)
from repro.arch.area import estimate_area
from repro.arch.buffer import weight_tiling_factor
from repro.arch.config import (
    BYTES_PER_WORD,
    ArchConfig,
    dense_baseline_config,
    sparsetrain_config,
)
from repro.arch.energy import (
    EnergyBreakdown,
    EnergyModel,
    EventCounts,
    default_energy_model,
    energy_from_events,
)
from repro.dataflow.counts import STEP_COUNTS, StepCounts, StepKind
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
# step's temporaries to (chunk, 1) columns instead of (N, 1).
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
    def dense(cls) -> "DensityGrid":
        one = np.float64(1.0)
        return cls(one, one, one, one, one)

    @classmethod
    def from_pruning_rates(
        cls,
        num_layers: int,
        pruning_rates: np.ndarray,
        natural_grad_density: float = NATURAL_GRADIENT_DENSITY,
        activation_density: float = NATURAL_ACTIVATION_DENSITY,
    ) -> list["DensityGrid"]:
        """Per-layer grids replicating ``explore.engine.analytic_densities``.

        The scalar closed form :func:`expected_density_after_pruning` is
        applied once per *unique* rate (its validation and edge-case branches
        are scalar), so the result matches the engine's per-point map exactly.
        """
        rates = np.asarray(pruning_rates, dtype=np.float64).reshape(-1)
        grad = np.empty_like(rates)
        for rate in np.unique(rates):
            grad[rates == rate] = expected_density_after_pruning(
                float(rate), natural_grad_density
            )
        grad = grad[:, None]
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


def _step_cost(counts: StepCounts, weights, arch: ArchGrid, energy: EnergyGrid):
    """Cycles and energy of one (layer, step), as ``AcceleratorSimulator._run_step``."""
    store = store_dram_words(counts.dram_write_words, counts.step, arch)
    cycles = np.maximum(compute_cycles(counts, arch), dram_cycles(counts, weights, store, arch))
    events = EventCounts(
        macs=counts.macs,
        reg_accesses=counts.reg_accesses,
        sram_words=counts.sram_words,
        dram_words=dram_words(counts, weights, store),
        cycles=cycles,
    )
    return cycles, energy_from_events(events, energy)


def estimate_batch(
    spec: ModelSpec,
    densities: Sequence[DensityGrid] | None,
    arch: ArchGrid,
    energy: EnergyGrid,
    sparse: bool = True,
) -> AnalyticMetrics:
    """Evaluate one workload over a batch of design points in one call.

    ``densities`` holds one grid per layer of ``spec`` (``None`` is all
    dense, like compiling without a density map); its columns broadcast
    against the ``(N, 1)`` columns of ``arch``/``energy``.  The dense path
    (``sparse=False``) ignores the densities, exactly like compiling with
    ``sparse=False``.

    The layers and steps run in ``compile_training_iteration``'s order —
    FORWARD from the first layer to the last, then GTA and GTW from the last
    to the first — and cycles and each energy component are added up in
    that order, as ``SimulationResult.total_cycles``/``total_energy`` add up
    the walk's steps, so the totals equal the walk's.
    """
    layers = spec.conv_layers
    if densities is None:
        densities = [DensityGrid.dense()] * len(layers)
    # The compiler loads a layer's weights before its FORWARD and its GTA
    # step; GTW reuses the operands already streaming for its gradient rows.
    loaded = [
        weight_dram_words(
            layer.weight_count,
            weight_tiling_factor(layer, layer_densities, arch.buffer_words, sparse),
            arch,
        )
        for layer, layer_densities in zip(layers, densities)
    ]
    forward = [(index, StepKind.FORWARD) for index in range(len(layers))]
    backward = [
        (index, step)
        for index in reversed(range(len(layers)))
        for step in (StepKind.GTA, StepKind.GTW)
    ]
    cycles = 0.0
    energy_pj = EnergyBreakdown()
    for index, step in forward + backward:
        counts = STEP_COUNTS[step](layers[index], densities[index], sparse)
        weights = 0.0 if step is StepKind.GTW else loaded[index]
        step_cycles, step_energy = _step_cost(counts, weights, arch, energy)
        cycles = cycles + step_cycles
        energy_pj.add(step_energy)
    return AnalyticMetrics(
        cycles=cycles[:, 0],
        latency_us=(cycles / (arch.clock_ghz * 1e3))[:, 0],
        energy_uj=energy_pj.total_uj[:, 0],
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
    build its design-point columns with ``np.repeat``/``np.tile``.  Only
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
    num_pes_combo = np.repeat(np.asarray(plan.pes, dtype=np.int64), len(plan.buffers))
    buffer_combo = np.tile(np.asarray(plan.buffers, dtype=np.int64), len(plan.pes))
    combo_of_point = np.repeat(np.arange(len(arch_overrides)), n_rates)
    rate_col = np.tile(np.asarray(plan.rates, dtype=np.float64), len(arch_overrides))
    n_points = rate_col.shape[0]

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
    # Area and the dense baseline depend on the arch combo but not on the
    # pruning rate: evaluate them once per combo and expand — per-row numpy
    # arithmetic is position-independent, so the expanded values are bit-
    # identical to evaluating the full (combo, rate) cross product.
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

    records: list[EvaluationRecord] = []
    for model, dataset in plan.workloads:
        spec = get_model_spec(model, dataset)
        prefix = f"analytic:{model}/{dataset}@"
        baseline = estimate_batch(spec, None, baseline_grid, energy, sparse=False)
        for lo in range(0, n_points, CHUNK_POINTS):
            rows = slice(lo, min(lo + CHUNK_POINTS, n_points))
            combos = combo_of_point[rows]
            sparse = estimate_batch(
                spec,
                DensityGrid.from_pruning_rates(spec.num_conv_layers, rate_col[rows]),
                arch_grid(sparse_base, combos),
                energy,
            )
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
                    baseline.take(combos),
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
