"""Batched evaluation of the cost model — the ``analytic`` fidelity tier.

The simulator's formulas — the step counts of :mod:`repro.dataflow.counts`,
the machine model of :mod:`repro.arch.accelerator`, the weight tiling of
:mod:`repro.arch.buffer`, :func:`~repro.arch.energy.energy_from_events` and
:func:`~repro.arch.area.estimate_area` — are plain arithmetic on the
attributes they read.  This module holds none of its own.  It evaluates
those formulas on numpy columns instead of one layer's Python numbers, so a
whole design grid — millions of (workload, architecture, density) points —
costs a handful of vectorized calls instead of one instruction-stream walk
per point.  What is here is batching:

* columnar grids whose attribute names match what the formulas read:
  :class:`LayerGeometry` (``ConvLayerSpec``'s names, ``(layers,)``),
  :class:`DensityGrid` (``LayerDensities``'s, broadcastable to
  ``(points, layers)``), :class:`ArchGrid` (``ArchConfig``'s, ``(points,
  1)``) and :class:`EnergyGrid` (``EnergyModel``'s, ``(points, 1)``);
* the column evaluator :func:`estimate_batch`, which does what
  ``AcceleratorSimulator.run_program`` does for one point — weight loads
  before the FORWARD and GTA steps, per-step ``max(compute, dram)``, sums
  over layers and steps — streaming one step's columns at a time;
* chunking and :class:`~repro.explore.engine.EvaluationRecord` building for
  design-point lists and full grids.

Both evaluators run the same formulas, so they differ only in summation
order (numpy reductions over layers vs the walk's Python loop) and in the
last ulp of ``pow``; ``repro.analytic.validate`` bounds that at 1e-9.

Cache keys: analytic records are :class:`EvaluationRecord` objects whose
``key`` is the point's simulator key salted with ``fidelity=analytic``
(:func:`analytic_point_key`), so the two tiers can never collide in a
:class:`~repro.explore.cache.ResultCache` or an engine dedup pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
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
from repro.arch.energy import EnergyModel, EventCounts, default_energy_model, energy_from_events
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

# Evaluate workload groups in bounded slabs so million-point sweeps stay in a
# few MB of (chunk, layers) scratch instead of materialising (N, layers).
CHUNK_POINTS = 32768


# ---------------------------------------------------------------------------
# Columnar grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerGeometry:
    """Per-layer geometry of one model as ``(L,)`` columns.

    The fields are the :class:`~repro.models.spec.ConvLayerSpec` attributes
    the count and tiling formulas read, so a geometry passes as their
    ``layer``.  ``has_relu_mask`` is a 0/1 column.
    """

    names: tuple[str, ...]
    kernel: np.ndarray
    padding: np.ndarray
    in_width: np.ndarray
    in_height: np.ndarray
    out_width: np.ndarray
    out_height: np.ndarray
    in_channels: np.ndarray
    out_channels: np.ndarray
    group_in_channels: np.ndarray
    group_out_channels: np.ndarray
    weight_count: np.ndarray
    input_size: np.ndarray
    output_size: np.ndarray
    has_relu_mask: np.ndarray

    @property
    def num_layers(self) -> int:
        return len(self.names)

    @classmethod
    def from_spec(cls, spec: ModelSpec) -> "LayerGeometry":
        layers = spec.conv_layers
        columns = {
            field.name: np.asarray([float(getattr(layer, field.name)) for layer in layers])
            for field in fields(cls)
            if field.name != "names"
        }
        return cls(names=tuple(layer.name for layer in layers), **columns)


@lru_cache(maxsize=None)
def workload_geometry(model: str, dataset: str) -> LayerGeometry:
    """Memoized geometry of one registered workload."""
    return LayerGeometry.from_spec(get_model_spec(model, dataset))


@dataclass(frozen=True)
class DensityGrid:
    """Operand densities broadcastable to ``(points, layers)``.

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
        geometry: LayerGeometry,
        pruning_rates: np.ndarray,
        natural_grad_density: float = NATURAL_GRADIENT_DENSITY,
        activation_density: float = NATURAL_ACTIVATION_DENSITY,
    ) -> "DensityGrid":
        """``(N, L)`` grid replicating ``explore.engine.analytic_densities``.

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
        input_density = np.full((rates.size, geometry.num_layers), activation_density)
        # The first convolution reads the raw (dense) image — the
        # ``dense_first_layer_input`` behaviour of ``uniform_densities``.
        input_density[:, 0] = 1.0
        return cls(
            input_density=input_density,
            grad_output_density=grad[:, None],
            mask_density=np.float64(activation_density),
            grad_input_density=np.minimum(1.0, grad * 2.0)[:, None],
            output_density=np.float64(activation_density),
        )


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


def _layer_sum(column) -> np.ndarray:
    # keepdims: a (points, 1) total broadcasts against the (N, 1) grids
    # element-wise, where a (points,) one would silently make (N, N).
    return np.sum(column, axis=-1, keepdims=True)


def _step_totals(counts: StepCounts, loaded_weights, arch: ArchGrid) -> EventCounts:
    """One step's events summed over layers, as ``(points, 1)`` columns.

    The step's ``(N, L)`` columns live only in this frame, so they are freed
    before the next step's are built.
    """
    # The compiler loads a layer's weights before its FORWARD and its GTA
    # step; GTW reuses the operands already streaming for its gradient rows.
    weights = 0.0 if counts.step is StepKind.GTW else loaded_weights
    store = store_dram_words(counts.dram_write_words, counts.step, arch)
    cycles = np.maximum(compute_cycles(counts, arch), dram_cycles(counts, weights, store, arch))
    return EventCounts(
        macs=_layer_sum(counts.macs),
        reg_accesses=_layer_sum(counts.reg_accesses),
        sram_words=_layer_sum(counts.sram_words),
        dram_words=_layer_sum(dram_words(counts, weights, store)),
        cycles=_layer_sum(cycles),
    )


def estimate_batch(
    geometry: LayerGeometry,
    densities: DensityGrid,
    arch: ArchGrid,
    energy: EnergyGrid,
    sparse: bool = True,
) -> AnalyticMetrics:
    """Evaluate one workload over a batch of design points in one call.

    ``densities`` broadcasts to ``(N, L)`` against the ``(N, 1)`` columns of
    ``arch``/``energy``; the dense path (``sparse=False``) ignores the
    density grid entirely, exactly like compiling with ``sparse=False``.
    Steps are evaluated one at a time and folded into per-point totals, so
    peak memory is one step's ``(N, L)`` columns.
    """
    loaded = weight_dram_words(
        geometry.weight_count,
        weight_tiling_factor(geometry, densities, arch.buffer_words, sparse),
        arch,
    )
    totals = EventCounts()
    for step_counts in STEP_COUNTS.values():
        totals = totals + _step_totals(step_counts(geometry, densities, sparse), loaded, arch)
    return AnalyticMetrics(
        cycles=totals.cycles[:, 0],
        latency_us=(totals.cycles / (arch.clock_ghz * 1e3))[:, 0],
        energy_uj=energy_from_events(totals, energy).total_uj[:, 0],
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
    """Dedup/band-mapping key of a point at the analytic tier.

    Salted with the fidelity tier so analytic records can never collide with
    simulator-tier cache entries.  Unlike ``DesignPoint.key`` — which expands
    the override tuples into full config dicts because it names *persisted*
    cache entries that must survive config-default changes — analytic keys
    live only for the duration of one process (analytic records are never
    written to the sweep cache), so a plain ``analytic:``-prefixed canonical
    string is sufficient — and keeps key derivation (JSON + SHA-256 on the
    simulator tier) off the million-point critical path.
    """
    return (
        f"analytic:{point.model}/{point.dataset}"
        f"@{point.pruning_rate!r}|{point.overrides!r}|{point.energy_overrides!r}"
    )


def evaluate_points_analytic(
    points: Sequence[DesignPoint],
    chunk_points: int = CHUNK_POINTS,
) -> list[EvaluationRecord]:
    """Closed-form evaluation of a design-point batch.

    The batched counterpart of running ``evaluate_point`` over the list:
    deduplicates by analytic key (first-seen order, the engine's contract),
    groups by workload, and evaluates each group in vectorized slabs of
    ``chunk_points``.  Records carry :func:`analytic_point_key` keys so they
    stay distinct from simulator-tier records.
    """
    unique: dict[str, DesignPoint] = {}
    for point in points:
        unique.setdefault(analytic_point_key(point), point)

    groups: dict[tuple[str, str], list[tuple[str, DesignPoint]]] = {}
    for key, point in unique.items():
        groups.setdefault((point.model, point.dataset), []).append((key, point))

    records: dict[str, EvaluationRecord] = {}
    for (model, dataset), entries in groups.items():
        geometry = workload_geometry(model, dataset)
        for start in range(0, len(entries), chunk_points):
            keys, chunk = zip(*entries[start : start + chunk_points])
            configs = [point.sparse_config() for point in chunk]
            rates = np.asarray([point.pruning_rate for point in chunk])
            sparse_arch = ArchGrid.from_configs(configs)
            energy = EnergyGrid.from_models([point.energy_model() for point in chunk])
            sparse = estimate_batch(
                geometry, DensityGrid.from_pruning_rates(geometry, rates), sparse_arch, energy
            )
            baseline = estimate_batch(
                geometry,
                DensityGrid.dense(),
                ArchGrid.from_configs([point.baseline_config() for point in chunk]),
                energy,
                sparse=False,
            )
            chunk_records = _records(
                keys,
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
            records.update(zip(keys, chunk_records))
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
        geometry = workload_geometry(model, dataset)
        prefix = f"analytic:{model}/{dataset}@"
        baseline = estimate_batch(
            geometry, DensityGrid.dense(), baseline_grid, energy, sparse=False
        )
        for lo in range(0, n_points, CHUNK_POINTS):
            rows = slice(lo, min(lo + CHUNK_POINTS, n_points))
            combos = combo_of_point[rows]
            sparse = estimate_batch(
                geometry,
                DensityGrid.from_pruning_rates(geometry, rate_col[rows]),
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
    "LayerGeometry",
    "analytic_point_key",
    "estimate_batch",
    "evaluate_grid_analytic",
    "evaluate_points_analytic",
    "workload_geometry",
]
