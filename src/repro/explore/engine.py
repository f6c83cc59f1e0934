"""Batched design-point evaluation: dedup, cache, column evaluation.

The engine turns ``(architecture overrides, pruning rate, workload)`` points
into latency/energy/area records by costing both the SparseTrain and the
dense-baseline configuration.  Around that evaluation it layers the
machinery a survey-scale sweep needs:

* **deduplication** — identical points (same content hash) are evaluated once
  per run no matter how often they appear in the input;
* **persistent caching** — points found in a :class:`ResultCache` are never
  re-evaluated, so a repeated sweep costs only file I/O;
* **column evaluation** — the cache misses are costed together by
  :func:`repro.analytic.model.evaluate_points_analytic`, the simulator's step
  loop on numpy columns, whose records equal :func:`evaluate_point`'s;
* **streaming** — :meth:`ExplorationEngine.run_iter` yields cached records
  before the misses are evaluated.

:func:`evaluate_point` is the per-point reference: it compiles the point's
program and walks it through ``AcceleratorSimulator.run_program``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.arch.area import estimate_area
from repro.arch.config import ArchConfig, dense_baseline_config, sparsetrain_config
from repro.arch.energy import EnergyModel
from repro.dataflow.compiler import uniform_densities
from repro.dataflow.counts import LayerDensities
from repro.explore.cache import ResultCache, stable_key
from repro.explore.space import ARCH_AXES, DesignSpace
from repro.models.spec import ModelSpec
from repro.models.zoo import get_model_spec, normalize_dataset_name, normalize_model_name
from repro.pruning.threshold import expected_density_after_pruning
from repro.sim.runner import compare_workload

# Analytic density-model constants (the ablation studies' assumptions): ReLU
# activations are ~45% dense, the natural (pre-pruning) gradient density is
# ~35%, and the propagated gradient keeps roughly twice the pruned density.
NATURAL_ACTIVATION_DENSITY = 0.45
NATURAL_GRADIENT_DENSITY = 0.35


def analytic_densities(
    spec: ModelSpec,
    pruning_rate: float,
    natural_grad_density: float = NATURAL_GRADIENT_DENSITY,
    activation_density: float = NATURAL_ACTIVATION_DENSITY,
) -> dict[str, LayerDensities]:
    """Closed-form density map for sweep studies (no training required).

    Uses the expected post-pruning density of normal gradients
    (:func:`expected_density_after_pruning`) so the pruning rate can be swept
    without re-training reduced models for every point.
    """
    grad_density = expected_density_after_pruning(pruning_rate, natural_grad_density)
    return uniform_densities(
        spec,
        input_density=activation_density,
        grad_output_density=grad_density,
        mask_density=activation_density,
        grad_input_density=min(1.0, grad_density * 2.0),
        output_density=activation_density,
    )


# Design grids repeat the same handful of architecture overrides across
# thousands of pruning-rate points, so config construction (frozen-dataclass
# replace + validation) and the to_dict expansion hashed into cache keys are
# memoized on the canonical override tuples.  All cached values are frozen
# dataclasses or read-only payload dicts shared across points.


@lru_cache(maxsize=65536)
def _configs_for(
    overrides: tuple[tuple[str, Any], ...],
) -> tuple[ArchConfig, ArchConfig]:
    changes = dict(overrides)
    unknown = set(changes) - ARCH_AXES
    if unknown:
        raise ValueError(
            f"unknown architecture override(s) {sorted(unknown)}; "
            f"valid: {sorted(ARCH_AXES)}"
        )
    return (
        sparsetrain_config().evolve(**changes),
        dense_baseline_config().evolve(**changes),
    )


@lru_cache(maxsize=65536)
def _energy_model_for(
    energy_overrides: tuple[tuple[str, float], ...],
) -> EnergyModel:
    return EnergyModel().with_overrides(**dict(energy_overrides))


@lru_cache(maxsize=65536)
def _config_payloads(
    overrides: tuple[tuple[str, Any], ...],
) -> tuple[dict[str, Any], dict[str, Any]]:
    sparse, baseline = _configs_for(overrides)
    return sparse.to_dict(), baseline.to_dict()


@lru_cache(maxsize=65536)
def _energy_payload(
    energy_overrides: tuple[tuple[str, float], ...],
) -> dict[str, Any]:
    return asdict(_energy_model_for(energy_overrides))


@dataclass(frozen=True)
class DesignPoint:
    """One (architecture, pruning rate, workload) evaluation request.

    ``overrides`` apply to *both* configurations (matched resources, the
    paper's iso-comparison discipline); ``energy_overrides`` replace
    :class:`EnergyModel` constants.  Both are stored as sorted tuples so the
    point is hashable, picklable and has a canonical JSON form.
    """

    model: str
    dataset: str
    pruning_rate: float = 0.9
    overrides: tuple[tuple[str, Any], ...] = ()
    energy_overrides: tuple[tuple[str, float], ...] = ()

    @classmethod
    def from_assignment(
        cls,
        model: str,
        dataset: str,
        assignment: Mapping[str, Any],
        energy_overrides: Mapping[str, float] | None = None,
    ) -> "DesignPoint":
        """Build a point from a :class:`DesignSpace` axis assignment."""
        arch = {k: v for k, v in assignment.items() if k in ARCH_AXES}
        extra = set(assignment) - set(arch) - {"pruning_rate"}
        if extra:
            raise ValueError(f"unknown assignment key(s) {sorted(extra)}")
        point = cls(
            model=normalize_model_name(model),
            dataset=normalize_dataset_name(dataset),
            pruning_rate=float(assignment.get("pruning_rate", 0.9)),
            overrides=tuple(sorted(arch.items())),
            energy_overrides=tuple(sorted((energy_overrides or {}).items())),
        )
        # Fail at construction time rather than mid-evaluation: invalid
        # combinations such as a PE count that is not a multiple of the
        # group size raise here.
        point.sparse_config()
        return point

    def sparse_config(self) -> ArchConfig:
        return _configs_for(self.overrides)[0]

    def baseline_config(self) -> ArchConfig:
        return _configs_for(self.overrides)[1]

    def energy_model(self) -> EnergyModel:
        return _energy_model_for(self.energy_overrides)

    @property
    def workload(self) -> str:
        return f"{self.model}/{self.dataset}"

    def key_payload(self) -> dict[str, Any]:
        """Full input description hashed into the cache key."""
        return {
            "model": self.model,
            "dataset": self.dataset,
            "pruning_rate": self.pruning_rate,
            "densities": {
                "kind": "analytic",
                "natural_grad_density": NATURAL_GRADIENT_DENSITY,
                "activation_density": NATURAL_ACTIVATION_DENSITY,
            },
            "sparse_config": dict(_config_payloads(self.overrides)[0]),
            "baseline_config": dict(_config_payloads(self.overrides)[1]),
            "energy_model": dict(_energy_payload(self.energy_overrides)),
        }

    @property
    def key(self) -> str:
        return stable_key(self.key_payload())


class EvaluationRecord(NamedTuple):
    """Objectives and diagnostics of one evaluated design point.

    A ``NamedTuple`` rather than a frozen dataclass: the analytic tier
    materializes one of these per grid cell, and ``tuple.__new__`` builds
    10^5 records ~3x faster than a frozen dataclass ``__init__`` (which
    pays one ``object.__setattr__`` call per field).
    """

    key: str
    model: str
    dataset: str
    pruning_rate: float
    overrides: tuple[tuple[str, Any], ...]
    num_pes: int
    buffer_kib: int
    latency_us: float
    energy_uj: float
    area_mm2: float
    baseline_latency_us: float
    baseline_energy_uj: float
    speedup: float
    energy_efficiency: float

    @property
    def workload(self) -> str:
        return f"{self.model}/{self.dataset}"

    def to_dict(self) -> dict[str, Any]:
        # Spelled out (not a __dataclass_fields__ loop): serializing the
        # capped payload of a 10^5-point sweep calls this 10^4 times.
        return {
            "key": self.key,
            "model": self.model,
            "dataset": self.dataset,
            "pruning_rate": self.pruning_rate,
            "overrides": dict(self.overrides),
            "num_pes": self.num_pes,
            "buffer_kib": self.buffer_kib,
            "latency_us": self.latency_us,
            "energy_uj": self.energy_uj,
            "area_mm2": self.area_mm2,
            "baseline_latency_us": self.baseline_latency_us,
            "baseline_energy_uj": self.baseline_energy_uj,
            "speedup": self.speedup,
            "energy_efficiency": self.energy_efficiency,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluationRecord":
        kwargs = {name: data[name] for name in cls._fields}
        kwargs["overrides"] = tuple(sorted(dict(data["overrides"]).items()))
        return cls(**kwargs)


def evaluate_point(point: DesignPoint) -> EvaluationRecord:
    """Simulate one design point through the instruction-stream walk."""
    spec = get_model_spec(point.model, point.dataset)
    densities = analytic_densities(spec, point.pruning_rate)
    sparse_config = point.sparse_config()
    result = compare_workload(
        spec,
        densities,
        sparse_config=sparse_config,
        baseline_config=point.baseline_config(),
        energy_model=point.energy_model(),
    )
    area = estimate_area(sparse_config)
    # Built-in floats throughout: numpy scalars repr differently, which would
    # break the exact CSV round-trip of the report module.
    return EvaluationRecord(
        key=point.key,
        model=point.model,
        dataset=point.dataset,
        pruning_rate=float(point.pruning_rate),
        overrides=point.overrides,
        num_pes=sparse_config.num_pes,
        buffer_kib=sparse_config.buffer_kib,
        latency_us=float(result.comparison.sparsetrain.latency_us),
        energy_uj=float(result.comparison.sparsetrain.energy_uj),
        area_mm2=float(area.total_mm2),
        baseline_latency_us=float(result.comparison.baseline.latency_us),
        baseline_energy_uj=float(result.comparison.baseline.energy_uj),
        speedup=float(result.speedup),
        energy_efficiency=float(result.energy_efficiency),
    )


def points_for(
    space: DesignSpace,
    workloads: Sequence[tuple[str, str]],
    sample: int | None = None,
    seed: int = 0,
) -> list[DesignPoint]:
    """Cross a design space with a workload list into concrete points."""
    assignments = space.sample(sample, seed) if sample is not None else list(space.points())
    # The axis split is a property of the space, not of any one assignment:
    # resolve it once, then build each point's override tuple directly.  The
    # same prepared list is crossed with every workload, and per-assignment
    # dict filtering/sorting/validation would dominate million-point compiles.
    axis_names = {axis.name for axis in space.axes}
    extra = axis_names - set(ARCH_AXES) - {"pruning_rate"}
    if extra:
        raise ValueError(f"unknown assignment key(s) {sorted(extra)}")
    arch_keys = sorted(axis_names & set(ARCH_AXES))
    prepared: list[tuple[float, tuple[tuple[str, Any], ...]]] = []
    for assignment in assignments:
        overrides = tuple((key, assignment[key]) for key in arch_keys)
        # Invalid combinations (e.g. a PE count that is not a multiple of
        # the group size) raise here in the driver, once per unique combo.
        _configs_for(overrides)
        prepared.append((float(assignment.get("pruning_rate", 0.9)), overrides))
    return [
        DesignPoint(model, dataset, rate, overrides)
        for model, dataset in (
            (normalize_model_name(m), normalize_dataset_name(d))
            for m, d in workloads
        )
        for rate, overrides in prepared
    ]


@dataclass
class EngineStats:
    """Bookkeeping of one :meth:`ExplorationEngine.run` call."""

    requested: int = 0
    unique: int = 0
    cache_hits: int = 0
    evaluated: int = 0

    @property
    def deduplicated(self) -> int:
        return self.requested - self.unique

    def describe(self) -> str:
        return (
            f"{self.requested} points ({self.deduplicated} duplicate), "
            f"{self.cache_hits} cached, {self.evaluated} simulated"
        )


class ExplorationEngine:
    """Evaluate batches of design points with dedup and caching.

    Parameters
    ----------
    cache:
        Persistent result store; ``None`` disables caching (every unique
        point is evaluated every run).
    """

    def __init__(self, cache: ResultCache | None = None) -> None:
        self.cache = cache
        self.stats = EngineStats()
        self._last_order: list[str] = []

    def run(self, points: Iterable[DesignPoint]) -> list[EvaluationRecord]:
        """Evaluate ``points``, returning one record per unique point.

        Records come back in first-seen input order.
        """
        records = {record.key: record for record in self.run_iter(points)}
        return [records[key] for key in self._last_order]

    def run_iter(self, points: Iterable[DesignPoint]) -> Iterator[EvaluationRecord]:
        """Stream records as they become available (cache hits first)."""
        stats = EngineStats()
        unique: dict[str, DesignPoint] = {}
        for point in points:
            stats.requested += 1
            unique.setdefault(point.key, point)
        stats.unique = len(unique)
        self._last_order = list(unique)
        self.stats = stats

        misses: dict[str, DesignPoint] = {}
        for key, point in unique.items():
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                stats.cache_hits += 1
                yield EvaluationRecord.from_dict(cached)
            else:
                misses[key] = point

        for record in self._execute(misses):
            stats.evaluated += 1
            if self.cache is not None:
                self.cache.put(record.key, record.to_dict())
            yield record

    def _execute(self, misses: dict[str, DesignPoint]) -> list[EvaluationRecord]:
        if not misses:
            return []
        # Looked up on the module at call time: ``analytic.model`` imports
        # this module, and callers may replace the function to observe (or,
        # in tests, forbid) evaluation.
        import repro.analytic.model as analytic_model

        return analytic_model.evaluate_points_analytic(
            list(misses.values()), keys=list(misses)
        )
