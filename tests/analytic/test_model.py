"""The column evaluator's records must equal the simulator walk's.

Both evaluators run the same formulas on the same layers and add the
per-step terms up in the same program order, so every field is compared
with ``==``; any difference is an evaluator bug.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.analytic.model as model
from repro.analytic.model import (
    AnalyticGridPlan,
    ArchGrid,
    DensityGrid,
    EnergyGrid,
    analytic_point_key,
    evaluate_grid_analytic,
    evaluate_points_analytic,
)
from repro.analytic.validate import sample_validation_points
from repro.arch.accelerator import AcceleratorSimulator
from repro.arch.config import dense_baseline_config, sparsetrain_config
from repro.arch.energy import EnergyModel
from repro.dataflow.compiler import compile_training_iteration, training_instructions
from repro.explore.engine import DesignPoint, analytic_densities, evaluate_point
from repro.models.zoo import get_model_spec

RECORD_METRICS = (
    "latency_us",
    "energy_uj",
    "area_mm2",
    "baseline_latency_us",
    "baseline_energy_uj",
    "speedup",
    "energy_efficiency",
)

POINTS = [
    DesignPoint(model="AlexNet", dataset="CIFAR-10", pruning_rate=0.9),
    DesignPoint(
        model="AlexNet",
        dataset="CIFAR-10",
        pruning_rate=0.7,
        overrides=(("buffer_kib", 192), ("num_pes", 84)),
    ),
    DesignPoint(
        model="ResNet-18",
        dataset="CIFAR-10",
        pruning_rate=0.95,
        overrides=(("batch_size", 16), ("pe_utilization", 0.7)),
    ),
    DesignPoint(
        model="MobileNetV1",
        dataset="CIFAR-10",
        pruning_rate=0.5,
        overrides=(("dram_words_per_cycle", 8.0),),
        energy_overrides=(("dram_pj", 80.0),),
    ),
    DesignPoint(model="VGG-16", dataset="ImageNet", pruning_rate=0.9),
]

#: Both paper families, grouped convolutions, and deep ImageNet networks.
EXACTNESS_WORKLOADS = (
    ("AlexNet", "CIFAR-10"),
    ("ResNet-18", "CIFAR-10"),
    ("MobileNetV1", "CIFAR-10"),
    ("VGG-16", "CIFAR-10"),
    ("ResNet-34", "CIFAR-10"),
    ("AlexNet", "ImageNet"),
    ("ResNet-152", "ImageNet"),
)

#: Seeded random points that move every architecture knob at once.
SAMPLED_POINTS = [
    point
    for seed in (1, 7)
    for point in sample_validation_points(EXACTNESS_WORKLOADS, 28, seed)
]


class TestBatchedRecordsMatchSimulator:
    @pytest.fixture(scope="class")
    def pairs(self):
        points = POINTS + SAMPLED_POINTS
        analytic = evaluate_points_analytic(points)
        simulated = [evaluate_point(point) for point in points]
        assert len(analytic) == len(simulated) == len(points)
        return list(zip(analytic, simulated))

    @pytest.mark.parametrize("metric", RECORD_METRICS)
    def test_metric_within_float_noise(self, pairs, metric):
        # Exact: no float noise is left between the two evaluators.
        for analytic, simulated in pairs:
            assert getattr(analytic, metric) == getattr(simulated, metric), (
                analytic.workload,
                analytic.overrides,
            )

    def test_non_metric_fields_carried_over(self, pairs):
        for analytic, simulated in pairs:
            assert analytic.model == simulated.model
            assert analytic.dataset == simulated.dataset
            assert analytic.pruning_rate == simulated.pruning_rate
            assert analytic.overrides == simulated.overrides
            assert analytic.num_pes == simulated.num_pes
            assert analytic.buffer_kib == simulated.buffer_kib

    def test_records_are_plain_floats(self, pairs):
        # numpy scalars would break the exact CSV round-trip of the report
        # module, like the simulator path they must be built-in floats.
        for analytic, _ in pairs:
            for metric in RECORD_METRICS:
                assert type(getattr(analytic, metric)) is float


class TestAnalyticKeys:
    def test_salted_keys_differ_from_simulator_keys(self):
        for point in POINTS:
            assert analytic_point_key(point) != point.key

    def test_records_carry_salted_keys(self):
        records = evaluate_points_analytic(POINTS[:2])
        assert [record.key for record in records] == [
            analytic_point_key(point) for point in POINTS[:2]
        ]

    def test_dedup_first_seen_order(self):
        records = evaluate_points_analytic([POINTS[0], POINTS[1], POINTS[0]])
        assert len(records) == 2
        assert records[0].key == analytic_point_key(POINTS[0])
        assert records[1].key == analytic_point_key(POINTS[1])

    def test_chunking_is_invisible(self):
        many = [
            DesignPoint(
                model="AlexNet",
                dataset="CIFAR-10",
                pruning_rate=round(0.5 + 0.004 * index, 6),
            )
            for index in range(100)
        ]
        whole = evaluate_points_analytic(many)
        chunked = evaluate_points_analytic(many, chunk_points=7)
        assert [record.to_dict() for record in whole] == [
            record.to_dict() for record in chunked
        ]


class TestObsCounters:
    def test_points_evaluated_counter_increments(self):
        from repro.obs import metrics

        def total() -> float:
            snapshot = metrics().snapshot()
            return sum(
                entry["value"]
                for entry in snapshot.get("analytic.points_evaluated", ())
            )

        before = total()
        evaluate_points_analytic(POINTS[:3])
        assert total() == before + 3


# ---------------------------------------------------------------------------
# One step loop: the walk and the columns are the same loop on two types
# ---------------------------------------------------------------------------

#: Plain, strided and grouped convolutions.
STEP_WORKLOADS = (
    ("AlexNet", "CIFAR-10"),
    ("ResNet-18", "ImageNet"),
    ("MobileNetV1", "CIFAR-10"),
)

#: Two points that differ in every input the step loop reads.
STEP_POINTS = (
    (
        0.9,
        dict(num_pes=84, buffer_kib=64, batch_size=8, dram_words_per_cycle=8.0),
        dict(),
    ),
    (
        0.6,
        dict(num_pes=336, buffer_kib=772, pe_utilization=0.7, weight_reload_overhead=0.3),
        dict(dram_pj=80.0, leakage_pj_per_cycle=9.0),
    ),
)


def _step_fields(step) -> dict:
    """Every number a ``StepResult`` carries, by name."""
    fields = {
        "compute_cycles": step.compute_cycles,
        "dram_cycles": step.dram_cycles,
        "cycles": step.cycles,
    }
    fields.update({f"events.{k}": v for k, v in vars(step.events).items()})
    fields.update({f"energy.{k}": v for k, v in vars(step.energy).items()})
    return fields


class TestOneStepLoop:
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    @pytest.mark.parametrize("workload", STEP_WORKLOADS, ids="/".join)
    def test_column_steps_equal_walk_steps(self, workload, sparse):
        spec = get_model_spec(*workload)
        make_config = sparsetrain_config if sparse else dense_baseline_config
        configs = [make_config(**arch) for _, arch, _ in STEP_POINTS]
        models = [EnergyModel(**energy) for _, _, energy in STEP_POINTS]
        rates = [rate for rate, _, _ in STEP_POINTS]

        walks = []
        for config, energy_model, rate in zip(configs, models, rates):
            densities = analytic_densities(spec, rate) if sparse else None
            program = compile_training_iteration(spec, densities, sparse)
            simulator = AcceleratorSimulator(config, energy_model)
            walks.append(simulator.run_program(program, densities).steps)

        grids = DensityGrid.from_pruning_rates(spec.num_conv_layers, np.asarray(rates))
        density_map = dict(zip((layer.name for layer in spec.conv_layers), grids))
        if not sparse:
            density_map = None
        columns = list(
            AcceleratorSimulator(
                ArchGrid.from_configs(configs), EnergyGrid.from_models(models)
            ).run_instructions(
                training_instructions(spec, density_map, sparse), sparse, density_map
            )
        )

        assert len(columns) == len(walks[0]) == len(walks[1]) == 3 * spec.num_conv_layers
        for index, column in enumerate(columns):
            for k, walk in enumerate(walks):
                step = walk[index]
                assert (column.layer_name, column.step) == (step.layer_name, step.step)
                expected = _step_fields(step)
                for name, value in _step_fields(column).items():
                    row = np.broadcast_to(value, (len(walks), 1))[k, 0]
                    assert row == expected[name], (index, step.layer_name, step.step, name, k)


class TestStreaming:
    def test_first_step_is_costed_before_the_stream_is_drawn(self, monkeypatch):
        """The column fold draws one step's instructions at a time."""
        spec = get_model_spec("ResNet-152", "ImageNet")
        drawn = []
        original_stream = model.training_instructions

        def counted(*args, **kwargs):
            for instruction in original_stream(*args, **kwargs):
                drawn.append(instruction)
                yield instruction

        drawn_at_cost = []
        original_cost = AcceleratorSimulator._cost_step

        def cost(self, *args):
            drawn_at_cost.append(len(drawn))
            return original_cost(self, *args)

        monkeypatch.setattr(model, "training_instructions", counted)
        monkeypatch.setattr(AcceleratorSimulator, "_cost_step", cost)
        evaluate_points_analytic([DesignPoint("ResNet-152", "ImageNet", 0.9)])

        per_pass = 10 * spec.num_conv_layers  # 1,550 on ResNet-152
        assert len(drawn) == 2 * per_pass  # the sparse and the dense pass
        # Load, step, store: the first step is costed on the third draw.
        assert drawn_at_cost[0] == 3
        assert drawn_at_cost[3 * spec.num_conv_layers] == per_pass + 3

    def test_grids_evaluate_without_the_walk(self, monkeypatch):
        """Columns never compile a Program or collect a SimulationResult."""

        def refuse(*args, **kwargs):
            raise AssertionError("the column evaluator ran the walk")

        for module in list(sys.modules.values()):
            if getattr(module, "compile_training_iteration", None) is compile_training_iteration:
                monkeypatch.setattr(module, "compile_training_iteration", refuse)
        monkeypatch.setattr(AcceleratorSimulator, "run_program", refuse)

        plan = AnalyticGridPlan(
            workloads=(("ResNet-152", "ImageNet"), ("MobileNetV1", "CIFAR-10")),
            pes=(84, 168),
            buffers=(192, 386),
            rates=(0.5, 0.9),
        )
        assert len(evaluate_grid_analytic(plan)) == len(plan)
        assert len(evaluate_points_analytic(POINTS)) == len(POINTS)
