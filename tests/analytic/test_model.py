"""The column evaluator's records must equal the simulator walk's.

Both evaluators run the same formulas on the same layers and add the
per-step terms up in the same program order, so every field is compared
with ``==``; any difference is an evaluator bug.
"""

from __future__ import annotations

import pytest

from repro.analytic.model import analytic_point_key, evaluate_points_analytic
from repro.analytic.validate import sample_validation_points
from repro.explore.engine import DesignPoint, evaluate_point

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
