"""Tests for the design-point evaluation engine (dedup, cache, columns)."""

from __future__ import annotations

import json

import pytest

import repro.analytic.model as analytic_model
from repro.arch.area import estimate_area
from repro.explore.cache import ResultCache
from repro.explore.engine import (
    DesignPoint,
    EvaluationRecord,
    ExplorationEngine,
    analytic_densities,
    evaluate_point,
    points_for,
)
from repro.explore.space import DesignSpace, grid_axis, paper_neighborhood_space
from repro.models.zoo import get_model_spec
from repro.obs import metrics

WORKLOADS = (("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10"))

SMALL_SPACE = DesignSpace(
    axes=(
        grid_axis("num_pes", [84, 168]),
        grid_axis("pruning_rate", [0.5, 0.9]),
    )
)


class TestDesignPoint:
    def test_from_assignment_splits_arch_and_pruning(self):
        point = DesignPoint.from_assignment(
            "AlexNet", "CIFAR-10", {"num_pes": 84, "pruning_rate": 0.7}
        )
        assert point.pruning_rate == 0.7
        assert point.sparse_config().num_pes == 84
        assert point.baseline_config().num_pes == 84
        assert not point.baseline_config().sparse_dataflow

    def test_from_assignment_normalizes_names(self):
        point = DesignPoint.from_assignment("resnet18", "cifar10", {})
        assert point.model == "ResNet-18"
        assert point.dataset == "CIFAR-10"

    def test_from_assignment_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown assignment"):
            DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pe": 84})

    def test_from_assignment_validates_config_eagerly(self):
        with pytest.raises(ValueError):
            DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 85})

    def test_key_is_stable_and_input_sensitive(self):
        a = DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 84})
        b = DesignPoint.from_assignment("alexnet", "cifar-10", {"num_pes": 84})
        c = DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 168})
        d = DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 84},
                                        energy_overrides={"sram_pj": 5.0})
        assert a.key == b.key
        assert a.key != c.key
        assert a.key != d.key


    def test_existing_keys_are_unchanged(self):
        # Persisted sweep caches are keyed by these hashes.
        assert DesignPoint("AlexNet", "CIFAR-10", 0.9).key == (
            "e77296f99ce5fef13389eec17c93b8f5472a4f3a4f0d63545f91c10271fc85d2"
        )
        assert DesignPoint(
            "ResNet-18", "CIFAR-10", 0.7, (("buffer_kib", 192), ("num_pes", 84))
        ).key == "edc4c25af1831205b5ea78fa1cceb9adeacfec919febdb02c98719ca47cd1145"


class TestSparseDataflowIsNotAnAxis:
    """Overrides apply to both configs; ``sparse_dataflow`` names which one is which."""

    def test_grid_axis_rejects_it(self):
        with pytest.raises(ValueError, match="unknown axis"):
            grid_axis("sparse_dataflow", [True, False])

    def test_from_assignment_rejects_it(self):
        with pytest.raises(ValueError, match="unknown assignment"):
            DesignPoint.from_assignment(
                "AlexNet", "CIFAR-10", {"sparse_dataflow": False}
            )

    def test_hand_built_point_cannot_carry_it(self):
        point = DesignPoint(
            "VGG-16", "ImageNet", 0.9, (("buffer_kib", 64), ("sparse_dataflow", False))
        )
        for use in (point.sparse_config, point.baseline_config, lambda: point.key):
            with pytest.raises(ValueError, match="unknown architecture override"):
                use()
        with pytest.raises(ValueError, match="unknown architecture override"):
            ExplorationEngine().run([point])


class TestEvaluatePoint:
    def test_record_matches_direct_simulation(self):
        point = DesignPoint.from_assignment(
            "AlexNet", "CIFAR-10", {"num_pes": 168, "pruning_rate": 0.9}
        )
        record = evaluate_point(point)
        assert record.key == point.key
        assert record.num_pes == 168
        assert record.buffer_kib == 386
        assert record.speedup > 1.0
        assert record.energy_efficiency > 1.0
        assert record.latency_us < record.baseline_latency_us
        area = estimate_area(point.sparse_config())
        assert record.area_mm2 == pytest.approx(area.total_mm2)

    def test_record_dict_round_trip(self):
        point = DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 84})
        record = evaluate_point(point)
        assert EvaluationRecord.from_dict(record.to_dict()) == record

    def test_analytic_densities_track_pruning_rate(self):
        spec = get_model_spec("AlexNet", "CIFAR-10")
        light = analytic_densities(spec, 0.5)
        heavy = analytic_densities(spec, 0.99)
        name = spec.conv_layers[1].name
        assert heavy[name].grad_output_density < light[name].grad_output_density


class TestPointsFor:
    def test_crosses_space_with_workloads(self):
        points = points_for(SMALL_SPACE, WORKLOADS)
        assert len(points) == SMALL_SPACE.size * len(WORKLOADS)
        assert len({p.key for p in points}) == len(points)

    def test_sampled_subset(self):
        points = points_for(paper_neighborhood_space(), WORKLOADS, sample=5, seed=1)
        assert len(points) == 5 * len(WORKLOADS)


class TestExplorationEngine:
    def test_serial_run_returns_input_order(self):
        points = points_for(SMALL_SPACE, WORKLOADS)
        engine = ExplorationEngine()
        records = engine.run(points)
        assert [r.key for r in records] == [p.key for p in points]
        assert engine.stats.requested == len(points)
        assert engine.stats.evaluated == len(points)
        assert engine.stats.cache_hits == 0

    def test_deduplicates_identical_points(self):
        point = DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 84})
        engine = ExplorationEngine()
        records = engine.run([point, point, point])
        assert len(records) == 1
        assert engine.stats.requested == 3
        assert engine.stats.deduplicated == 2
        assert engine.stats.evaluated == 1

    def test_cache_populated_and_reused(self, tmp_path):
        points = points_for(SMALL_SPACE, WORKLOADS[:1])
        cache = ResultCache(tmp_path / "cache.jsonl")
        first = ExplorationEngine(cache=cache)
        records = first.run(points)
        assert first.stats.evaluated == len(points)
        assert len(cache) == len(points)

        second = ExplorationEngine(cache=ResultCache(tmp_path / "cache.jsonl"))
        assert second.run(points) == records
        assert second.stats.cache_hits == len(points)
        assert second.stats.evaluated == 0

    def test_cached_pass_makes_zero_simulator_calls(self, tmp_path, monkeypatch):
        """Acceptance: a warm cache short-circuits the simulator entirely."""
        points = points_for(SMALL_SPACE, WORKLOADS)
        cache_path = tmp_path / "cache.jsonl"
        warm = ExplorationEngine(cache=ResultCache(cache_path))
        expected = warm.run(points)

        def boom(points, *args, **kwargs):
            raise AssertionError(f"cost model evaluated for {len(points)} point(s)")

        monkeypatch.setattr(analytic_model, "evaluate_points_analytic", boom)
        cold = ExplorationEngine(cache=ResultCache(cache_path))
        assert cold.run(points) == expected
        assert cold.stats.evaluated == 0
        assert cold.stats.cache_hits == len(points)

    def test_partial_cache_only_simulates_misses(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        first_half = points_for(SMALL_SPACE, WORKLOADS[:1])
        ExplorationEngine(cache=ResultCache(cache_path)).run(first_half)

        everything = points_for(SMALL_SPACE, WORKLOADS)
        engine = ExplorationEngine(cache=ResultCache(cache_path))
        records = engine.run(everything)
        assert len(records) == len(everything)
        assert engine.stats.cache_hits == len(first_half)
        assert engine.stats.evaluated == len(everything) - len(first_half)

    def test_record_that_does_not_decode_is_re_evaluated(self, tmp_path):
        """A foreign record under a live key is a counted, warned miss."""
        points = points_for(SMALL_SPACE, WORKLOADS[:1])
        cache_path = tmp_path / "cache.jsonl"
        expected = ExplorationEngine(cache=ResultCache(cache_path)).run(points)
        with cache_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": points[0].key, "record": {}}) + "\n")

        def count(name):
            return metrics().counter(name, cache="cache").value

        before = {
            name: count(name)
            for name in ("cache.hits", "cache.misses", "cache.corrupt_records")
        }
        engine = ExplorationEngine(cache=ResultCache(cache_path))
        with pytest.warns(RuntimeWarning, match="does not decode"):
            assert engine.run(points) == expected
        assert engine.stats.cache_hits == len(points) - 1
        assert engine.stats.evaluated == 1
        assert count("cache.hits") == before["cache.hits"] + len(points) - 1
        assert count("cache.misses") == before["cache.misses"] + 1
        assert count("cache.corrupt_records") == before["cache.corrupt_records"] + 1
        # The re-evaluated record replaced the foreign one on disk.
        healed = ExplorationEngine(cache=ResultCache(cache_path))
        assert healed.run(points) == expected
        assert healed.stats.cache_hits == len(points)

    def test_record_naming_another_point_is_re_evaluated(self, tmp_path):
        """A record that decodes but carries another point's key (a copied
        or hand-merged line) is the same counted, warned miss."""
        points = [
            DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": pes})
            for pes in (84, 168)
        ]
        cache_path = tmp_path / "cache.jsonl"
        expected = ExplorationEngine(cache=ResultCache(cache_path)).run(points)
        with cache_path.open("a", encoding="utf-8") as handle:
            foreign = {"key": points[0].key, "record": expected[1].to_dict()}
            handle.write(json.dumps(foreign) + "\n")

        def count(name):
            return metrics().counter(name, cache="cache").value

        before = {
            name: count(name) for name in ("cache.misses", "cache.corrupt_records")
        }
        engine = ExplorationEngine(cache=ResultCache(cache_path))
        with pytest.warns(RuntimeWarning, match="does not decode"):
            assert engine.run(points) == expected
        assert (engine.stats.cache_hits, engine.stats.evaluated) == (1, 1)
        assert count("cache.misses") == before["cache.misses"] + 1
        assert count("cache.corrupt_records") == before["cache.corrupt_records"] + 1

    def test_records_equal_the_walk(self):
        points = points_for(SMALL_SPACE, WORKLOADS)
        assert ExplorationEngine().run(points) == [evaluate_point(p) for p in points]

    def test_run_iter_streams_all_records(self):
        points = points_for(SMALL_SPACE, WORKLOADS[:1])
        engine = ExplorationEngine()
        streamed = list(engine.run_iter(points))
        assert {r.key for r in streamed} == {p.key for p in points}
