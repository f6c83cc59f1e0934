"""Dedicated coverage for the E-A2 ablation sweep functions.

``run_pruning_rate_sweep`` / ``run_pe_sweep`` / ``run_energy_sensitivity``
were previously exercised only through the benchmark suite; these tests pin
their contracts (point counts, parameter echoes, monotonicity and routing
through the exploration engine) at tier-1 speed.
"""

from __future__ import annotations

import pytest

import repro.analytic.model as analytic_model
from repro.eval.ablations import (
    SweepPoint,
    run_energy_sensitivity,
    run_pe_sweep,
    run_pruning_rate_sweep,
)


class TestPruningRateSweep:
    def test_one_point_per_rate_with_parameter_echo(self):
        rates = (0.0, 0.7, 0.9)
        points = run_pruning_rate_sweep(pruning_rates=rates)
        assert len(points) == len(rates)
        assert tuple(p.parameter for p in points) == rates
        assert all(isinstance(p, SweepPoint) for p in points)

    def test_speedup_and_efficiency_grow_with_rate(self):
        points = run_pruning_rate_sweep(pruning_rates=(0.0, 0.5, 0.9, 0.99))
        speedups = [p.speedup for p in points]
        efficiencies = [p.energy_efficiency for p in points]
        assert speedups == sorted(speedups)
        assert efficiencies == sorted(efficiencies)
        assert speedups[0] > 1.0  # natural sparsity alone already helps

    def test_repeated_rates_keep_one_correctly_labelled_point_each(self):
        points = run_pruning_rate_sweep(pruning_rates=(0.5, 0.5, 0.9))
        assert tuple(p.parameter for p in points) == (0.5, 0.5, 0.9)
        assert points[0] == points[1]
        assert points[2].speedup > points[0].speedup

    def test_accepts_normalized_model_names(self):
        a = run_pruning_rate_sweep(pruning_rates=(0.9,), model="resnet18",
                                   dataset="cifar10")
        b = run_pruning_rate_sweep(pruning_rates=(0.9,), model="ResNet-18",
                                   dataset="CIFAR-10")
        assert a == b


class TestPeSweep:
    def test_one_point_per_count_with_parameter_echo(self):
        counts = (84, 168, 336)
        points = run_pe_sweep(pe_counts=counts)
        assert tuple(int(p.parameter) for p in points) == counts

    def test_speedup_stays_in_band(self):
        points = run_pe_sweep(pe_counts=(42, 84, 168, 336))
        speedups = [p.speedup for p in points]
        assert all(s > 1.5 for s in speedups)
        assert max(speedups) / min(speedups) < 2.0

    def test_rejects_pe_count_not_multiple_of_group(self):
        with pytest.raises(ValueError):
            run_pe_sweep(pe_counts=(85,))


class TestEnergySensitivity:
    def test_one_point_per_factor_with_parameter_echo(self):
        factors = (0.5, 1.0, 2.0)
        points = run_energy_sensitivity(scale_factors=factors, component="sram_pj")
        assert tuple(p.parameter for p in points) == factors

    def test_unscaled_factor_matches_default_model(self):
        (scaled,) = run_energy_sensitivity(scale_factors=(1.0,), component="sram_pj")
        (default,) = run_pruning_rate_sweep(pruning_rates=(0.9,))
        assert scaled.energy_efficiency == pytest.approx(default.energy_efficiency)
        assert scaled.speedup == pytest.approx(default.speedup)

    def test_conclusion_survives_constant_scaling(self):
        for component in ("sram_pj", "dram_pj", "mac_pj", "reg_pj"):
            points = run_energy_sensitivity(
                scale_factors=(0.5, 4.0), component=component
            )
            assert all(p.energy_efficiency > 1.0 for p in points)

    def test_rejects_unknown_component(self):
        with pytest.raises(ValueError, match="unknown energy-model component"):
            run_energy_sensitivity(component="quantum_pj")


class TestEngineRouting:
    def test_sweeps_run_through_the_exploration_engine(self, monkeypatch):
        """The ablation harnesses share the engine's evaluation path."""
        calls = []
        real = analytic_model.evaluate_points_analytic

        def counting(points, *args, **kwargs):
            calls.extend(points)
            return real(points, *args, **kwargs)

        monkeypatch.setattr(analytic_model, "evaluate_points_analytic", counting)
        run_pe_sweep(pe_counts=(84, 168))
        assert len(calls) == 2
        assert {p.sparse_config().num_pes for p in calls} == {84, 168}
