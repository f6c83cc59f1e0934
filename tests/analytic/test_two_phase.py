"""Analytic-fidelity sweeps: the grid fast path, the payload cap, no cache."""

from __future__ import annotations

import pytest

from repro.api import ExperimentRequest, RunOptions, run_experiment


def _sweep_request(**extra_params) -> ExperimentRequest:
    params = {
        "pes": [84, 168, 336],
        "buffers": [192, 386],
        "pruning_rates": [0.7, 0.9],
        **extra_params,
    }
    return ExperimentRequest(
        experiment="sweep",
        workloads=(("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10")),
        params=params,
        fidelity="analytic",
    )


class TestGridFastPath:
    """Full grids skip point materialization; results must not change."""

    def test_grid_evaluator_matches_point_list_bit_for_bit(self):
        from repro.analytic.model import (
            AnalyticGridPlan,
            evaluate_grid_analytic,
            evaluate_points_analytic,
        )
        from repro.explore.engine import points_for
        from repro.explore.space import DesignSpace, grid_axis

        pes, buffers, rates = (84, 168, 336), (192, 386), (0.5, 0.9)
        workloads = (("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10"))
        grid = evaluate_grid_analytic(
            AnalyticGridPlan(workloads=workloads, pes=pes, buffers=buffers, rates=rates)
        )
        space = DesignSpace(
            axes=(
                grid_axis("num_pes", pes),
                grid_axis("buffer_kib", buffers),
                grid_axis("pruning_rate", rates),
            )
        )
        via_points = evaluate_points_analytic(points_for(space, list(workloads)))
        assert len(grid) == len(via_points) == 24
        assert [r.to_dict() for r in grid] == [r.to_dict() for r in via_points]

    def test_grid_chunks_are_invisible(self, monkeypatch):
        """Chunks hold whole architecture combos, down to one per chunk."""
        import repro.analytic.model as model
        from repro.analytic.model import AnalyticGridPlan, evaluate_grid_analytic

        plan = AnalyticGridPlan(
            workloads=(("AlexNet", "CIFAR-10"), ("ResNet-18", "ImageNet")),
            pes=(84, 168, 336),
            buffers=(64, 386),
            rates=(0.5, 0.9, 0.95),
        )
        whole = [record.to_dict() for record in evaluate_grid_analytic(plan)]
        # Two combos per chunk, then chunks smaller than one combo's rates.
        for chunk_points in (6, 1):
            monkeypatch.setattr(model, "CHUNK_POINTS", chunk_points)
            chunked = evaluate_grid_analytic(plan)
            assert [record.to_dict() for record in chunked] == whole

    def test_sampled_sweep_uses_the_point_path(self):
        # ``sample`` has seeded-subset semantics the grid plan cannot honour.
        result = run_experiment(
            _sweep_request(sample=5, seed=1),
            options=RunOptions(use_cache=False),
        )
        assert len(result.native["records"]) == 10  # 5 sampled x 2 workloads
        for record in result.native["records"]:
            assert record.key.startswith("analytic:")

    def test_duplicate_axis_values_rejected_like_every_tier(self):
        # The grid plan only covers duplicate-free axes; duplicates fall
        # through to the DesignSpace path, which rejects them exactly as the
        # vectorized tier would.
        with pytest.raises(ValueError, match="duplicate values"):
            run_experiment(
                _sweep_request(pes=[84, 84, 168]),
                options=RunOptions(use_cache=False),
            )


class TestAnalyticSweepWithoutResim:
    def test_no_band_by_default(self):
        result = run_experiment(
            _sweep_request(),
            options=RunOptions(use_cache=False),
        )
        assert "resimulated" not in result.native
        assert "resimulated" not in result.payload

    def test_stored_resim_pareto_param_still_runs(self):
        # Params are free-form: a stored request from before the two-phase
        # mode was removed loads and runs, and simply gets no band.
        result = run_experiment(
            _sweep_request(resim_pareto=True),
            options=RunOptions(use_cache=False),
        )
        assert len(result.native["records"]) == 24
        assert "resimulated" not in result.payload

    def test_payload_record_cap(self):
        result = run_experiment(
            _sweep_request(max_records=5),
            options=RunOptions(use_cache=False),
        )
        assert len(result.native["records"]) == 24
        assert len(result.payload["records"]) == 5
        assert result.payload["records_truncated"] is True
        assert result.payload["records_total"] == 24
        # The cap keeps the best (latency-ranked) records.
        kept = [record["latency_us"] for record in result.payload["records"]]
        assert kept == sorted(kept)

    def test_analytic_records_not_written_to_sweep_cache(self, tmp_path):
        options = RunOptions(use_cache=True, cache_dir=tmp_path)
        run_experiment(_sweep_request(), options=options)
        cache = options.sweep_cache()
        assert len(cache) == 0

    def test_large_grid_is_fast(self):
        # ~2.4k points in well under the simulated default's wall clock.
        import time

        request = ExperimentRequest(
            experiment="sweep",
            workloads=(("AlexNet", "CIFAR-10"),),
            params={
                "pes": [3 * n for n in range(8, 48)],
                "buffers": list(range(64, 364, 50)),
                "pruning_rates": [0.5 + 0.05 * i for i in range(10)],
            },
            fidelity="analytic",
        )
        start = time.perf_counter()
        result = run_experiment(
            request, options=RunOptions(use_cache=False)
        )
        elapsed = time.perf_counter() - start
        assert len(result.native["records"]) == 40 * 6 * 10
        assert elapsed < 30.0
