"""The analytic-validate experiment: grid sampling, bounds, reporting."""

from __future__ import annotations

import pytest

from repro.analytic.validate import (
    DEFAULT_ERROR_BOUNDS,
    VALIDATED_METRICS,
    sample_validation_points,
)
from repro.api import ExperimentRequest, RunOptions, run_experiment
from repro.eval.common import ExperimentScale


def _run_validate(**params):
    return run_experiment(
        ExperimentRequest(
            experiment="analytic-validate",
            scale=ExperimentScale.smoke(),
            params=params,
        ),
        options=RunOptions(use_cache=False, parallel=False),
    )


class TestSampling:
    def test_seeded_and_deterministic(self):
        workloads = (("AlexNet", "CIFAR-10"),)
        a = sample_validation_points(workloads, samples=6, seed=3)
        b = sample_validation_points(workloads, samples=6, seed=3)
        c = sample_validation_points(workloads, samples=6, seed=4)
        assert a == b
        assert a != c

    def test_points_stress_every_arch_knob(self):
        points = sample_validation_points((("AlexNet", "CIFAR-10"),), 12, seed=0)
        override_keys = set()
        for point in points:
            override_keys.update(dict(point.overrides))
            assert point.sparse_config()  # valid by construction
        assert {
            "num_pes",
            "buffer_kib",
            "pe_utilization",
            "dram_words_per_cycle",
            "weight_reload_overhead",
            "sync_cycles_per_layer",
            "batch_size",
        } <= override_keys


class TestValidateExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return _run_validate(samples=6)

    def test_passes_within_default_bounds(self, result):
        assert result.payload["ok"] is True
        assert result.payload["violations"] == []
        assert result.payload["samples"] == 6

    def test_payload_covers_every_metric(self, result):
        reported = {entry["metric"] for entry in result.payload["metrics"]}
        assert reported == set(VALIDATED_METRICS)
        assert result.payload["bounds"] == DEFAULT_ERROR_BOUNDS

    def test_errors_are_float_noise_not_model_error(self, result):
        # The two paths share their formulas and their summation order.
        assert result.payload["max_rel_error"] == 0.0
        for entry in result.payload["metrics"]:
            assert entry["max_rel_error"] == 0.0, entry["metric"]

    def test_summary_reports_pass(self, result):
        assert "PASS" in result.summary

    def test_max_rel_error_gauge_updated(self, result):
        from repro.obs import metrics

        snapshot = metrics().snapshot()
        entries = snapshot.get("analytic.validate.max_rel_error", ())
        assert entries
        assert entries[0]["value"] == result.payload["max_rel_error"]

    def test_unreachable_bound_fails_loudly(self):
        result = _run_validate(samples=4, bounds={"latency_us": -1.0})
        assert result.payload["ok"] is False
        assert "latency_us" in result.payload["violations"]
        assert "FAIL" in result.summary


class TestCliExitCode:
    """``repro run analytic-validate`` is the CI gate: exit code = verdict."""

    def test_pass_exits_zero_and_writes_artifact(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "validate.json"
        code = main(
            ["run", "analytic-validate", "--smoke", "--no-cache", "--out", str(out)]
        )
        assert code == 0
        import json

        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["payload"]["ok"] is True
        assert doc["payload"]["metrics"]

    def test_bound_violation_exits_nonzero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "analytic-validate",
                "--smoke",
                "--no-cache",
                "--set",
                'bounds={"latency_us": -1.0}',
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
