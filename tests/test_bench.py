"""Tests for the ``repro bench`` harness and its CLI wiring."""

from __future__ import annotations

import importlib
import json
import time

import pytest

from pathlib import Path

from repro.api import RunOptions
from repro.bench import (
    SMOKE_SCALE,
    BenchResult,
    _write_atomic,
    check_regression,
    run_bench,
)
from repro.cli import main
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    """One shared smoke bench run (trains a tiny model once per module)."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_repro.json"
    result = run_bench(smoke=True, out=out)
    return result, out


class TestRunBench:
    def test_stages_present(self, smoke_result):
        result, _ = smoke_result
        assert set(result.stages) == {"train", "compile", "simulate"}
        for stage in result.stages.values():
            assert stage["seconds"] >= 0.0

    def test_payload_written(self, smoke_result):
        result, out = smoke_result
        payload = json.loads(out.read_text())
        assert payload["schema"] == 2
        assert payload["smoke"] is True
        assert set(payload["stages"]) == set(result.stages)

    def test_out_none_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_bench(smoke=True, out=None)
        assert isinstance(result, BenchResult)
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_density_cache_hit_recorded(self, tmp_path):
        options = RunOptions(cache_dir=tmp_path)
        first = run_bench(smoke=True, out=None, options=options)
        assert first.stages["train"]["cache_hit"] is False
        second = run_bench(smoke=True, out=None, options=options)
        assert second.stages["train"]["cache_hit"] is True
        # The cached re-run skips retraining entirely.
        assert second.stages["train"]["seconds"] <= first.stages["train"]["seconds"]


class TestMetricsSnapshot:
    def test_payload_carries_stage_quantiles(self, smoke_result):
        """BENCH_repro.json includes the p50/p95 telemetry snapshot."""
        _, out = smoke_result
        payload = json.loads(out.read_text())
        stage_seconds = payload["metrics"]["stage_seconds"]
        assert {"train", "compile", "simulate"} <= set(stage_seconds)
        for info in stage_seconds.values():
            assert info["count"] >= 1
            assert info["p50"] is not None and info["p95"] is not None

    def test_no_temp_files_left_behind(self, smoke_result):
        _, out = smoke_result
        assert not list(out.parent.glob("*.tmp"))


class TestAtomicWrite:
    def test_replaces_existing_file_atomically(self, tmp_path):
        out = tmp_path / "BENCH_repro.json"
        out.write_text('{"stale": true}')
        _write_atomic(out, {"fresh": True})
        assert json.loads(out.read_text()) == {"fresh": True}
        assert not list(tmp_path.glob("*.tmp"))

    def test_nonregular_target_written_directly(self):
        """CI passes --out /dev/null; there is nothing to rename onto it."""
        _write_atomic(Path("/dev/null"), {"discard": True})  # must not raise

    def test_failed_serialization_leaves_target_intact(self, tmp_path):
        out = tmp_path / "BENCH_repro.json"
        out.write_text('{"original": true}')
        with pytest.raises(TypeError):
            _write_atomic(out, {"bad": object()})
        assert json.loads(out.read_text()) == {"original": True}
        assert not list(tmp_path.glob("*.tmp"))


def _payload(stages: dict[str, float] | None = None, smoke: bool = False) -> dict:
    """A minimal bench payload with the given stage p95s."""
    stage_seconds = {
        stage: {"count": 1, "p50": p95, "p95": p95}
        for stage, p95 in (stages or {}).items()
    }
    return {
        "schema": 2,
        "smoke": smoke,
        "metrics": {"stage_seconds": stage_seconds},
    }


class TestCheckRegression:
    def test_within_tolerance_passes(self):
        violations, checked = check_regression(
            _payload({"train": 1.1}), _payload({"train": 1.0})
        )
        assert violations == []
        assert any("stage train p95" in note for note in checked)
        # Exactly at the ceiling (1.0 * 1.2) is still a pass.
        at_ceiling = check_regression(_payload({"train": 1.2}), _payload({"train": 1.0}))
        assert at_ceiling[0] == []

    def test_stage_p95_regression_detected(self):
        violations, _ = check_regression(
            _payload({"train": 1.3}), _payload({"train": 1.0})
        )
        assert len(violations) == 1
        assert "stage train p95 regressed" in violations[0]

    def test_noise_floor_stages_are_skipped(self):
        """A 10x blowup of a 1ms stage is noise, not a regression."""
        violations, checked = check_regression(
            _payload({"compile": 0.010}), _payload({"compile": 0.001})
        )
        assert violations == []
        assert any("noise floor" in note for note in checked)

    def test_stage_missing_from_current_is_skipped(self):
        violations, checked = check_regression(
            _payload({}), _payload({"train": 1.0})
        )
        assert violations == []
        assert any("p95 missing" in note for note in checked)

    def test_scale_mismatch_raises(self):
        with pytest.raises(ValueError, match="scale mismatch"):
            check_regression(_payload(smoke=True), _payload())

    def test_tolerance_is_configurable(self):
        current, baseline = _payload({"train": 1.05}), _payload({"train": 1.0})
        assert check_regression(current, baseline, tolerance=0.1)[0] == []
        assert check_regression(current, baseline, tolerance=0.01)[0] != []


class TestBenchCheckCLI:
    def test_missing_baseline_exits_2(self, tmp_path):
        code = main(
            [
                "bench", "--smoke", "--check",
                "--baseline", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "bench.json"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 2

    def test_scale_mismatch_exits_2(self, tmp_path, capsys):
        baseline = tmp_path / "full.json"
        baseline.write_text(json.dumps(_payload(smoke=False)))
        code = main(
            [
                "bench", "--smoke", "--check", "--baseline", str(baseline),
                "--out", str(tmp_path / "bench.json"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 2
        assert "scale mismatch" in capsys.readouterr().err

    def test_regression_exits_1_and_clean_run_exits_0(
        self, tmp_path, capsys, monkeypatch
    ):
        # The stage p95s come from the process-global metrics registry; a
        # fresh one makes them this test's runs alone, whatever ran before.
        # (``repro.obs.metrics`` as an attribute is the accessor function,
        # so the module comes from ``import_module``.)
        monkeypatch.setattr(
            importlib.import_module("repro.obs.metrics"), "REGISTRY", MetricsRegistry()
        )
        # A baseline train p95 just above the 0.05 s noise floor: a cold smoke
        # run trains a model, so the check must fail...  A warm process trains
        # the smoke model in ~0.07 s, at the 0.072 s ceiling, so the cold
        # run's measurement is held above it whatever the machine's speed.
        import repro.eval.fig8 as fig8

        measure = fig8.measure_model_densities

        def slow_measure(*args, **kwargs):
            time.sleep(0.1)
            return measure(*args, **kwargs)

        monkeypatch.setattr(fig8, "measure_model_densities", slow_measure)
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps(_payload({"train": 0.06}, smoke=True)))
        out = tmp_path / "bench.json"
        args = ["--out", str(out), "--cache-dir", str(tmp_path / "cache")]
        code = main(["bench", "--smoke", "--check", "--baseline", str(fast)] + args)
        assert code == 1
        assert "stage train p95 regressed" in capsys.readouterr().err
        # ...while a generous baseline passes (exit 0) using the same run
        # shape; the payload just written is a valid baseline format.
        generous = tmp_path / "generous.json"
        generous.write_text(json.dumps(_payload({"train": 1000.0}, smoke=True)))
        code = main(["bench", "--smoke", "--check", "--baseline",
                     str(generous)] + args)
        assert code == 0
        assert "no regression" in capsys.readouterr().out

    def test_committed_baseline_is_checkable(self):
        """The repo's BENCH_repro.json must parse and be full-scale."""
        payload = json.loads(
            (Path(__file__).resolve().parents[1] / "BENCH_repro.json").read_text()
        )
        assert payload["schema"] == 2
        assert payload["smoke"] is False
        assert payload["metrics"]["stage_seconds"]
        # Self-comparison is the identity check: zero violations.
        violations, _ = check_regression(payload, payload)
        assert violations == []


class TestBenchCLI:
    def test_cli_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench", "--smoke", "--out", str(out),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "simulate" in captured
        assert json.loads(out.read_text())["smoke"] is True

    def test_smoke_scale_is_small(self):
        assert SMOKE_SCALE.num_samples <= 128 and SMOKE_SCALE.epochs == 1
