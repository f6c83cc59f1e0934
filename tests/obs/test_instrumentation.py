"""End-to-end telemetry: pipeline stages, the runner, and caches.

The instrumentation records into the process-global registry/ring, which
accumulates across a pytest run — every assertion here is therefore a
*delta* around the exercised call, never an absolute value.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentRequest, RunOptions, run_experiment
from repro.api.runner import Runner
from repro.eval.common import ExperimentScale
from repro.explore.cache import CacheInfo, ResultCache
from repro.obs import TRACE, metrics


def _counter(name, **labels):
    return metrics().counter(name, **labels).value


def _hist_count(name, **labels):
    return metrics().histogram(name, **labels).count


SMOKE = ExperimentScale.preset("smoke")


class TestPipelineInstrumentation:
    def test_stage_histograms_and_spans(self):
        request = ExperimentRequest(
            experiment="ablate-fifo",
            scale=SMOKE,
            params={"fifo_depths": [1, 5], "num_batches": 8,
                    "batch_elements": 512},
        )
        runs_before = _counter("pipeline.runs", experiment="ablate-fifo")
        stages_before = {
            stage: _hist_count("pipeline.stage.seconds", stage=stage)
            for stage in ("prune", "report")
        }
        spans_before = TRACE.recorded

        result = run_experiment(request, RunOptions(use_cache=False))

        assert _counter("pipeline.runs", experiment="ablate-fifo") == runs_before + 1
        for stage in ("prune", "report"):
            assert (
                _hist_count("pipeline.stage.seconds", stage=stage)
                == stages_before[stage] + 1
            )
        # One span per stage plus the enclosing pipeline span.
        assert TRACE.recorded == spans_before + len(result.timings) + 1
        new = TRACE.spans()[-(len(result.timings) + 1):]
        names = {span.name for span in new}
        assert f"pipeline.{request.experiment}" in names
        for stage, _ in result.timings:
            assert f"stage.{stage}" in names
        # Stage spans parent to the pipeline span.
        pipeline_span = next(
            s for s in new if s.name == f"pipeline.{request.experiment}"
        )
        for span in new:
            if span.name.startswith("stage."):
                assert span.parent_id == pipeline_span.span_id
        assert pipeline_span.attrs["experiment"] == "ablate-fifo"


class TestRunnerInstrumentation:
    def test_serial_batch_counts_submitted_and_completed(self):
        runner = Runner()
        submitted = _counter("runner.tasks.submitted")
        completed = _counter("runner.tasks.completed")
        wait_count = _hist_count("runner.task.queue_wait_seconds")
        exec_count = _hist_count("runner.task.exec_seconds")

        assert runner.map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

        assert _counter("runner.tasks.submitted") == submitted + 3
        assert _counter("runner.tasks.completed") == completed + 3
        assert _hist_count("runner.task.queue_wait_seconds") == wait_count + 3
        assert _hist_count("runner.task.exec_seconds") == exec_count + 3

    def test_failed_task_counts_failure_and_cancellations(self):
        runner = Runner()
        failed = _counter("runner.tasks.failed")
        cancelled = _counter("runner.tasks.cancelled")

        def explode(x):
            if x == 2:
                raise ValueError("x == 2")
            return x

        with pytest.raises(ValueError):
            runner.map(explode, [1, 2, 3])

        assert _counter("runner.tasks.failed") == failed + 1
        # Item 3 never ran: it was cancelled by item 2's failure.
        assert _counter("runner.tasks.cancelled") == cancelled + 1


class TestResultCacheCounters:
    def test_cache_info_counts_local_hits_and_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "stage.jsonl")
        assert cache.cache_info() == CacheInfo(hits=0, misses=0, corrupt=0, entries=0)
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.get("other") is None
        info = cache.cache_info()
        assert info.hits == 1 and info.misses == 2
        assert info.entries == 1 and info.corrupt == 0

    def test_global_counters_track_by_cache_name(self, tmp_path):
        hits = _counter("cache.hits", cache="stage")
        misses = _counter("cache.misses", cache="stage")
        cache = ResultCache(tmp_path / "stage.jsonl")
        cache.get("missing")
        cache.put("k", {"v": 1})
        cache.get("k")
        assert _counter("cache.hits", cache="stage") == hits + 1
        assert _counter("cache.misses", cache="stage") == misses + 1

    def test_corrupt_lines_counted_on_load(self, tmp_path):
        path = tmp_path / "stage.jsonl"
        ResultCache(path).put("good", {"v": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write("this is not json\n")
        corrupt = _counter("cache.corrupt_lines", cache="stage")
        reloaded = ResultCache(path)
        assert reloaded.get("good") == {"v": 1}
        assert reloaded.cache_info().corrupt == 1
        assert _counter("cache.corrupt_lines", cache="stage") == corrupt + 1


class TestColdWarmFig8:
    def test_density_cache_hit_rate_nonzero_on_second_run(self, tmp_path):
        """Cold run misses the density cache; the warm re-run hits it."""
        request = ExperimentRequest(
            experiment="fig8",
            scale=SMOKE,
            workloads=(("AlexNet", "CIFAR-10"),),
        )
        options = RunOptions(cache_dir=tmp_path)

        hits0 = _counter("cache.hits", cache="densities")
        misses0 = _counter("cache.misses", cache="densities")
        cold = run_experiment(request, options)
        hits1 = _counter("cache.hits", cache="densities")
        misses1 = _counter("cache.misses", cache="densities")
        assert misses1 > misses0  # cold: every density lookup missed
        assert hits1 == hits0

        warm = run_experiment(request, options)
        hits2 = _counter("cache.hits", cache="densities")
        misses2 = _counter("cache.misses", cache="densities")
        assert hits2 > hits1  # warm: nonzero hit rate
        assert misses2 == misses1
        assert warm.summary == cold.summary
