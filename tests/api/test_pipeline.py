"""Pipeline/Stage/Runner/registry mechanics (no training, no simulation)."""

from __future__ import annotations

import contextlib
import os
import warnings

import pytest

from repro.api import (
    ExperimentReport,
    ExperimentRequest,
    Experiment,
    Pipeline,
    PipelineContext,
    Registry,
    RunOptions,
    Runner,
    Stage,
    UnknownNameError,
    default_runner,
)
from repro.explore.cache import ResultCache


def _request() -> ExperimentRequest:
    return ExperimentRequest(experiment="test")


class TestStageAndPipelineValidation:
    def test_unknown_stage_name_rejected(self):
        with pytest.raises(ValueError, match="unknown stage name"):
            Stage("cook", lambda ctx: None)

    def test_duplicate_stage_names_rejected(self):
        stages = [Stage("train", lambda ctx: 1), Stage("train", lambda ctx: 2)]
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline("p", stages + [Stage("report", lambda ctx: None)])

    def test_out_of_order_stages_rejected(self):
        with pytest.raises(ValueError, match="canonical order"):
            Pipeline(
                "p",
                [
                    Stage("simulate", lambda ctx: None),
                    Stage("train", lambda ctx: None),
                    Stage("report", lambda ctx: None),
                ],
            )

    def test_pipeline_must_end_with_report(self):
        with pytest.raises(ValueError, match="report"):
            Pipeline("p", [Stage("train", lambda ctx: None)])

    def test_subsequence_of_canonical_order_is_allowed(self):
        pipeline = Pipeline(
            "p", [Stage("prune", lambda ctx: 1), Stage("report", lambda ctx: None)]
        )
        assert pipeline.stage_names == ("prune", "report")


class TestPipelineExecution:
    def test_artifacts_timings_and_chaining(self):
        pipeline = Pipeline(
            "p",
            [
                Stage("train", lambda ctx: 21),
                Stage("profile", lambda ctx: ctx["train"] * 2),
                Stage(
                    "report",
                    lambda ctx: ExperimentReport(
                        payload={"v": ctx["profile"]}, summary="s", native=ctx["profile"]
                    ),
                ),
            ],
        )
        ctx = PipelineContext(request=_request())
        report = pipeline.run(ctx)
        assert report.native == 42
        assert ctx.artifacts["train"] == 21
        assert set(ctx.timings) == {"train", "profile", "report"}
        assert all(seconds >= 0.0 for seconds in ctx.timings.values())

    def test_missing_artifact_lookup_is_helpful(self):
        ctx = PipelineContext(request=_request())
        with pytest.raises(KeyError, match="no artifact for stage 'train'"):
            ctx["train"]


class TestStageCacheHook:
    def test_miss_then_hit(self, tmp_path):
        store = ResultCache(tmp_path / "stage.jsonl")
        ctx = PipelineContext(request=_request())
        ctx.current_stage = "train"
        calls = []

        def compute():
            calls.append(1)
            return {"x": 1}

        first = ctx.cached("key", compute, store=store)
        second = ctx.cached("key", compute, store=store)
        assert first == second == {"x": 1}
        assert len(calls) == 1
        assert ctx.cache_events["train"] == [("key", False), ("key", True)]
        assert not ctx.stage_cache_hit("train")  # first lookup missed

        fresh = PipelineContext(request=_request())
        fresh.current_stage = "train"
        fresh.cached("key", compute, store=store)
        assert fresh.stage_cache_hit("train")
        assert len(calls) == 1

    def test_serializer_round_trip(self, tmp_path):
        store = ResultCache(tmp_path / "stage.jsonl")
        ctx = PipelineContext(request=_request())
        ctx.current_stage = "train"
        ctx.cached(
            "k",
            lambda: (1, 2),
            store=store,
            serialize=lambda value: {"items": list(value)},
            deserialize=lambda record: tuple(record["items"]),
        )
        restored = ctx.cached(
            "k",
            lambda: pytest.fail("should be cached"),
            store=store,
            serialize=lambda value: {"items": list(value)},
            deserialize=lambda record: tuple(record["items"]),
        )
        assert restored == (1, 2)

    def test_no_store_always_computes(self):
        ctx = PipelineContext(request=_request())
        ctx.current_stage = "train"
        calls = []
        for _ in range(2):
            ctx.cached("k", lambda: calls.append(1), store=None)
        assert len(calls) == 2
        assert ctx.stage_cache_hit("train") is False


def _square(x: int) -> int:
    return x * x


def _pid_and_square(x: int) -> tuple[int, int]:
    return os.getpid(), x * x


def _maps_in_process(runner: Runner) -> bool:
    """The runner maps in input order, in this process."""
    return runner.map(_pid_and_square, [3, 1, 2]) == [
        (os.getpid(), 9), (os.getpid(), 1), (os.getpid(), 4)
    ]


@contextlib.contextmanager
def _one_deprecation():
    """Exactly one DeprecationWarning, naming 2.0 and the fleet, raised at
    the caller's line in this file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    deprecations = [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 1, [str(w.message) for w in caught]
    message = str(deprecations[0].message)
    assert "next major release (2.0)" in message
    assert "repro serve --fleet N" in message
    assert deprecations[0].filename == __file__


def _probe_experiment() -> Experiment:
    """An unregistered experiment whose simulate stage maps through the
    pipeline's runner."""
    return Experiment(
        name="probe",
        build=lambda request: Pipeline(
            "probe",
            [
                Stage("simulate", lambda ctx: ctx.runner.map(_pid_and_square, [3, 1, 2])),
                Stage(
                    "report",
                    lambda ctx: ExperimentReport({"mapped": ctx["simulate"]}, ""),
                ),
            ],
        ),
    )


class TestRunner:
    def test_serial_map_preserves_order(self):
        assert Runner().map(_square, [3, 1, 2]) == [9, 1, 4]
        assert _maps_in_process(Runner())

    def test_parallel_matches_serial(self):
        # The deprecated pool size still works: it maps in process.
        with _one_deprecation():
            runner = Runner(max_workers=2)
        assert _maps_in_process(runner)

    def test_single_item_stays_serial(self):
        assert Runner().map(_square, [5]) == [25]

    def test_empty_batch(self):
        assert Runner().map(_square, []) == []

    def test_default_runner_semantics(self):
        with _one_deprecation():
            runner = default_runner(4)
        assert _maps_in_process(runner)

    def test_default_runner_parallel_override(self):
        for kwargs in ({"max_workers": 4, "parallel": False}, {"parallel": True}):
            with _one_deprecation():
                runner = default_runner(**kwargs)
            assert _maps_in_process(runner)

    def test_runner_parallel_switch_is_deprecated(self):
        with _one_deprecation():
            runner = Runner(parallel=False)
        assert _maps_in_process(runner)

    @pytest.mark.parametrize("knob", [{"max_workers": 2}, {"parallel": False}])
    def test_run_options_worker_knobs_are_deprecated(self, knob):
        with _one_deprecation():
            options = RunOptions(use_cache=False, **knob)
        result = _probe_experiment().run(ExperimentRequest(experiment="probe"), options)
        pid = os.getpid()
        assert result.payload["mapped"] == [(pid, 9), (pid, 1), (pid, 4)]

    def test_defaults_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "error", "will be removed in the next major release", DeprecationWarning
            )
            Runner()
            RunOptions()
            PipelineContext(request=_request())
            _probe_experiment().run(ExperimentRequest(experiment="probe"))


class TestRegistry:
    def test_add_get_and_duplicate(self):
        registry = Registry("thing")
        registry.add("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry and len(registry) == 1
        with pytest.raises(ValueError, match="already registered"):
            registry.add("a", 2)

    def test_unknown_name_lists_alternatives(self):
        registry = Registry("thing")
        registry.add("alpha", 1)
        registry.add("beta", 2)
        with pytest.raises(UnknownNameError, match="alpha, beta"):
            registry.get("gamma")

    def test_experiment_rejects_mismatched_request(self):
        experiment = Experiment(
            name="x",
            build=lambda request: Pipeline(
                "x",
                [Stage("report", lambda ctx: ExperimentReport({}, ""))],
            ),
        )
        with pytest.raises(ValueError, match="not 'x'"):
            experiment.run(ExperimentRequest(experiment="y"))

    def test_experiment_run_packages_result(self):
        experiment = Experiment(
            name="x",
            build=lambda request: Pipeline(
                "x",
                [
                    Stage("compile", lambda ctx: [1, 2]),
                    Stage(
                        "report",
                        lambda ctx: ExperimentReport(
                            payload={"n": len(ctx["compile"])}, summary="two"
                        ),
                    ),
                ],
            ),
        )
        result = experiment.run(ExperimentRequest(experiment="x"))
        assert result.payload == {"n": 2}
        assert result.summary == "two"
        assert tuple(name for name, _ in result.timings) == ("compile", "report")
