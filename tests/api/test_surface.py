"""Public-API surface snapshot: the exported names of ``repro.api`` are pinned.

Additive changes must update this snapshot deliberately; removals/renames
require a deprecation cycle first (see the API stability policy in
DESIGN.md).
"""

from __future__ import annotations

import repro.api as api

# The frozen public surface.  Keep sorted.
EXPECTED_SURFACE = [
    "DEFAULT_FIDELITY",
    "DeadlineExceeded",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentReport",
    "ExperimentRequest",
    "ExperimentResult",
    "FIDELITY_CHOICES",
    "Fidelity",
    "Pipeline",
    "PipelineContext",
    "Registry",
    "RunOptions",
    "Runner",
    "STAGE_ORDER",
    "Stage",
    "UnknownNameError",
    "WORKLOADS",
    "Workload",
    "canonical_json",
    "content_hash",
    "default_runner",
    "fidelity_dispatch",
    "fidelity_of",
    "get_experiment",
    "get_workload",
    "list_experiments",
    "list_workloads",
    "register_experiment",
    "register_workload",
    "run_experiment",
]

# The built-in experiment registry every release must keep serving.
EXPECTED_EXPERIMENTS = {
    "ablate-energy",
    "analytic-validate",
    "ablate-fifo",
    "ablate-pes",
    "ablate-rate",
    "bench",
    "fig8",
    "fig9",
    "pareto",
    "sweep",
    "table1",
    "table2",
}

# The canonical stage vocabulary, in canonical order.
EXPECTED_STAGE_ORDER = ("train", "prune", "profile", "compile", "simulate", "report")


class TestSurface:
    def test_all_is_pinned(self):
        assert sorted(api.__all__) == EXPECTED_SURFACE

    def test_every_exported_name_resolves(self):
        for name in EXPECTED_SURFACE:
            assert getattr(api, name) is not None

    def test_builtin_experiments_pinned(self):
        names = {experiment.name for experiment in api.list_experiments()}
        assert EXPECTED_EXPERIMENTS <= names

    def test_builtin_workloads_cover_the_paper_grid(self):
        names = {workload.name for workload in api.list_workloads()}
        assert {"AlexNet", "ResNet-18", "ResNet-34", "VGG-16", "MobileNetV1"} <= names

    def test_stage_order_pinned(self):
        assert api.STAGE_ORDER == EXPECTED_STAGE_ORDER

    def test_cache_dir_constant_matches_explore(self):
        # One definition: repro.explore re-exports the API layer's constant.
        from repro.api.request import DEFAULT_CACHE_DIR as api_dir
        from repro.explore import DEFAULT_CACHE_DIR as explore_dir

        assert explore_dir is api_dir

    def test_every_experiment_describes_itself(self):
        for experiment in api.list_experiments():
            assert experiment.description
