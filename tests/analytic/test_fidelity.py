"""The fidelity knob: enum semantics and simulate-stage dispatch."""

from __future__ import annotations

import pytest

from repro.analytic.fidelity import (
    DEFAULT_FIDELITY,
    FIDELITY_CHOICES,
    Fidelity,
    fidelity_of,
)
from repro.api import (
    ExperimentRequest,
    PipelineContext,
    RunOptions,
    fidelity_dispatch,
    run_experiment,
)
from repro.eval.common import ExperimentScale


class TestFidelityEnum:
    def test_choices_cover_the_three_tiers(self):
        assert FIDELITY_CHOICES == ("analytic", "vectorized", "scalar")
        assert DEFAULT_FIDELITY is Fidelity.VECTORIZED

    def test_normalize_accepts_enum_and_strings(self):
        assert Fidelity.normalize(Fidelity.ANALYTIC) is Fidelity.ANALYTIC
        assert Fidelity.normalize("analytic") is Fidelity.ANALYTIC
        assert Fidelity.normalize("  Scalar ") is Fidelity.SCALAR

    @pytest.mark.parametrize("bad", ["exact", "", None, 3])
    def test_normalize_rejects_unknown(self, bad):
        with pytest.raises(ValueError, match="unknown fidelity"):
            Fidelity.normalize(bad)

    def test_fidelity_of_defaults_for_plain_objects(self):
        assert fidelity_of(object()) is DEFAULT_FIDELITY
        assert (
            fidelity_of(ExperimentRequest(experiment="sweep", fidelity="analytic"))
            is Fidelity.ANALYTIC
        )


class TestRequestFidelityField:
    def test_default_and_normalization(self):
        assert ExperimentRequest(experiment="sweep").fidelity == "vectorized"
        assert (
            ExperimentRequest(experiment="sweep", fidelity=" ANALYTIC ").fidelity
            == "analytic"
        )

    def test_invalid_fidelity_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            ExperimentRequest(experiment="sweep", fidelity="exact")

    def test_with_fidelity_round_trip(self):
        request = ExperimentRequest(experiment="sweep")
        analytic = request.with_fidelity(Fidelity.ANALYTIC)
        assert analytic.fidelity == "analytic"
        assert analytic.with_fidelity("vectorized") == request

    def test_with_params_preserves_fidelity(self):
        request = ExperimentRequest(experiment="sweep", fidelity="analytic")
        assert request.with_params(sample=3).fidelity == "analytic"


def _ctx(fidelity: str) -> PipelineContext:
    return PipelineContext(
        request=ExperimentRequest(experiment="sweep", fidelity=fidelity)
    )


class TestFidelityDispatch:
    def test_each_tier_routes_to_its_impl(self):
        impls = dict(
            vectorized=lambda ctx: "v",
            analytic=lambda ctx: "a",
            scalar=lambda ctx: "s",
        )
        assert fidelity_dispatch(_ctx("vectorized"), **impls) == "v"
        assert fidelity_dispatch(_ctx("analytic"), **impls) == "a"
        assert fidelity_dispatch(_ctx("scalar"), **impls) == "s"

    def test_scalar_falls_back_to_vectorized(self):
        assert (
            fidelity_dispatch(_ctx("scalar"), vectorized=lambda ctx: "v") == "v"
        )

    def test_analytic_without_impl_is_loud(self):
        with pytest.raises(ValueError, match="no analytic tier"):
            fidelity_dispatch(_ctx("analytic"), vectorized=lambda ctx: "v")

    def test_dispatch_counter_labelled_by_tier(self):
        from repro.obs import metrics

        def tier_count(tier: str) -> float:
            snapshot = metrics().snapshot()
            return sum(
                entry["value"]
                for entry in snapshot.get("pipeline.fidelity.dispatch", ())
                if entry["labels"].get("tier") == tier
            )

        before = tier_count("analytic")
        fidelity_dispatch(_ctx("analytic"), vectorized=lambda c: 0, analytic=lambda c: 0)
        assert tier_count("analytic") == before + 1


class TestTierEquivalence:
    """scalar and analytic tiers against the default, end to end."""

    @pytest.fixture(scope="class")
    def sweep_results(self):
        def run(fidelity: str):
            return run_experiment(
                ExperimentRequest(
                    experiment="sweep",
                    workloads=(("AlexNet", "CIFAR-10"),),
                    params={
                        "pes": [84, 168],
                        "buffers": [386],
                        "pruning_rates": [0.9],
                    },
                    fidelity=fidelity,
                ),
                options=RunOptions(use_cache=False, parallel=False),
            )

        return {tier: run(tier) for tier in ("vectorized", "scalar", "analytic")}

    def test_scalar_is_numerically_identical(self, sweep_results):
        vec = sweep_results["vectorized"].native["records"]
        sca = sweep_results["scalar"].native["records"]
        assert [r.to_dict() for r in vec] == [r.to_dict() for r in sca]

    def test_analytic_matches_to_float_noise(self, sweep_results):
        # One evaluator at every tier: the records differ only in their keys.
        vec = sweep_results["vectorized"].native["records"]
        ana = sweep_results["analytic"].native["records"]
        assert len(vec) == len(ana)
        for v, a in zip(vec, ana):
            assert a.key != v.key  # fidelity-salted
            assert a._replace(key=v.key) == v

    def test_fig8_analytic_tier(self):
        # fig8/fig9 run one simulate path at every fidelity, so every tier
        # returns the default payload exactly.
        request = ExperimentRequest(
            experiment="fig8",
            workloads=(("AlexNet", "CIFAR-10"),),
            scale=ExperimentScale.smoke(),
        )
        payloads = {
            tier: run_experiment(
                request.with_fidelity(tier), options=RunOptions(use_cache=False)
            ).payload
            for tier in ("vectorized", "analytic", "scalar")
        }
        assert payloads["analytic"] == payloads["vectorized"]
        assert payloads["scalar"] == payloads["vectorized"]
