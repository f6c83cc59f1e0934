"""Seeded property tests for the closed-form counts helpers.

The analytic tier evaluates ``compressed_words``/``skip_factor`` element-wise
over whole design grids, so their algebraic properties — monotonicity in
density, additivity of totals, dense-path equivalence — hold for the walk and
the columns alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataflow.counts import (
    LayerDensities,
    StepKind,
    compressed_words,
    layer_counts,
    skip_factor,
    total_macs,
    total_processed,
)
from repro.models.spec import ConvLayerSpec


@pytest.fixture
def layer() -> ConvLayerSpec:
    return ConvLayerSpec(
        name="conv2",
        in_channels=16,
        out_channels=32,
        kernel=3,
        stride=1,
        padding=1,
        in_height=14,
        in_width=14,
    )


def _uniform(density: float) -> LayerDensities:
    return LayerDensities(
        input_density=density,
        grad_output_density=density,
        mask_density=density,
        grad_input_density=density,
        output_density=density,
    )


class TestHelperProperties:
    def test_skip_factor_monotone_in_density(self, rng):
        densities = np.sort(rng.uniform(0.0, 1.0, size=64))
        for kernel in (1, 3, 5, 7):
            values = skip_factor(densities, kernel)
            assert np.all(np.diff(values) >= 0.0)
            assert np.all((0.0 <= values) & (values <= 1.0))

    def test_skip_factor_edge_cases(self):
        assert skip_factor(0.0, 3) == 0.0
        assert skip_factor(1.0, 3) == 1.0
        # More aligned positions can only raise the hit probability.
        assert skip_factor(0.3, 5) > skip_factor(0.3, 3)

    def test_skip_factor_scalar_and_array_agree(self, rng):
        densities = rng.uniform(0.0, 1.0, size=32)
        vectorized = skip_factor(densities, 3)
        scalars = np.array([skip_factor(float(d), 3) for d in densities])
        assert np.array_equal(vectorized, scalars)

    @pytest.mark.parametrize("kernel", [1, 3, 5, 7, 11])
    def test_skip_factor_column_equals_scalar_calls(self, rng, kernel):
        # The walk calls skip_factor on Python floats, the column evaluator on
        # numpy columns; their records are equal only if every factor is.
        # numpy's pow and libm's differ in the last ulp on a few percent of
        # inputs, so ``(1 - d) ** K`` would fail this on 10^4 values.
        densities = rng.uniform(0.0, 1.0, size=10_000)
        column = skip_factor(densities, kernel)
        scalars = [skip_factor(float(d), kernel) for d in densities]
        assert column.tolist() == scalars

    def test_compressed_words_monotone_and_linear(self, rng):
        values = np.sort(rng.uniform(0.0, 1e6, size=64))
        words = compressed_words(values)
        assert np.all(np.diff(words) >= 0.0)
        # Linear in the value count: one offset per two values.
        assert np.allclose(words, values * 1.5)
        assert compressed_words(0.0) == 0.0


class TestLayerCountProperties:
    def test_total_macs_additive_across_steps(self, layer, rng):
        for density in rng.uniform(0.05, 1.0, size=8):
            counts = layer_counts(layer, _uniform(float(density)))
            assert total_macs(counts) == pytest.approx(
                sum(counts[kind].macs for kind in StepKind)
            )
            assert total_processed(counts) == pytest.approx(
                sum(counts[kind].processed_operands for kind in StepKind)
            )

    def test_macs_monotone_in_density(self, layer, rng):
        densities = np.sort(rng.uniform(0.05, 1.0, size=8))
        macs = [
            total_macs(layer_counts(layer, _uniform(float(d)))) for d in densities
        ]
        assert macs == sorted(macs)

    def test_dense_map_equals_sparse_disabled(self, layer):
        # LayerDensities.dense() through the sparse path must count the same
        # MACs as the dense path; traffic differs only by the compressed
        # format, which dense() still pays for the unpadded row view.
        sparse_path = layer_counts(layer, LayerDensities.dense(), sparse=True)
        dense_path = layer_counts(layer, LayerDensities.dense(), sparse=False)
        padded = layer.in_width + 2 * layer.padding
        for kind in StepKind:
            ratio = sparse_path[kind].macs / dense_path[kind].macs
            if kind is StepKind.GTA:
                assert ratio == pytest.approx(1.0)
            else:
                # Forward/GTW dense streams the padding columns too.
                assert ratio == pytest.approx(layer.in_width / padded)

    def test_dense_densities_are_the_default(self):
        assert LayerDensities.dense() == LayerDensities()
