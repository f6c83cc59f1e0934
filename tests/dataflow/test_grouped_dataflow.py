"""Grouped-convolution exactness through the dataflow stack.

Extends the decomposition-exactness tests to grouped/depthwise layers: the
row-wise reference, the decomposed SRC/MSRC/OSRC ops executed on a PE, and
the closed-form operation counts must all agree with the grouped im2col
kernels in :mod:`repro.nn.functional`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.pe import PE
from repro.dataflow.counts import LayerDensities, forward_counts, gta_counts, gtw_counts
from repro.dataflow.decompose import (
    accumulate_forward,
    accumulate_gta,
    accumulate_gtw,
    decompose_forward,
    decompose_gta,
    decompose_gtw,
)
from repro.dataflow.reference import forward_by_rows, gta_by_rows, gtw_by_rows
from repro.models.spec import ConvLayerSpec, ConvStructure
from repro.nn import functional as F


def grouped_layer(
    groups: int, in_channels: int = 4, out_channels: int = 6, stride: int = 1
) -> ConvLayerSpec:
    name = f"grouped{groups}" + (f"_stride{stride}" if stride > 1 else "")
    return ConvLayerSpec(
        name, in_channels, out_channels, 3, stride, 1, 6, 6,
        ConvStructure.CONV_BN_RELU, groups=groups,
    )


def _tensors(layer: ConvLayerSpec, rng):
    x = rng.normal(size=(layer.in_channels, layer.in_height, layer.in_width))
    x *= rng.random(x.shape) < 0.6
    w = rng.normal(
        size=(layer.out_channels, layer.group_in_channels, layer.kernel, layer.kernel)
    )
    grad_out = rng.normal(size=(layer.out_channels, layer.out_height, layer.out_width))
    grad_out *= rng.random(grad_out.shape) < 0.4
    return x, w, grad_out


LAYERS = [
    grouped_layer(1),
    grouped_layer(2),
    grouped_layer(4, 4, 4),
    grouped_layer(2, stride=2),
]


class TestGroupedReference:
    @pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
    def test_forward_rows_match_im2col(self, layer, rng):
        x, w, _ = _tensors(layer, rng)
        expected, _ = F.conv2d_forward(
            x[None], w, None, layer.stride, layer.padding, groups=layer.groups
        )
        result = forward_by_rows(
            x, w, None, layer.stride, layer.padding, groups=layer.groups
        )
        np.testing.assert_allclose(result, expected[0], atol=1e-12)

    @pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
    def test_backward_rows_match_im2col(self, layer, rng):
        x, w, grad_out = _tensors(layer, rng)
        _, cols = F.conv2d_forward(
            x[None], w, None, layer.stride, layer.padding, groups=layer.groups
        )
        expected_di, expected_dw, _ = F.conv2d_backward(
            grad_out[None], (1, *x.shape), cols, w, layer.stride, layer.padding,
            groups=layer.groups,
        )
        np.testing.assert_allclose(
            gta_by_rows(
                grad_out, w, x.shape, layer.stride, layer.padding, groups=layer.groups
            ),
            expected_di[0],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            gtw_by_rows(
                grad_out, x, layer.kernel, layer.stride, layer.padding,
                groups=layer.groups,
            ),
            expected_dw,
            atol=1e-12,
        )


class TestGroupedPEExecution:
    @pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
    def test_forward_via_pe(self, layer, rng):
        x, w, _ = _tensors(layer, rng)
        expected, _ = F.conv2d_forward(
            x[None], w, None, layer.stride, layer.padding, groups=layer.groups
        )
        pe = PE(zero_skipping=True)
        ops = decompose_forward(layer, x, w)
        results = [pe.run(op)[0] for op in ops]
        np.testing.assert_allclose(
            accumulate_forward(layer, ops, results), expected[0], atol=1e-12
        )

    @pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
    def test_gta_and_gtw_via_pe(self, layer, rng):
        x, w, grad_out = _tensors(layer, rng)
        _, cols = F.conv2d_forward(
            x[None], w, None, layer.stride, layer.padding, groups=layer.groups
        )
        expected_di, expected_dw, _ = F.conv2d_backward(
            grad_out[None], (1, *x.shape), cols, w, layer.stride, layer.padding,
            groups=layer.groups,
        )
        pe = PE(zero_skipping=True)
        gta_ops = decompose_gta(layer, grad_out, w)
        gta_results = [pe.run(op)[0] for op in gta_ops]
        np.testing.assert_allclose(
            accumulate_gta(layer, gta_ops, gta_results), expected_di[0], atol=1e-12
        )
        gtw_ops = decompose_gtw(layer, grad_out, x)
        gtw_results = [pe.run(op)[0] for op in gtw_ops]
        np.testing.assert_allclose(
            accumulate_gtw(layer, gtw_ops, gtw_results), expected_dw, atol=1e-12
        )

    def test_grouped_weight_shape_rejected(self, rng):
        layer = grouped_layer(2)
        x, _, _ = _tensors(layer, rng)
        full_weight = rng.normal(size=(layer.out_channels, layer.in_channels, 3, 3))
        with pytest.raises(ValueError):
            decompose_forward(layer, x, full_weight)


# ``gta_counts`` charges K output-gradient rows to every input-gradient row;
# at stride s > 1 only about K / s of them exist, and the decomposition emits
# only those (108 MSRC ops against 216 counted for ``grouped2_stride2``).
STRIDE_ONE_LAYERS = [layer for layer in LAYERS if layer.stride == 1]


class TestGroupedCounts:
    """The closed-form counts track the decomposed op enumeration exactly."""

    @pytest.mark.parametrize("layer", STRIDE_ONE_LAYERS, ids=lambda l: l.name)
    def test_row_ops_match_decomposition(self, layer, rng):
        x, w, grad_out = _tensors(layer, rng)
        dense = LayerDensities.dense()
        assert forward_counts(layer, dense).row_ops == len(decompose_forward(layer, x, w))
        assert gta_counts(layer, dense).row_ops == len(decompose_gta(layer, grad_out, w))
        assert gtw_counts(layer, dense).row_ops == len(decompose_gtw(layer, grad_out, x))

    def test_depthwise_counts_scale_down_by_channel_count(self):
        dense_layer = grouped_layer(1, 4, 4)
        depthwise = grouped_layer(4, 4, 4)
        d = LayerDensities.dense()
        assert depthwise.forward_macs * 4 == dense_layer.forward_macs
        assert depthwise.weight_count * 4 == dense_layer.weight_count
        assert (
            forward_counts(depthwise, d, sparse=False).macs * 4
            == forward_counts(dense_layer, d, sparse=False).macs
        )
        assert (
            gta_counts(depthwise, d, sparse=False).row_ops * 4
            == gta_counts(dense_layer, d, sparse=False).row_ops
        )

    def test_grouped_training_macs_consistent(self):
        layer = grouped_layer(2)
        assert layer.training_macs == 3 * layer.forward_macs
        assert layer.gta_macs == layer.forward_macs


class TestGroupedSpecValidation:
    def test_rejects_indivisible_groups(self):
        with pytest.raises(ValueError, match="groups"):
            grouped_layer(3)

    def test_depthwise_flag(self):
        assert grouped_layer(4, 4, 4).is_depthwise
        assert not grouped_layer(2).is_depthwise
        assert not grouped_layer(1).is_depthwise
