"""Tests for the analytic operation counts and the instruction compiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.pe import PE
from repro.dataflow.counts import (
    LayerDensities,
    StepKind,
    forward_counts,
    gta_counts,
    gtw_counts,
    layer_counts,
    total_macs,
    total_processed,
)
from repro.dataflow.compiler import (
    compile_training_iteration,
    training_instructions,
    uniform_densities,
)
from repro.dataflow.decompose import decompose_forward, decompose_gta, decompose_gtw
from repro.dataflow.instructions import (
    LoadWeightsInstruction,
    StepInstruction,
    StoreOutputInstruction,
    SyncInstruction,
)
from repro.models.alexnet import alexnet_cifar_spec
from repro.models.spec import ConvLayerSpec, ConvStructure


class TestLayerDensities:
    def test_defaults_are_dense(self):
        dense = LayerDensities.dense()
        assert dense.input_density == 1.0
        assert dense.grad_output_density == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LayerDensities(input_density=1.5)
        with pytest.raises(ValueError):
            LayerDensities(grad_output_density=-0.1)


class TestCountFormulas:
    def test_dense_forward_macs_match_spec(self, small_conv_layer):
        counts = forward_counts(small_conv_layer, LayerDensities.dense(), sparse=False)
        # window per op = (out_w - 1) * stride + K = in_w + 2 * padding here.
        window = (small_conv_layer.out_width - 1) * small_conv_layer.stride + small_conv_layer.kernel
        expected_ops = (
            small_conv_layer.out_channels
            * small_conv_layer.out_height
            * small_conv_layer.in_channels
            * small_conv_layer.kernel
        )
        assert counts.row_ops == expected_ops
        assert counts.macs == expected_ops * window * small_conv_layer.kernel
        # The padded-window MAC count upper-bounds the exact dense MAC count.
        assert counts.macs >= small_conv_layer.forward_macs

    def test_three_steps_have_same_order_of_magnitude_dense(self, small_conv_layer):
        counts = layer_counts(small_conv_layer, LayerDensities.dense(), sparse=False)
        macs = [counts[k].macs for k in StepKind]
        assert max(macs) / min(macs) < 1.6

    def test_sparse_counts_scale_with_density(self):
        # Padding 0 so the dense padded-row length equals the sparse row
        # length and the density ratios are exact.
        layer = ConvLayerSpec("nopad", 3, 4, 3, 1, 0, 8, 8, ConvStructure.CONV_RELU)
        sparse = LayerDensities(
            input_density=0.5, grad_output_density=0.2, mask_density=0.5,
            grad_input_density=0.5, output_density=0.5,
        )
        dense_fwd = forward_counts(layer, LayerDensities.dense(), sparse=False)
        sparse_fwd = forward_counts(layer, sparse, sparse=True)
        assert sparse_fwd.macs == pytest.approx(dense_fwd.macs * 0.5, rel=1e-9)

        dense_gta = gta_counts(layer, LayerDensities.dense(), sparse=False)
        sparse_gta = gta_counts(layer, sparse, sparse=True)
        # dO density 0.2 and mask density 0.5 both cut MACs.
        assert sparse_gta.macs == pytest.approx(dense_gta.macs * 0.2 * 0.5, rel=1e-9)

        dense_gtw = gtw_counts(layer, LayerDensities.dense(), sparse=False)
        sparse_gtw = gtw_counts(layer, sparse, sparse=True)
        assert sparse_gtw.macs == pytest.approx(dense_gtw.macs * 0.5 * 0.2, rel=1e-9)

    def test_sparse_never_exceeds_dense(self, small_conv_layer, strided_conv_layer):
        densities = LayerDensities(
            input_density=0.4, grad_output_density=0.1, mask_density=0.4,
            grad_input_density=0.3, output_density=0.4,
        )
        for layer in (small_conv_layer, strided_conv_layer):
            sparse = layer_counts(layer, densities, sparse=True)
            dense = layer_counts(layer, LayerDensities.dense(), sparse=False)
            for kind in StepKind:
                assert sparse[kind].macs <= dense[kind].macs + 1e-9
                assert sparse[kind].processed_operands <= dense[kind].processed_operands + 1e-9
                assert sparse[kind].sram_words <= dense[kind].sram_words * 1.6

    def test_mask_skipping_disabled_without_relu_mask(self):
        layer = ConvLayerSpec("p", 4, 4, 1, 1, 0, 8, 8, ConvStructure.CONV_ONLY)
        densities = LayerDensities(grad_output_density=0.5, mask_density=0.1)
        counts = gta_counts(layer, densities, sparse=True)
        # mask_density must be ignored: MACs scale only with dO density.
        dense = gta_counts(layer, LayerDensities.dense(), sparse=False)
        assert counts.macs == pytest.approx(dense.macs * 0.5, rel=1e-9)

    def test_totals_helpers(self, small_conv_layer):
        counts = layer_counts(small_conv_layer, LayerDensities.dense(), sparse=False)
        assert total_macs(counts) == pytest.approx(sum(c.macs for c in counts.values()))
        assert total_processed(counts) == pytest.approx(
            sum(c.processed_operands for c in counts.values())
        )


class TestCountsAgainstDetailedPE:
    """The closed-form counts must agree with brute-force PE execution."""

    def _tensors(self, layer, rng, input_density, grad_density):
        x = rng.normal(size=(layer.in_channels, layer.in_height, layer.in_width))
        x *= rng.random(x.shape) < input_density
        w = rng.normal(size=(layer.out_channels, layer.in_channels, layer.kernel, layer.kernel))
        grad = rng.normal(size=(layer.out_channels, layer.out_height, layer.out_width))
        grad *= rng.random(grad.shape) < grad_density
        return x, w, grad

    def test_dense_forward_processed_operands_exact(self, small_conv_layer, rng):
        layer = small_conv_layer
        x, w, _ = self._tensors(layer, rng, 1.0, 1.0)
        # Make the input genuinely dense (no random zeros).
        x = rng.normal(size=x.shape) + 10.0
        pe = PE(zero_skipping=False)
        ops = decompose_forward(layer, x, w)
        measured = sum(pe.run(op)[1].processed_operands for op in ops)
        analytic = forward_counts(layer, LayerDensities.dense(), sparse=False)
        # The analytic window model counts the operand window per op; the PE
        # streams the whole padded row.  Both count the same ops and agree to
        # within the padded-row vs window difference.
        assert measured == pytest.approx(analytic.processed_operands, rel=0.05)

    def test_sparse_forward_processed_operands_close(self, small_conv_layer, rng):
        layer = small_conv_layer
        input_density = 0.4
        x, w, _ = self._tensors(layer, rng, input_density, 1.0)
        pe = PE(zero_skipping=True)
        ops = decompose_forward(layer, x, w)
        measured = sum(pe.run(op)[1].processed_operands for op in ops)
        from repro.sparsity.stats import density as measure_density

        analytic = forward_counts(
            layer,
            LayerDensities(input_density=measure_density(x)),
            sparse=True,
        )
        assert measured == pytest.approx(analytic.processed_operands, rel=0.15)

    def test_sparse_gta_macs_close(self, small_conv_layer, rng):
        layer = small_conv_layer
        x, w, grad = self._tensors(layer, rng, 0.5, 0.3)
        mask = rng.random((layer.in_channels, layer.in_height, layer.in_width)) < 0.5
        pe = PE(zero_skipping=True)
        ops = decompose_gta(layer, grad, w, mask)
        measured = sum(pe.run(op)[1].macs for op in ops)
        from repro.sparsity.stats import density as measure_density

        analytic = gta_counts(
            layer,
            LayerDensities(
                grad_output_density=measure_density(grad),
                mask_density=float(mask.mean()),
            ),
            sparse=True,
        )
        assert measured == pytest.approx(analytic.macs, rel=0.2)

    def test_sparse_gtw_processed_close(self, small_conv_layer, rng):
        layer = small_conv_layer
        x, w, grad = self._tensors(layer, rng, 0.5, 0.3)
        pe = PE(zero_skipping=True)
        ops = decompose_gtw(layer, grad, x)
        measured = sum(pe.run(op)[1].processed_operands for op in ops)
        from repro.sparsity.stats import density as measure_density

        analytic = gtw_counts(
            layer,
            LayerDensities(
                input_density=measure_density(x),
                grad_output_density=measure_density(grad),
            ),
            sparse=True,
        )
        assert measured == pytest.approx(analytic.processed_operands, rel=0.25)


class TestCompiler:
    def test_forward_program_structure(self):
        """The forward half: load, step, store, sync per layer, first to last."""
        spec = alexnet_cifar_spec()
        program = compile_training_iteration(spec)
        forward = program.instructions[: 4 * spec.num_conv_layers]
        for layer, quad in zip(spec.conv_layers, zip(*[iter(forward)] * 4)):
            load, step, store, sync = quad
            assert isinstance(load, LoadWeightsInstruction)
            assert load.words == layer.weight_count
            assert isinstance(step, StepInstruction) and step.step is StepKind.FORWARD
            assert step.layer_name == layer.name
            assert isinstance(store, StoreOutputInstruction)
            assert store.words == step.counts.dram_write_words
            assert isinstance(sync, SyncInstruction)

    def test_program_is_the_collected_stream(self):
        spec = alexnet_cifar_spec()
        densities = uniform_densities(spec, input_density=0.4, grad_output_density=0.1)
        program = compile_training_iteration(spec, densities)
        assert program.instructions == list(training_instructions(spec, densities))

    def test_training_program_order(self):
        spec = alexnet_cifar_spec()
        program = compile_training_iteration(spec)
        steps = program.step_instructions()
        forward_steps = [s for s in steps if s.step is StepKind.FORWARD]
        backward_steps = [s for s in steps if s.step is not StepKind.FORWARD]
        # Forward visits layers first-to-last; backward last-to-first.
        assert [s.layer_name for s in forward_steps] == [l.name for l in spec.conv_layers]
        assert backward_steps[0].layer_name == spec.conv_layers[-1].name
        assert backward_steps[-1].layer_name == spec.conv_layers[0].name
        # GTA comes before GTW for every layer.
        for first, second in zip(backward_steps[::2], backward_steps[1::2]):
            assert first.step is StepKind.GTA
            assert second.step is StepKind.GTW
            assert first.layer_name == second.layer_name

    def test_program_contains_loads_stores_syncs(self):
        program = compile_training_iteration(alexnet_cifar_spec())
        kinds = {type(inst) for inst in program.instructions}
        assert {LoadWeightsInstruction, StepInstruction, StoreOutputInstruction, SyncInstruction} <= kinds

    def test_dense_program_has_more_macs_than_sparse(self):
        spec = alexnet_cifar_spec()
        densities = uniform_densities(spec, input_density=0.4, grad_output_density=0.1)
        sparse = compile_training_iteration(spec, densities, sparse=True)
        dense = compile_training_iteration(spec, densities=None, sparse=False)
        assert sparse.total_macs() < dense.total_macs()

    def test_uniform_densities_keeps_first_layer_input_dense(self):
        spec = alexnet_cifar_spec()
        densities = uniform_densities(spec, input_density=0.3)
        assert densities["conv1"].input_density == 1.0
        assert densities["conv2"].input_density == 0.3

    def test_program_describe_and_lookup(self):
        spec = alexnet_cifar_spec()
        program = compile_training_iteration(spec)
        assert "AlexNet" in program.describe()
        assert program.instructions_for_layer("conv1")
        assert len(program) == len(program.instructions)
