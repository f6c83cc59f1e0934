"""Global SRAM buffer model: working set and weight tiling.

The paper provisions a 386 KB SRAM global buffer "sufficient for storing data
used in each iteration" of the evaluated layers.  The model asks whether a
layer's working set actually fits: when it does not, the activations are
streamed from DRAM in tiles and the weight traffic multiplies accordingly.
The buffer's access energy needs no model of its own — every step's SRAM
words are counted by :mod:`repro.dataflow.counts` and priced by the energy
model.

Like :mod:`repro.dataflow.counts`, the formulas are plain arithmetic, so they
evaluate on one layer's Python numbers or element-wise on numpy columns
(``capacity_words`` and the densities may be columns).
"""

from __future__ import annotations

from repro.dataflow.counts import LayerDensities, compressed_words
from repro.models.spec import ConvLayerSpec


def activation_words(
    layer: ConvLayerSpec, densities: LayerDensities, sparse: bool = True
) -> float:
    """Words needed to hold one sample's activations (input + output tile).

    Sparse tensors are stored compressed (values plus packed offsets,
    ~1.5 words per non-zero).
    """
    if sparse:
        return compressed_words(layer.input_size * densities.input_density) + compressed_words(
            layer.output_size * densities.output_density
        )
    return layer.input_size + layer.output_size


def weight_tiling_factor(
    layer: ConvLayerSpec, densities: LayerDensities, capacity_words, sparse: bool = True
) -> float:
    """How many times a layer's weights are re-fetched because of tiling.

    Weights are streamed through the buffer once as long as the layer's
    activations fit next to a reasonable weight tile.  When the
    activations themselves exceed the space left after reserving room for
    weights (at most half the buffer), they are processed in tiles and the
    weights must be re-read once per activation tile.  For the CIFAR and
    ImageNet geometries evaluated in the paper the per-sample activations
    comfortably fit the 386 KB buffer, so the factor is 1.0 — the paper's
    "sufficient for storing data used in each iteration" assumption — but
    the model degrades gracefully for buffer-size sweeps.

    The min/where/ceil are written as arithmetic selections (``s * a +
    (1 - s) * b`` with a bool ``s``) and floor division, so one layer's
    factor stays a Python float and a column's is a numpy column.
    """
    activation = activation_words(layer, densities, sparse)
    half = capacity_words / 2.0
    weights_small = layer.weight_count <= half
    weight_space = weights_small * layer.weight_count + (1 - weights_small) * half
    available = capacity_words - weight_space
    fits = activation <= available
    tiles = -(-(activation / available) // 1.0)  # ceil
    return fits * 1.0 + (1 - fits) * tiles
