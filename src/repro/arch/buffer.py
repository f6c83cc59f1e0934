"""Global SRAM buffer model.

The paper provisions a 386 KB SRAM global buffer "sufficient for storing data
used in each iteration" of the evaluated layers.  The Python model tracks two
things: the access count (every word read or written by the PE array costs
SRAM energy) and whether a layer's working set actually fits — when it does
not, the working set has to be streamed from DRAM in tiles and the weight
traffic multiplies accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.counts import LayerDensities, compressed_words
from repro.models.spec import ConvLayerSpec


@dataclass
class BufferStats:
    """Accumulated buffer activity in 16-bit words."""

    read_words: float = 0.0
    write_words: float = 0.0

    @property
    def total_words(self) -> float:
        return self.read_words + self.write_words


class GlobalBuffer:
    """Capacity accounting and access counting for the global SRAM buffer."""

    def __init__(self, capacity_words: int) -> None:
        if capacity_words <= 0:
            raise ValueError(f"capacity_words must be positive, got {capacity_words}")
        self.capacity_words = int(capacity_words)
        self.stats = BufferStats()

    def record_reads(self, words: float) -> None:
        """Count ``words`` read by the PE array."""
        if words < 0:
            raise ValueError(f"words must be non-negative, got {words}")
        self.stats.read_words += words

    def record_writes(self, words: float) -> None:
        """Count ``words`` written by the PPUs / DMA."""
        if words < 0:
            raise ValueError(f"words must be non-negative, got {words}")
        self.stats.write_words += words

    def reset(self) -> None:
        self.stats = BufferStats()

    # ------------------------------------------------------------------
    # Working-set / tiling analysis
    # ------------------------------------------------------------------
    def activation_words(
        self,
        layer: ConvLayerSpec,
        densities: LayerDensities,
        sparse: bool = True,
    ) -> float:
        """Words needed to hold one sample's activations (see :func:`activation_words`)."""
        return activation_words(layer, densities, sparse)

    def working_set_words(
        self,
        layer: ConvLayerSpec,
        densities: LayerDensities,
        sparse: bool = True,
    ) -> float:
        """Words needed to hold one sample's full working set (activations + weights)."""
        return activation_words(layer, densities, sparse) + layer.weight_count

    def fits(self, layer: ConvLayerSpec, densities: LayerDensities, sparse: bool = True) -> bool:
        """Whether the per-sample working set of ``layer`` fits in the buffer."""
        return self.working_set_words(layer, densities, sparse) <= self.capacity_words

    def weight_tiling_factor(
        self, layer: ConvLayerSpec, densities: LayerDensities, sparse: bool = True
    ) -> float:
        """How many times a layer's weights are re-fetched (see :func:`weight_tiling_factor`)."""
        return weight_tiling_factor(layer, densities, self.capacity_words, sparse)


# ----------------------------------------------------------------------
# Working-set formulas.  Like :mod:`repro.dataflow.counts` they are plain
# arithmetic, so they evaluate on one layer's Python numbers or element-wise
# on the analytic tier's numpy columns (``capacity_words`` may be a column).
# ----------------------------------------------------------------------

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
