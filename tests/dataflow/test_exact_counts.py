"""Exact FW/GTA/GTW counts of tiny, hand-checkable layers.

In the idiom of tinygrad's ``test_flopcounter``: take a layer small enough to
count by hand and assert its exact operand, MAC and word counts.  One formula
set serves the instruction-stream walk and the analytic tier's numpy columns,
so hand-derived literals, not a second implementation, pin the counts.  Each
case runs on one ``ConvLayerSpec`` with one ``LayerDensities`` (Python
numbers) and with one column of a 2-point ``DensityGrid``; both must equal
the literals with ``==``.  Densities 1.0 and 0.5 are exact in
binary, and so is every count below.

Notation: d is the density of every operand, cw(v) = 1.5 v compressed words
(two offsets per word), sf = 1 - (1 - d)^3 the 3-tap skip factor
(1 at d = 1, 0.875 at d = 0.5).

Layer ``single``: 1 -> 1 channel, 3x3, stride 1, padding 1, 4x4 input.
Output 4x4; padded row 6; weights 9; input and output size 16.

* FW:  row_ops = F*OH*(C/g)*K = 1*4*1*3 = 12.  processed = 12 * 4d;
  macs = 3 * processed; weight_loads = 12*3 = 36.  SRAM read = 12 * cw(4d)
  + 36 = 72d + 36; SRAM write = psum F*OH*OW (16) + cw(16d).  DRAM read =
  cw(16d) input; DRAM write = cw(16d) output.
* GTA: row_ops = C*H*(F/g)*K = 12.  With a ReLU mask (d_mask = d):
  processed = 12 * 4d * sf; macs = 12 * 4d * 3 * d; SRAM read = 12 * cw(4d)
  gradient + 12 * 4d / 2 mask + 36 weights = 96d + 36; SRAM write = psum
  C*H*W (16) + cw(16d); DRAM read = cw(16d) dO; DRAM write = cw(16d) dI.
  Without a mask (``CONV_ONLY``) d_mask = 1: sf = 1, macs = 12 * 4d * 3,
  and the 24d mask read is gone.
* GTW: row_ops = F*(C/g)*K*OH = 12.  processed = 12 * 4d * sf; macs =
  12 * 4d * 3 * d; no weight loads; SRAM read = 12 * cw(4d) input + 12 *
  cw(4d) gradient = 144d; SRAM write = 9 weight gradients; DRAM read =
  cw(16d) + cw(16d) = 48d; DRAM write = 9.

Dense dataflow (``sparse=False``, the baseline) on ``single`` ignores the
densities and streams the padded row where a sparse PE skips padding:

* FW:  processed = 12 * 6 = 72; macs = 216; SRAM read = 12*6 + 36 = 108;
  SRAM write = 16 + 16 = 32; DRAM read = DRAM write = 16.
* GTA: processed = 12 * 4 = 48; macs = 144; SRAM read = 12*4 + 36 = 84;
  SRAM write = 16 + 16 = 32; DRAM read = DRAM write = 16.
* GTW: processed = 12 * 6 = 72; macs = 216; SRAM read = 12*6 + 12*4 = 120;
  SRAM write = 9; DRAM read = 16 + 16 = 32; DRAM write = 9.

Layer ``depthwise``: 2 -> 2 channels in 2 groups (C/g = F/g = 1), otherwise
as ``single``.  Weights 18; input and output size 32.  Every row-op count
doubles to 24, and so does every per-row-op quantity: FW processed 96d,
SRAM read 144d + 72, SRAM write 32 + 48d; GTA processed 96d * sf, macs
288 d^2, SRAM read 192d + 72; GTW SRAM read 288d, SRAM write 18, DRAM read
96d, DRAM write 18; all DRAM activation traffic is cw(32d) = 48d.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytic.model import DensityGrid
from repro.dataflow.counts import LayerDensities, StepKind, layer_counts
from repro.models.spec import ConvLayerSpec, ConvStructure

FW, GTA, GTW = StepKind.FORWARD, StepKind.GTA, StepKind.GTW

FIELDS = (
    "row_ops",
    "processed_operands",
    "macs",
    "weight_loads",
    "sram_read_words",
    "sram_write_words",
    "dram_read_words",
    "dram_write_words",
)

#: The densities of the two grid points; a case names its point by index.
DENSITIES = (1.0, 0.5)

_GEOMETRY = dict(kernel=3, stride=1, padding=1, in_height=4, in_width=4)
LAYERS = {
    "single": ConvLayerSpec("single", 1, 1, **_GEOMETRY),
    "conv_only": ConvLayerSpec(
        "conv_only", 1, 1, **_GEOMETRY, structure=ConvStructure.CONV_ONLY
    ),
    "depthwise": ConvLayerSpec("depthwise", 2, 2, **_GEOMETRY, groups=2),
}

# (layer, sparse dataflow, density) -> step -> counts in FIELDS order.
EXPECTED = {
    ("single", True, 1.0): {
        FW: (12, 48, 144, 36, 108, 40, 24, 24),
        GTA: (12, 48, 144, 36, 132, 40, 24, 24),
        GTW: (12, 48, 144, 0, 144, 9, 48, 9),
    },
    ("single", True, 0.5): {
        FW: (12, 24, 72, 36, 72, 28, 12, 12),
        GTA: (12, 21, 36, 36, 84, 28, 12, 12),
        GTW: (12, 21, 36, 0, 72, 9, 24, 9),
    },
    ("conv_only", True, 1.0): {
        FW: (12, 48, 144, 36, 108, 40, 24, 24),
        GTA: (12, 48, 144, 36, 108, 40, 24, 24),
        GTW: (12, 48, 144, 0, 144, 9, 48, 9),
    },
    ("conv_only", True, 0.5): {
        FW: (12, 24, 72, 36, 72, 28, 12, 12),
        GTA: (12, 24, 72, 36, 72, 28, 12, 12),
        GTW: (12, 21, 36, 0, 72, 9, 24, 9),
    },
    ("depthwise", True, 1.0): {
        FW: (24, 96, 288, 72, 216, 80, 48, 48),
        GTA: (24, 96, 288, 72, 264, 80, 48, 48),
        GTW: (24, 96, 288, 0, 288, 18, 96, 18),
    },
    ("depthwise", True, 0.5): {
        FW: (24, 48, 144, 72, 144, 56, 24, 24),
        GTA: (24, 42, 72, 72, 168, 56, 24, 24),
        GTW: (24, 42, 72, 0, 144, 18, 48, 18),
    },
    ("single", False, 1.0): {
        FW: (12, 72, 216, 36, 108, 32, 16, 16),
        GTA: (12, 48, 144, 36, 84, 32, 16, 16),
        GTW: (12, 72, 216, 0, 120, 9, 32, 9),
    },
}


def _uniform(density: float) -> LayerDensities:
    return LayerDensities(density, density, density, density, density)


def _two_point_grid() -> DensityGrid:
    column = np.asarray(DENSITIES)[:, None]  # (points, 1)
    return DensityGrid(column, column, column, column, column)


@pytest.mark.parametrize("case", sorted(EXPECTED, key=repr), ids=repr)
class TestExactCounts:
    def test_one_layer(self, case):
        name, sparse, density = case
        counts = layer_counts(LAYERS[name], _uniform(density), sparse)
        for step, expected in EXPECTED[case].items():
            assert tuple(getattr(counts[step], f) for f in FIELDS) == expected, step

    def test_one_column_of_a_grid(self, case):
        name, sparse, density = case
        counts = layer_counts(LAYERS[name], _two_point_grid(), sparse)
        point = DENSITIES.index(density)
        for step, expected in EXPECTED[case].items():
            column = tuple(
                np.broadcast_to(getattr(counts[step], f), (len(DENSITIES), 1))[point, 0]
                for f in FIELDS
            )
            assert column == expected, step
