"""fig8/fig9 ``max_workers`` routing through the pipeline's ``Runner``.

Uses fixed hand-written densities (no training) so the tests are fast and
deterministic; serial and worker-pool runs must produce identical numbers.
"""

from __future__ import annotations

from repro.dataflow.counts import LayerDensities
from repro.eval.fig8 import run_fig8
from repro.eval.fig9 import run_fig9
from repro.sim.trace import MeasuredDensities

WORKLOADS = (("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10"))

_PROFILES = (
    dict(input_density=1.0, grad_output_density=0.3, mask_density=0.55,
         grad_input_density=0.5, output_density=0.55),
    dict(input_density=0.55, grad_output_density=0.2, mask_density=0.5,
         grad_input_density=0.4, output_density=0.5),
)


def _fixed_measured() -> dict[str, MeasuredDensities]:
    measured = {}
    for family in ("AlexNet", "ResNet"):
        names = tuple(f"{family}.layer{i}" for i in range(len(_PROFILES)))
        measured[family] = MeasuredDensities(
            layer_names=names,
            densities={
                name: LayerDensities(**profile)
                for name, profile in zip(names, _PROFILES)
            },
        )
    return measured


class TestWorkersRouting:
    def test_serial_and_parallel_fig8_agree(self):
        measured = _fixed_measured()
        serial = run_fig8(workloads=WORKLOADS, measured=measured)
        parallel = run_fig8(workloads=WORKLOADS, measured=measured, max_workers=2)
        assert serial.speedups == parallel.speedups
        assert [w.workload_name for w in serial.workloads] == [
            w.workload_name for w in parallel.workloads
        ]

    def test_fig9_forwards_workers(self):
        measured = _fixed_measured()
        serial = run_fig9(workloads=WORKLOADS, measured=measured)
        parallel = run_fig9(workloads=WORKLOADS, measured=measured, max_workers=2)
        assert serial.efficiencies == parallel.efficiencies
