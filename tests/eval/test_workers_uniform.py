"""``--workers N`` must route through RunOptions for *every* experiment.

Historically only fig8/fig9 consumed ``RunOptions.max_workers``; the table2
grid trained serially no matter what the caller asked for.  These tests pin
the uniform contract: parallel and serial runs of the same request are
identical (every unit of work seeds its own RNG).  The ablation sweeps start
no workers (the engine evaluates on numpy columns), so for them the contract
is only that the option is accepted and changes nothing.
"""

from __future__ import annotations

from repro.api import ExperimentRequest, RunOptions, run_experiment
from repro.eval.common import ExperimentScale

SMOKE = ExperimentScale.preset("smoke")


def _run(experiment: str, params: dict, max_workers: int | None):
    request = ExperimentRequest(
        experiment=experiment, scale=SMOKE, params=params
    )
    return run_experiment(
        request,
        options=RunOptions(max_workers=max_workers, use_cache=False),
    )


class TestTable2Workers:
    PARAMS = {
        "models": ["AlexNet"],
        "datasets": ["CIFAR-10"],
        "pruning_rates": [None, 0.9],
    }

    def test_serial_and_parallel_grids_agree(self):
        serial = _run("table2", self.PARAMS, max_workers=None)
        parallel = _run("table2", self.PARAMS, max_workers=2)
        assert serial.payload["cells"] == parallel.payload["cells"]
        assert len(serial.payload["cells"]) == 2


class TestAblationWorkers:
    PARAMS = {"pruning_rates": [0.5, 0.9]}

    def test_serial_and_parallel_sweeps_agree(self):
        serial = _run("ablate-rate", self.PARAMS, max_workers=None)
        parallel = _run("ablate-rate", self.PARAMS, max_workers=2)
        assert serial.payload == parallel.payload
        assert len(serial.payload["points"]) == 2
